"""Contour calculus on circles and rectangles.

Trapezoid quadrature on equispaced circle nodes (spectrally accurate for
integrands analytic in an annulus around the contour), Cauchy moments,
evaluation of singular parts, and zero counting/location by the argument
principle with adaptive refinement.  Functions passed in are vectorized: they
take an array of points and return values with the points' shape leading.

Every zero count reads ``(phase, logabs)`` samples, ``q/|q|`` and ``log|q|``, in
``_winding``: a counted function may return that pair, as the ``slogdet``
samplers do, or plain values.  So counts are scale-free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    InputError,
    NumericalError,
    RegionError,
    ResolutionError,
    ZeroOnContourError,
)

# Relative modulus floor below which a contour is treated as hitting a zero.
MIN_MODULUS_FACTOR = 1e-12
# Node budget for adaptive winding refinement.
MAX_WINDING_NODES = 2 ** 14
# Largest admissible angle step between consecutive image points.
MAX_PHASE_STEP = np.pi / 2
# Quadrisection depth before a box is reported unresolved.
MAX_LOCATE_DEPTH = 40
# Centroid refinement: nodes per circle, moment iterations, and the step,
# relative to the location scale, at which the centroid counts as converged.
REFINE_NODES = 256
REFINE_MAX_ITER = 12
REFINE_REL_TOL = 1e-13
# Read-only arrays kept: Cauchy kernels per (carrier, target) circle pair, and
# unit roots per node count.
CACHE_SIZE = 32


@dataclass(frozen=True)
class Circle:
    """Positively oriented circle with equispaced quadrature nodes.

    Nodes are exactly ``center + radius * exp(2j*pi*t/node_count)`` for
    ``t = 0, ..., node_count - 1``.
    """

    center: complex
    radius: float
    node_count: int = 128

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise InputError(f"circle radius must be positive, got {self.radius}")
        if self.node_count < 16:
            raise InputError(f"node_count must be at least 16, got {self.node_count}")

    @property
    def unit(self) -> np.ndarray:
        """exp(i theta_t) at the nodes, read-only."""
        return _unit_roots(self.node_count)

    @property
    def nodes(self) -> np.ndarray:
        return self.center + self.radius * self.unit

    def path(self, node_count: int) -> np.ndarray:
        """Nodes of the same circle at another node count; at twice the count, the
        even entries are this circle's nodes bit for bit."""
        return Circle(self.center, self.radius, node_count).nodes


@functools.lru_cache(maxsize=CACHE_SIZE)
def _unit_roots(node_count: int) -> np.ndarray:
    unit = np.exp(1j * (2.0 * np.pi * np.arange(node_count) / node_count))
    unit.flags.writeable = False
    return unit


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle ``[re_min, re_max] x [im_min, im_max]``."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InputError("rectangle bounds must satisfy re_min < re_max, im_min < im_max")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.width, self.height))

    @property
    def corners(self) -> list[complex]:
        return [
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        ]

    def split(self, fx: float, fy: float) -> list["Rectangle"]:
        xm = self.re_min + fx * self.width
        ym = self.im_min + fy * self.height
        return [
            Rectangle(self.re_min, xm, self.im_min, ym),
            Rectangle(xm, self.re_max, self.im_min, ym),
            Rectangle(self.re_min, xm, ym, self.im_max),
            Rectangle(xm, self.re_max, ym, self.im_max),
        ]


class SampledFunction:
    """Values of a function on the nodes of a circle.

    ``values`` has shape ``(node_count, ...)``; trailing axes hold vector or
    matrix values.
    """

    def __init__(self, circle: Circle, values):
        values = np.asarray(values, dtype=complex)
        if values.shape[0] != circle.node_count:
            raise InputError(
                f"sample count {values.shape[0]} does not match node_count {circle.node_count}"
            )
        if not np.all(np.isfinite(values)):
            raise InputError("samples contain non-finite values")
        self.circle = circle
        self.values = values

    @classmethod
    def from_function(cls, f: Callable, circle: Circle) -> "SampledFunction":
        values = eval_along(f, circle.nodes)
        return cls(circle, values)

    @property
    def value_shape(self):
        return self.values.shape[1:]


def eval_along(f: Callable, points: np.ndarray):
    """Evaluate a vectorized ``f`` on an array of points in one call.

    ``f`` maps the points array to values whose leading axes have the points'
    shape, or to a ``(phase, logabs)`` pair of such arrays, returned as a
    complex and a real array; errors raised by ``f`` propagate.
    """
    points = np.asarray(points)
    out = f(points)
    pair = isinstance(out, tuple)
    parts = [np.asarray(v, dtype=t) for v, t in zip(out if pair else [out], (complex, float))]
    for values in parts:
        if values.shape[: points.ndim] != points.shape:
            raise InputError(f"function returned shape {values.shape} on points of shape {points.shape}")
    return tuple(parts) if pair else parts[0]


def cauchy_moment(f: SampledFunction, p):
    """Centered moment ``(1/2pi i) \\oint (zeta - c)^p f(zeta) dzeta``, the trapezoid
    sum ``(r^{p+1}/N) sum_t u_t^{p+1} f_t`` with ``u_t = exp(i theta_t)``.

    ``p`` is an integer or a 1-D array of integers, which becomes the leading
    axis of the result.  For ``p >= 0`` the moment is exact for ``f``
    meromorphic with poles inside the circle; order ``-p-1`` is the Taylor
    coefficient ``f^(p)(c)/p!`` of ``f`` holomorphic on the closed disc.  Both
    hold up to the trapezoid truncation, which decays geometrically in the
    node count.
    """
    k = np.asarray(p)
    if k.ndim > 1 or k.dtype.kind not in "iu":
        raise InputError(f"moment order must be an integer or a 1-D array of integers, got {p}")
    c = f.circle
    k = k + 1
    sums = np.tensordot(c.unit ** k[..., None], f.values, axes=(-1, 0))
    # transposed, the order axis is last, where the scale of each order broadcasts
    return (c.radius ** k * sums.T).T / c.node_count


def singular_part_eval(f: SampledFunction, sigma):
    """Evaluate the singular part of ``f`` at points outside the carrier circle.

    The singular part is ``(i/2pi) \\oint f(zeta) / (zeta - sigma) dzeta`` with
    the circle positively oriented; it reproduces ``f`` when ``f`` is rational,
    vanishes at infinity and has all poles inside, and annihilates functions
    holomorphic on the closed disc.  ``sigma`` may be a ``Circle``: its nodes
    are the points, and the Cauchy kernel of the two circles is cached.
    """
    c = f.circle
    if isinstance(sigma, Circle):
        scalar_input = False
        kernel = _circle_kernel(c, sigma)
    else:
        sig = np.asarray(sigma, dtype=complex)
        scalar_input = sig.ndim == 0
        kernel = _cauchy_kernel(c, np.atleast_1d(sig))
    out = -(c.radius / c.node_count) * np.tensordot(kernel, f.values, axes=(0, 0))
    if scalar_input:
        out = out[0]
    return out


def _cauchy_kernel(c: Circle, sig: np.ndarray) -> np.ndarray:
    """``kernel[t, j] = e^{i theta_t} / (zeta_t - sigma_j)`` from carrier nodes to points outside."""
    if np.any(np.abs(sig - c.center) <= c.radius):
        raise RegionError("singular part evaluation requires |sigma - center| > radius")
    return c.unit[:, None] / (c.nodes[:, None] - sig[None, :])


@functools.lru_cache(maxsize=CACHE_SIZE)
def _circle_kernel(carrier: Circle, target: Circle) -> np.ndarray:
    kernel = _cauchy_kernel(carrier, target.nodes)
    kernel.flags.writeable = False
    return kernel


@dataclass(frozen=True)
class LocatedZero:
    location: complex
    multiplicity: int


@dataclass(frozen=True)
class UnresolvedCluster:
    box: Rectangle
    count: int


@dataclass
class ZeroReport:
    """Outcome of zero location inside a rectangle.

    ``zeros`` carries refined locations with multiplicities; ``unresolved``
    carries boxes whose contents could not be separated within the budget.
    The multiplicities and unresolved counts sum to ``total_count``.
    """

    region: Rectangle
    total_count: int
    zeros: list = field(default_factory=list)
    unresolved: list = field(default_factory=list)

    @property
    def resolved_count(self) -> int:
        return sum(z.multiplicity for z in self.zeros)

    @property
    def consistent(self) -> bool:
        return self.resolved_count + sum(u.count for u in self.unresolved) == self.total_count

    def to_dict(self) -> dict:
        return {
            "region": [self.region.re_min, self.region.re_max, self.region.im_min, self.region.im_max],
            "total_count": self.total_count,
            "zeros": [
                {"re": z.location.real, "im": z.location.imag, "multiplicity": z.multiplicity}
                for z in self.zeros
            ],
            "unresolved": [
                {
                    "box": [u.box.re_min, u.box.re_max, u.box.im_min, u.box.im_max],
                    "count": u.count,
                }
                for u in self.unresolved
            ],
        }


def _samples(q: Callable, points: np.ndarray):
    """``(phase, logabs)`` of ``q`` at the points from one ``eval_along`` call: a
    pair is read as it is, values ``v`` become ``v/|v|`` and ``log|v|``."""
    out = eval_along(q, points)
    if isinstance(out, tuple):
        return out
    mods = np.abs(out)
    with np.errstate(divide="ignore", invalid="ignore"):
        return out / mods, np.log(mods)


def _winding(phase: np.ndarray, logabs: np.ndarray):
    """Winding number of a closed loop of ``(phase, logabs)`` samples, or None when
    too coarse to tell (a complex-log step ``hypot(d arg q, d log|q|)`` of pi/2 or
    more, or no whole turn).  Raises on a non-finite sample, and on a zero near the
    contour: a modulus below ``MIN_MODULUS_FACTOR`` times the largest one of the loop."""
    if phase.ndim != 1:
        raise InputError("winding counts expect a scalar-valued function")
    if not np.all(logabs < np.inf):
        raise NumericalError("non-finite values encountered on the contour")
    lo, hi = logabs.min(), logabs.max()
    if hi == -np.inf or lo < hi + np.log(MIN_MODULUS_FACTOR):
        raise ZeroOnContourError(f"zero too close to contour: log |q| from {lo:.3e} to {hi:.3e}")
    steps = np.angle(np.roll(phase, -1) / phase)
    if np.max(np.hypot(steps, np.roll(logabs, -1) - logabs)) < MAX_PHASE_STEP:
        w = steps.sum() / (2.0 * np.pi)
        if abs(w - round(w)) < 0.05:
            return int(round(w))
    return None


def _continued_winding(q: Callable, path: Callable, phase: np.ndarray, logabs: np.ndarray) -> int:
    """Winding number of ``q`` along ``path`` from its ``(phase, logabs)`` samples at
    ``path(n)``.  While ``_winding`` cannot resolve the loop, ``q`` is sampled at the
    n midpoints only, the odd entries of ``path(2n)``, and interleaved with the
    samples held, up to ``MAX_WINDING_NODES``, after which a resolution error is raised.
    """
    while (w := _winding(phase, logabs)) is None:
        n = len(phase)
        if n >= MAX_WINDING_NODES:
            raise ResolutionError(f"winding number did not stabilize within {MAX_WINDING_NODES} nodes")
        mid = _samples(q, path(2 * n)[1::2])
        phase, logabs = (np.stack(pair, axis=1).ravel() for pair in zip((phase, logabs), mid))
    return w


def winding_number(q: Callable, path: Callable, initial_nodes: int) -> int:
    """Winding number of ``q`` along a closed path by accumulated argument increments.

    ``path`` maps a node count n to the n nodes of the loop in order, and
    ``path(2n)[::2]`` must equal ``path(n)``.  Node count starts at
    ``initial_nodes``, at least 16, and doubles, sampling only the new nodes,
    until ``_winding`` resolves the loop (see ``_continued_winding``).
    """
    n = int(initial_nodes)
    if n < 16:
        raise InputError(f"node_count must be at least 16, got {initial_nodes}")
    return _continued_winding(q, path, *_samples(q, path(n)))


def _rectangle_path(rect: Rectangle) -> Callable:
    corners = np.array(rect.corners + [rect.corners[0]])

    def path(n):
        t = np.arange(n) / n
        edge = np.minimum((t * 4).astype(int), 3)
        local = t * 4 - edge
        a = corners[edge]
        b = corners[edge + 1]
        return a + (b - a) * local

    return path


def count_zeros(q: Callable, circle: Circle) -> int:
    """Number of zeros of ``q`` inside the circle, counted with multiplicity."""
    return winding_number(q, circle.path, circle.node_count)


def count_zeros_rectangle(q: Callable, rect: Rectangle, initial_nodes: int = 64) -> int:
    return winding_number(q, _rectangle_path(rect), initial_nodes)


# Candidate cut positions when a subdivision line passes too close to a zero.
# A zero sitting exactly on a cut line can split its winding between the two
# adjacent children without tripping the modulus guard (the per-child counts
# are then integers for even multiplicity), so later rounds shift both cuts
# off the midlines and results are cross-checked by recounting each reported
# zero on its own circle.
_OFFSET_ROUNDS = [
    [
        (0.5, 0.5), (0.55, 0.5), (0.5, 0.55), (0.45, 0.5), (0.5, 0.45),
        (0.55, 0.55), (0.45, 0.45), (0.6, 0.5), (0.5, 0.6), (0.4, 0.5),
        (0.5, 0.4), (0.575, 0.425),
    ],
    [
        (0.55, 0.55), (0.45, 0.45), (0.55, 0.45), (0.45, 0.55),
        (0.6, 0.6), (0.4, 0.4), (0.625, 0.575), (0.375, 0.425),
        (0.6, 0.4), (0.4, 0.6), (0.55, 0.6), (0.45, 0.4),
    ],
    [
        (0.525, 0.575), (0.475, 0.425), (0.575, 0.475), (0.425, 0.525),
        (0.65, 0.6), (0.35, 0.4), (0.6, 0.65), (0.4, 0.35),
        (0.65, 0.35), (0.35, 0.65), (0.55, 0.35), (0.45, 0.65),
    ],
]


def _fourier_derivative(values: np.ndarray) -> np.ndarray:
    """d/dtheta of a periodic sample sequence via the trigonometric interpolant."""
    n = len(values)
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(np.fft.fft(values) * 1j * k)


def refine_cluster(
    q: Callable,
    center: complex,
    radius: float,
    count: int,
) -> complex:
    """Refine the centroid of the zeros enclosed by a circle.

    Uses the derivative-free first moment ``(1/2pi i) \\oint sigma q'/q dsigma``
    divided by the count; ``q'`` on the contour comes from the trigonometric
    interpolant of the samples, so no derivative of ``q`` is required.  The
    circle recenters and shrinks as the estimate converges.
    """
    if count < 1:
        raise InputError("refine_cluster requires a positive zero count")
    scale = max(1.0, abs(center), radius)
    moments = 0
    for _ in range(REFINE_MAX_ITER):
        w, values, circ = _counted_circle(q, center, radius)
        if w != count:
            # enclosed set changed: shrink if we swallowed a neighbor, grow if we lost one
            radius = radius * (0.7 if w > count else 1.35)
            continue
        derivative = _fourier_derivative(values)
        # moment of sigma q'/q in the theta parametrization; dividing by i
        # undoes the 1/(2 pi i) normalization folded into the mean
        s1 = np.mean(circ.nodes * derivative / values) / 1j
        moments += 1
        new_center = s1 / count
        delta = abs(new_center - center)
        center = complex(new_center)
        if delta < REFINE_REL_TOL * scale:
            break
        radius = max(4.0 * delta, radius * 0.25, 1e-10 * scale)
    if moments == 0:
        raise ResolutionError(
            f"no circle around {center} encloses exactly {count} zeros"
        )
    return center


def _counted_circle(q, center, radius):
    """``(count, samples scaled to largest modulus one, circle)``; the radius is nudged off
    grazed zeros, and a loop the samples cannot resolve is continued at its midpoints."""
    for attempt in range(6):
        circ = Circle(center, radius, REFINE_NODES)
        try:
            phase, logabs = _samples(q, circ.nodes)
            w = _continued_winding(q, circ.path, phase, logabs)
            return w, phase * np.exp(logabs - logabs.max()), circ
        except ZeroOnContourError:
            radius *= 1.17
    raise ZeroOnContourError("could not place a zero-free refinement circle")


def _verify_location(q, loc: complex, mult: int, min_separation: float) -> bool:
    """Recount the zeros on a small circle around a reported location."""
    radius = 0.6 * min_separation
    for _ in range(3):
        try:
            return count_zeros(q, Circle(loc, radius, 64)) == mult
        except (ZeroOnContourError, ResolutionError):
            radius *= 1.13
    return False


def _locate_round(
    q: Callable,
    region: Rectangle,
    total: int,
    min_separation: float,
    initial_nodes: int,
    offsets,
) -> ZeroReport:
    report = ZeroReport(region=region, total_count=total)
    stack = [(region, total, MAX_LOCATE_DEPTH)]
    while stack:
        box, w, depth = stack.pop()
        if w == 0:
            continue
        if box.diameter < min_separation:
            try:
                loc = refine_cluster(q, box.center, 0.75 * box.diameter, w)
            except NumericalError:
                report.unresolved.append(UnresolvedCluster(box, w))
                continue
            if _verify_location(q, loc, w, min_separation):
                report.zeros.append(LocatedZero(loc, w))
            else:
                report.unresolved.append(UnresolvedCluster(box, w))
            continue
        if depth <= 0:
            report.unresolved.append(UnresolvedCluster(box, w))
            continue
        placed = False
        for fx, fy in offsets:
            children = box.split(fx, fy)
            try:
                counts = [count_zeros_rectangle(q, child, initial_nodes) for child in children]
            except (ZeroOnContourError, ResolutionError):
                continue
            if sum(counts) != w:
                continue
            for child, cw in zip(children, counts):
                if cw > 0:
                    stack.append((child, cw, depth - 1))
            placed = True
            break
        if not placed:
            report.unresolved.append(UnresolvedCluster(box, w))
    report.zeros.sort(key=lambda z: (round(z.location.real, 12), round(z.location.imag, 12)))
    return report


def locate_zeros(
    q: Callable,
    region: Rectangle,
    min_separation: float,
    initial_nodes: int = 64,
) -> ZeroReport:
    """Locate the zeros of ``q`` inside a rectangle.

    The rectangle is quadrisected recursively, discarding boxes of winding
    number zero, until boxes are smaller than ``min_separation``; each final
    box is refined by the first-moment formula and the result is verified by
    recounting on its own circle.  Zeros closer together than
    ``min_separation`` are reported as a single location with the combined
    multiplicity.  If a round leaves unresolved boxes (typically a zero lying
    exactly on a cut line), the subdivision reruns with shifted cut offsets;
    whatever ends up unresolved in the best round is reported as such.

    ``q`` must be evaluable on a neighborhood of the closed region, and no
    zero may lie within ``min_separation / 4`` of the region boundary.
    """
    if min_separation <= 0:
        raise InputError("min_separation must be positive")
    total = count_zeros_rectangle(q, region, initial_nodes)
    if total == 0:
        return ZeroReport(region=region, total_count=total)
    best = None
    for offsets in _OFFSET_ROUNDS:
        report = _locate_round(q, region, total, min_separation, initial_nodes, offsets)
        if not report.unresolved:
            return report
        if best is None or len(report.unresolved) < len(best.unresolved):
            best = report
    return best
