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
# Nodes at which every zero count starts: a count that cannot tell its winding
# continues at the midpoints of the samples it holds, so a larger start only costs nodes.
COUNT_NODES = 64
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
# Unit-root arrays kept, read-only, one per node count.
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

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The nodes, formed once per circle, read-only."""
        nodes = self.center + self.radius * self.unit
        nodes.flags.writeable = False
        return nodes

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
    c, n = f.circle, f.circle.node_count
    k = k + 1
    sums = (c.unit ** k[..., None] @ f.values.reshape(n, -1)).reshape(k.shape + f.value_shape)
    # transposed, the order axis is last, where the scale of each order broadcasts
    return (c.radius ** k * sums.T).T / n


def singular_part_eval(f: SampledFunction, sigma):
    """Evaluate the singular part of ``f`` at points outside the carrier circle: the Laurent
    sum ``sum_{k>=1} M_{k-1} (sigma - c)^{-k}`` of the ``cauchy_moment``s ``M_m`` of ``f``.

    It reproduces ``f`` when ``f`` is rational, vanishes at infinity and has all poles
    inside, and annihilates functions holomorphic on the closed disc.  ``sigma`` may be a
    ``Circle``: its nodes are the points.  Of N samples, the orders below ``(N-1)//2`` are
    kept, the half-spectrum of ``singular_part_at_nodes``: the trapezoid rule aliases the
    holomorphic part into the orders above.  Scaled to ``M_{k-1} / rho^k``, they are the
    moments on the unit circle, summed by Horner's rule in ``z = rho / (sigma - c)``, |z| < 1.
    """
    c = f.circle
    sig = np.asarray(sigma.nodes if isinstance(sigma, Circle) else sigma, dtype=complex)
    pts = np.atleast_1d(sig)
    if np.any(np.abs(pts - c.center) <= c.radius):
        raise RegionError("singular part evaluation requires |sigma - center| > radius")
    coeffs = cauchy_moment(SampledFunction(Circle(0.0, 1.0, c.node_count), f.values), np.arange((c.node_count - 1) // 2))
    z = (c.radius / (pts - c.center)).reshape(pts.shape + (1,) * len(f.value_shape))
    out = np.zeros(pts.shape + f.value_shape, dtype=complex)
    for a in coeffs[::-1]:
        out = (out + a) * z
    return out[0] if sig.ndim == 0 else out


def singular_part_at_nodes(values: np.ndarray) -> np.ndarray:
    """The singular part of a function sampled on the N equispaced nodes of a circle, at those
    nodes: the negative-frequency half of the samples' discrete Fourier transform along the node
    axis, the Laurent projection (Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458).

    On the circle, the singular part of ``f`` is the sum of its Laurent terms of negative
    order, which the samples give up to aliasing that decays geometrically in N.  The
    projection annihilates functions holomorphic on the closed disc; the circle's centre
    and radius do not enter.
    """
    coeffs = np.fft.fft(values, axis=0)
    coeffs[: len(coeffs) // 2 + 1] = 0
    return np.fft.ifft(coeffs, axis=0)


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


def _polar(v: np.ndarray) -> tuple:
    """``(phase, log-modulus)`` of complex values, the phase read componentwise as LAPACK's
    ``slogdet`` reads its pivot, and 0 where the value is."""
    mod = np.hypot(v.real, v.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mod > 0, v.real / mod + 1j * (v.imag / mod), 0), np.log(mod)


def _samples(q: Callable, points: np.ndarray):
    """``(phase, logabs)`` of ``q`` at the points from one ``eval_along`` call: a
    pair is read as it is, values become their ``_polar`` form."""
    out = eval_along(q, points)
    return out if isinstance(out, tuple) else _polar(out)


def _windings(phase: np.ndarray, logabs: np.ndarray) -> list:
    """Winding numbers of closed loops of ``(phase, logabs)`` samples, one loop per row, in one
    pass: per loop an int, None when too coarse to tell (a complex-log step ``hypot(d arg q,
    d log|q|)`` of pi/2 or more, or no whole turn), or the error it raises, for a non-finite
    sample or a zero near the contour: a modulus below ``MIN_MODULUS_FACTOR`` times the largest
    one of the loop.  A loop's entry does not depend on the other rows."""
    if phase.ndim != 2:
        raise InputError("winding counts expect a scalar-valued function")
    # NaN propagates through min and max, so a loop is finite where its largest modulus is
    lo, hi = logabs.min(axis=1), logabs.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # each sample against the next one around the loop
        steps = np.angle(np.concatenate([phase[:, 1:], phase[:, :1]], axis=1) / phase)
        jumps = np.hypot(steps, np.concatenate([logabs[:, 1:], logabs[:, :1]], axis=1) - logabs)
        turns = steps.sum(axis=1) / (2.0 * np.pi)
        whole = np.rint(turns)
        resolved = (jumps.max(axis=1) < MAX_PHASE_STEP) & (np.abs(turns - whole) < 0.05)
    failed = ~np.isfinite(hi) | (lo < hi + np.log(MIN_MODULUS_FACTOR))
    out = [int(w) if ok else None for w, ok in zip(whole.tolist(), resolved.tolist())]
    for i in [i for i, bad in enumerate(failed.tolist()) if bad]:
        out[i] = (
            ZeroOnContourError(f"zero too close to contour: log |q| from {lo[i]:.3e} to {hi[i]:.3e}")
            if hi[i] < np.inf
            else NumericalError("non-finite values encountered on the contour")
        )
    return out


def _winding(phase: np.ndarray, logabs: np.ndarray):
    """``_windings`` of one loop: its winding number or None, or its error raised."""
    w = _windings(phase[None], logabs[None])[0]
    if isinstance(w, Exception):
        raise w
    return w


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


def winding_number(q: Callable, path: Callable, node_count: int) -> int:
    """Winding number of ``q`` along a closed path by accumulated argument increments.

    ``path`` maps a node count n to the n nodes of the loop in order, and
    ``path(2n)[::2]`` must equal ``path(n)``.  Node count starts at
    ``node_count``, at least 16, and doubles, sampling only the new nodes,
    until ``_winding`` resolves the loop (see ``_continued_winding``).
    """
    n = int(node_count)
    if n < 16:
        raise InputError(f"node_count must be at least 16, got {node_count}")
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


def count_zeros_rectangle(q: Callable, rect: Rectangle) -> int:
    return winding_number(q, _rectangle_path(rect), COUNT_NODES)


# Cut offsets a box tries in turn.  A zero on a cut line can split its winding between two
# children without tripping the modulus guard, so the later cuts move off the midlines.
_OFFSETS = ((0.5, 0.5), (0.55, 0.5), (0.55, 0.55), (0.45, 0.45), (0.6, 0.4))


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

    Each step moves the centre to ``c + r p_1 / count``, with ``p_1`` the first of the
    circle's ``_power_sums``, so no derivative of ``q`` is required; the circle
    recenters and shrinks as the estimate converges.  The centroid is returned once a
    step falls below ``REFINE_REL_TOL`` of the scale; a resolution error is raised
    when ``REFINE_MAX_ITER`` circles do not get there.
    """
    if count < 1:
        raise InputError("refine_cluster requires a positive zero count")
    scale = max(1.0, abs(center), radius)
    for _ in range(REFINE_MAX_ITER):
        w, circ, phase, logabs = _counted_circle(q, center, radius)
        if w != count:
            # enclosed set changed: shrink if we swallowed a neighbor, grow if we lost one
            radius = radius * (0.7 if w > count else 1.35)
            continue
        new_center = complex(circ.center + circ.radius * _power_sums(circ, phase, logabs, 1)[0] / count)
        delta = abs(new_center - center)
        center = new_center
        if delta < REFINE_REL_TOL * scale:
            return center
        radius = max(4.0 * delta, radius * 0.25, 1e-10 * scale)
    raise ResolutionError(f"the centroid of {count} zeros near {center} did not converge in {REFINE_MAX_ITER} circles")


def _power_sums(circle: Circle, phase: np.ndarray, logabs: np.ndarray, count: int) -> np.ndarray:
    """Power sums ``p_1 .. p_count`` of the zeros of q inside a circle in ``(sigma - c)/r``, from
    its ``(phase, logabs)`` samples on the nodes: moments of q'/q, with q' from the trigonometric
    interpolant of the samples scaled to largest modulus one."""
    values = phase * np.exp(logabs - logabs.max())
    # dq/dtheta = q'(sigma) i r u, so q'/q is the sampled ratio over i r u
    ratio = SampledFunction(circle, _fourier_derivative(values) / (1j * circle.radius * circle.unit * values))
    orders = np.arange(1, count + 1)
    return cauchy_moment(ratio, orders) / circle.radius ** orders


def _row_key(z: LocatedZero) -> tuple:
    """Sort key of zero rows: real part, then imaginary part, each rounded to 12 decimals."""
    return round(z.location.real, 12), round(z.location.imag, 12)


def circle_zeros(circle: Circle, phase: np.ndarray, logabs: np.ndarray, count: int, min_separation: float) -> list:
    """The ``count`` zeros of q inside a circle from its ``(phase, logabs)`` samples on the
    nodes, sorted like ``locate_zeros`` rows.  Their ``_power_sums`` give their monic
    polynomial by Newton's identities; roots closer than ``min_separation`` merge into one
    ``LocatedZero`` at their mean, which is well conditioned, with the group's size as
    multiplicity."""
    sums = _power_sums(circle, phase, logabs, count)
    coeffs = [1.0 + 0j]
    for k in range(1, count + 1):
        coeffs.append(-np.dot(coeffs[::-1], sums[:k]) / k)
    roots = circle.center + circle.radius * np.roots(coeffs)
    # roots joined by a chain of close pairs form one group, labelled by its first root
    near = np.abs(roots[:, None] - roots) < min_separation
    for _ in range(count):
        near = near @ near
    first = near.argmax(axis=1)
    zeros = [LocatedZero(complex(np.mean(roots[first == i])), int(np.sum(first == i))) for i in np.unique(first)]
    return sorted(zeros, key=_row_key)


def _counted_circle(q, center, radius):
    """``(count, circle, phase, logabs)`` of the refinement circle and q's samples on its nodes;
    the radius is nudged off grazed zeros, and a loop the samples cannot resolve is continued at
    its midpoints."""
    for attempt in range(6):
        circ = Circle(center, radius, REFINE_NODES)
        try:
            phase, logabs = _samples(q, circ.nodes)
            return _continued_winding(q, circ.path, phase, logabs), circ, phase, logabs
        except ZeroOnContourError:
            radius *= 1.17
    raise ZeroOnContourError("could not place a zero-free refinement circle")


def _verify_location(q, loc: complex, mult: int, separation: float) -> bool:
    """Recount the zeros on a circle of radius 0.6 separation around a reported location."""
    radius = 0.6 * separation
    for _ in range(3):
        try:
            return count_zeros(q, Circle(loc, radius, COUNT_NODES)) == mult
        except (ZeroOnContourError, ResolutionError):
            radius *= 1.13
    return False


def _resolved(q, box: Rectangle, w: int, separation: float, min_separation: float, depth: int):
    """``(rows, unresolved)`` of the ``w`` zeros in a box, as ``locate_zeros`` describes."""
    if box.diameter < separation:
        try:
            loc = refine_cluster(q, box.center, 0.75 * box.diameter, w)
        except NumericalError:
            loc = None
        # the centroid of the zeros in a convex box lies in it: one outside is another box's
        slack = 1e-12 * max(1.0, abs(box.center), box.diameter)
        if (loc is not None
                and box.re_min - slack <= loc.real <= box.re_max + slack
                and box.im_min - slack <= loc.imag <= box.im_max + slack
                and _verify_location(q, loc, w, separation)):
            return [LocatedZero(loc, w)], []
        if separation <= min_separation / 8:
            return [], [UnresolvedCluster(box, w)]
        return _resolved(q, box, w, separation / 2, min_separation, depth)
    if depth <= 0:
        return [], [UnresolvedCluster(box, w)]
    best = None
    for fx, fy in _OFFSETS:
        children = box.split(fx, fy)
        try:
            counts = [count_zeros_rectangle(q, child) for child in children]
        except (ZeroOnContourError, ResolutionError):
            continue
        if sum(counts) != w:
            continue
        rows, unresolved = [], []
        for child, cw in zip(children, counts):
            if cw > 0:
                r, u = _resolved(q, child, cw, separation, min_separation, depth - 1)
                rows += r
                unresolved += u
        if best is None or sum(u.count for u in unresolved) < sum(u.count for u in best[1]):
            best = rows, unresolved
        if not unresolved or not min_separation <= box.diameter < 2 * min_separation:
            break
    return best or ([], [UnresolvedCluster(box, w)])


def locate_zeros(q: Callable, region: Rectangle, min_separation: float) -> ZeroReport:
    """Locate the zeros of ``q`` inside a rectangle.

    Boxes are quadrisected recursively, discarding boxes of winding number zero,
    until they are smaller than the separation, which starts at ``min_separation``.
    Every count, of a box or of a recount circle, starts at ``COUNT_NODES``.
    A box is cut at the first of ``_OFFSETS`` whose four child counts add up to its
    own count.  A final box is refined by ``refine_cluster``; its converged centroid
    becomes one row, with the box's count as multiplicity, when it lies in the box
    and a recount on a circle of radius 0.6 separation around it sees that count.
    A final box that fails, as when a neighbouring zero lies in that circle, is
    resolved again at half the separation, down to ``min_separation / 8``; one that
    fails there is unresolved, as are two zeros in different final boxes less than
    0.6 min_separation / 8 apart.  A box from one to two ``min_separation`` across
    whose children leave a box unresolved cuts again at its next offset, and keeps
    the cut that leaves the fewest zeros unresolved, which may put such a pair in
    one final box.  Only those boxes retry, so a final box that always fails costs
    a bounded number of counts.

    ``q`` must be evaluable on a neighborhood of the closed region, and no
    zero may lie within ``min_separation / 4`` of the region boundary.
    """
    if min_separation <= 0:
        raise InputError("min_separation must be positive")
    total = count_zeros_rectangle(q, region)
    report = ZeroReport(region=region, total_count=total)
    if total > 0:
        report.zeros, report.unresolved = _resolved(q, region, total, min_separation, min_separation, MAX_LOCATE_DEPTH)
        report.zeros.sort(key=_row_key)
    return report
