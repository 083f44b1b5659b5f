"""Parameter sweeps, branching diagrams, and trace expansions.

This is the driver layer: it strings together reduction, canonical root
systems, frames and pairing over a parameter grid, tracks smoothness of the
outputs through second divided differences, and converts pole germs into
trace expansions (and back).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contour import SampledFunction, cauchy_moment, circle_zeros
from .errors import (
    ClusteredPolesError,
    DimensionJumpError,
    InputError,
    KernelBundleError,
    NumericalError,
    ReductionInvalidError,
    SpecError,
    ValidationError,
)
from .family import FamilyChart, SturmLiouvilleSpec, _check_keys, _checked_kind, _integer, family_from_dict
from .frames import Germ, _held_factors, cluster_stacks, laurent_coefficients, make_germ
from .keldysh import base_samples, dual_root_functions, root_functions, taylor_coefficients, with_beta
from .pairing import _assembled, _solved
from .reduction import (
    INVERTIBILITY_FLOOR,
    P22_CONDITION_LIMIT,
    BasePointData,
    _by_cluster,
    _checked,
    _inverse,
    _neighborhoods,
    _raised,
    _stacks,
    base_point_data,
)

SCHEMA_VERSION = 1
# Trace expansions: slack of the window test, and the probe points and
# largest relative gap of the numeric cross-check.
WINDOW_TOL = 1e-9
TRACE_PROBES = np.geomspace(1e-3, 1.0, 25)
TRACE_PROBES.flags.writeable = False
CROSS_CHECK_TOL = 1e-6


def _write_json(obj: dict, out) -> None:
    """Write ``obj`` as sorted-key, indent-2 JSON and a newline to the path
    ``out``, or to stdout when ``out`` is empty."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parameter grids


@dataclass(frozen=True)
class ParameterGrid:
    """Uniform rectangular grid in one or two parameter dimensions."""

    axes: tuple  # tuple of 1-D float arrays

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise InputError("parameter grids support one or two dimensions")
        for ax in self.axes:
            if len(ax) < 1:
                raise InputError("grid axes need at least one point")

    @classmethod
    def from_ranges(cls, ranges: Sequence) -> "ParameterGrid":
        axes = []
        for lo, hi, count in ranges:
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InputError(f"grid bounds must be finite, got [{lo}, {hi}]")
            if count < 1 or hi < lo:
                raise InputError("bad grid range")
            axes.append(np.linspace(lo, hi, int(count)))
        return cls(tuple(axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def steps(self) -> tuple:
        return tuple(float(ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in self.axes)

    def points(self) -> list:
        """All grid points as 1-D parameter arrays, row-major order."""
        if self.ndim == 1:
            return [np.array([v]) for v in self.axes[0]]
        out = []
        for u in self.axes[0]:
            for v in self.axes[1]:
                out.append(np.array([u, v]))
        return out


def second_divided_differences(values: np.ndarray, h: float) -> np.ndarray:
    """Second divided differences along the first axis of a uniform sample.

    f[x_{i-1}, x_i, x_{i+1}] = (f_{i+1} - 2 f_i + f_{i-1}) / (2 h^2), formed over a power of two per
    column near its largest finite part, at least 1, and scaled back: exactly, and 2 f_i cannot overflow.
    A divided difference beyond the float range scales back to inf, without a warning.
    """
    v = np.asarray(values)
    if v.shape[0] < 3:
        return np.zeros((0,) + v.shape[1:], dtype=v.dtype)
    parts = np.maximum(np.abs(v.real), np.abs(v.imag))
    exponent = np.frexp(np.max(parts, axis=0, initial=0.0, where=np.isfinite(parts)))[1]
    u = v / (scale := np.ldexp(1.0, np.maximum(exponent - 1, 0)))
    with np.errstate(over="ignore"):
        return (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (2.0 * h * h) * scale


def _max_dd(values: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Max |second divided difference| per trailing entry, over all axes.  The stencils that touch
    a failed point, a NaN row, drop out; one beyond the float range reads inf."""
    arr = np.asarray(values, dtype=complex).reshape(grid.shape + values.shape[1:])
    best = np.zeros(values.shape[1:], dtype=float)
    for axis in range(grid.ndim):
        h = grid.steps[axis]
        if h == 0.0 or grid.shape[axis] < 3:
            continue
        moved = np.moveaxis(arr, axis, 0)
        dd = second_divided_differences(moved.reshape(moved.shape[0], -1), h)
        dd = np.abs(dd).reshape((dd.shape[0],) + arr.shape[:axis] + arr.shape[axis + 1 :])
        kept = np.where(np.isnan(dd), 0.0, dd)
        reduce_axes = tuple(range(0, kept.ndim - (values.ndim - 1)))
        best = np.maximum(best, kept.max(axis=reduce_axes) if reduce_axes else kept)
    return best


def _json_number(x: float) -> Optional[float]:
    """``x``, or None where it is not finite, so that reports stay strict JSON."""
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepPoint:
    y: tuple
    multiplicities: list
    pairing_condition: float
    p22_margin: float
    coefficients: Optional[list] = None
    probe_error: Optional[float] = None

    def to_dict(self) -> dict:
        # failure entries carry infinite condition numbers, serialized as null
        out = {
            "y": list(self.y),
            "multiplicities": list(self.multiplicities),
            "pairing_condition": _json_number(self.pairing_condition),
            "p22_margin": _json_number(self.p22_margin),
        }
        if self.coefficients is not None:
            out["coefficients"] = [[c.real, c.imag] for c in self.coefficients]
        if self.probe_error is not None:
            out["probe_error"] = self.probe_error
        return out


@dataclass
class SweepReport:
    y0: tuple
    epsilon: float
    lengths: list  # per cluster, list of chain lengths
    labels: list
    points: list
    failures: list
    coefficient_dd: Optional[list] = None
    pairing_entry_dd: Optional[float] = None
    # eps max|entry| / h^2, a scale, not a floor: entry roundoff of c eps moves a dd by up to 2c of it
    pairing_entry_dd_floor: Optional[float] = None
    elapsed: float = 0.0
    schema_version: int = SCHEMA_VERSION
    # per grid y whose circles were counted, what ``_diagram`` reads of the outer ones; never serialized
    outer_samples: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def total_dimension(self) -> int:
        return sum(sum(ls) for ls in self.lengths)

    def to_dict(self) -> dict:
        # timing stays on the object only, so saved reports are reproducible
        out = {
            "schema_version": self.schema_version,
            "y0": list(self.y0),
            "epsilon": self.epsilon,
            "lengths": [list(ls) for ls in self.lengths],
            "labels": [list(lab) for lab in self.labels],
            "points": [p.to_dict() for p in self.points],
            "failures": self.failures,
        }
        # a divided difference beyond the float range is serialized as null
        if self.coefficient_dd is not None:
            out["coefficient_dd"] = [_json_number(v) for v in self.coefficient_dd]
        if self.pairing_entry_dd is not None:
            out["pairing_entry_dd"] = _json_number(self.pairing_entry_dd)
            out["pairing_entry_dd_floor"] = self.pairing_entry_dd_floor
        return out

    def save(self, path) -> None:
        _write_json(self.to_dict(), path)


def canonical_systems(chart: FamilyChart, base: BasePointData, node_count: int = 256):
    """Primal and dual root systems for every cluster of a base point, from the ``base_samples`` of one
    evaluation of every carrier at ``node_count`` nodes, which also carry beta: frames take any divisor,
    such as half.  That pass checks the region of all carriers, then their guards in cluster order,
    before any chain is built: a later cluster's guard fails before an earlier cluster's chains do."""
    systems, duals = [], []
    for cl, samples in zip(base.clusters, base_samples(chart, base, node_count)):
        taylor = taylor_coefficients(samples, cl.multiplicity)
        system = root_functions(taylor, cl.multiplicity, center=cl.center)
        systems.append(with_beta(system, samples))
        duals.append(dual_root_functions(system, samples))
    return systems, duals


def sweep(
    chart: FamilyChart,
    base: BasePointData,
    grid: ParameterGrid,
    probe: Optional[Callable] = None,
    node_count: int = 128,
    *,
    systems,
    duals,
) -> SweepReport:
    """Frames, pairing, and optional probe recovery over a parameter grid.

    ``probe`` maps a parameter point to the coefficient vector (one value per
    frame entry) of a synthetic section; the sweep rebuilds that section from
    the frame, recovers the coefficients through the pairing, and records the
    worst error.  A change of total multiplicity at any grid point aborts the
    sweep with the partial report attached.  ``node_count`` sets the nodes of
    the carriers, where the frames are built and paired; it must divide the
    nodes that ``canonical_systems`` built ``systems`` and ``duals`` on.

    Each point evaluates the family once, on the nodes of every cluster, and
    reduces, counts and pairs each shape class of clusters (``cluster_stacks``)
    in one array pass, with no frame or dual germ: P phi_b and P* psi_a are
    holomorphic, so ``[phi_b, psi_a] = (1/2 pi) oint h_a(conj sigma)^H sing(g_b)``
    with g_b = K^H phi_b = (sigma - c)^l S^{-1} beta_j, from the Schur complement
    S on the carriers, and h_a = K^H P* psi_a = (tau - conj c)^l beta^dual_j,
    fixed at y0.  As h_a(conj sigma)^H is holomorphic, that is the trapezoid sum
    of h_a^H g_b itself: per class, S^{-1} at the carrier nodes contracted against
    a tensor held since y0 (``frames._held_factors``), the probe's column apart.
    A point's failure is the first error in cluster order of the first stage
    that fails: condition (3), the outer counts, the multiplicity jump, the
    inner counts, the carriers, S^{-1} there and the pairing.  Its
    ``p22_margin`` is the smallest condition-(3) margin of
    ``validate_neighborhood`` over the clusters (1.0 where none has a
    complement block).  ``sweep --csv`` reads its diagram off ``outer_samples``.
    """
    t0 = time.perf_counter()
    if grid.ndim != chart.param_dim:
        raise InputError(f"grid has {grid.ndim} axes, the family {chart.param_dim} parameters")
    base_mults = [cl.multiplicity for cl in base.clusters]
    labels = [(s, j, l) for s, sy in enumerate(systems) for j, L in enumerate(sy.lengths) for l in range(L)]

    points: list = []
    failures: list = []
    coeff_rows = []
    pairing_rows = []

    report = SweepReport(
        y0=tuple(np.atleast_1d(base.y0).tolist()),
        epsilon=float(base.clusters[0].radius),
        lengths=[list(sy.lengths) for sy in systems],
        labels=labels,
        points=points,
        failures=failures,
    )

    stacks = cluster_stacks(chart, base, systems, duals)
    # per cluster: its two count circles and its carrier; rest is read on the outer one alone
    circles = [c.count_circles() + [c.carrier(node_count)] for c in base.clusters]
    held = [_held_factors(st, systems, duals, node_count)[0] for st in stacks]
    dual_labels = [(s, j, l) for s, du in enumerate(duals) for j, l in du.entry_labels()]
    # per class, the probe's entries of its clusters, (C, E)
    entries = [np.array([[t for t, lab in enumerate(labels) if lab[0] == s] for s in st.index]) for st in stacks]

    for y, found in _neighborhoods(stacks, circles, grid.points()):
        y_key = tuple(float(v) for v in np.atleast_1d(y))
        try:
            classes, (outer, inner), sample = _raised([found])[0]
            report.outer_samples.append(sample)
            margins = sample[1]
            # once C is singular in a disc, det S's count no longer measures the fiber there
            failed = next((s for s, m in enumerate(margins) if not m > INVERTIBILITY_FLOOR), None)
            if failed is not None:
                raise ReductionInvalidError(f"complement block singular on the disc of cluster {failed} at y={y_key}")
            mults = _raised(outer)
            if mults != base_mults:
                report.elapsed = time.perf_counter() - t0
                raise DimensionJumpError(
                    f"multiplicity changed at y={y_key}: {mults} != {base_mults}",
                    partial_report=report,
                )
            # The frames sample on the carrier circle, so every local singular
            # point must sit in the inner half-disc; one that strays into the
            # outer annulus would silently fall outside the carrier and
            # corrupt the frame germs.
            if _raised(inner) != base_mults:
                raise ValidationError(
                    f"singular points left the inner half-discs at y={y_key}: "
                    f"{inner} != {base_mults}"
                )
            if not all(c[2][3].max() <= P22_CONDITION_LIMIT for c in classes):
                for circle, conds in zip(circles, _by_cluster(stacks, [c[2][3] for c in classes])):
                    _checked(conds, circle[2].nodes)
            if probe is not None:
                expected = np.asarray(probe(y), dtype=complex)
                if expected.shape != (len(labels),) or not np.isfinite(expected).all():
                    raise InputError("probe must return one finite coefficient per frame entry")
            # per class, S^{-1} on the carriers contracted against the tensor held since the base point
            with np.errstate(divide="ignore", invalid="ignore"):
                inverses = [_inverse(c[2][0]) for c in classes]
            if not all(np.isfinite(x).all() for x in inverses):
                raise InputError("S^-1 has non-finite values on a carrier")
            pairings = []
            for inverse, h, index in zip(inverses, held, entries):
                flat, (count, size, a, b) = inverse.reshape(len(inverse), 1, -1), h.shape
                column = None
                if probe is not None:
                    # contracted apart, so a probe leaves the blocks bit-identical
                    section = h.reshape(count, -1, b) @ expected[index][..., None]
                    column = (flat @ section.reshape(count, size, a))[:, 0]
                pairings.append(((flat @ h.reshape(count, size, a * b)).reshape(count, a, b), column))
            pm, column = _assembled(y_key, labels, dual_labels, stacks, pairings)
            rec = SweepPoint(
                y=y_key,
                multiplicities=mults,
                pairing_condition=pm.condition,
                p22_margin=min((m for m in margins if m < math.inf), default=1.0),
            )
            if probe is not None:
                values = _solved(pm.matrix, column)
                rec.coefficients = list(values)
                rec.probe_error = float(np.max(np.abs(values - expected)))
                coeff_rows.append(values)
            pairing_rows.append(pm.matrix.ravel())
            points.append(rec)
        except DimensionJumpError:
            raise
        except KernelBundleError as exc:
            failures.append({"y": list(y_key), "error": type(exc).__name__, "message": str(exc)})
            if probe is not None:
                coeff_rows.append(np.full(len(labels), np.nan, dtype=complex))
            pairing_rows.append(np.full(len(labels) ** 2, np.nan, dtype=complex))
            points.append(
                SweepPoint(y=y_key, multiplicities=[], pairing_condition=math.inf, p22_margin=0.0)
            )

    if probe is not None and coeff_rows:
        dd = _max_dd(np.stack(coeff_rows), grid)
        report.coefficient_dd = [float(v) for v in dd]
    if pairing_rows:
        entries = np.stack(pairing_rows)
        dd = _max_dd(entries, grid)
        report.pairing_entry_dd = float(np.max(dd)) if dd.size else 0.0
        # the scale of entry roundoff in a dd: c eps |entry| in the entries moves it by up to 2c eps |entry| / h^2
        steps = [h for h, count in zip(grid.steps, grid.shape) if h != 0.0 and count >= 3]
        largest = np.max(np.abs(entries[np.isfinite(entries)]), initial=0.0)
        report.pairing_entry_dd_floor = float(np.finfo(float).eps * largest / min(steps) ** 2) if steps else 0.0
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# branching diagrams


BRANCH_HEADER = ["y", "cluster", "re_sigma", "im_sigma", "mult"]


def _diagram(base: BasePointData, samples, out) -> list:
    """Rows ``[y, cluster, re, im, mult]`` from ``_neighborhoods`` samples ``(y, margins, annulus, phase, logabs)``
    on the outer count circles: only where conditions (3) and (4) hold for a cluster does ``circle_zeros`` read
    them off its circle.  CSV is written to the path ``out`` unless it is None."""
    circles, rows = [c.count_circles()[0] for c in base.clusters], []
    for y, margins, annulus, phase, logabs in samples:
        for s, (cl, margin, held) in enumerate(zip(base.clusters, margins, annulus)):
            if margin > INVERTIBILITY_FLOOR and isinstance(held, float) and held > 0.0:
                for z in circle_zeros(circles[s], phase[s], logabs[s], cl.multiplicity, cl.radius / 64.0):
                    rows.append([float(y[0]), s, z.location.real, z.location.imag, z.multiplicity])
    if out is not None:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows([BRANCH_HEADER, *rows])
    return rows


def branching_diagram(chart: FamilyChart, base: BasePointData, grid: ParameterGrid, out=None) -> list:
    """Zero locations of the reduced determinants along a one dimensional grid: the sweep's pass over the
    count circles alone, read by ``_diagram``, rows sorted by grid order, cluster, then location."""
    if grid.ndim != 1:
        raise InputError("branching diagrams are defined along a single parameter axis")
    stacks = _stacks(chart, base, [None] * len(base.clusters))
    found = _neighborhoods(stacks, [c.count_circles() for c in base.clusters], grid.points())
    return _diagram(base, [f[2] for _, f in found if not isinstance(f, KernelBundleError)], out)


# ---------------------------------------------------------------------------
# trace expansions


@dataclass(frozen=True)
class TraceTerm:
    sigma: complex  # pole of the germ
    power: int  # log power
    coeff: complex

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self.coeff * x ** (1j * self.sigma) * np.log(x) ** self.power


@dataclass
class TraceExpansion:
    """Window piece of a trace expansion, sum of coeff * x^{i sigma} log^p x."""

    gamma: float
    window: float  # width of the strip (gamma - window, gamma)
    terms: list
    dropped: list = field(default_factory=list)
    numeric_x: Optional[np.ndarray] = None
    numeric_values: Optional[np.ndarray] = None
    symbolic_numeric_gap: Optional[float] = None

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for t in self.terms:
            out = out + t.eval(x)
        return out

    def to_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "gamma": self.gamma,
            "window": self.window,
            "terms": [
                {
                    "sigma": [t.sigma.real, t.sigma.imag],
                    "log_power": t.power,
                    "coeff": [t.coeff.real, t.coeff.imag],
                }
                for t in self.terms
            ],
            "dropped": [
                {"sigma": [s.real, s.imag], "log_power": p, "coeff": [c.real, c.imag]}
                for s, p, c in self.dropped
            ],
        }
        if self.symbolic_numeric_gap is not None:
            out["symbolic_numeric_gap"] = self.symbolic_numeric_gap
        return out

    def save(self, path) -> None:
        _write_json(self.to_dict(), path)


def _in_window(sigma: complex, gamma: float, window: float) -> bool:
    decay = -sigma.imag  # real part of the exponent i*sigma
    return gamma - window - WINDOW_TOL < decay < gamma + WINDOW_TOL


def numeric_trace_samples(germ: Germ, x: np.ndarray) -> np.ndarray:
    """Direct quadrature of (1/2pi) contour integral of x^{i sigma} g(sigma): ``i``
    times the order-0 moment of ``x^{i sigma} g``, one column per point of ``x``."""
    circ = germ.carrier.circle
    vals = germ.carrier.values
    if vals.ndim > 1:
        if vals.shape[1] != 1:
            raise InputError("trace expansions take scalar germs")
        vals = vals[:, 0]
    kern = np.asarray(x, dtype=float)[None, :] ** (1j * circ.nodes[:, None])
    return 1j * cauchy_moment(SampledFunction(circ, kern * vals[:, None]), 0)


def trace_from_germ(
    germ: Germ,
    poles: Sequence,
    gamma: float,
    window: float,
) -> TraceExpansion:
    """Trace expansion of a scalar pole germ over one window strip.

    Each Laurent coefficient c_{p,l+1} contributes the term
    ``i^{l+1} c / l!  * x^{i sigma_p} log^l x``.  Terms whose decay rate falls
    outside ``(gamma - window, gamma)`` are reported separately.  A direct
    quadrature of the germ against ``x^{i sigma}`` at log spaced probes cross
    checks the symbolic sum; if the poles cannot be separated the expansion
    degrades to numeric samples only.
    """
    if germ.value_dim != 1:
        raise InputError("trace expansions take scalar germs")
    numeric = numeric_trace_samples(germ, TRACE_PROBES)

    try:
        pole_data = laurent_coefficients(germ, poles)
    except ClusteredPolesError:
        return TraceExpansion(
            gamma=gamma,
            window=window,
            terms=[],
            numeric_x=TRACE_PROBES,
            numeric_values=numeric,
        )

    terms = []
    dropped = []
    for pd in pole_data:
        for l in range(pd.coefficients.shape[0]):
            c = complex(pd.coefficients[l].ravel()[0])
            if c == 0:
                continue
            a = (1j ** (l + 1)) * c / math.factorial(l)
            if _in_window(pd.location, gamma, window):
                terms.append(TraceTerm(complex(pd.location), l, a))
            else:
                dropped.append((complex(pd.location), l, a))
    terms.sort(key=lambda t: (round(-t.sigma.imag, 9), round(t.sigma.real, 9), t.power))

    expansion = TraceExpansion(
        gamma=gamma,
        window=window,
        terms=terms,
        dropped=dropped,
        numeric_x=TRACE_PROBES,
        numeric_values=numeric,
    )
    full = expansion.eval(TRACE_PROBES) + sum(
        TraceTerm(s, p, c).eval(TRACE_PROBES) for s, p, c in dropped
    )
    scale = max(float(np.max(np.abs(numeric))), 1e-300)
    gap = float(np.max(np.abs(full - numeric))) / scale
    expansion.symbolic_numeric_gap = gap
    if gap > CROSS_CHECK_TOL:
        raise NumericalError(
            f"trace terms disagree with direct quadrature (relative gap {gap:.3e})"
        )
    return expansion


def germ_from_trace(
    expansion: TraceExpansion,
    center: complex,
    rho: float,
) -> Germ:
    """Pole germ whose trace expansion has the given terms (window part only).

    Inverts the term map exactly: a coefficient a on x^{i sigma} log^l x comes
    from the Laurent coefficient a * l! / i^{l+1} at (sigma_p)^{-(l+1)}.  All
    poles are sampled onto a single carrier circle around ``center``.
    """
    by_pole: dict = {}
    for t in expansion.terms:
        c = t.coeff * math.factorial(t.power) / (1j ** (t.power + 1))
        by_pole.setdefault(complex(t.sigma), {})[t.power + 1] = complex(c)
    if not by_pole:
        raise InputError("trace expansion has no symbolic terms")
    for loc in by_pole:
        if abs(loc - center) >= rho:
            raise InputError(f"pole {loc} falls outside the requested carrier circle")

    def f(sigma):
        z = np.asarray(sigma, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for loc, coeffs in by_pole.items():
            for m, c in coeffs.items():
                out = out + c * (z - loc) ** (-m)
        return out[..., None]

    return make_germ(f, center, rho)


# ---------------------------------------------------------------------------
# problem files


@dataclass
class Problem:
    chart: FamilyChart
    y0: np.ndarray
    epsilon: Optional[float]
    grid: Optional[ParameterGrid]
    probe_entries: Optional[list]
    min_separation: Optional[float]
    sl_spec: Optional[SturmLiouvilleSpec]

    def check_r_bound(self, ys) -> None:
        """Raise ``ConfigurationError`` where a Sturm-Liouville family's
        ``||a(y)||_2`` reaches its ``r_bound``, at y0 or at one of ``ys``."""
        if self.sl_spec is not None:
            self.sl_spec.check_bound([self.y0, *ys])

    def base(self) -> BasePointData:
        return base_point_data(
            self.chart,
            self.y0,
            epsilon=self.epsilon,
            min_separation=self.min_separation,
        )


PROBLEM_KEYS = {"family", "base_point", "grid", "probe", "min_separation"}
BASE_POINT_KEYS = {"y0", "epsilon"}
GRID_KEYS = {"axes"}
AXIS_KEYS = {"min", "max", "count"}
PROBE_ENTRY_KEYS = {"entry", "coeff"}
COEFF_KEYS = {
    "poly": {"type", "coeffs"},
    "sin": {"type", "scale", "freq"},
    "cos": {"type", "scale", "freq"},
}


def _coeff_function(spec: dict) -> Callable:
    kind = _checked_kind(spec, "type", COEFF_KEYS, {}, "probe coefficient", None)
    if kind == "poly":
        cs = [float(c) for c in spec.get("coeffs", [])]
        return lambda t: sum(c * t ** k for k, c in enumerate(cs))
    scale = float(spec.get("scale", 1.0))
    freq = float(spec.get("freq", 1.0))
    fn = math.sin if kind == "sin" else math.cos
    return lambda t: scale * fn(freq * t)


def _probe_terms(entries: Sequence[dict]) -> list:
    """``(entry index, coefficient function)`` per probe entry."""
    terms = []
    for e in entries:
        _check_keys(e, PROBE_ENTRY_KEYS, PROBE_ENTRY_KEYS, "probe entry")
        terms.append((_integer(e["entry"], "probe entry"), _coeff_function(e["coeff"])))
    return terms


def probe_from_spec(entries: Sequence[dict], size: int) -> Callable:
    """Coefficient-vector function of the (one-dimensional) parameter for a probe section."""
    parsed = _probe_terms(entries)
    for idx, _ in parsed:
        if not 0 <= idx < size:
            raise SpecError(f"probe entry {idx} out of range for frame of size {size}")

    def probe(y):
        t = float(np.atleast_1d(y)[0])
        out = np.zeros(size, dtype=complex)
        for idx, fn in parsed:
            out[idx] += fn(t)
        return out

    return probe


def _positive(value, where: str) -> Optional[float]:
    """A finite positive number, or None where the field is absent."""
    if value is None:
        return None
    if not 0.0 < float(value) < math.inf:
        raise SpecError(f"{where} must be a finite positive number, got {value!r}")
    return float(value)


def load_problem(spec: dict) -> Problem:
    """Parse a problem description dictionary (see README for the schema)."""
    try:
        _check_keys(spec, PROBLEM_KEYS, {"family"}, "problem file")
        chart, sl_spec = family_from_dict(spec["family"])

        bp = spec.get("base_point", {})
        _check_keys(bp, BASE_POINT_KEYS, set(), "base_point")
        y0 = np.atleast_1d(np.asarray(bp.get("y0", [0.0] * chart.param_dim), dtype=float))
        if y0.shape != (chart.param_dim,):
            raise SpecError("base_point.y0 has the wrong number of parameters")
        if not all(map(math.isfinite, y0.tolist())):
            raise SpecError(f"base_point.y0 must be finite, got {y0.tolist()}")
        epsilon = _positive(bp.get("epsilon"), "base_point.epsilon")

        grid = None
        if "grid" in spec:
            g = spec["grid"]
            _check_keys(g, GRID_KEYS, GRID_KEYS, "grid")
            for ax in g["axes"]:
                _check_keys(ax, AXIS_KEYS, AXIS_KEYS, "grid axis")
            grid = ParameterGrid.from_ranges(
                [(ax["min"], ax["max"], _integer(ax["count"], "grid axis count")) for ax in g["axes"]]
            )
            if grid.ndim != chart.param_dim:
                raise SpecError("grid dimension does not match the parameter dimension")

        probe_entries = spec.get("probe")
        if probe_entries:
            # probe coefficients are functions of one parameter
            if chart.param_dim != 1:
                raise SpecError(f"a probe needs a one-parameter family, not param_dim {chart.param_dim}")
            _probe_terms(probe_entries)
        min_separation = _positive(spec.get("min_separation"), "min_separation")

        probe_entries = list(probe_entries) if probe_entries else None
        return Problem(chart, y0, epsilon, grid, probe_entries, min_separation, sl_spec)
    except (TypeError, ValueError) as exc:
        # a value of the wrong type, anywhere in the file
        raise SpecError(f"problem file value of the wrong type: {exc}") from None


def load_problem_file(path) -> Problem:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("problem file must contain a JSON object")
    return load_problem(spec)
