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

from .contour import Circle, Rectangle, SampledFunction, _continued_winding, cauchy_moment, locate_zeros
from .errors import (
    ClusteredPolesError,
    DimensionJumpError,
    InputError,
    KernelBundleError,
    NumericalError,
    SpecError,
    ValidationError,
)
from .family import FamilyChart, SturmLiouvilleSpec, _check_keys, _checked_kind, _integer, family_from_dict
from .frames import Germ, frames_from_blocks, laurent_coefficients, make_germ
from .keldysh import base_samples, dual_root_functions, root_functions, taylor_coefficients, with_beta
from .pairing import coefficients, pairing_matrix
from .reduction import (
    CARRIER_FRACTION,
    BasePointData,
    SchurEvaluator,
    _schur,
    base_point_data,
)

SCHEMA_VERSION = 1
# Nodes of the sweep's per-point multiplicity counts and p22 margin circles.
COUNT_NODES = 64
MARGIN_NODES = 16
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
            if count < 1 or hi < lo:
                raise InputError("bad grid range")
            axes.append(np.linspace(float(lo), float(hi), int(count)))
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

    f[x_{i-1}, x_i, x_{i+1}] = (f_{i+1} - 2 f_i + f_{i-1}) / (2 h^2).
    """
    v = np.asarray(values)
    if v.shape[0] < 3:
        return np.zeros((0,) + v.shape[1:], dtype=v.dtype)
    return (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (2.0 * h * h)


def _max_dd(values: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Max |second divided difference| per trailing entry, over all axes."""
    arr = np.asarray(values, dtype=complex).reshape(grid.shape + values.shape[1:])
    best = np.zeros(values.shape[1:], dtype=float)
    for axis in range(grid.ndim):
        h = grid.steps[axis]
        if h == 0.0 or grid.shape[axis] < 3:
            continue
        moved = np.moveaxis(arr, axis, 0)
        dd = second_divided_differences(moved.reshape(moved.shape[0], -1), h)
        dd = np.abs(dd).reshape((dd.shape[0],) + arr.shape[:axis] + arr.shape[axis + 1 :])
        finite = np.where(np.isfinite(dd), dd, 0.0)
        reduce_axes = tuple(range(0, finite.ndim - (values.ndim - 1)))
        best = np.maximum(best, finite.max(axis=reduce_axes) if reduce_axes else finite)
    return best


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
        # failure entries carry infinite condition numbers; serialize those
        # as null to keep the output strict JSON
        out = {
            "y": list(self.y),
            "multiplicities": list(self.multiplicities),
            "pairing_condition": self.pairing_condition if math.isfinite(self.pairing_condition) else None,
            "p22_margin": self.p22_margin if math.isfinite(self.p22_margin) else None,
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
    elapsed: float = 0.0
    schema_version: int = SCHEMA_VERSION

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
        if self.coefficient_dd is not None:
            out["coefficient_dd"] = list(self.coefficient_dd)
        if self.pairing_entry_dd is not None:
            out["pairing_entry_dd"] = self.pairing_entry_dd
        return out

    def save(self, path) -> None:
        _write_json(self.to_dict(), path)


def canonical_systems(chart: FamilyChart, base: BasePointData, node_count: int = 256):
    """Primal and dual root systems for every cluster of a base point, from one
    evaluation of each carrier at ``node_count`` nodes, which also carry beta:
    frames take any divisor, such as half."""
    systems = []
    duals = []
    for s, cl in enumerate(base.clusters):
        samples = base_samples(SchurEvaluator(chart, base, s), node_count)
        taylor = taylor_coefficients(samples, 2 * cl.multiplicity + 1)
        system = root_functions(taylor, cl.multiplicity, cluster_index=s, center=cl.center)
        systems.append(with_beta(system, samples))
        duals.append(dual_root_functions(system, samples))
    return systems, duals


def _probe_section(frame, values: np.ndarray) -> list:
    """Section with the given coefficients: one germ per cluster, ``block @ c``."""
    return [
        Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values @ c))
        for g, c in zip(frame.blocks, frame.split(values))
    ]


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
    the carriers and the pairing contours; it must divide the nodes that
    ``canonical_systems`` built ``systems`` and ``duals`` on.
    """
    t0 = time.perf_counter()
    if grid.ndim != chart.param_dim:
        raise InputError(f"grid has {grid.ndim} axes, the family {chart.param_dim} parameters")
    if any(sy.beta.circle.node_count % node_count for sy in list(systems) + list(duals)):
        raise InputError(f"sweep nodes {node_count} must divide the nodes the systems were built on")
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

    for y in grid.points():
        y_key = tuple(float(v) for v in np.atleast_1d(y))
        try:
            evs = [SchurEvaluator(chart, base, s) for s in range(len(base.clusters))]
            # one block evaluation per cluster serves every circle below
            samples = [_point_samples(ev, y, node_count) for ev in evs]
            mults = [_multiplicity(ev, y, *smp[0]) for ev, smp in zip(evs, samples)]
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
            inner = [_multiplicity(ev, y, *smp[1]) for ev, smp in zip(evs, samples)]
            if inner != base_mults:
                raise ValidationError(
                    f"singular points left the inner half-discs at y={y_key}: "
                    f"{inner} != {base_mults}"
                )
            # smallest relative p22 singular value on the margin circles
            svals = [np.linalg.svd(smp[2][1][3], compute_uv=False) for smp in samples]
            margin = min((float(np.min(sv[:, -1] / sv[:, 0])) for sv in svals if sv.size), default=1.0)
            frame, dual = frames_from_blocks(base, systems, duals, y, [smp[3][1] for smp in samples])
            if probe is not None:
                expected = np.asarray(probe(y), dtype=complex)
                if expected.shape != (len(frame),):
                    raise InputError("probe must return one coefficient per frame entry")
                section = _probe_section(frame, expected)
                cv = coefficients(chart, frame, dual, base, y, section, node_count=node_count)
                pm = cv.pairing
            else:
                pm = pairing_matrix(chart, frame, dual, base, y, node_count=node_count)
            rec = SweepPoint(
                y=y_key,
                multiplicities=mults,
                pairing_condition=pm.condition,
                p22_margin=margin,
            )
            if probe is not None:
                rec.coefficients = list(cv.values)
                rec.probe_error = float(np.max(np.abs(cv.values - expected)))
                coeff_rows.append(cv.values)
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
        dd = _max_dd(np.stack(pairing_rows), grid)
        report.pairing_entry_dd = float(np.max(dd)) if dd.size else 0.0
    report.elapsed = time.perf_counter() - t0
    return report


def _point_samples(ev: SchurEvaluator, y, node_count: int) -> list:
    """``(circle, blocks)`` on the count circles at radius 1 and 1/2, the p22 margin
    circle and the carrier of one cluster at y, from one ``blocks_many`` call."""
    c = ev.cluster
    circles = [Circle(c.center, f * c.radius, COUNT_NODES) for f in (1.0, 0.5)]
    circles += [c.contour(MARGIN_NODES), c.carrier(node_count)]
    blocks = ev.blocks_many(y, np.concatenate([circle.nodes for circle in circles]))
    ends = np.cumsum([circle.node_count for circle in circles])
    return [(ci, tuple(b[e - ci.node_count : e] for b in blocks)) for ci, e in zip(circles, ends)]


def _multiplicity(ev: SchurEvaluator, y, circle: Circle, blocks) -> int:
    """Reduced-determinant zeros in a count circle, from the ``slogdet`` of its samples;
    a loop they cannot resolve is continued at its midpoints."""
    held = np.linalg.slogdet(_schur(blocks, circle.nodes)[0])
    return _continued_winding(ev.qdet_function(y), circle.path, *held)


# ---------------------------------------------------------------------------
# branching diagrams


BRANCH_HEADER = ["y", "cluster", "re_sigma", "im_sigma", "mult"]


def _cluster_rect(cl) -> Rectangle:
    """Square around the cluster center, of half-width its carrier radius."""
    half = CARRIER_FRACTION * cl.radius
    return Rectangle(
        cl.center.real - half, cl.center.real + half,
        cl.center.imag - half, cl.center.imag + half,
    )


def branching_diagram(
    chart: FamilyChart,
    base: BasePointData,
    grid: ParameterGrid,
    out=None,
) -> list:
    """Zero locations of the reduced determinants along a one dimensional grid.

    Returns rows ``[y, cluster, re, im, mult]`` sorted by grid order, cluster,
    then location; writes CSV to the path ``out`` when given.
    """
    if grid.ndim != 1:
        raise InputError("branching diagrams are defined along a single parameter axis")
    rows = []
    for y in grid.points():
        yval = float(y[0])
        for s, cl in enumerate(base.clusters):
            ev = SchurEvaluator(chart, base, s)
            sep = cl.radius / 64.0
            zrep = locate_zeros(ev.qdet_function(y), _cluster_rect(cl), min_separation=sep)
            for z in zrep.zeros:
                rows.append([yval, s, float(z.location.real), float(z.location.imag), int(z.multiplicity)])
            for u in zrep.unresolved:
                c = u.box.center
                rows.append([yval, s, float(c.real), float(c.imag), int(u.count)])
    if out is not None:
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BRANCH_HEADER)
            for row in rows:
                writer.writerow([_csv_num(v) for v in row])
    return rows


def _csv_num(v):
    if isinstance(v, int):
        return v
    return repr(float(v))


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
        epsilon = bp.get("epsilon")
        epsilon = float(epsilon) if epsilon is not None else None

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
        min_separation = spec.get("min_separation")
        min_separation = float(min_separation) if min_separation is not None else None

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
