"""Holomorphic matrix families and their charts.

A chart bundles the fiber dimension, the parameter dimension, the sigma
region and a vectorized evaluator ``(y, sigmas) -> (N, n, n)`` complex
array.  Built-in constructors cover matrix polynomials in (sigma, y), the
Dirichlet Sturm-Liouville family ``D^2 + a(y) + sigma^2`` on a sine basis,
and the scalar indicial polynomial of the m-th order Mellin symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contour import Circle, Rectangle, SampledFunction, cauchy_moment
from .errors import ConfigurationError, InputError, RegionError, SpecError

# Slack of the region gate, so that nodes computed on the boundary pass.
REGION_TOL = 1e-12
INDICIAL_RE_HALF_WIDTH = 1.0
# validate_chart: bounds on the holomorphy residual and the invertibility
# margin, and nodes per holomorphy probe circle.
HOLOMORPHY_TOL = 1e-10
INVERTIBILITY_TOL = 1e-8
CHART_PROBE_NODES = 64


@dataclass(frozen=True)
class SigmaRegion:
    """Rectangle or horizontal strip in the sigma plane.

    For a strip, membership ignores the real part; the real bounds then only
    delimit the search window for singular points.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    strip: bool = False

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise InputError("sigma region bounds are empty")

    def contains(self, sigma):
        s = np.asarray(sigma, dtype=complex)
        ok = (s.imag >= self.im_min - REGION_TOL) & (s.imag <= self.im_max + REGION_TOL)
        if not self.strip:
            ok &= (s.real >= self.re_min - REGION_TOL) & (s.real <= self.re_max + REGION_TOL)
        return ok if ok.ndim else bool(ok)

    def boundary_distance(self, sigma) -> float:
        s = complex(sigma)
        d = min(s.imag - self.im_min, self.im_max - s.imag)
        if not self.strip:
            d = min(d, s.real - self.re_min, self.re_max - s.real)
        return float(d)

    @property
    def search_rect(self) -> Rectangle:
        return Rectangle(self.re_min, self.re_max, self.im_min, self.im_max)

    def conjugate(self) -> "SigmaRegion":
        return SigmaRegion(self.re_min, self.re_max, -self.im_max, -self.im_min, self.strip)

    @classmethod
    def strip_region(cls, half_width: float, re_window=(-1.0, 1.0)) -> "SigmaRegion":
        return cls(re_window[0], re_window[1], -half_width, half_width, strip=True)


def _as_param(y, param_dim: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if arr.shape != (param_dim,):
        raise InputError(f"parameter has shape {arr.shape}, expected ({param_dim},)")
    return arr


@dataclass(frozen=True)
class FamilyChart:
    """A holomorphic family P(y, sigma) of n x n matrices over a sigma region.

    ``evaluator(y, sigmas)`` takes the parameter and a 1-D array of N sigma
    points and returns the stacked values, shape (N, n, n).
    """

    n: int
    param_dim: int
    sigma: SigmaRegion
    evaluator: Callable
    name: str = "family"

    def eval(self, y, sigma: complex, check: bool = True) -> np.ndarray:
        """Value at one sigma point.  ``check=False`` skips the region gate,
        for internal searches that probe a thin margin outside the region."""
        if check and not self.sigma.contains(sigma):
            raise RegionError(f"sigma = {sigma} outside the region of chart '{self.name}'")
        return self.eval_many(y, [sigma], check=False)[0]

    def eval_many(self, y, sigmas, check: bool = True) -> np.ndarray:
        """Stacked values at an array of sigma points, shape (len(sigmas), n, n)."""
        y = _as_param(y, self.param_dim)
        sigmas = np.asarray(sigmas, dtype=complex)
        if check and not np.all(self.sigma.contains(sigmas)):
            raise RegionError("sigma batch leaves the chart region")
        out = np.asarray(self.evaluator(y, sigmas), dtype=complex)
        if out.shape != sigmas.shape + (self.n, self.n):
            raise InputError(
                f"evaluator returned shape {out.shape}, expected {sigmas.shape + (self.n, self.n)}"
            )
        return out


def adjoint_chart(chart: FamilyChart) -> FamilyChart:
    """Chart of the adjoint family on the conjugated region."""

    def evaluator(y, taus):
        vals = np.asarray(chart.evaluator(y, np.conj(taus)), dtype=complex)
        return vals.conj().transpose(0, 2, 1)

    return FamilyChart(
        n=chart.n,
        param_dim=chart.param_dim,
        sigma=chart.sigma.conjugate(),
        evaluator=evaluator,
        name=chart.name + "*",
    )


@dataclass(frozen=True)
class PolyTerm:
    """One term ``matrix * sigma^sigma_power * prod_i y_i^y_powers[i]``."""

    sigma_power: int
    y_powers: tuple
    matrix: np.ndarray


def matrix_polynomial_chart(
    terms: Sequence[PolyTerm],
    sigma: SigmaRegion,
    param_dim: int = 1,
    name: str = "matrix_polynomial",
) -> FamilyChart:
    if not terms:
        raise InputError("matrix polynomial needs at least one term")
    mats = [np.asarray(t.matrix, dtype=complex) for t in terms]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise InputError("all coefficient matrices must share one square shape")
    powers = [(int(t.sigma_power), tuple(int(e) for e in t.y_powers)) for t in terms]
    for k, ys in powers:
        if k < 0 or any(e < 0 for e in ys) or len(ys) != param_dim:
            raise InputError("term powers must be nonnegative with one y exponent per parameter")

    def evaluator(y, ss):
        out = np.zeros((len(ss), n, n), dtype=complex)
        for (k, ys), mat in zip(powers, mats):
            out += (ss ** k * np.prod(y ** np.array(ys)))[:, None, None] * mat
        return out

    return FamilyChart(n, param_dim, sigma, evaluator, name)


# Region of the built-in 2 x 2 families.
MODEL_REGION = SigmaRegion(-2.0, 2.0, -2.0, 2.0)


def jordan_chart() -> FamilyChart:
    """The 2 x 2 family [[sigma, 1], [0, sigma]]; one double singular point at 0."""
    terms = [
        PolyTerm(1, (0,), np.eye(2)),
        PolyTerm(0, (0,), np.array([[0.0, 1.0], [0.0, 0.0]])),
    ]
    return matrix_polynomial_chart(terms, MODEL_REGION, name="jordan")


def branching_chart() -> FamilyChart:
    """The 2 x 2 family [[sigma, y], [y, sigma]]; singular points +/- y branch at y = 0."""
    terms = [
        PolyTerm(1, (0,), np.eye(2)),
        PolyTerm(0, (1,), np.array([[0.0, 1.0], [1.0, 0.0]])),
    ]
    return matrix_polynomial_chart(terms, MODEL_REGION, name="branching")


def indicial_chart(m: int) -> FamilyChart:
    """Scalar indicial polynomial ``(sigma + i(m-1)) ... (sigma + i) sigma``.

    Its roots are ``{0, -i, ..., -i(m-1)}``.
    """
    if m < 1:
        raise InputError("indicial order must be at least 1")
    region = SigmaRegion(-INDICIAL_RE_HALF_WIDTH, INDICIAL_RE_HALF_WIDTH, -(m - 1) - 0.6, 0.6)

    def evaluator(y, ss):
        val = np.ones_like(ss)
        for r in range(m):
            val = val * (ss + 1j * r)
        return val[:, None, None]

    return FamilyChart(1, 1, region, evaluator, name=f"indicial_{m}")


@dataclass(frozen=True)
class SturmLiouvilleSpec:
    """Dirichlet family ``D^2 + a(y) + sigma^2`` truncated to sine modes 1..mode_cutoff.

    ``a_eval`` returns the self-adjoint r x r coefficient; ``r_bound`` is a
    declared bound on ``sup_y ||a(y)||`` and ``k_gap`` the mode index whose
    gap defines the sigma strip.
    """

    r: int
    a_eval: Callable
    mode_cutoff: int
    k_gap: int
    r_bound: float

    def __post_init__(self):
        if self.r < 1 or self.mode_cutoff < 1 or self.k_gap < 1:
            raise InputError("r, mode_cutoff and k_gap must be positive")
        if self.mode_cutoff < self.k_gap + 1:
            raise ConfigurationError(
                "mode_cutoff must reach at least k_gap + 1 so every mode touching the strip is kept"
            )
        if self.r_bound <= 0:
            raise InputError("r_bound must be positive")
        if self.k_gap <= (2.0 * self.r_bound - 1.0) / 2.0:
            raise ConfigurationError(
                f"k_gap = {self.k_gap} does not clear (2*r_bound - 1)/2 = "
                f"{(2 * self.r_bound - 1) / 2}; the mode intervals overlap"
            )

    @property
    def n(self) -> int:
        return self.r * self.mode_cutoff

    def coefficient(self, y) -> np.ndarray:
        a = np.asarray(self.a_eval(np.atleast_1d(np.asarray(y, dtype=float))), dtype=complex)
        if a.shape != (self.r, self.r):
            raise InputError(f"a(y) has shape {a.shape}, expected ({self.r}, {self.r})")
        return a

    def check_bound(self, ys) -> None:
        """Raise ``ConfigurationError`` at the first ``y`` where ``||a(y)||_2``
        reaches ``r_bound``."""
        for y in ys:
            norm = np.linalg.norm(self.coefficient(y), 2)
            if norm >= self.r_bound:
                raise ConfigurationError(
                    f"||a(y)|| = {norm:.6f} reaches the declared bound {self.r_bound} at y = {y}"
                )


def sl_assemble(spec: SturmLiouvilleSpec, y, sigma) -> np.ndarray:
    """Block-diagonal matrix of ``k^2 I + a(y) + sigma^2 I`` over modes k.

    ``sigma`` is a scalar, giving shape (n, n), or an array, giving one
    matrix per point, shape ``sigma.shape + (n, n)``.  The sine modes
    decouple, so the truncation is exact for every mode it retains; no
    discretization error enters the singular set inside the strip.
    """
    a = spec.coefficient(y)
    r, m = spec.r, spec.mode_cutoff
    s = np.asarray(sigma, dtype=complex)
    out = np.zeros(s.shape + (spec.n, spec.n), dtype=complex)
    k = np.arange(1, m + 1)
    blocks = a + (k * k + (s * s)[..., None])[..., None, None] * np.eye(r)
    # the diagonal blocks of the (..., m, r, m, r) view; the index arrays put
    # the mode axis first
    out.reshape(s.shape + (m, r, m, r))[..., k - 1, :, k - 1, :] = np.moveaxis(blocks, -3, 0)
    return out


def sigma_strip(spec: SturmLiouvilleSpec, re_window=(-1.0, 1.0)) -> SigmaRegion:
    """Horizontal strip of half-width ``sqrt(k_gap^2 + k_gap + 1/2)``.

    The half-width is the midpoint between ``k_gap^2 + r_bound`` and
    ``(k_gap + 1)^2 - r_bound`` on the squared scale, so the strip boundary
    stays clear of every singular point branch.
    """
    half_width = float(np.sqrt(spec.k_gap ** 2 + spec.k_gap + 0.5))
    return SigmaRegion.strip_region(half_width, re_window)


def sl_chart(spec: SturmLiouvilleSpec, re_window=(-1.0, 1.0)) -> FamilyChart:
    region = sigma_strip(spec, re_window)

    def evaluator(y, ss):
        return sl_assemble(spec, y, ss)

    return FamilyChart(spec.n, 1, region, evaluator, name="sturm_liouville")


@dataclass
class ChartReport:
    holomorphy_residual: float
    invertibility_margin: float
    self_adjoint_residual: Optional[float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "holomorphy_residual": self.holomorphy_residual,
            "invertibility_margin": self.invertibility_margin,
            "self_adjoint_residual": self.self_adjoint_residual,
            "passed": self.passed,
        }


def validate_chart(
    chart: FamilyChart,
    y_samples: Sequence,
    sl_spec: Optional[SturmLiouvilleSpec] = None,
) -> ChartReport:
    """Check holomorphy in sigma and existence of a point of invertibility.

    Holomorphy is measured by the residual ``||(1/2pi i) \\oint P dzeta||`` on
    probe circles inside the region; invertibility by the best smallest
    singular value over a sigma probe grid, relative to the matrix scale.
    """
    rect = chart.sigma.search_rect
    radius = 0.2 * min(rect.width, rect.height)
    centers = [rect.center, rect.center + 0.3 * rect.width, rect.center - 0.3j * rect.height]
    res = 0.0
    margin = np.inf
    sa_res = None
    for y in y_samples:
        for c in centers:
            circ = Circle(complex(c), radius, CHART_PROBE_NODES)
            samples = SampledFunction(circ, chart.eval_many(y, circ.nodes))
            res = max(res, float(np.linalg.norm(cauchy_moment(samples, 0))))
        probes_re = np.linspace(rect.re_min, rect.re_max, 5)
        probes_im = np.linspace(rect.im_min, rect.im_max, 5)
        grid = (probes_re[:, None] + 1j * probes_im[None, :]).ravel()
        vals = chart.eval_many(y, grid)
        smin = np.linalg.svd(vals, compute_uv=False)[:, -1]
        scale = max(np.max(np.abs(vals)), 1e-300)
        margin = min(margin, float(np.max(smin) / scale))
    if sl_spec is not None:
        sl_spec.check_bound(y_samples)
        coeffs = map(sl_spec.coefficient, y_samples)
        sa_res = max((float(np.linalg.norm(a - a.conj().T)) for a in coeffs), default=0.0)
    passed = res < HOLOMORPHY_TOL and margin > INVERTIBILITY_TOL and (sa_res is None or sa_res < 1e-12)
    return ChartReport(res, margin, sa_res, passed)


# ---------------------------------------------------------------------------
# JSON ingestion

# Keys each problem-file object may carry, and the keys it must carry; any
# other key, or a missing one, raises SpecError.
FAMILY_KEYS = {
    "matrix_polynomial": {"kind", "param_dim", "terms", "sigma"},
    "sturm_liouville": {"kind", "r", "a_terms", "mode_cutoff", "k_gap", "r_bound", "re_window"},
    "indicial": {"kind", "m"},
    "jordan": {"kind"},
    "branching": {"kind"},
}
REGION_KEYS = {"rectangle": {"kind", "re", "im"}, "strip": {"kind", "im_half_width", "re"}}
REQUIRED_FAMILY_KEYS = {
    "matrix_polynomial": {"sigma"},
    "sturm_liouville": {"r", "mode_cutoff", "k_gap", "r_bound"},
}
TERM_KEYS = {"sigma_power", "y_powers", "matrix"}


def _check_keys(obj, allowed: set, required: set, where: str) -> None:
    """Raise ``SpecError`` unless ``obj`` is a JSON object whose keys lie in
    ``allowed`` and include ``required``."""
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be a JSON object, got {obj!r}")
    unknown = obj.keys() - allowed
    if unknown:
        raise SpecError(f"unknown {where} keys: {', '.join(map(repr, sorted(unknown)))}")
    missing = required - obj.keys()
    if missing:
        raise SpecError(f"{where} needs keys: {', '.join(map(repr, sorted(missing)))}")


def _checked_kind(obj, key: str, keys_by_kind: dict, required_by_kind: dict, where: str, default) -> str:
    """The kind named by ``obj[key]``, after checking ``obj`` against that kind's keys."""
    kind = obj.get(key, default) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in keys_by_kind:
        known = ", ".join(map(repr, keys_by_kind))
        raise SpecError(f"{where} needs a '{key}' out of {known}, got {kind!r}")
    _check_keys(obj, keys_by_kind[kind], required_by_kind.get(kind, set()), f"{kind} {where}")
    return kind


def _complex_from_pair(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise SpecError(f"expected a number or [re, im] pair, got {obj!r}")


def _matrix_from_spec(obj) -> np.ndarray:
    try:
        return np.array([[_complex_from_pair(e) for e in row] for row in obj], dtype=complex)
    except (TypeError, SpecError) as exc:
        raise SpecError(f"bad matrix entry: {exc}") from None


def _bounds(obj, where: str) -> tuple:
    """``(lo, hi)`` from a JSON pair; anything else is a value of the wrong type."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ValueError(f"{where} needs two numbers [lo, hi], got {obj!r}")
    return float(obj[0]), float(obj[1])


def _integer(value, where: str) -> int:
    """An integral JSON number, ``4`` or ``4.0``; a bool, string or fraction is of the wrong type."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _region_from_spec(obj) -> SigmaRegion:
    required = {"rectangle": {"re", "im"}, "strip": {"im_half_width"}}
    kind = _checked_kind(obj, "kind", REGION_KEYS, required, "sigma region", "rectangle")
    if kind == "rectangle":
        return SigmaRegion(*_bounds(obj["re"], "sigma re"), *_bounds(obj["im"], "sigma im"))
    re = _bounds(obj.get("re", [-1.0, 1.0]), "sigma re")
    return SigmaRegion.strip_region(float(obj["im_half_width"]), re)


def _terms_from_spec(obj, param_dim: int) -> list:
    terms = []
    for t in obj:
        _check_keys(t, TERM_KEYS, {"matrix"}, "term")
        y_powers = tuple(_integer(e, "term y_powers entry") for e in t.get("y_powers", [0] * param_dim))
        if len(y_powers) != param_dim:
            raise SpecError(
                f"term y_powers {list(y_powers)} need one exponent per parameter ({param_dim})"
            )
        terms.append(
            PolyTerm(
                sigma_power=_integer(t.get("sigma_power", 0), "term sigma_power"),
                y_powers=y_powers,
                matrix=_matrix_from_spec(t["matrix"]),
            )
        )
    return terms


def _poly_coefficient_eval(terms: Sequence[PolyTerm], r: int) -> Callable:
    def a_eval(y):
        out = np.zeros((r, r), dtype=complex)
        for t in terms:
            out += t.matrix * np.prod(np.atleast_1d(y) ** np.array(t.y_powers))
        return out

    return a_eval


def family_from_dict(obj: dict):
    """Build a chart from a problem-spec 'family' object.

    Returns ``(chart, sl_spec_or_None)``.  A Sturm-Liouville family has one
    parameter.
    """
    kind = _checked_kind(obj, "kind", FAMILY_KEYS, REQUIRED_FAMILY_KEYS, "family", None)
    if kind == "matrix_polynomial":
        param_dim = _integer(obj.get("param_dim", 1), "param_dim")
        terms = _terms_from_spec(obj.get("terms", []), param_dim)
        region = _region_from_spec(obj["sigma"])
        return matrix_polynomial_chart(terms, region, param_dim), None
    if kind == "sturm_liouville":
        r = _integer(obj["r"], "r")
        a_terms = _terms_from_spec(obj.get("a_terms", []), 1)
        for t in a_terms:
            if t.sigma_power != 0:
                raise SpecError("coefficient terms of a(y) may not depend on sigma")
        spec = SturmLiouvilleSpec(
            r=r,
            a_eval=_poly_coefficient_eval(a_terms, r),
            mode_cutoff=_integer(obj["mode_cutoff"], "mode_cutoff"),
            k_gap=_integer(obj["k_gap"], "k_gap"),
            r_bound=float(obj["r_bound"]),
        )
        return sl_chart(spec, _bounds(obj.get("re_window", [-1.0, 1.0]), "re_window")), spec
    if kind == "indicial":
        return indicial_chart(_integer(obj.get("m", 2), "m")), None
    if kind == "jordan":
        return jordan_chart(), None
    return branching_chart(), None
