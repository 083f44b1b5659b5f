"""Local reduction of a family near its singular points.

At a base point y0 each singular point sigma_s carries the kernel and
cokernel bases of P(y0, sigma_s).  With respect to these frozen bases the
family decomposes into four blocks; the Schur complement of the invertible
complement block is a k x k family whose determinant tracks the local
multiplicity as y moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .contour import Circle, Rectangle, count_zeros, locate_zeros
from .errors import (
    InputError,
    NumericalError,
    RankGapError,
    ReductionInvalidError,
    ValidationError,
)
from .family import FamilyChart, _as_param

P22_CONDITION_LIMIT = 1e12
# Complex entries per family batch of a determinant call: 2^18 is 4 MB, or
# 64 matrices at n = 64; a call's working set is a few such batches.
DET_CHUNK_ENTRIES = 2 ** 18
# Halvings of the working radius tried before a base point is given up.
MAX_HALVINGS = 10
# Relative rank threshold of the kernel split at a located zero: located zeros
# carry absolute errors far above machine precision, so the split must
# tolerate singular values at the location-error level while still rejecting
# genuine ones.
KERNEL_RANK_TOL = 1e-10
# validate_neighborhood: rings (fractions of the radius, besides the center)
# and angles of the complement-block samples, angles per ring of the annulus
# check, and the smallest admissible relative margins.
DISC_RINGS = (0.45, 0.8, 1.0)
DISC_ANGLES = 12
ANNULUS_SAMPLES = 48
INVERTIBILITY_FLOOR = 1e-12
ANNULUS_FLOOR = 1e-10
# The fiber does not depend on the circle that carries it, so each cluster
# fixes two: frames are sampled on the carrier at CARRIER_FRACTION of the
# cluster radius and paired on the contour at CONTOUR_FRACTION, outside every
# carrier.
CARRIER_FRACTION = 0.75
CONTOUR_FRACTION = 0.9


def _fix_column_phases(m: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest entry is real positive (deterministic bases)."""
    out = m.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if a != 0:
            out[:, j] = col * (np.abs(a) / a)
    return out


def kernel_cokernel(matrix: np.ndarray, rank_tol: Optional[float] = None, scale_floor: float = 0.0):
    """Orthonormal kernel and cokernel bases of a square matrix via the SVD.

    Returns ``(K, Kperp, Rperp, R)``: the kernel, its orthocomplement, the
    cokernel (the orthocomplement of the range) and the range, each with
    ``n`` rows.  The split requires a factor-10 gap around ``rank_tol *
    scale``; singular values inside that band raise a rank-gap error listing
    the spectrum.  ``scale_floor`` lets callers supply the natural scale of
    the surrounding family, so a matrix that is zero to roundoff is
    recognized as rank zero rather than treated as full rank relative to its
    own noise.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise InputError("kernel_cokernel expects a square matrix")
    u, s, vh = np.linalg.svd(matrix)
    if rank_tol is None:
        rank_tol = n * np.finfo(float).eps
    smax = max(s[0] if len(s) else 0.0, scale_floor)
    if smax == 0.0:
        k = n
    else:
        thr = rank_tol * smax
        in_band = (s > thr / 10.0) & (s < thr * 10.0)
        if np.any(in_band):
            raise RankGapError(
                f"ill-separated rank: singular values {s.tolist()} have no factor-10 "
                f"gap around threshold {thr:.3e}",
                singular_values=s,
            )
        k = int(np.sum(s <= thr))
    v = vh.conj().T
    K = _fix_column_phases(v[:, n - k :])
    Kperp = _fix_column_phases(v[:, : n - k])
    Rperp = _fix_column_phases(u[:, n - k :])
    R = _fix_column_phases(u[:, : n - k])
    return K, Kperp, Rperp, R


@dataclass
class Cluster:
    """Singular point of P(y0, .) with frozen bases and working radius."""

    center: complex
    multiplicity: int
    kernel_dim: int
    K: np.ndarray
    Kperp: np.ndarray
    Rperp: np.ndarray
    R: np.ndarray
    radius: float

    def conjugate_swapped(self) -> "Cluster":
        """Cluster of the adjoint family at the conjugated center.

        The kernel of P*(conj(sigma_s)) is the orthocomplement of the range of
        P(sigma_s) and vice versa, so the stored bases swap roles.
        """
        return Cluster(
            center=np.conj(self.center),
            multiplicity=self.multiplicity,
            kernel_dim=self.kernel_dim,
            K=self.Rperp,
            Kperp=self.R,
            Rperp=self.K,
            R=self.Kperp,
            radius=self.radius,
        )

    def carrier(self, node_count: int) -> Circle:
        """Circle that carries the frame germs of this cluster."""
        return Circle(self.center, CARRIER_FRACTION * self.radius, node_count)

    def contour(self, node_count: int) -> Circle:
        """Circle on which frames of this cluster are paired, outside the carrier."""
        return Circle(self.center, CONTOUR_FRACTION * self.radius, node_count)


@dataclass
class BasePointData:
    chart: FamilyChart
    y0: np.ndarray
    clusters: list

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    def conjugate_swapped(self) -> "BasePointData":
        return BasePointData(
            chart=self.chart,
            y0=self.y0,
            clusters=[c.conjugate_swapped() for c in self.clusters],
        )

    def to_dict(self) -> dict:
        return {
            "y0": list(np.asarray(self.y0, dtype=float)),
            "clusters": [
                {
                    "sigma": [c.center.real, c.center.imag],
                    "multiplicity": c.multiplicity,
                    "kernel_dim": c.kernel_dim,
                    "epsilon": c.radius,
                }
                for c in self.clusters
            ],
        }


class SchurEvaluator:
    """Block decomposition and Schur complement of one cluster.

    Every solve against the complement block uses a fresh factorization for
    its (y, sigma); nothing is cached across sigma.
    """

    def __init__(self, chart: FamilyChart, base: BasePointData, s: int):
        if not 0 <= s < len(base.clusters):
            raise InputError(f"cluster index {s} out of range")
        self.chart = chart
        self.base = base
        self.s = s
        self.cluster = base.clusters[s]

    def blocks(self, y, sigma: complex):
        """The four blocks of P(y, sigma) w.r.t. the frozen decompositions."""
        return tuple(blk[0] for blk in self.blocks_many(y, [sigma]))

    def blocks_many(self, y, sigmas):
        """Blocks at every sigma point, each with a leading node axis."""
        c = self.cluster
        left = np.concatenate([c.Rperp, c.R], axis=1).conj().T
        # one two-sided product per node; the blocks are views of it
        B = left @ self.chart.eval_many(y, sigmas) @ np.concatenate([c.K, c.Kperp], axis=1)
        k = c.K.shape[1]
        return B[:, :k, :k], B[:, :k, k:], B[:, k:, :k], B[:, k:, k:]

    def schur(self, y, sigma: complex) -> np.ndarray:
        """k x k reduced family p11 - p12 p22^{-1} p21 in the frozen bases."""
        return self.schur_many(y, [sigma])[0]

    def schur_many(self, y, sigmas) -> np.ndarray:
        return _schur(self.blocks_many(y, sigmas), sigmas)[0]

    def qdet_function(self, y) -> Callable:
        """``_slogdet_function`` of the reduced family w.r.t. the bases fixed at construction."""
        y = _as_param(y, self.chart.param_dim)
        return _slogdet_function(lambda s: self.schur_many(y, s), self.chart.n)


def _schur(blocks, sigmas):
    """Schur complement ``p11 - p12 p22^{-1} p21``, correction ``p22^{-1} p21`` and ``p22^{-1}``
    from the blocks of ``SchurEvaluator.blocks_many`` at ``sigmas``.

    The guard is the Frobenius condition ``||p22||_F ||p22^{-1}||_F`` of each m x m
    block, raised by the inverse's own roundoff (``m eps cond`` relative) to an upper
    bound; as ``cond_2 <= cond_F``, it rejects every block the 2-norm condition rejects.
    Both norms read p22 over its largest real or imaginary part, and the inverse times
    it, so no scale of the family over- or underflows them.
    """
    p11, p12, p21, p22 = blocks
    m = p22.shape[1]
    if m == 0:
        return p11, p21, p22
    try:
        inv = np.linalg.inv(p22)
        a, b = (x.reshape(len(x), -1).view(float) for x in (p22, inv))
        scale = np.max(np.abs(a), axis=1, keepdims=True)
        a, b = a / scale, b * scale
        with np.errstate(over="ignore"):
            conds = np.sqrt(np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b))
            conds = conds * (1.0 + m * np.finfo(float).eps * conds)
    except np.linalg.LinAlgError:
        # an exactly singular block fails the whole batch; the SVD names it
        inv, conds = None, np.linalg.cond(p22)
    worst = int(np.argmax(conds))
    if inv is None or not conds[worst] <= P22_CONDITION_LIMIT:
        raise ReductionInvalidError(
            f"reduction invalid here: complement block condition {conds[worst]:.3e} "
            f"at sigma = {sigmas[worst]}"
        )
    correction = inv @ p21
    return p11 - p12 @ correction, correction, inv


def local_multiplicity(ev: SchurEvaluator, y) -> int:
    """Zeros of the reduced determinant, with multiplicity, inside the cluster circle."""
    return count_zeros(ev.qdet_function(y), Circle(ev.cluster.center, ev.cluster.radius))


def _slogdet_function(matrices: Callable, n: int) -> Callable:
    """Vectorized sigma -> ``slogdet`` of ``matrices(sigmas)``, ``(phase, logabs)`` of
    the input's shape.

    ``matrices`` evaluates an n x n family per point; it is called on chunks of
    at most ``DET_CHUNK_ENTRIES // n^2`` points, so memory stays bounded at any
    node count, and ``logabs`` stays in the float range where ``det`` itself
    over- or underflows.  A point's pair does not depend on the other points.
    """
    rows = max(1, DET_CHUNK_ENTRIES // n ** 2)

    def q(sigma):
        s = np.asarray(sigma, dtype=complex)
        chunks = (s.ravel()[i : i + rows] for i in range(0, s.size, rows))
        parts = [np.linalg.slogdet(matrices(c)) for c in chunks]
        return tuple(np.concatenate(a).reshape(s.shape) for a in zip(*parts))

    return q


def _det_function(chart: FamilyChart, y) -> Callable:
    """``_slogdet_function`` of P(y, .), unchecked: location circles may poke
    slightly past the region."""
    return _slogdet_function(lambda s: chart.eval_many(y, s, check=False), chart.n)


@dataclass
class ConditionResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "margin": self.margin, "detail": self.detail}


@dataclass
class ValidationReport:
    conditions: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "conditions": [c.to_dict() for c in self.conditions]}


def _disc_samples(center: complex, radius: float):
    pts = [center]
    theta = 2 * np.pi * np.arange(DISC_ANGLES) / DISC_ANGLES
    for rho in DISC_RINGS:
        pts.extend(center + rho * radius * np.exp(1j * theta))
    return np.array(pts)


def _p22_margin(ev: SchurEvaluator, y, pts) -> float:
    _, _, _, p22 = ev.blocks_many(y, pts)
    if p22.shape[1] == 0:
        return np.inf
    s = np.linalg.svd(p22, compute_uv=False)
    scale = max(float(np.max(s)), 1e-300)
    return float(np.min(s[:, -1]) / scale)


def _worst_margin(margins) -> tuple:
    """The smallest of ``(margin, label)`` pairs, with the first label within a
    relative 1e-12 of it: grid points tied up to roundoff report in grid order."""
    worst = min((m for m, _ in margins), default=np.inf)
    if worst == np.inf:
        return worst, ""
    return worst, next((lab for m, lab in margins if m <= worst + 1e-12 * worst), "")


def validate_neighborhood(
    chart: FamilyChart,
    base: BasePointData,
    y_grid: Sequence,
) -> ValidationReport:
    """Check the four neighborhood conditions on a sampled grid.

    (1) the doubled discs are disjoint and stay inside the region;
    (2) the complement block is invertible on each doubled disc at y0;
    (3) the same on the single discs for every grid y;
    (4) the reduced determinant has no zeros in the outer annulus for grid y,
        so all local singular points stay in the inner half-disc.

    Margins are relative; the report records the worst case per condition.
    """
    conditions = []

    # (1) geometry
    region_slack = min(
        chart.sigma.boundary_distance(a.center) - 2 * a.radius for a in base.clusters
    )
    slack = region_slack
    for i, a in enumerate(base.clusters):
        for b in base.clusters[i + 1 :]:
            slack = min(slack, abs(a.center - b.center) - 2 * (a.radius + b.radius))
    conditions.append(
        ConditionResult("disjoint_discs_in_region", bool(slack > 0), float(slack))
    )
    if region_slack <= 0:
        # the remaining conditions sample the doubled discs, which here poke
        # out of the chart region, so they cannot be evaluated
        for name in (
            "complement_invertible_base",
            "complement_invertible_grid",
            "annulus_nonvanishing",
        ):
            conditions.append(
                ConditionResult(name, False, 0.0, "not evaluated: discs leave the region")
            )
        return ValidationReport(conditions)

    # (2) complement block invertible on doubled discs at y0
    margin2 = np.inf
    for s in range(len(base.clusters)):
        ev = SchurEvaluator(chart, base, s)
        pts = _disc_samples(ev.cluster.center, 2.0 * ev.cluster.radius)
        margin2 = min(margin2, _p22_margin(ev, base.y0, pts))
    conditions.append(
        ConditionResult(
            "complement_invertible_base", bool(margin2 > INVERTIBILITY_FLOOR), float(margin2)
        )
    )

    # (3) complement block invertible on discs across the grid
    margins3 = []
    for s in range(len(base.clusters)):
        ev = SchurEvaluator(chart, base, s)
        pts = _disc_samples(ev.cluster.center, ev.cluster.radius)
        for y in y_grid:
            margins3.append((_p22_margin(ev, y, pts), f"cluster {s}, y = {y}"))
    margin3, worst3 = _worst_margin(margins3)
    conditions.append(
        ConditionResult(
            "complement_invertible_grid", bool(margin3 > INVERTIBILITY_FLOOR), float(margin3), worst3
        )
    )

    # (4) no reduced zeros in the outer annulus across the grid
    margins4 = []
    radii = np.array([0.5, 0.625, 0.75, 0.875, 0.98])
    theta = 2 * np.pi * np.arange(ANNULUS_SAMPLES) / ANNULUS_SAMPLES
    for s in range(len(base.clusters)):
        ev = SchurEvaluator(chart, base, s)
        c = ev.cluster
        ring = (radii[:, None] * c.radius * np.exp(1j * theta)[None, :]).ravel()
        pts = c.center + ring
        for y in y_grid:
            _, logabs = ev.qdet_function(y)(pts)
            lo, hi = np.min(logabs), np.max(logabs)
            margins4.append((float(np.exp(lo - hi)) if lo > -np.inf else 0.0, f"cluster {s}, y = {y}"))
    margin4, worst4 = _worst_margin(margins4)
    conditions.append(
        ConditionResult("annulus_nonvanishing", bool(margin4 > ANNULUS_FLOOR), float(margin4), worst4)
    )

    return ValidationReport(conditions)


def base_point_data(
    chart: FamilyChart,
    y0,
    epsilon: Optional[float] = None,
    min_separation: Optional[float] = None,
    search: Optional[Rectangle] = None,
) -> BasePointData:
    """Locate the singular points of P(y0, .) and freeze the cluster data.

    The working radius defaults to 0.4 times the smallest gap between
    singular points and to the region boundary, then halves until the
    neighborhood conditions hold at y0 itself.  The kernel split at each
    zero uses ``KERNEL_RANK_TOL``.
    """
    y0 = _as_param(y0, chart.param_dim)
    rect = search if search is not None else chart.sigma.search_rect
    if min_separation is None:
        min_separation = max(rect.width, rect.height) / 64.0
    report = locate_zeros(_det_function(chart, y0), rect, min_separation)
    if report.unresolved:
        raise NumericalError(
            "clustered zeros: singular points could not be separated at the base point"
        )
    if not report.zeros:
        raise ValidationError("no singular points found in the region at the base point")

    gap = np.inf
    for i, z in enumerate(report.zeros):
        gap = min(gap, chart.sigma.boundary_distance(z.location))
        for other in report.zeros[i + 1 :]:
            gap = min(gap, 0.5 * abs(z.location - other.location))
    eps = float(epsilon) if epsilon is not None else 0.4 * float(gap)

    for _ in range(MAX_HALVINGS + 1):
        clusters = []
        ok = True
        for z in report.zeros:
            M = chart.eval(y0, z.location, check=False)
            # the family scale on a nearby circle anchors the rank threshold
            probe = Circle(z.location, 0.5 * eps, 16)
            floor = float(np.max(np.abs(chart.eval_many(y0, probe.nodes, check=False))))
            try:
                K, Kperp, Rperp, R = kernel_cokernel(M, KERNEL_RANK_TOL, scale_floor=floor)
            except RankGapError:
                if epsilon is not None:
                    raise
                ok = False
                break
            k = K.shape[1]
            if k == 0:
                raise NumericalError(
                    f"located zero at {z.location} has numerically trivial kernel"
                )
            clusters.append(
                Cluster(z.location, z.multiplicity, k, K, Kperp, Rperp, R, eps)
            )
        if ok:
            base = BasePointData(chart, y0, clusters)
            check = validate_neighborhood(chart, base, [y0])
            if check.passed:
                # consistency: the reduced determinant sees the same multiplicity
                for s, cl in enumerate(clusters):
                    ev = SchurEvaluator(chart, base, s)
                    d = local_multiplicity(ev, y0)
                    if d != cl.multiplicity:
                        raise NumericalError(
                            f"local multiplicity {d} disagrees with located multiplicity "
                            f"{cl.multiplicity} at cluster {s}"
                        )
                return base
            if epsilon is not None:
                raise ValidationError(
                    "neighborhood conditions fail at the requested epsilon: "
                    + "; ".join(f"{c.name}: {c.margin:.3e}" for c in check.conditions if not c.passed)
                )
        eps *= 0.5
    raise ValidationError("could not validate a working radius at the base point")
