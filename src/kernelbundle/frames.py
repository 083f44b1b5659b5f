"""Frames of the kernel bundle as germs carried by Cauchy data.

A germ stores samples of a function on an inner circle around its cluster
center; evaluation anywhere outside the circle is the quadrature of the
Cauchy kernel against those samples, i.e. the singular part of the sampled
function.  Frames are carried this way rather than as pole lists because the
poles branch and collide as y moves while the Cauchy data stays smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .contour import (
    Circle,
    SampledFunction,
    cauchy_moment,
    eval_along,
    singular_part_eval,
)
from .errors import (
    ClusteredPolesError,
    InputError,
    NondegeneracyError,
    NumericalError,
    RegionError,
)
from .family import adjoint_chart
from .keldysh import DualRootSystem, RootSystem
from .reduction import BasePointData, SchurEvaluator, _schur

INDEPENDENCE_CONDITION_LIMIT = 1e10
INDEPENDENCE_PROBE_NODES = 48
DECAY_PROBE_FACTOR = 10.0
POLE_GERM_NODES = 128
# laurent_coefficients: moment equations beyond the unknowns, and the bounds
# on the moment system's condition and on the relative reconstruction residual.
EXTRA_MOMENTS = 2
MOMENT_CONDITION_LIMIT = 1e10
LAURENT_RESIDUAL_TOL = 1e-6


@dataclass
class Germ:
    """Singular part of a function, represented by carrier samples.

    ``carrier.values`` are samples of the underlying function on the inner
    circle; ``eval`` returns the singular part at points strictly outside.
    Linear combinations require a shared carrier circle.
    """

    center: complex
    carrier: SampledFunction
    cluster: Optional[int] = None

    @property
    def value_dim(self) -> int:
        shape = self.carrier.value_shape
        return int(shape[0]) if shape else 1

    @property
    def rho(self) -> float:
        return self.carrier.circle.radius

    def eval(self, sigma):
        return singular_part_eval(self.carrier, sigma)

    def __add__(self, other: "Germ") -> "Germ":
        if not isinstance(other, Germ):
            return NotImplemented
        if self.carrier.circle != other.carrier.circle:
            raise InputError("germ addition requires a shared carrier circle")
        return Germ(
            self.center,
            SampledFunction(self.carrier.circle, self.carrier.values + other.carrier.values),
            self.cluster,
        )

    def __rmul__(self, scalar) -> "Germ":
        return Germ(
            self.center,
            SampledFunction(self.carrier.circle, complex(scalar) * self.carrier.values),
            self.cluster,
        )

    def decay_margin(self) -> float:
        """|value| * |distance| at a far probe, bounded by the carrier mass."""
        probe = self.center + DECAY_PROBE_FACTOR * self.rho
        val = np.linalg.norm(np.atleast_1d(self.eval(probe)))
        return float(val * abs(probe - self.center))


def make_germ(
    f: Callable,
    center: complex,
    rho: float,
    node_count: int = 128,
    cluster: Optional[int] = None,
) -> Germ:
    """Sample a vectorized function on the carrier circle and wrap it as a germ."""
    circle = Circle(complex(center), float(rho), node_count)
    values = eval_along(f, circle.nodes)
    if values.ndim == 1:
        values = values[:, None]
    if not np.all(np.isfinite(values)):
        raise NumericalError("function has a pole on the carrier circle; move rho")
    return Germ(complex(center), SampledFunction(circle, values), cluster)


def germ_from_pole_coefficients(
    center: complex,
    coeffs: dict,
    rho: float,
) -> Germ:
    """Germ of ``sum_m coeffs[m] * (sigma - center)^{-m}``."""
    coeffs = {int(m): np.atleast_1d(np.asarray(v, dtype=complex)) for m, v in coeffs.items()}
    if any(m < 1 for m in coeffs):
        raise InputError("pole orders must be positive")

    def f(sigma):
        z = np.asarray(sigma, dtype=complex) - center
        out = np.zeros(z.shape + next(iter(coeffs.values())).shape, dtype=complex)
        for m, v in coeffs.items():
            out += (z ** (-m))[..., None] * v
        return out

    return make_germ(f, center, rho, POLE_GERM_NODES)


@dataclass(frozen=True)
class FrameEntry:
    s: int
    j: int
    l: int
    germ: Germ


@dataclass
class FrameSet:
    """Frame entries ordered by cluster, then chain, then shift."""

    y: tuple
    entries: list

    def __len__(self) -> int:
        return len(self.entries)

    def germs(self) -> list:
        return [e.germ for e in self.entries]

    def labels(self) -> list:
        return [(e.s, e.j, e.l) for e in self.entries]

    def cluster_entries(self, s: int) -> list:
        return [e for e in self.entries if e.s == s]


def _beta_samples(ev: SchurEvaluator, system: RootSystem, nodes: np.ndarray) -> np.ndarray:
    """Exact values of all beta_j on the given nodes, shape (N, k, J).

    beta_j(zeta) = (zeta - center)^{-L_j} P_s(y0, zeta) psi_j(zeta); the
    reduced family at the base parameter is evaluated directly, so no Taylor
    truncation enters.
    """
    schur0 = ev.schur_many(ev.base.y0, nodes)
    cols = []
    for j, L in enumerate(system.lengths):
        z = nodes - system.center
        psi = system.psi_eval(j, nodes)
        cols.append(np.einsum("nij,nj->ni", schur0, psi) * (z ** (-L))[:, None])
    return np.stack(cols, axis=2)


def _carrier_samples(ev: SchurEvaluator, system: RootSystem, y, node_count: int):
    """Samples of ``(sigma-c)^l P_s(y,sigma)^{-1} beta_j`` on the carrier circle.

    Returns ``(circle, values, labels, correction)``: values has shape
    (N, entries, k), one entry per ``(j, l)`` label, ordered by chain then
    shift; ``correction`` is ``p22^{-1} p21`` at the nodes, from the same
    block evaluation as the Schur complement.
    """
    circle = ev.cluster.carrier(node_count)
    nodes = circle.nodes
    beta = _beta_samples(ev, system, nodes)
    schur, correction = _schur(ev.blocks_many(y, nodes), nodes)
    solved = np.linalg.solve(schur, beta)  # (N, k, J)
    z = nodes - ev.cluster.center
    labels = system.entry_labels()
    values = np.stack([(z ** l)[:, None] * solved[:, :, j] for j, l in labels], axis=1)
    return circle, values, labels, correction


def _carrier_germs(ev: SchurEvaluator, circle: Circle, values) -> list:
    """One germ per entry from carrier samples of shape (N, entries, dim)."""
    return [
        Germ(ev.cluster.center, SampledFunction(circle, values[:, t, :]), cluster=ev.s)
        for t in range(values.shape[1])
    ]


def kframe_at(
    ev: SchurEvaluator,
    system: RootSystem,
    y,
    node_count: int = 128,
) -> list:
    """Kernel-side frame germs ``s((sigma-c)^l P_s(y,sigma)^{-1} beta_j)``.

    Returns k-valued germs ordered by chain then shift.
    """
    circle, values, _, _ = _carrier_samples(ev, system, y, node_count)
    return _carrier_germs(ev, circle, values)


def fullframe_at(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    y,
    node_count: int = 128,
) -> FrameSet:
    """Frame of the kernel bundle at parameter y, all clusters.

    Each entry embeds the kernel-side samples g into the full space and
    subtracts the complement correction, ``K g - Kperp p22^{-1} p21 g`` on
    the carrier circle.  The correction differs from the one applied to the
    germ only by a holomorphic function, which the singular part kills.
    """
    entries = []
    for s, system in enumerate(systems):
        ev = SchurEvaluator(chart, base, s)
        circle, g, labels, correction = _carrier_samples(ev, system, y, node_count)
        c = ev.cluster
        full = g @ c.K.T - (g @ correction.swapaxes(1, 2)) @ c.Kperp.T
        germs = _carrier_germs(ev, circle, full)
        entries.extend(FrameEntry(s, j, l, g) for (j, l), g in zip(labels, germs))
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return FrameSet(y=y_key, entries=entries)


def dual_frame_at(
    chart,
    base: BasePointData,
    duals: Sequence[DualRootSystem],
    y,
    node_count: int = 128,
) -> FrameSet:
    """Dual frame at parameter y: the primal construction run on the adjoint family.

    The adjoint reduction reuses the swapped cluster bases at the conjugated
    centers, and the dual systems' image functions play the role of beta.
    """
    adj_chart = adjoint_chart(chart)
    adj_base = base.conjugate_swapped()
    return fullframe_at(adj_chart, adj_base, duals, y, node_count)


def independence_check(frame: FrameSet, base: BasePointData) -> float:
    """Condition number of the Gram matrix of frame values on probe circles.

    Values are collected on each cluster's contour, outside every carrier.
    Failure beyond the hard limit raises; the number is returned for
    reporting either way.
    """
    rows = []
    for cl in base.clusters:
        pts = cl.contour(INDEPENDENCE_PROBE_NODES).nodes
        rows.append(np.stack([g.eval(pts) for g in frame.germs()], axis=0))
    # rows: per-cluster arrays (entries, nodes, dim) -> one flat row per entry
    stacked = np.concatenate([r.reshape(r.shape[0], -1) for r in rows], axis=1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > INDEPENDENCE_CONDITION_LIMIT:
        raise NondegeneracyError(f"frame entries are numerically dependent (condition {cond:.3e})")
    return cond


@dataclass
class PoleData:
    location: complex
    coefficients: np.ndarray  # shape (multiplicity, dim); row m-1 is the (sigma-p)^{-m} coefficient


def laurent_coefficients(germ: Germ, poles: Sequence) -> list:
    """Laurent coefficients of a germ at known pole locations.

    ``poles`` is a sequence of ``(location, multiplicity)`` pairs.
    Coefficients solve the moment equations of the carrier samples; an
    ill-conditioned system or a poor reconstruction raises a clustered-poles
    error.
    """
    pole_list = [(complex(loc), int(mult)) for loc, mult in poles]
    if not pole_list:
        raise InputError("need at least one pole")
    rho = germ.rho
    for i, (a, _) in enumerate(pole_list):
        if abs(a - germ.center) >= rho:
            raise RegionError(f"pole {a} is not inside the carrier circle")
        for b, _ in pole_list[i + 1 :]:
            if abs(a - b) < 1e-9 * rho:
                raise ClusteredPolesError("poles closer than the resolvable separation")

    total = sum(m for _, m in pole_list)
    n_eq = total + EXTRA_MOMENTS
    # scaled unknowns c_{p,k} / rho^{k-1} against scaled moments M_m / rho^m
    A = np.zeros((n_eq, total), dtype=complex)
    col = 0
    from math import comb

    for loc, mult in pole_list:
        delta = (loc - germ.center) / rho
        for k in range(1, mult + 1):
            for m in range(n_eq):
                if m >= k - 1:
                    A[m, col] = comb(m, k - 1) * delta ** (m - k + 1)
            col += 1
    moments = np.stack([cauchy_moment(germ.carrier, m) / rho ** m for m in range(n_eq)])
    moments = moments.reshape(n_eq, -1)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > MOMENT_CONDITION_LIMIT:
        raise ClusteredPolesError(
            f"pole configuration too close to resolve (moment condition {cond:.3e})"
        )
    sol, *_ = np.linalg.lstsq(A, moments, rcond=None)
    scale = max(float(np.max(np.abs(moments))), 1e-300)
    residual = float(np.linalg.norm(A @ sol - moments)) / scale
    if residual > LAURENT_RESIDUAL_TOL:
        raise ClusteredPolesError(f"Laurent reconstruction residual {residual:.3e}")

    out = []
    row = 0
    dim = moments.shape[1]
    for loc, mult in pole_list:
        coeffs = np.zeros((mult, dim), dtype=complex)
        for k in range(1, mult + 1):
            coeffs[k - 1] = sol[row] * rho ** (k - 1)
            row += 1
        out.append(PoleData(loc, coeffs))
    return out
