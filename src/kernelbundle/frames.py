"""Frames of the kernel bundle as germs carried by Cauchy data.

A germ stores samples of a function on an inner circle around its cluster
center; evaluation anywhere outside the circle is the quadrature of the
Cauchy kernel against those samples, i.e. the singular part of the sampled
function.  Frames are carried this way rather than as pole lists because the
poles branch and collide as y moves while the Cauchy data stays smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
    """

    center: complex
    carrier: SampledFunction

    @property
    def value_dim(self) -> int:
        shape = self.carrier.value_shape
        return int(shape[0]) if shape else 1

    @property
    def rho(self) -> float:
        return self.carrier.circle.radius

    def eval(self, sigma):
        return singular_part_eval(self.carrier, sigma)

    def decay_margin(self) -> float:
        """|value| * |distance| at a far probe, bounded by the carrier mass."""
        probe = self.center + DECAY_PROBE_FACTOR * self.rho
        val = np.linalg.norm(np.atleast_1d(self.eval(probe)))
        return float(val * abs(probe - self.center))


def make_germ(f: Callable, center: complex, rho: float, node_count: int = 128) -> Germ:
    """Sample a vectorized function on the carrier circle and wrap it as a germ."""
    circle = Circle(complex(center), float(rho), node_count)
    values = eval_along(f, circle.nodes)
    if values.ndim == 1:
        values = values[:, None]
    if not np.all(np.isfinite(values)):
        raise NumericalError("function has a pole on the carrier circle; move rho")
    return Germ(complex(center), SampledFunction(circle, values))


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


@dataclass
class FrameSet:
    """Frame of the kernel bundle at y: one germ block per cluster.

    The fiber splits into a direct sum over the clusters, so ``blocks[s]``
    carries all frame entries of cluster s at once: its carrier values have
    shape (N, dim, entries), one column per entry, ordered by chain then
    shift.  ``labels`` holds ``(s, j, l)`` per entry in the same order,
    cluster by cluster.
    """

    y: tuple
    blocks: list
    labels: list

    def __len__(self) -> int:
        return len(self.labels)

    def sizes(self) -> list:
        """Number of entries of each cluster."""
        return [g.carrier.values.shape[2] for g in self.blocks]

    def split(self, vector) -> list:
        """A vector indexed by the entries, cut into one piece per cluster."""
        return np.split(np.asarray(vector), np.cumsum(self.sizes())[:-1])

    def entry(self, t: int) -> Germ:
        """Entry t as a germ whose carrier values are its (N, dim) column."""
        s = self.labels[t][0]
        g = self.blocks[s]
        col = t - sum(self.sizes()[:s])
        return Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values[:, :, col]))


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
    (N, k, entries), one column per ``(j, l)`` label, ordered by chain then
    shift; ``correction`` is ``p22^{-1} p21`` at the nodes, from the same
    block evaluation as the Schur complement.
    """
    circle = ev.cluster.carrier(node_count)
    nodes = circle.nodes
    beta = _beta_samples(ev, system, nodes)
    schur, correction = _schur(ev.blocks_many(y, nodes), nodes)
    solved = np.linalg.solve(schur, beta)  # (N, k, J)
    labels = system.entry_labels()
    z = nodes - ev.cluster.center
    shifts = np.stack([z ** l for _, l in labels], axis=1)
    values = shifts[:, None, :] * solved[:, :, [j for j, _ in labels]]
    return circle, values, labels, correction


def kframe_at(
    ev: SchurEvaluator,
    system: RootSystem,
    y,
    node_count: int = 128,
) -> Germ:
    """Kernel-side frame block ``s((sigma-c)^l P_s(y,sigma)^{-1} beta_j)``.

    Returns one k-valued germ with one column per entry, ordered by chain
    then shift.
    """
    circle, values, _, _ = _carrier_samples(ev, system, y, node_count)
    return Germ(ev.cluster.center, SampledFunction(circle, values))


def fullframe_at(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    y,
    node_count: int = 128,
) -> FrameSet:
    """Frame of the kernel bundle at parameter y, one germ block per cluster.

    Each block embeds the kernel-side samples g into the full space and
    subtracts the complement correction, ``K g - Kperp p22^{-1} p21 g`` on
    the carrier circle.  The correction differs from the one applied to the
    germ only by a holomorphic function, which the singular part kills.
    """
    blocks = []
    labels = []
    for s, system in enumerate(systems):
        ev = SchurEvaluator(chart, base, s)
        circle, g, entry_labels, correction = _carrier_samples(ev, system, y, node_count)
        c = ev.cluster
        full = c.K @ g - c.Kperp @ (correction @ g)
        blocks.append(Germ(c.center, SampledFunction(circle, full)))
        labels.extend((s, j, l) for j, l in entry_labels)
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return FrameSet(y=y_key, blocks=blocks, labels=labels)


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

    Values are collected on each cluster's contour, outside every carrier,
    one block evaluation per cluster and contour.  Failure beyond the hard
    limit raises; the number is returned for reporting either way.
    """
    samples = []
    for cl in base.clusters:
        pts = cl.contour(INDEPENDENCE_PROBE_NODES).nodes
        vals = np.concatenate([g.eval(pts) for g in frame.blocks], axis=2)
        samples.append(vals.reshape(-1, vals.shape[2]))
    # one column per entry, one row per (node, component) sample
    svals = np.linalg.svd(np.concatenate(samples, axis=0), compute_uv=False)
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
