"""Root functions of the reduced family at a singular point.

The reduced family vanishes entirely at (y0, sigma_s), so every partial
multiplicity is at least one.  Every condition on a chain psi_j is a
coefficient of the product series P_s psi_j: orders 1..L_j-1 vanish, and
order L_j is beta_j(sigma_s).  All of them are slices of one block
lower-triangular Toeplitz operator, ``toeplitz``.  The dual system for the
adjoint reduction comes from the principal part of P_s^-1 by Keldysh's
theorem: one least-squares solve against the primal chains, which makes the
base-point pairing the anti-diagonal unit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contour import Circle, SampledFunction, cauchy_moment
# an explicit re-export: the tracer's self-test (perfbench/test_stats.py) checks that it patches this binding
from .contour import singular_part_eval as singular_part_eval
from .errors import InputError, NondegeneracyError, NumericalError
from .reduction import BasePointData, _by_cluster, _checked, _nodes, _sampled, _stacks

BETA_CONDITION_LIMIT = 1e8
RANK_TOL = 1e-8
DUAL_RESIDUAL_LIMIT = 1e-8


def base_samples(chart, base: BasePointData, node_count: int) -> list:
    """The reduced family at the base parameter on each cluster's carrier of ``node_count`` nodes, from
    one ``_sampled`` pass over every carrier, rest held there, region-checked, then guarded in cluster order."""
    carriers = [[c.carrier(node_count)] for c in base.clusters]
    stacks = _stacks(chart, base, [None] * len(carriers))
    schur, _, _, conds, *_ = zip(*(c[0] for c in _sampled(stacks, base.y0, _nodes(stacks, carriers, 1))))
    for (circle,), cond in zip(carriers, _by_cluster(stacks, conds)):
        _checked(cond, circle.nodes)
    return [SampledFunction(circle, v) for (circle,), v in zip(carriers, _by_cluster(stacks, schur))]


def taylor_coefficients(samples: SampledFunction, order: int) -> np.ndarray:
    """Taylor coefficients through ``order`` at the cluster center, from ``base_samples``:
    the moments of orders -1 down to -order-1, stacked on a leading axis."""
    return cauchy_moment(samples, -np.arange(order + 1) - 1)


def toeplitz(series, length: int) -> np.ndarray:
    """Block lower-triangular Toeplitz operator of a series of (a, b) blocks.

    Block (m, i) is ``series[m - i]``, and zero where ``m - i`` is negative or
    past the series.  So the operator maps stacked coefficients ``(v_0, ...,
    v_{length-1})`` to the first ``length`` coefficients of the product series
    ``(sum_p series[p] z^p)(sum_i v_i z^i)``.
    """
    series = np.asarray(series, dtype=complex)[:length]
    _, a, b = series.shape
    lag = np.subtract.outer(np.arange(length), np.arange(length))
    lag[(lag < 0) | (lag >= len(series))] = len(series)  # the appended zero block
    blocks = np.concatenate([series, np.zeros((1, a, b), dtype=complex)])[lag]
    return blocks.transpose(0, 2, 1, 3).reshape(length * a, length * b)


@dataclass
class RootSystem:
    """Canonical system of root functions of the reduced family at one cluster.

    ``chains[j]`` stacks the vectors ``v_{j,0}, ..., v_{j,L_j-1}`` of the
    polynomial ``psi_j``, and ``taylor`` the Taylor coefficients of P_s at
    the center, shape (order + 1, k, k).  Lengths are sorted descending and
    sum to the local multiplicity.  ``beta`` holds all ``beta_j = (sigma -
    sigma_s)^{-L_j} P_s psi_j`` on a carrier, shape (N, k, J), once
    ``with_beta`` sets it.
    """

    center: complex
    kernel_dim: int
    lengths: list
    chains: list
    taylor: np.ndarray
    beta: Optional[SampledFunction] = None

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def beta0(self) -> np.ndarray:
        """Matrix whose columns are the values ``beta_j(sigma_s)``: order ``L_j``
        of the product series of P_s and psi_j, row block ``L_j`` of ``toeplitz``."""
        k = self.kernel_dim
        T = toeplitz(self.taylor, max(self.lengths) + 1)
        return np.stack(
            [T[L * k : (L + 1) * k, : L * k] @ chain.ravel() for L, chain in zip(self.lengths, self.chains)],
            axis=1,
        )

    def psi_eval(self, j: int, sigma) -> np.ndarray:
        """Value of the chain polynomial psi_j at sigma (vectorized)."""
        z = np.asarray(sigma, dtype=complex) - self.center
        coeffs = self.chains[j]
        out = np.zeros(z.shape + (self.kernel_dim,), dtype=complex)
        for i in range(coeffs.shape[0] - 1, -1, -1):
            out = out * z[..., None] + coeffs[i]
        return out

    def entry_labels(self) -> list:
        return [(j, l) for j in range(len(self.lengths)) for l in range(self.lengths[j])]


def _null_basis(M: np.ndarray, cols: int, scale: float) -> np.ndarray:
    """Orthonormal nullspace basis, cutting singular values at ``RANK_TOL * scale``.

    The threshold is relative to the overall Taylor scale rather than the
    largest singular value of ``M`` itself: a constraint block whose entries
    are all roundoff must count as zero, not as full rank.
    """
    if M.shape[0] == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > RANK_TOL * scale))
    return vh[rank:].conj().T


def _subspace_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, absolute singular value cut.

    Callers pass blocks of orthonormal vectors (or contractions of them), so
    the singular values live in [0, 1] and an absolute cut is meaningful.
    """
    if columns.size == 0:
        return columns.reshape(columns.shape[0], 0)
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL))
    return u[:, :rank]


def _min_norm_solve(M: np.ndarray, rhs: np.ndarray, scale: float) -> np.ndarray:
    """Minimal-norm least-squares solution of ``M x = rhs``, cutting singular values at
    ``RANK_TOL * scale`` as ``_null_basis`` does: a block of roundoff constrains nothing."""
    u, s, vh = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * scale))
    return vh[:rank].conj().T @ (u[:, :rank].conj().T @ rhs / s[:rank])


def root_functions(
    taylor: Sequence[np.ndarray],
    multiplicity: int,
    center: complex = 0.0,
) -> RootSystem:
    """Extract a canonical system of chains from Taylor data.

    Chains come out longest first with mutually orthonormal leading vectors;
    continuations are minimal-norm solutions of the Toeplitz conditions, with
    singular values below ``RANK_TOL`` of the Taylor scale cut, and the
    unconstrained trailing vector is set to zero.  The chain lengths must
    sum to the prescribed multiplicity.
    """
    taylor = np.array(taylor, dtype=complex)
    if len(taylor) < 2:
        raise InputError("need Taylor data at least through order one")
    k = taylor.shape[1]
    scale = float(np.max(np.abs(taylor)))
    if scale == 0.0:
        raise NumericalError("Taylor data vanishes identically")
    if float(np.max(np.abs(taylor[0]))) > 1e-8 * scale:
        raise NumericalError(
            "reduced family does not vanish at the base point; no full chain structure"
        )
    taylor[0] = 0.0
    T = toeplitz(taylor, multiplicity + 1)

    # lead spaces W_L = leads of chains of length >= L
    lead_spaces = {1: np.eye(k, dtype=complex)}
    n_geq = {1: k}
    L = 2
    while L <= multiplicity + 1:
        if L - 1 >= len(taylor):
            raise InputError("insufficient Taylor order for the chain structure")
        null = _null_basis(T[k : L * k, : L * k], L * k, scale)
        W = _subspace_basis(null[:k, :])
        if W.shape[1] == 0:
            break
        lead_spaces[L] = W
        n_geq[L] = W.shape[1]
        L += 1
    L_max = max(lead_spaces)
    n_geq[L_max + 1] = 0

    attained = sum(n_geq[l] for l in range(1, L_max + 1))
    if attained != multiplicity:
        raise NumericalError(
            f"chain lengths sum to {attained}, not the local multiplicity {multiplicity}; "
            f"lead dimensions {dict(sorted(n_geq.items()))}"
        )

    lengths = []
    leads = []
    chosen = np.zeros((k, 0), dtype=complex)
    for L in range(L_max, 0, -1):
        r_new = n_geq[L] - n_geq.get(L + 1, 0)
        if r_new == 0:
            continue
        W = lead_spaces[L]
        deflated = W - chosen @ (chosen.conj().T @ W)
        u, s, _ = np.linalg.svd(deflated, full_matrices=False)
        if s.size < r_new or s[r_new - 1] < RANK_TOL:
            raise NumericalError("could not extract independent chain leads")
        new = u[:, :r_new]
        for idx in range(r_new):
            lengths.append(L)
            leads.append(new[:, idx])
        chosen = np.concatenate([chosen, new], axis=1)

    chains = []
    for L, lead in zip(lengths, leads):
        middle = np.zeros(0, dtype=complex)
        if L >= 3:
            # orders m = 2..L-1 constrain v_1..v_{L-2} given the lead
            rows = slice(2 * k, L * k)
            middle = _min_norm_solve(T[rows, k : (L - 1) * k], -T[rows, :k] @ lead, scale)
        chain = np.concatenate([lead, middle, np.zeros(k if L >= 2 else 0, dtype=complex)]).reshape(L, k)
        # residuals of the chain conditions, order by order
        rel = np.linalg.norm((T[k : L * k, : L * k] @ chain.ravel()).reshape(L - 1, k) / scale, axis=1)
        bad = np.flatnonzero(rel > 1e-7)
        if bad.size:
            raise NumericalError(f"relative chain condition residual {rel[bad[0]]:.3e} at order {bad[0] + 1}")
        chains.append(chain)

    system = RootSystem(
        center=complex(center),
        kernel_dim=k,
        lengths=lengths,
        chains=chains,
        taylor=taylor,
    )
    _check_beta_basis(system, "beta values")
    return system


def with_beta(system: RootSystem, samples: SampledFunction) -> RootSystem:
    """Store beta_j = (zeta - center)^{-L_j} P_s(y0, zeta) psi_j(zeta) on the
    carrier of the base samples: exact values, no Taylor truncation."""
    nodes = samples.circle.nodes
    z = nodes - system.center
    cols = [np.einsum("nij,nj->ni", samples.values, system.psi_eval(j, nodes)) * (z ** (-L))[:, None]
            for j, L in enumerate(system.lengths)]
    system.beta = SampledFunction(samples.circle, np.stack(cols, axis=2))
    return system


def _check_beta_basis(system: RootSystem, what: str) -> None:
    cond = np.linalg.cond(system.beta0)
    if not np.isfinite(cond) or cond >= BETA_CONDITION_LIMIT:
        raise NondegeneracyError(f"{what} do not form a well-conditioned basis (condition {cond:.3e})")


@dataclass
class DualRootSystem(RootSystem):
    """Root system of the adjoint reduction at the conjugated center.

    Its chains ``w_{j,q}`` are the left chains that Keldysh's theorem pairs
    with the primal chains ``v_{j,p}`` in the principal part of S^-1 at the
    center c: ``A_m = (1/2pi i) oint (sigma - c)^(m-1) S(sigma)^-1 dsigma``
    equals ``sum_j sum_{p+q=L_j-m} v_{j,p} w_{j,q}^H`` for m = 1..L_max.  So
    the base-point pairing is the anti-diagonal unit pattern.
    ``delta_residual`` is the relative residual of that identity, over the
    largest entry of the A_m.  ``taylor`` is the primal's conjugate transpose
    through order L_max, and ``beta0`` gives the values of the holomorphic
    images alpha_j at the center.
    """

    delta_residual: float = 0.0


def dual_root_functions(primal: RootSystem, samples: SampledFunction) -> DualRootSystem:
    """Normalized dual system for the adjoint family at conj(sigma_s).

    The adjoint reduction in the swapped bases is ``P_s(y0, conj tau)^H``, so
    node t of the conjugate carrier holds node -t mod N of the primal base
    ``samples``, conjugate transposed: no evaluation.  Those samples must be
    the primal's: their Taylor data through order L_max is the conjugate
    transpose of ``primal.taylor`` (``NumericalError`` otherwise, naming the
    first order that deviates).  The dual chains are the least-squares
    solution of Keldysh's identity (see ``DualRootSystem``) with ``A_1 ..
    A_Lmax`` read off the inverted primal samples: one solve for every dual
    chain vector at once.  Its relative residual must stay below
    ``DUAL_RESIDUAL_LIMIT``, and the dual images must form a well-conditioned
    basis (``NondegeneracyError`` otherwise).
    """
    n, k, lengths = samples.circle.node_count, primal.kernel_dim, list(primal.lengths)
    if samples.value_shape != (k, k):
        raise NumericalError(f"samples of shape {samples.value_shape} are not the primal's")
    L_max = max(lengths)
    adjoint = SampledFunction(
        Circle(np.conj(samples.circle.center), samples.circle.radius, n),
        samples.values.conj().swapaxes(1, 2)[-np.arange(n) % n],
    )
    taylor = primal.taylor[: L_max + 1].conj().swapaxes(1, 2)

    # read over the primal's largest Taylor entry, the check is the same at any scale
    scale = float(np.max(np.abs(primal.taylor)))
    dev = np.linalg.norm((taylor_coefficients(adjoint, L_max) - taylor) / scale, axis=(1, 2))
    bad = np.flatnonzero(dev > 1e-8)
    if bad.size:
        raise NumericalError(
            f"samples do not belong to the primal system at order {bad[0]} "
            f"(relative dev {dev[bad[0]]:.3e})"
        )

    inverse = 1 / samples.values if k == 1 else np.linalg.inv(samples.values)
    A = cauchy_moment(SampledFunction(samples.circle, inverse), np.arange(L_max))
    # A_m = C_m W^H: column (j, q) of C holds v_{j, L_j - m - q} in row block m - 1,
    # and row (j, q) of W^H is w_{j,q}^H
    C = np.zeros((L_max, k, sum(lengths)), dtype=complex)
    columns = [(L, chain, q) for L, chain in zip(lengths, primal.chains) for q in range(L)]
    for col, (L, chain, q) in enumerate(columns):
        C[: L - q, :, col] = chain[L - 1 - q :: -1]
    C, A = C.reshape(L_max * k, -1), A.reshape(L_max * k, k)
    W = np.linalg.lstsq(C, A, rcond=None)[0]
    residual = float(np.max(np.abs(C @ W - A)) / np.max(np.abs(A)))
    if residual > DUAL_RESIDUAL_LIMIT:
        raise NondegeneracyError(
            f"dual normalization residual {residual:.3e} exceeds {DUAL_RESIDUAL_LIMIT:.1e}"
        )

    dual = DualRootSystem(
        center=np.conj(primal.center),
        kernel_dim=k,
        lengths=lengths,
        chains=np.split(W.conj(), np.cumsum(lengths)[:-1]),
        taylor=taylor,
        delta_residual=residual,
    )
    _check_beta_basis(dual, "normalized dual images")
    return with_beta(dual, adjoint)
