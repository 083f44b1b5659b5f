"""Root functions of the reduced family at a singular point.

The reduced family vanishes entirely at (y0, sigma_s), so every partial
multiplicity is at least one and the chains of generalized root vectors are
read off nullspaces of lower-triangular block-Toeplitz matrices built from
the Taylor coefficients.  The dual system for the adjoint reduction is
normalized against the primal chains so that the base-point pairing becomes
the anti-diagonal unit pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contour import Circle, SampledFunction, cauchy_moment, count_zeros, singular_part_eval
from .errors import InputError, NondegeneracyError, NumericalError
from .reduction import SchurEvaluator, local_multiplicity

BETA_CONDITION_LIMIT = 1e8
RANK_TOL = 1e-8
DUAL_RESIDUAL_LIMIT = 1e-8
VERIFY_NODES = 128


def base_samples(ev: SchurEvaluator, node_count: int) -> SampledFunction:
    """The reduced family at the base parameter on the cluster's carrier circle."""
    circle = ev.cluster.carrier(node_count)
    return SampledFunction(circle, ev.schur_many(ev.base.y0, circle.nodes))


def taylor_coefficients(samples: SampledFunction, order: int) -> list:
    """Taylor coefficients through ``order`` at the cluster center, from ``base_samples``:
    the moments of orders -1 down to -order-1."""
    return list(cauchy_moment(samples, -np.arange(order + 1) - 1))


@dataclass
class RootSystem:
    """Canonical system of root functions of the reduced family at one cluster.

    ``chains[j]`` stacks the vectors ``v_{j,0}, ..., v_{j,L_j-1}`` of the
    polynomial ``psi_j``, and ``taylor`` the Taylor coefficients of P_s at
    the center.  Lengths are sorted descending and sum to the local
    multiplicity.  ``beta`` holds all ``beta_j = (sigma - sigma_s)^{-L_j} P_s
    psi_j`` on a carrier, shape (N, k, J), once ``with_beta`` sets it.
    """

    cluster_index: int
    center: complex
    kernel_dim: int
    lengths: list
    chains: list
    taylor: list
    beta: Optional[SampledFunction] = None

    @property
    def total(self) -> int:
        return sum(self.lengths)

    @property
    def beta0(self) -> np.ndarray:
        """Matrix whose columns are the values ``beta_j(sigma_s)``, read off the
        product series of P_s and psi_j: ``sum_i taylor[L_j - i] @ v_{j,i}``."""
        order, k = len(self.taylor) - 1, self.kernel_dim
        cols = [
            sum((self.taylor[L - i] @ chain[i] for i in range(L) if L - i <= order), np.zeros(k, complex))
            for L, chain in zip(self.lengths, self.chains)
        ]
        return np.stack(cols, axis=1)

    def psi_eval(self, j: int, sigma) -> np.ndarray:
        """Value of the chain polynomial psi_j at sigma (vectorized)."""
        z = np.asarray(sigma, dtype=complex) - self.center
        coeffs = self.chains[j]
        out = np.zeros(z.shape + (self.kernel_dim,), dtype=complex)
        for i in range(coeffs.shape[0] - 1, -1, -1):
            out = out * z[..., None] + coeffs[i]
        return out

    def pole_coefficients(self, j: int, shift: int = 0) -> dict:
        """Pole coefficients of sigma^shift times the j-th root function.

        Returns ``{m: vector}`` with the coefficient of ``(sigma-center)^{-m}``
        of the singular part of ``(sigma-center)^shift phi_{j,0}``.
        """
        L = self.lengths[j]
        coeffs = {}
        for m in range(1, L - shift + 1):
            coeffs[m] = self.chains[j][L - shift - m]
        return coeffs

    def entry_labels(self) -> list:
        return [(j, l) for j in range(len(self.lengths)) for l in range(self.lengths[j])]


def _toeplitz_conditions(taylor: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Constraint matrix for chains of the given length.

    Rows are the orders m = 1..length-1 of the product series; the unknown is
    the stacked chain (v_0, ..., v_{length-1}).  The zeroth Taylor
    coefficient vanishes at the base point, so the last chain vector is
    unconstrained.
    """
    k = taylor[1].shape[0]
    rows = length - 1
    M = np.zeros((rows * k, length * k), dtype=complex)
    for m in range(1, length):
        for i in range(m):
            p = m - i
            if p < len(taylor):
                M[(m - 1) * k : m * k, i * k : (i + 1) * k] = taylor[p]
    return M


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


def root_functions(
    taylor: Sequence[np.ndarray],
    multiplicity: int,
    cluster_index: int = 0,
    center: complex = 0.0,
) -> RootSystem:
    """Extract a canonical system of chains from Taylor data.

    Chains come out longest first with mutually orthonormal leading vectors;
    continuations are minimal-norm solutions of the Toeplitz conditions and
    the unconstrained trailing vector is set to zero.  The chain lengths must
    sum to the prescribed multiplicity.
    """
    taylor = [np.asarray(t, dtype=complex) for t in taylor]
    if len(taylor) < 2:
        raise InputError("need Taylor data at least through order one")
    k = taylor[0].shape[0]
    scale = max(float(np.max(np.abs(t))) for t in taylor)
    if scale == 0.0:
        raise NumericalError("Taylor data vanishes identically")
    if float(np.max(np.abs(taylor[0]))) > 1e-8 * scale:
        raise NumericalError(
            "reduced family does not vanish at the base point; no full chain structure"
        )
    taylor[0] = np.zeros_like(taylor[0])

    # lead spaces W_L = leads of chains of length >= L
    lead_spaces = {1: np.eye(k, dtype=complex)}
    n_geq = {1: k}
    L = 2
    while L <= multiplicity + 1:
        if L - 1 >= len(taylor):
            raise InputError("insufficient Taylor order for the chain structure")
        null = _null_basis(_toeplitz_conditions(taylor, L), L * k, scale)
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
        vs = [lead]
        if L >= 3:
            # rows m = 2..L-1 constrain v_1..v_{L-2} given the lead
            A = np.zeros(((L - 2) * k, (L - 2) * k), dtype=complex)
            b = np.zeros((L - 2) * k, dtype=complex)
            for m in range(2, L):
                b[(m - 2) * k : (m - 1) * k] = -taylor[m] @ lead
                for i in range(1, m):
                    p = m - i
                    if p < len(taylor):
                        A[(m - 2) * k : (m - 1) * k, (i - 1) * k : i * k] = taylor[p]
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
            vs.extend(sol[(i - 1) * k : i * k] for i in range(1, L - 1))
        if L >= 2:
            vs.append(np.zeros(k, dtype=complex))
        chains.append(np.stack(vs))

    # residuals of the chain conditions
    for L, chain in zip(lengths, chains):
        for m in range(1, L):
            res = sum(taylor[m - i] @ chain[i] for i in range(m) if m - i < len(taylor))
            rel = np.linalg.norm(res / scale)
            if rel > 1e-7:
                raise NumericalError(f"relative chain condition residual {rel:.3e}")

    system = RootSystem(
        cluster_index=cluster_index,
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

    Chains are normalized against a primal system so that the scalar product
    series of each primal chain with each dual image function matches the
    anti-diagonal unit pattern; ``delta_residual`` records how well the
    normalization was achieved.  ``beta0`` gives the values of the
    holomorphic images alpha_j at the center.
    """

    delta_residual: float = 0.0


def dual_root_functions(primal: RootSystem, samples: SampledFunction) -> DualRootSystem:
    """Normalized dual system for the adjoint family at conj(sigma_s).

    The adjoint reduction in the swapped bases is ``P_s(y0, conj tau)^H``, so
    node t of the conjugate carrier holds node -t mod N of the primal base
    ``samples``, conjugate transposed: no evaluation.  Raw dual chains come
    from its Taylor data, then are recombined by solving the linear system
    that prescribes the full pairing pattern against the primal chains, whose
    unique solution puts i on each chain's anti-diagonal of the base pairing.
    """
    n = samples.circle.node_count
    if samples.value_shape != (primal.kernel_dim,) * 2:
        raise NumericalError(f"samples of shape {samples.value_shape} are not the primal's")
    samples = SampledFunction(
        Circle(np.conj(samples.circle.center), samples.circle.radius, n),
        samples.values.conj().swapaxes(1, 2)[-np.arange(n) % n],
    )
    order = len(primal.taylor) - 1
    S = taylor_coefficients(samples, order)

    # the samples must be the primal's: their dual Taylor data is the conjugate
    # transpose of the primal, read over its largest entry at any scale
    scale = max(float(np.max(np.abs(t))) for t in primal.taylor)
    for p in range(order + 1):
        dev = np.linalg.norm((S[p] - primal.taylor[p].conj().T) / scale)
        if dev > 1e-8:
            raise NumericalError(
                f"samples do not belong to the primal system at order {p} "
                f"(relative dev {dev:.3e})"
            )

    raw = root_functions(S, primal.total, primal.cluster_index, np.conj(primal.center))
    if sorted(raw.lengths) != sorted(primal.lengths):
        raise NumericalError(
            f"dual chain lengths {raw.lengths} differ from primal {primal.lengths}"
        )

    k = primal.kernel_dim
    lengths = list(primal.lengths)
    L_max = max(lengths)
    S = raw.taylor  # zeroth coefficient cleared

    chains = []
    residual = 0.0
    dual_scale = max(float(np.max(np.abs(t))) for t in S)
    for jp, Lp in enumerate(lengths):
        # admissible dual chains of length Lp (trailing vector free)
        N = _null_basis(_toeplitz_conditions(S, Lp), Lp * k, dual_scale)
        nu = N.shape[1]
        # alpha Taylor coefficients of each basis element: A[r] = sum_i S_{r+Lp-i} N_i
        A = np.zeros((L_max, k, nu), dtype=complex)
        for r_ord in range(L_max):
            for i in range(Lp):
                p = r_ord + Lp - i
                if p <= order:
                    A[r_ord] += S[p] @ N[i * k : (i + 1) * k, :]
        rows = []
        rhs = []
        for j, Lj in enumerate(lengths):
            for m in range(Lj):
                row = np.zeros(nu, dtype=complex)
                for i in range(min(m, Lj - 1) + 1):
                    r_ord = m - i
                    row += primal.chains[j][i].conj() @ A[r_ord]
                rows.append(row)
                rhs.append(1.0 if (j == jp and m == Lj - Lp) else 0.0)
        rows = np.stack(rows)
        rhs = np.array(rhs, dtype=complex)
        g, res, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        residual = max(residual, float(np.linalg.norm(rows @ g - rhs)))
        u = N @ g
        chains.append(u.reshape(Lp, k))

    if residual > DUAL_RESIDUAL_LIMIT:
        raise NondegeneracyError(
            f"dual normalization residual {residual:.3e} exceeds {DUAL_RESIDUAL_LIMIT:.1e}"
        )

    dual = DualRootSystem(
        cluster_index=primal.cluster_index,
        center=np.conj(primal.center),
        kernel_dim=k,
        lengths=lengths,
        chains=chains,
        taylor=S,
        delta_residual=residual,
    )
    _check_beta_basis(dual, "normalized dual images")
    return with_beta(dual, samples)


def verify_canonical_system(
    ev: SchurEvaluator,
    system: RootSystem,
    dual: Optional[DualRootSystem] = None,
) -> dict:
    """Diagnostics for a root system: membership, counts and determinant structure.

    Returns a dict of residuals/flags; raises nothing so callers can decide.
    """
    c = ev.cluster
    y0 = ev.base.y0
    circle = c.carrier(VERIFY_NODES)
    probes = c.center + 1.6 * c.radius * np.exp(2j * np.pi * np.arange(5) / 5)

    schur_samples = ev.schur_many(y0, circle.nodes)
    scale = float(np.max(np.abs(schur_samples)))
    membership = 0.0
    for j, L in enumerate(system.lengths):
        z = circle.nodes - system.center
        phi = system.psi_eval(j, circle.nodes) * (z ** (-L))[:, None]
        image = np.einsum("nij,nj->ni", schur_samples, phi)
        sampled = SampledFunction(circle, image)
        vals = singular_part_eval(sampled, probes)
        membership = max(membership, float(np.max(np.abs(vals))) / max(scale, 1e-300))

    q_count = local_multiplicity(ev, y0)
    ratio_winding = None
    d, qdet = system.total, ev.qdet_function(y0)

    def ratio(sig):
        (phase, logabs), z = qdet(sig), sig - system.center
        return phase * (np.abs(z) / z) ** d, logabs - d * np.log(np.abs(z))

    try:
        ratio_winding = count_zeros(ratio, Circle(c.center, c.radius, VERIFY_NODES))
    except NumericalError:
        pass

    out = {
        "membership_residual": membership,
        "length_sum": system.total,
        "determinant_count": q_count,
        "counts_match": q_count == system.total,
        "ratio_winding": ratio_winding,
        "lead_condition": float(np.linalg.cond(np.stack([ch[0] for ch in system.chains], axis=1))),
        "beta_condition": float(np.linalg.cond(system.beta0)),
    }
    if dual is not None:
        out["dual_delta_residual"] = dual.delta_residual
        out["dual_lengths_match"] = sorted(dual.lengths) == sorted(system.lengths)
    return out
