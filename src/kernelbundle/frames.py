"""Frames of the kernel bundle as germs carried by Cauchy data.

A germ stores samples of a function on an inner circle around its cluster
center; evaluation anywhere outside the circle is the singular part of the
sampled function, the Laurent sum of the samples' moments.  Frames are
carried this way rather than as pole lists because the poles branch and
collide as y moves while the Cauchy data stays smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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
from .reduction import BasePointData, ClusterStack, _by_cluster, _checked, _nodes, _sampled, _stacks

INDEPENDENCE_CONDITION_LIMIT = 1e10
INDEPENDENCE_PROBE_NODES = 48
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
        """The class at points off the carrier, one ``singular_part_eval`` Laurent sum of the
        carrier samples' moments."""
        return singular_part_eval(self.carrier, sigma)


def make_germ(f: Callable, center: complex, rho: float, node_count: int = 128) -> Germ:
    """Sample a vectorized function on the carrier circle and wrap it as a germ."""
    circle = Circle(complex(center), float(rho), node_count)
    values = eval_along(f, circle.nodes)
    if values.ndim == 1:
        values = values[:, None]
    if not np.all(np.isfinite(values)):
        raise NumericalError("function has a pole on the carrier circle; move rho")
    return Germ(complex(center), SampledFunction(circle, values))


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


def cluster_stacks(chart, base: BasePointData, systems, duals) -> list:
    """The clusters of a base point in shape classes, one ``ClusterStack`` each: clusters of equal
    active-part size, kernel dimension and chain lengths reduce, frame and pair in one array pass.
    ``InputError`` unless the systems' carriers share one node count and the duals' conjugate them."""
    circles = [(sy.beta.circle, du.beta.circle) for sy, du in zip(systems, duals)]
    n = circles[0][0].node_count
    if any((c.node_count, d) != (n, Circle(np.conj(c.center), c.radius, n)) for c, d in circles):
        raise InputError("systems need carriers of one node count and their duals the conjugated carriers")
    return _stacks(chart, base, [(tuple(sy.lengths), tuple(du.lengths)) for sy, du in zip(systems, duals)])


def _entry_factors(systems) -> tuple:
    """``(beta, shifts, chains)`` of the frame entries of one shape class on the systems' carriers:
    their beta, (C, N, k, J); ``(sigma - c)^l`` at the carrier nodes per entry ``(j, l)``, (C, N, E),
    ordered by chain then shift; and each entry's chain j."""
    labels = systems[0].entry_labels()
    beta = np.stack([sy.beta.values for sy in systems])
    z = np.stack([sy.beta.circle.nodes - sy.center for sy in systems])
    shifts = np.stack([z ** l for _, l in labels], axis=-1)
    return beta, shifts, [j for j, _ in labels]


def _kernel_values(beta, shifts, chains, schur) -> np.ndarray:
    """Samples of ``(sigma-c)^l P_s(y,sigma)^{-1} beta_j`` on the carriers of ``_entry_factors``,
    from its ``beta``, ``shifts`` and ``chains`` and ``schur``, P_s(y, .) at the nodes (C, N, k,
    k): shape (C, N, k, E), one column per ``(j, l)`` entry."""
    solved = beta / schur if schur.shape[-1] == 1 else np.linalg.solve(schur, beta)  # (C, N, k, J)
    return shifts[:, :, None, :] * solved[..., chains]


def _frame_values(factors, schur, correction) -> np.ndarray:
    """Frame block values of one shape class, (C, N, n, E), from its ``_frame_factors`` and
    ``(schur, correction)`` on their carriers: each embeds the kernel-side samples g as ``K g - Kperp
    p22^{-1} p21 g``; the correction differs from the one applied to the germ only by a
    holomorphic function, which the singular part kills."""
    *entries, K, Kperp = factors
    g = _kernel_values(*entries, schur)
    return K[:, None] @ g - Kperp[:, None] @ (correction @ g)


def _frame_pair(primal, dual, reduced) -> tuple:
    """Frame and dual frame values of one shape class from its ``_frame_factors`` and
    ``(schur, correction, dual_correction)`` on the carriers, (C, N, .) each: ``_sampled``'s
    first two and ``p12 p22^{-1}``.

    The dual is the primal construction on the adjoint family.  Node t of a
    dual carrier is node -t mod N of the primal one conjugated, where the
    adjoint blocks are p11^H, p21^H, p12^H and p22^H: the Schur complement is
    S^H and the correction ``(p12 p22^{-1})^H``, with no evaluation or
    factorization.
    """
    schur, correction, dual_correction = reduced
    reverse = -np.arange(schur.shape[1]) % schur.shape[1]
    adjoint = [m.conj().swapaxes(-1, -2)[:, reverse] for m in (schur, dual_correction)]
    return _frame_values(primal, schur, correction), _frame_values(dual, *adjoint)


def _frame_factors(stack: ClusterStack, systems, duals) -> tuple:
    """``_entry_factors`` of a shape class and the clusters' bases ``K``, (C, n, k), and ``Kperp``, a
    frame block but its reduction: of its clusters with their systems, and with their duals, whose
    K and Kperp are the clusters' ``Rperp`` and ``R``: the kernel of P*(conj sigma) is the
    orthocomplement of the range of P(sigma), and vice versa."""
    K, Kperp, Rperp, R = (np.stack(x) for x in zip(*((c.K, c.Kperp, c.Rperp, c.R) for c in stack.clusters)))
    primal, dual = ([sy[s] for s in stack.index] for sy in (systems, duals))
    return (*_entry_factors(primal), K, Kperp), (*_entry_factors(dual), Rperp, R)


def _held_factors(stack: ClusterStack, systems, duals) -> tuple:
    """``(held, h)``, what a sweep holds of a shape class on the carriers of its systems, of N nodes.
    ``h_a = K^H P* psi_a = (tau - conj c)^l beta^dual_j(tau)`` at the dual carrier nodes, the conjugated
    carrier's, in the order ``t -> -t mod N``, (C, N, k, E), and ``held[(t, p, q), (a, b)] = (i rho / N)
    u_t conj(h_a(t))_p (sigma_t - c)^l_b beta_j_b(sigma_t)_q``, (C, N k k, E, E): the pairing block
    ``[phi_b, psi_a]`` at y is S(y, .)^{-1} at the carrier nodes sigma_t, flattened, times ``held``."""
    primal = [systems[s] for s in stack.index]
    (beta, shifts, chains), (dual_beta, dual_shifts, dual_chains) = (
        _entry_factors(sy) for sy in (primal, [duals[s] for s in stack.index])
    )
    n = beta.shape[1]
    h = (dual_shifts[:, :, None, :] * dual_beta[..., dual_chains])[:, -np.arange(n) % n]
    g = shifts[:, :, None, :] * beta[..., chains]
    carriers = [sy.beta.circle for sy in primal]
    weights = 1j * np.array([c.radius for c in carriers])[:, None] / n * carriers[0].unit
    held = weights[..., None, None, None, None] * h.conj()[:, :, :, None, :, None] * g[:, :, None, :, None, :]
    return held.reshape(len(carriers), -1, *held.shape[-2:]), h


def frames_at(chart, base: BasePointData, systems, duals, y) -> tuple:
    """Frame and dual frame of the kernel bundle at parameter y, one germ block
    per cluster each on the carriers of ``systems`` and ``duals``, from one
    ``_sampled`` pass over every carrier, reduced and framed in one array pass
    per shape class (``cluster_stacks``), on all n rows."""
    carriers = [[sy.beta.circle] for sy in systems]
    stacks = cluster_stacks(chart, base, systems, duals)
    reduced = [c[0] for c in _sampled(stacks, y, _nodes(stacks, carriers, 1))]
    for circle, conds in zip(carriers, _by_cluster(stacks, [r[3] for r in reduced])):
        _checked(conds, circle[0].nodes)
    # the dual frame alone reads p12 p22^{-1}, so it is formed here
    factors = [_frame_factors(st, systems, duals) for st in stacks]
    pairs = [_frame_pair(*f, (r[0], r[1], r[4] @ r[2])) for f, r in zip(factors, reduced)]
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    frames = []
    for side, sy in enumerate((systems, duals)):
        values = _by_cluster(stacks, [pair[side] for pair in pairs])
        germs = [Germ(x.beta.circle.center, SampledFunction(x.beta.circle, v)) for x, v in zip(sy, values)]
        labels = [(s, j, l) for s, system in enumerate(sy) for j, l in system.entry_labels()]
        frames.append(FrameSet(y=y_key, blocks=germs, labels=labels))
    return tuple(frames)


def independence_check(frame: FrameSet, base: BasePointData) -> float:
    """Condition number of the Gram matrix of frame values on probe circles.

    Values are collected on each cluster's contour, outside every carrier:
    one Laurent sum per frame block and contour.  Failure beyond the hard
    limit raises; the number is returned for reporting either way.
    """
    samples = []
    for cl in base.clusters:
        probe = cl.contour(INDEPENDENCE_PROBE_NODES)
        vals = np.concatenate([g.eval(probe) for g in frame.blocks], axis=2)
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
    for loc, mult in pole_list:
        delta = (loc - germ.center) / rho
        for k in range(1, mult + 1):
            for m in range(n_eq):
                if m >= k - 1:
                    A[m, col] = comb(m, k - 1) * delta ** (m - k + 1)
            col += 1
    orders = np.arange(n_eq)
    moments = cauchy_moment(germ.carrier, orders).reshape(n_eq, -1) / rho ** orders[:, None]
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
