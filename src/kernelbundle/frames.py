"""Frames of the kernel bundle as germs carried by Cauchy data.

A germ stores samples of a function on an inner circle around its cluster
center; evaluation anywhere outside the circle is the quadrature of the
Cauchy kernel against those samples, i.e. the singular part of the sampled
function.  Frames are carried this way rather than as pole lists because the
poles branch and collide as y moves while the Cauchy data stays smooth.
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
from .keldysh import RootSystem
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


def _kernel_values(system: RootSystem, circle: Circle, schur) -> np.ndarray:
    """Samples of ``(sigma-c)^l P_s(y,sigma)^{-1} beta_j`` on the carrier circle.

    ``schur`` holds P_s(y, .) at the circle's nodes.  Returns shape (N, k,
    entries), one column per ``(j, l)`` label, ordered by chain then shift;
    beta is read off the system's own carrier, whose node count N must divide.
    """
    n = system.beta.circle.node_count
    if n % circle.node_count:
        raise InputError(f"frames on {circle.node_count} nodes need systems built on a multiple, not {n}")
    solved = np.linalg.solve(schur, system.beta.values[:: n // circle.node_count])  # (N, k, J)
    labels = system.entry_labels()
    z = circle.nodes - system.center
    shifts = np.stack([z ** l for _, l in labels], axis=1)
    return shifts[:, None, :] * solved[:, :, [j for j, _ in labels]]


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
    circle = ev.cluster.carrier(node_count)
    values = _kernel_values(system, circle, ev.schur_many(y, circle.nodes))
    return Germ(ev.cluster.center, SampledFunction(circle, values))


def _frame(base: BasePointData, systems: Sequence[RootSystem], y, reduced) -> FrameSet:
    """Frame at y from ``reduced[s] = (schur, correction)`` on cluster s's carrier.

    Each block embeds the kernel-side samples g as ``K g - Kperp p22^{-1} p21 g``;
    the correction differs from the one applied to the germ only by a
    holomorphic function, which the singular part kills.
    """
    blocks, labels = [], []
    for s, (c, system, (schur, correction)) in enumerate(zip(base.clusters, systems, reduced)):
        circle = c.carrier(len(schur))
        g = _kernel_values(system, circle, schur)
        blocks.append(Germ(c.center, SampledFunction(circle, c.K @ g - c.Kperp @ (correction @ g))))
        labels.extend((s, j, l) for j, l in system.entry_labels())
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return FrameSet(y=y_key, blocks=blocks, labels=labels)


def frames_from_blocks(base: BasePointData, systems, duals, y, carrier_blocks) -> tuple:
    """Frame and dual frame at y from the blocks of P(y, .) on each cluster's carrier.

    The dual is the primal construction on the adjoint family.  Node t of a
    dual carrier is node -t mod N of the primal one conjugated, where the
    adjoint blocks are p11^H, p21^H, p12^H and p22^H: the Schur complement is
    S^H and the correction ``(p12 p22^{-1})^H``, with no evaluation or
    factorization.
    """
    primal, adjoint = [], []
    for cl, blocks in zip(base.clusters, carrier_blocks):
        schur, correction, inv = _schur(blocks, cl.carrier(len(blocks[0])).nodes)
        primal.append((schur, correction))
        reverse = -np.arange(len(schur)) % len(schur)
        adjoint.append([m.conj().swapaxes(1, 2)[reverse] for m in (schur, blocks[1] @ inv)])
    return _frame(base, systems, y, primal), _frame(base.conjugate_swapped(), duals, y, adjoint)


def frames_at(chart, base: BasePointData, systems, duals, y, node_count: int = 128) -> tuple:
    """Frame and dual frame of the kernel bundle at parameter y, one germ block
    per cluster each, from one block evaluation per carrier."""
    evs = [SchurEvaluator(chart, base, s) for s in range(len(base.clusters))]
    blocks = [ev.blocks_many(y, ev.cluster.carrier(node_count).nodes) for ev in evs]
    return frames_from_blocks(base, systems, duals, y, blocks)


def independence_check(frame: FrameSet, base: BasePointData) -> float:
    """Condition number of the Gram matrix of frame values on probe circles.

    Values are collected on each cluster's contour, outside every carrier,
    one block evaluation per cluster and contour.  Failure beyond the hard
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
