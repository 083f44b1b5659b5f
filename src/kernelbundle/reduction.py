"""Local reduction of a family near its singular points.

At a base point y0 each singular point sigma_s carries the kernel and
cokernel bases of P(y0, sigma_s).  With respect to these frozen bases the
family decomposes into four blocks; the Schur complement of the invertible
complement block is a k x k family whose determinant tracks the local
multiplicity as y moves.  On a chart of diagonal blocks, the bases live in
the active blocks, those that vanish at sigma_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .contour import COUNT_NODES, Circle, ZeroReport, _continued_winding, _polar, _windings, locate_zeros
from .errors import (
    InputError,
    KernelBundleError,
    NumericalError,
    RankGapError,
    ReductionInvalidError,
    RegionError,
    ResolutionError,
    ValidationError,
    ZeroOnContourError,
)
from .family import FamilyChart, _as_param, _assemble

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
# validate_neighborhood: the smallest admissible relative margin of the
# complement block.  Each of a cluster's count circles has COUNT_NODES nodes.
INVERTIBILITY_FLOOR = 1e-12
# The fiber does not depend on the circle that carries it, so each cluster
# fixes two: frames are sampled and paired on the carrier at CARRIER_FRACTION
# of the cluster radius, and probed on the contour at CONTOUR_FRACTION,
# outside every carrier, where the contour oracles of tests/oracles.py pair them.
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


def kernel_cokernel(matrix: np.ndarray, rank_tol: float, scale_floor: float):
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
    k = int(np.sum(s <= _rank_threshold(s, rank_tol, scale_floor)))
    v = vh.conj().T
    K = _fix_column_phases(v[:, n - k :])
    Kperp = _fix_column_phases(v[:, : n - k])
    Rperp = _fix_column_phases(u[:, n - k :])
    R = _fix_column_phases(u[:, : n - k])
    return K, Kperp, Rperp, R


def _rank_threshold(s: np.ndarray, rank_tol: float, scale_floor: float) -> float:
    """``rank_tol`` times the largest of the singular values ``s`` and ``scale_floor``;
    singular values within a factor 10 of it raise a rank-gap error."""
    thr = rank_tol * max(float(np.max(s, initial=0.0)), scale_floor)
    if np.any((s > thr / 10.0) & (s < thr * 10.0)):
        raise RankGapError(
            f"ill-separated rank: singular values {s.ravel().tolist()} have no factor-10 "
            f"gap around threshold {thr:.3e}",
            singular_values=s,
        )
    return thr


@dataclass
class Cluster:
    """Singular point of P(y0, .) with frozen bases and working radius; the bases
    vanish off the rows of the chart's ``active_blocks``."""

    center: complex
    multiplicity: int
    kernel_dim: int
    K: np.ndarray
    Kperp: np.ndarray
    Rperp: np.ndarray
    R: np.ndarray
    radius: float
    active_blocks: tuple

    def count_circles(self) -> list:
        """Circles of radius epsilon and epsilon/2 on which the reduced zeros of this
        cluster are counted: while both hold its multiplicity, every local singular
        point stays in the inner half-disc."""
        return [Circle(self.center, f * self.radius, COUNT_NODES) for f in (1.0, 0.5)]

    def carrier(self, node_count: int) -> Circle:
        """Circle that carries the frame germs of this cluster."""
        return Circle(self.center, CARRIER_FRACTION * self.radius, node_count)

    def contour(self, node_count: int) -> Circle:
        """Circle outside the carrier on which this cluster's germs are probed, and paired by
        the contour oracles of ``tests/oracles.py``."""
        return Circle(self.center, CONTOUR_FRACTION * self.radius, node_count)


@dataclass
class BasePointData:
    y0: np.ndarray
    clusters: list

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

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
    """Cluster s of a base point as the view ``stack = ClusterStack(chart, base, [s])``: its blocks and
    Schur complement at any sigma, each solve with a fresh factorization for its (y, sigma)."""

    def __init__(self, chart: FamilyChart, base: BasePointData, s: int):
        if not 0 <= s < len(base.clusters):
            raise InputError(f"cluster index {s} out of range")
        self.s, self.cluster, self.stack = s, base.clusters[s], ClusterStack(chart, base, [s])

    def blocks(self, y, sigma: complex):
        """The four blocks of P(y, sigma) w.r.t. the frozen decompositions."""
        return tuple(blk[0] for blk in self.blocks_many(y, [sigma])[:4])

    def blocks_many(self, y, sigmas):
        """``ClusterStack.blocks_at`` of the cluster."""
        return self.stack.blocks_at(y, sigmas)

    def schur(self, y, sigma: complex) -> np.ndarray:
        """k x k reduced family p11 - p12 p22^{-1} p21 in the frozen bases."""
        return self.schur_many(y, [sigma])[0]

    def schur_many(self, y, sigmas) -> np.ndarray:
        return _schur(self.blocks_many(y, sigmas), sigmas)[0]


class ClusterStack:
    """The clusters ``index`` of a base point, sampled through ``chart``, of one active-part size, kernel
    dimension and number of other diagonal blocks, their frozen data stacked on a leading cluster axis:
    one array pass reduces them all, and each cluster's numbers are the ones it gives alone."""

    def __init__(self, chart: FamilyChart, base: BasePointData, index: Sequence[int]):
        self.chart, self.base, self.index = chart, base, list(index)
        self.clusters = [base.clusters[s] for s in self.index]
        self.active_blocks = np.array([c.active_blocks for c in self.clusters])
        self._frozen: dict = {}

    def frozen(self, m: int, b: int) -> tuple:
        """``(other, rows, left, right)`` on M diagonal blocks of size b: each cluster's other blocks
        and active rows (C, .), both None where its active blocks are all, and its frozen bases
        ``[Rperp R]^H`` and ``[K Kperp]`` on those rows (C, a, a); ``left @ P @ right`` are the
        blocks of P's active part."""
        if (m, b) not in self._frozen:
            act = self.active_blocks
            whole = act.shape[1] == m
            other = None if whole else np.array([[j for j in range(m) if j not in a] for a in act.tolist()])
            rows = None if whole else (act[:, :, None] * b + np.arange(b)).reshape(len(act), -1)
            at = [slice(None)] * len(self.clusters) if rows is None else rows
            left = np.stack([np.concatenate([c.Rperp, c.R], axis=1)[r] for c, r in zip(self.clusters, at)])
            right = np.stack([np.concatenate([c.K, c.Kperp], axis=1)[r] for c, r in zip(self.clusters, at)])
            self._frozen[m, b] = other, rows, left.conj().swapaxes(1, 2), right
        return self._frozen[m, b]

    def split(self, blocks: np.ndarray, held: int) -> tuple:
        """``(active, rest)`` of diagonal blocks (C, N, M, b, b), the clusters' ``eval_blocks``
        stacked: each cluster's active blocks assembled, (C, N, a, a), and its other blocks,
        untouched, at the first ``held`` nodes alone, (C, held, R, b, b)."""
        other = self.frozen(*blocks.shape[2:4])[0]
        if other is None:
            return _assemble(blocks), blocks[:, :held, :0]
        at = np.arange(len(other))[:, None]
        return _assemble(blocks[at, :, self.active_blocks].swapaxes(1, 2)), blocks[:, :held][at, :, other].swapaxes(1, 2)

    def blocks_many(self, active: np.ndarray, rest: np.ndarray) -> tuple:
        """``blocks_at`` of every cluster from the ``split`` of their stacked diagonal blocks, each
        array with the leading axes (C, N): the active part in the frozen bases, cut into its four
        blocks, and the other diagonal blocks where ``split`` holds them."""
        b = rest.shape[-1]
        _, _, left, right = self.frozen(rest.shape[2] + active.shape[-1] // b, b)
        B = _rotated(left, active, right)
        k = self.clusters[0].K.shape[1]
        return B[..., :k, :k], B[..., :k, k:], B[..., k:, :k], B[..., k:, k:], rest

    def blocks_at(self, y, sigmas) -> tuple:
        """``(p11, p12, p21, p22, rest)`` of a one-cluster stack at the sigmas from one region-checked
        ``eval_blocks`` call, each with a leading node axis: ``blocks_many`` with every node held."""
        raw = self.chart.eval_blocks(y, sigmas)[None]
        return tuple(x[0] for x in self.blocks_many(*self.split(raw, raw.shape[1])))


def _stacks(chart: FamilyChart, base: BasePointData, keys) -> list:
    """The clusters of a base point in shape classes, one ``ClusterStack`` each, in order of first
    appearance: clusters of equal active-part size and kernel dimension, and
    of equal ``keys``, one per cluster."""
    groups: dict = {}
    for s, (c, key) in enumerate(zip(base.clusters, keys)):
        groups.setdefault((len(c.active_blocks), c.kernel_dim, key), []).append(s)
    return [ClusterStack(chart, base, index) for index in groups.values()]


def _by_cluster(stacks, arrays) -> list:
    """The entries of arrays stacked on a leading cluster axis, one per shape class of ``stacks``,
    in cluster order."""
    entry = {s: a[i] for st, a in zip(stacks, arrays) for i, s in enumerate(st.index)}
    return [entry[s] for s in sorted(entry)]


def _rotated(left: np.ndarray, m: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ m @ right`` at every node of stacks m (C, N, a, a), with one pair of bases (C, a, a)
    per cluster.  For a <= 2 it is the sum of outer products, formed elementwise with the nodes
    last: no BLAS call per node, and each node's product is independent of the batch that carries it."""
    if m.shape[-1] > 2:
        return left[:, None] @ m @ right[:, None]
    nodes_last = np.ascontiguousarray(m.transpose(2, 3, 0, 1))
    outer = _outer_sum(left.transpose(1, 2, 0)[..., None], nodes_last)
    return _outer_sum(outer, right.transpose(1, 2, 0)[..., None]).transpose(2, 3, 0, 1)


def _outer_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for matrices stacked along the last axis, (i, p, .) and (p, j, .) with p <= 2, as
    the sum of p outer products."""
    out = x[:, 0, None] * y[None, 0]
    return out + x[:, 1, None] * y[None, 1] if x.shape[1] == 2 else out


def _det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 2 x 2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _sq(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of a stack of matrices; of 1 x 1 ones, ``re^2 + im^2`` in closed form."""
    if a.shape[-2:] == (1, 1):
        return (x := a[..., 0, 0]).real * x.real + x.imag * x.imag
    x = np.ascontiguousarray(a).view(float).reshape(a.shape[:-2] + (2 * a.shape[-2] * a.shape[-1],))
    return (x * x).sum(axis=-1)


def _inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack of b x b matrices: for b <= 2 the adjugate over the determinant,
    elsewhere LAPACK's; an exactly singular matrix has infinite entries."""
    if a.shape[-1] < 2:
        return np.where(a == 0, np.inf, 1 / a)
    if a.shape[-1] == 2:
        adj, det = a[..., ::-1, ::-1].swapaxes(-1, -2) * [[1, -1], [-1, 1]], _det(a)[..., None, None]
        return np.where(det == 0, np.inf, adj / det)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:  # one exactly singular matrix fails the whole stack
        return np.stack([_inverse(x) for x in a]) if a.ndim > 2 else np.full_like(a, np.inf)


def _scaled(blocks) -> tuple:
    """``(scale, p22, rest)``: the diagonal blocks of the complement block at each node, of any
    leading axes, over the node's scale (..., 1), the largest real or imaginary part of their entries."""
    p22, rest, lead, a = blocks[3], blocks[4], blocks[3].shape[:-2], blocks[3].shape[-1] ** 2
    entries = np.concatenate([p22.reshape(*lead, a), rest.reshape(*lead, -1)], axis=-1).view(float)
    # the short rows' maxima read faster off a column-major array
    scale = np.abs(entries, order="F").max(axis=-1, keepdims=True, initial=np.finfo(float).tiny)
    scaled = (entries / scale).view(complex)
    return scale, scaled[..., :a].reshape(p22.shape), scaled[..., a:].reshape(rest.shape)


def _complement(scaled) -> tuple:
    """``(phase, logabs, svals)`` of C = diag(p22, rest) at each node of the ``_scaled`` blocks, of any
    leading axes: det C, holomorphic in sigma, as one product over the node's scale of the blocks'
    determinants, and C's singular values, the blocks', on a leading axis (m, ...).  Blocks of size
    b <= 2 take closed forms with the nodes last: for b = 2, ``s1 +- s2 = sqrt(|a +- w conj d|^2 + |b
    -+ w conj c|^2)`` with ``w = det / |det|``, free of cancellation, give ``s1`` as their mean, and
    ``s2 = |det| / s1``."""
    scale, p22, rest = scaled
    lead, m = scale.shape[:-1], p22.shape[-1] + rest.shape[-3] * rest.shape[-1]
    phase, logabs, svals = np.ones(lead, complex), m * np.log(scale[..., 0]), [np.zeros((0, *lead))]
    for a in (x for x in (p22[..., None, :, :], rest) if x.size):
        if a.shape[-1] > 2:
            (w, la), s = np.linalg.slogdet(a), np.linalg.svd(a, compute_uv=False)
            w, la, s = np.moveaxis(w, -1, 0), np.moveaxis(la, -1, 0), np.moveaxis(s, (-1, -2), (0, 1))
        else:
            # the entries first and the nodes last, (b, b, R, ...): a view for b = 1, whose moduli
            # are formed C-ordered, so the sums over R run as on a copy
            x = a.transpose(a.ndim - 2, a.ndim - 1, a.ndim - 3, *range(a.ndim - 3))
            x = x if a.shape[-1] == 1 else np.ascontiguousarray(x)
            mod = np.abs(det := x[0, 0] if a.shape[-1] == 1 else x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0], order="C")
            with np.errstate(divide="ignore", invalid="ignore"):
                w, la = np.divide(det, mod, order="C"), np.log(mod)
            w[~(mod > 0)] = 1.0
            if a.shape[-1] == 1:
                s = mod[None]
            else:
                p, q, r, t = x[0, 0], w * x[1, 1].conj(), x[0, 1], w * x[1, 0].conj()
                s = np.empty((2, *mod.shape))
                np.multiply(0.5, np.hypot(np.abs(p + q), np.abs(r - t)) + np.hypot(np.abs(p - q), np.abs(r + t)), out=s[0])
                np.divide(mod, np.maximum(s[0], np.finfo(float).tiny, out=s[1]), out=s[1])
        phase, logabs = phase * w.prod(axis=0), logabs + la.sum(axis=0)
        svals.append(s.reshape(-1, *lead))
    return phase, logabs, scale[..., 0] * np.concatenate(svals)


def _guard(blocks, held: int) -> tuple:
    """``(p22^{-1}, conds, complement)`` at the nodes of ``blocks_many`` (C, N, .), ``rest`` held at the
    first ``held``, where ``complement`` is their ``_complement``.  Per cluster, A and B are the largest
    ``||rest||_F^2`` and ``||rest^{-1}||_F^2`` there, sums over rest's singular values, over its reference
    scale, the power of two at or above its largest node scale, by which p22 scales exactly.  Every node
    bounds the Frobenius condition of the m x m complement block C, unitarily ``diag(p22, rest)``, by
    ``sqrt((||p22||_F^2 + A)(||p22^{-1}||_F^2 + B))``, raised by the inverses' roundoff (``m eps cond``),
    inf where a block is singular: never below the node's own, as where det C does not wind around the
    held circles, rest^{-1} is holomorphic on their discs, and its maxima there are on the circles."""
    p22, rest = blocks[3], blocks[4]
    scale, *scaled = _scaled((*blocks[:3], p22[:, :held], rest))
    complement = _complement((scale, *scaled))
    ref = np.ldexp(1.0, np.frexp(scale.max(axis=1, keepdims=True, initial=np.finfo(float).tiny))[1])[..., None]
    rs, m = (complement[2][p22.shape[-1] :] / ref[:, :, 0, 0]) ** 2, len(complement[2])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big, own = rs.sum(axis=0).max(axis=1, keepdims=True, initial=0.0), (1 / rs).sum(axis=0)
        small, inv = own.max(axis=1, keepdims=True, initial=0.0), _inverse(p := p22 / ref)
        conds = np.sqrt((_sq(p) + big) * (_sq(inv) + small))
        # where rest's maxima alone break the limit, held nodes bound with their own ||rest^{-1}||_F^2
        if (broken := big * small > P22_CONDITION_LIMIT ** 2).any():
            np.copyto(conds[:, :held], np.sqrt((_sq(p[:, :held]) + big) * (_sq(inv[:, :held]) + own)), where=broken)
        return inv / ref, conds * (1.0 + m * np.finfo(float).eps * conds), complement


def _reduce(blocks, held: int) -> tuple:
    """``(schur, correction, *guard)``, unchecked, at every node of ``blocks_many`` (C, N, .):
    ``p11 - p12 p22^{-1} p21``, ``p22^{-1} p21`` and ``_guard(blocks, held)``, p22^{-1} first."""
    p11, p12, p21 = blocks[:3]
    inv, conds, complement = _guard(blocks, held)
    with np.errstate(invalid="ignore"):
        correction = inv @ p21
        return p11 - p12 @ correction, correction, inv, conds, complement


def _checked(conds, sigmas) -> None:
    """Raise where the guard condition ``conds`` at ``sigmas`` exceeds ``P22_CONDITION_LIMIT``."""
    worst = int(np.argmax(conds))
    if not conds[worst] <= P22_CONDITION_LIMIT:
        raise ReductionInvalidError(
            f"reduction invalid here: complement block condition {conds[worst]:.3e} "
            f"at sigma = {sigmas[worst]}"
        )


def _schur(blocks, sigmas):
    """One cluster's guarded reduction, ``_reduce``'s first three arrays, at ``sigmas``, all held."""
    reduced = _reduce([x[None] for x in blocks], len(sigmas))
    _checked(reduced[3][0], sigmas)
    return tuple(x[0] for x in reduced[:3])


def _nodes(stacks: Sequence[ClusterStack], circles, held: int) -> tuple:
    """``(nodes, classes)`` for ``_evaluated`` on the circles ``circles[s]`` of each cluster s, region-checked
    once for any number of parameters: all nodes in one array, and per shape class of ``stacks`` its shape
    (C, N), its circles' node runs and the count of nodes on its first ``held`` circles, which hold rest."""
    nodes = [np.stack([np.concatenate([c.nodes for c in circles[s]]) for s in st.index]) for st in stacks]
    flat = np.concatenate([x.ravel() for x in nodes])
    if not np.all(stacks[0].chart.sigma.contains(flat)):
        raise RegionError("sigma batch leaves the chart region")
    sizes = [[c.node_count for c in circles[st.index[0]]] for st in stacks]
    runs = [[slice(e - n, e) for n, e in zip(x, accumulate(x))] for x in sizes]
    return flat, [(x.shape, r, sum(z[:held])) for x, r, z in zip(nodes, runs, sizes)]


def _evaluated(stacks: Sequence[ClusterStack], y, nodes) -> list:
    """P at y per shape class of ``stacks`` on the ``_nodes`` ``nodes``, from one ``eval_blocks`` call:
    ``(rows, active, rest)``, the active rows (C, a), None where all, and ``split``."""
    flat, classes = nodes
    blocks = stacks[0].chart.eval_blocks(y, flat, False)
    ends = accumulate(c * n for (c, n), _, _ in classes)
    raw = [blocks[e - c * n : e].reshape(c, n, *blocks.shape[1:]) for ((c, n), _, _), e in zip(classes, ends)]
    return [(st.frozen(*r.shape[2:4])[1], *st.split(r, x[2])) for st, r, x in zip(stacks, raw, classes)]


def _sampled(stacks: Sequence[ClusterStack], y, nodes) -> list:
    """``_evaluated``, rotated and reduced in one array pass per class: per class and circle, ``_reduce``'s
    arrays at its nodes and p12 there, (C, N, .) each, unchecked, then its complement, None off ``held``."""
    out = []
    for st, (_, active, rest), (_, runs, held) in zip(stacks, _evaluated(stacks, y, nodes), nodes[1]):
        *reduced, c = _reduce(blocks := st.blocks_many(active, rest), held)
        reduced.append(blocks[1])
        out.append([(*(a[:, r] for a in reduced), tuple(x[..., r] for x in c) if r.stop <= held else None) for r in runs])
    return out


def _slogdet(m: np.ndarray) -> tuple:
    """``slogdet`` of a stack of k x k matrices; for k = 1 the entry's ``_polar``."""
    return _polar(m[..., 0, 0]) if m.shape[-1] == 1 else np.linalg.slogdet(m)


def _p22_margin(s: np.ndarray) -> np.ndarray:
    """Per cluster, the smallest complement singular value of ``s`` (m, C, N) over the largest; inf where none."""
    return s.min(axis=(0, 2), initial=np.inf) / np.maximum(s.max(axis=(0, 2), initial=0.0), 1e-300)


def _raised(counts: list) -> list:
    """Counts of ``_neighborhood``, or what ``_neighborhoods`` found, after raising the first error among them."""
    error = next((x for x in counts if isinstance(x, Exception)), None)
    if error is not None:
        raise error
    return counts


def _neighborhood(stacks, y, circles, classes, counted, complement) -> tuple:
    """Conditions (3) and (4) at y from ``_sampled``'s ``classes`` of ``stacks`` on ``circles``, in one
    ``_windings`` call over the reduced determinant on the circles ``counted`` names and det C on those
    ``complement`` names; an unresolved loop continues at its circle's midpoints.  In cluster order:
    ``(counts, margins, annulus, rows)``.  Per ``counted`` circle, the zeros inside it or the error that
    ended the count: its guard's, its loop's or its continuation's.  Per ``complement`` circle, condition
    (2) or (3): the ``_p22_margin`` there, or 0 where det C winds around it or a zero or a non-finite
    value ends its count; where it does not wind, C^{-1} is holomorphic on the disc, so by the maximum
    principle s_min(C) on the disc is at least its minimum on the circle, and s_max(C) at most its
    maximum there.  Condition (4): the smallest |det| over the largest on the ``counted`` circles, 0
    where a count differs from the multiplicity or a zero on a circle or an unresolved loop ends it,
    or the count's error.  And per ``counted`` circle, the ``(phase, logabs)`` rows (C, N)."""
    index, k, clusters = [s for st in stacks for s in st.index], len(counted), stacks[0].base.clusters
    order = sorted(range(len(index)), key=index.__getitem__)
    per = [[(*_slogdet(c[i][0]), c[i][3]) for c in classes] for i in counted]
    per += [[(*c[i][5][:2], _p22_margin(c[i][5][2])) for c in classes] for i in complement]
    phase, logabs, third = ([np.concatenate([x[q] for x in p]) if p[1:] else p[0][q] for p in per] for q in range(3))
    rows, out, size = np.concatenate(logabs), [], len(index)
    ws = _windings(np.concatenate(phase), rows)
    for j, i in enumerate((*counted, *complement)):
        # per cluster, whether a count's guard holds, or a complement circle's margin
        counting, row = j < k, []
        held = (third[j].max(axis=1) <= P22_CONDITION_LIMIT).tolist() if counting else third[j].tolist()
        for r in order:
            s, w = index[r], ws[j * size + r]
            try:
                if counting and not held[r]:
                    _checked(third[j][r], circles[s][i].nodes)
                if isinstance(w, Exception):
                    raise w
                if w is None:
                    q = _continuation(ClusterStack(stacks[0].chart, stacks[0].base, [s]), y, counting)
                    w = _continued_winding(q, circles[s][i].path, phase[j][r], logabs[j][r])
            except (KernelBundleError if counting else NumericalError) as exc:
                w = exc
            row.append(w if counting else held[r] if w == 0 else 0.0)
        out.append(row)
    with np.errstate(invalid="ignore"):
        ratios = np.exp(rows.min(axis=1) - rows.max(axis=1)).tolist()
    annulus = []
    for s, r in enumerate(order):
        bad = next((x[s] for x in out[:k] if x[s] != clusters[index[r]].multiplicity), None)
        if bad is None:
            annulus.append(min((ratios[j * size + r] for j in range(k)), default=np.inf))
        else:
            annulus.append(0.0 if isinstance(bad, (int, ZeroOnContourError, ResolutionError)) else bad)
    return out[:k], out[k:], annulus, ([x[order] for x in phase[:k]], [x[order] for x in logabs[:k]])


def _neighborhoods(stacks, circles, points):
    """Per point y of ``points``, one ``_sampled`` pass of ``stacks`` on the ``circles``, rest held on the first
    of each cluster's, and its ``_neighborhood`` on the first two: ``(y, (classes, counts, sample))``, ``sample``
    what the first circles give, ``(y, margins, annulus, phase, logabs)``, or ``(y, error)``."""
    nodes = _nodes(stacks, circles, 1)
    for y in points:
        try:
            classes = _sampled(stacks, y, nodes)
            counts, (margins,), annulus, (phase, logabs) = _neighborhood(stacks, y, circles, classes, (0, 1), (0,))
            found = classes, counts, (y, margins, annulus, phase[0], logabs[0])
        except KernelBundleError as exc:
            found = exc
        yield y, found


def local_multiplicity(ev: SchurEvaluator, y) -> int:
    """Zeros of the reduced determinant, with multiplicity, inside the outer count
    circle, counted from one block evaluation on its nodes."""
    circles, stacks = {ev.s: ev.cluster.count_circles()[:1]}, [ev.stack]
    return _raised(_neighborhood(stacks, y, circles, _sampled(stacks, y, _nodes(stacks, circles, 1)), (0,), ())[0][0])[0]


def _slogdet_function(slogdets: Callable, n: int) -> Callable:
    """Vectorized sigma -> ``slogdets(sigmas)``, the ``(phase, logabs)`` of an n x n family per
    point, of the input's shape.

    ``slogdets`` is called on chunks of at most ``DET_CHUNK_ENTRIES // n^2`` points, so memory
    stays bounded at any node count, and ``logabs`` stays in the float range where ``det``
    itself over- or underflows.  A point's pair does not depend on the other points.
    """
    rows = max(1, DET_CHUNK_ENTRIES // n ** 2)

    def q(sigma):
        s = np.asarray(sigma, dtype=complex)
        parts = [slogdets(s.ravel()[i : i + rows]) for i in range(0, s.size, rows)]
        return tuple(np.concatenate(a).reshape(s.shape) for a in zip(*parts))

    return q


def _continuation(stack: ClusterStack, y, counting: bool) -> Callable:
    """Vectorized sigma -> ``(phase, logabs)`` at y of the one cluster of ``stack``, from its ``blocks_at``:
    where ``counting``, the guarded ``_slogdet`` of its reduced family, in the chunks of
    ``_slogdet_function``, and elsewhere det C, its ``_complement``."""
    if counting:
        return _slogdet_function(lambda s: _slogdet(_schur(stack.blocks_at(y, s), s)[0]), stack.chart.n)
    return lambda s: _complement(_scaled(stack.blocks_at(y, s)))[:2]


def _det_function(chart: FamilyChart, y) -> Callable:
    """``_slogdet_function`` of P(y, .), unchecked: location circles may poke
    slightly past the region."""
    return _slogdet_function(lambda s: np.linalg.slogdet(chart.eval_many(y, s, check=False)), chart.n)


def _located(chart: FamilyChart, y0, min_separation: Optional[float]) -> ZeroReport:
    """``locate_zeros`` of det P(y0, .) over the chart region, at ``min_separation``
    or, when that is None, at 1/64 of the region's longer side."""
    if min_separation is None:
        min_separation = max(chart.sigma.width, chart.sigma.height) / 64.0
    return locate_zeros(_det_function(chart, y0), chart.sigma, min_separation)


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


def _worst_margin(margins) -> tuple:
    """The smallest of ``(margin, label)`` pairs, with the first label within a
    relative 1e-12 of it: grid points tied up to roundoff report in grid order."""
    worst = min((m for m, _ in margins), default=np.inf)
    if worst == np.inf:
        return worst, ""
    return worst, next((lab for m, lab in margins if m <= worst + 1e-12 * worst), "")


def validate_neighborhood(chart: FamilyChart, base: BasePointData, y_grid: Sequence) -> ValidationReport:
    """Check the four neighborhood conditions on a sampled grid.

    (1) the doubled discs are disjoint and stay inside the region;
    (2) the complement block is invertible on each doubled disc at y0;
    (3) the same on the single discs for every grid y;
    (4) for every grid y, the reduced determinant has the cluster's multiplicity
        in zeros inside both count circles, so all local singular points stay in
        the inner half-disc.

    Conditions (2) to (4) are counts, read by ``_neighborhood``: det C winds zero times
    around the circle of the disc, the doubled one at y0 and the outer count circle at each
    grid y.  Margins are relative; the report records the worst case per condition.  The
    doubled circles of (2) are one ``_sampled`` pass at y0, and the grid walks the sweep's
    loop, ``_neighborhoods``: one pass over every cluster's count circles per grid y.
    """
    # (1) geometry
    region_slack = min(chart.sigma.boundary_distance(a.center) - 2 * a.radius for a in base.clusters)
    slack = region_slack
    for i, a in enumerate(base.clusters):
        for b in base.clusters[i + 1 :]:
            slack = min(slack, abs(a.center - b.center) - 2 * (a.radius + b.radius))
    conditions = [ConditionResult("disjoint_discs_in_region", bool(slack > 0), float(slack))]
    names = ("complement_invertible_base", "complement_invertible_grid", "annulus_nonvanishing")
    if region_slack <= 0:
        # the remaining conditions sample the doubled circles, which here poke
        # out of the chart region, so they cannot be evaluated
        conditions += [ConditionResult(n, False, 0.0, "not evaluated: discs leave the region") for n in names]
        return ValidationReport(conditions)

    stacks = _stacks(chart, base, [None] * len(base.clusters))
    # (2) complement block invertible on the doubled disc at y0
    doubled = [[Circle(c.center, 2 * c.radius, COUNT_NODES)] for c in base.clusters]
    classes = _sampled(stacks, base.y0, _nodes(stacks, doubled, 1))
    margin2 = min(_neighborhood(stacks, base.y0, doubled, classes, (), (0,))[1][0])
    # (3) complement block invertible on the disc, (4) the multiplicity on both count circles, per grid y
    margins = [[] for _ in base.clusters]
    for y, found in _neighborhoods(stacks, [c.count_circles() for c in base.clusters], y_grid):
        _, _, (_, disc, annulus, _, _) = _raised([found])[0]
        for s, m in enumerate(zip(disc, _raised(annulus))):
            margins[s].append([(x, f"cluster {s}, y = {y}") for x in m])

    margins = [(margin2, "")] + [_worst_margin([m[c] for row in margins for m in row]) for c in (0, 1)]
    floors = (INVERTIBILITY_FLOOR, INVERTIBILITY_FLOOR, 0.0)
    for name, (margin, worst), floor in zip(names, margins, floors):
        conditions.append(ConditionResult(name, bool(margin > floor), float(margin), worst))
    return ValidationReport(conditions)


def base_point_data(
    chart: FamilyChart,
    y0,
    epsilon: Optional[float] = None,
    min_separation: Optional[float] = None,
) -> BasePointData:
    """Locate the singular points of P(y0, .) and freeze the cluster data.

    The working radius defaults to 0.4 times the smallest gap between
    singular points and to the region boundary, then halves until the
    neighborhood conditions hold at y0 itself.  The kernel split at each
    zero uses ``KERNEL_RANK_TOL``.
    """
    y0 = _as_param(y0, chart.param_dim)
    report = _located(chart, y0, min_separation)
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

    located = chart.eval_blocks(y0, [z.location for z in report.zeros], check=False)
    for _ in range(MAX_HALVINGS + 1):
        clusters = []
        ok = True
        # the family scale on a nearby circle anchors each zero's rank threshold
        probes = np.concatenate([Circle(z.location, 0.5 * eps, 16).nodes for z in report.zeros])
        floors = np.abs(chart.eval_blocks(y0, probes, check=False)).reshape(len(report.zeros), -1).max(axis=1)
        for z, blocks, floor in zip(report.zeros, located, floors.tolist()):
            # the union spectrum of the blocks sets the rank, the blocks that vanish the bases
            svals = np.linalg.svd(blocks, compute_uv=False)
            try:
                thr = _rank_threshold(svals, KERNEL_RANK_TOL, floor)
            except RankGapError:
                if epsilon is not None:
                    raise
                ok = False
                break
            active = tuple(np.flatnonzero(np.any(svals <= thr, axis=1)).tolist())
            if not active:
                raise NumericalError(
                    f"located zero at {z.location} has numerically trivial kernel"
                )
            rows = (np.asarray(active)[:, None] * blocks.shape[-1] + np.arange(blocks.shape[-1])).ravel()
            bases = kernel_cokernel(_assemble(blocks[list(active)]), KERNEL_RANK_TOL, max(floor, float(np.max(svals))))
            K, Kperp, Rperp, R = (np.zeros((chart.n, x.shape[1]), dtype=complex) for x in bases)
            for full, x in zip((K, Kperp, Rperp, R), bases):
                full[rows] = x
            clusters.append(
                Cluster(z.location, z.multiplicity, K.shape[1], K, Kperp, Rperp, R, eps, active)
            )
        if ok:
            # at y0, condition (4) recounts the located multiplicities on the reduced determinant
            base = BasePointData(y0, clusters)
            check = validate_neighborhood(chart, base, [y0])
            if check.passed:
                return base
            if epsilon is not None:
                raise ValidationError(
                    "neighborhood conditions fail at the requested epsilon: "
                    + "; ".join(f"{c.name}: {c.margin:.3e}" for c in check.conditions if not c.passed)
                )
        eps *= 0.5
    raise ValidationError("could not validate a working radius at the base point")
