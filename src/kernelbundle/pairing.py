"""Contour pairing between frames and dual frames, and section coefficients.

The pairing integrates ``psi(conj(sigma))^H P(y, sigma) phi(sigma)`` over a
circle around each cluster with the weight ``1/(2 pi)``; on the trapezoid
nodes of a circle this is ``(i rho / N) sum_t e^{i theta_t} (...)``.  Any
circle that encloses the cluster's singular points serves, so the pairing
reads P and the germs on the frames' own carriers: there, a germ's class is
the negative-frequency half of its carrier samples, and P is sampled once on
all carriers.  The sweep reads neither germs nor P: P phi_b and P* psi_a are
holomorphic, so it pairs ``g_b = K^H phi_b = (sigma - c)^l S^{-1} beta_j``
against ``h_a = K^H P* psi_a``, fixed at the base point, and as h_a(conj
sigma)^H is holomorphic on the disc, ``oint h_a^H sing(g_b) = oint h_a^H g_b``:
with no class projection, one contraction of S^{-1} on the carrier nodes
against a tensor held since the base point (``frames._held_factors``).
The independent oracles, which evaluate the germs on the cluster contours
instead, live in ``tests/oracles.py``.  At the base parameter the pairing
of the canonical frames is the anti-diagonal constant block per chain; away
from it the matrix stays invertible on the validated neighborhood and turns
frame data into coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contour import Circle, SampledFunction, cauchy_moment, singular_part_at_nodes
from .errors import InputError, NondegeneracyError, SectionResidualError
from .frames import FrameSet, Germ
from .keldysh import RootSystem
from .reduction import BasePointData, _by_cluster, _evaluated, _nodes, _stacks

PAIRING_CONDITION_LIMIT = 1e12


def _contour_pairing(circle: Circle, phis, psis) -> np.ndarray:
    """(1/2pi) contour integral of psi(conj sigma)^H phi(sigma) on one circle, or on circles of its
    radius and node count N, one per index of the axes before the node axis.

    ``phis`` (..., N, m, B) holds the values at the nodes, such as P(y, sigma) times the frame
    values, and ``psis`` (..., N, m, A) the values at the conjugated nodes, such as the dual
    values.  Returns the (..., A, B) blocks of pairings: ``i`` times the order-0 ``cauchy_moment``
    of the integrand, its node axis first.
    """
    integrand = np.conj(psis).swapaxes(-1, -2) @ phis
    return 1j * cauchy_moment(SampledFunction(circle, np.moveaxis(integrand, -3, 0)), 0)


@dataclass
class PairingMatrix:
    y: tuple
    matrix: np.ndarray  # (dual entries, frame entries)
    labels: list
    dual_labels: list
    condition: float

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


def _block_diagonal(blocks: list) -> np.ndarray:
    """Square matrix with the given square blocks on its diagonal and zeros elsewhere."""
    total = sum(len(b) for b in blocks)
    out = np.zeros((total, total), dtype=complex)
    offset = 0
    for b in blocks:
        out[offset : offset + len(b), offset : offset + len(b)] = b
        offset += len(b)
    return out


def _checked_pairing(m: np.ndarray, y: tuple, labels: list, dual_labels: list) -> PairingMatrix:
    """The pairing matrix with its condition number; raises when it is numerically singular."""
    svals = np.linalg.svd(m, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > PAIRING_CONDITION_LIMIT:
        raise NondegeneracyError(f"pairing matrix is numerically singular (condition {cond:.3e})")
    return PairingMatrix(y=y, matrix=m, labels=labels, dual_labels=dual_labels, condition=cond)


def _stacked_pairings(circle: Circle, rows, pvals, frame, dual, section) -> tuple:
    """The pairing blocks ``[phi_b, psi_a]`` of C clusters, (C, E, E), and the columns ``[section,
    psi_a]``, (C, E), None without a section: from P's active part at the nodes of their carriers
    (C, N, a, a), of ``circle``'s radius and node count, and its rows (C, a), None where all n are,
    and from the frame, dual and section samples on the carriers, (C, N, n, E), (C, N, n, E), (C, N, n).

    Germs vanish off a cluster's active rows, so they are cut to them, and a germ's class there is
    the singular part of its samples at the nodes: one FFT pair over the frame, dual and section
    columns together.  The dual block is needed at the conjugated carrier nodes, the nodes of its
    own carrier in the order ``t -> -t mod N``.
    """
    n, e = circle.node_count, frame.shape[-1]
    columns = np.concatenate([frame, dual] + ([] if section is None else [section[..., None]]), axis=-1)
    if rows is not None:
        columns = columns[np.arange(len(rows))[:, None], :, rows].swapaxes(1, 2)
    parts = singular_part_at_nodes(columns.swapaxes(0, 1)).swapaxes(0, 1)
    psis = parts[:, -np.arange(n) % n, :, e : 2 * e]
    # contracted apart: matmul roundoff depends on the column count
    column = None if section is None else _contour_pairing(circle, pvals @ parts[..., 2 * e :], psis)[..., 0]
    return _contour_pairing(circle, pvals @ parts[..., :e], psis), column


def _assembled(y: tuple, labels: list, dual_labels: list, stacks, pairings) -> tuple:
    """The checked pairing matrix and the section column (None without a section) from the
    ``(blocks, column)`` of the shape classes ``stacks``, such as ``_stacked_pairings``: the fiber
    splits over the clusters, so their blocks lie on the diagonal, in cluster order."""
    matrix = _block_diagonal(_by_cluster(stacks, [blocks for blocks, _ in pairings]))
    column = None if pairings[0][1] is None else np.concatenate(_by_cluster(stacks, [c for _, c in pairings]))
    return _checked_pairing(matrix, y, labels, dual_labels), column


def _pairings(chart, base: BasePointData, y, frame: FrameSet, dual: FrameSet, section) -> tuple:
    """The checked pairing matrix ``[phi_b, psi_a]``, and the column ``[section, psi_a]`` when a
    section is given (None otherwise).

    Each cluster's frame block pairs only with its dual block, on the frame block's carrier,
    which encloses the cluster's singular points: one ``_stacked_pairings`` per class of
    clusters whose frame blocks and active parts have one shape, the section's germ riding
    along, with P's active part on their carriers from one ``_evaluated`` call.  The two
    carriers must have the same node count and radius, and the section's germ the frame's.
    """
    sizes = frame.sizes()
    if sizes != dual.sizes():
        raise InputError("frame and dual frame must have the same number of entries per cluster")
    if section is not None and len(section) != len(sizes):
        raise InputError("a section needs one germ per cluster")
    for s, g in enumerate(frame.blocks):
        germs = [dual.blocks[s]] + ([] if section is None else [section[s]])
        if any((h.carrier.circle.node_count, h.rho) != (g.carrier.circle.node_count, g.rho) for h in germs):
            raise InputError("a cluster's frame, dual and section germs need carriers of one node count and radius")
    stacks = _stacks(chart, base, [(g.carrier.values.shape, g.rho) for g in frame.blocks])
    pairings, circles = [], [[g.carrier.circle] for g in frame.blocks]
    for st, (rows, active, _) in zip(stacks, _evaluated(stacks, y, _nodes(stacks, circles, 0))):
        samples = [np.stack([g.blocks[s].carrier.values for s in st.index]) for g in (frame, dual)]
        sec = None if section is None else np.stack([section[s].carrier.values for s in st.index])
        pairings.append(_stacked_pairings(circles[st.index[0]][0], rows, active, *samples, sec))
    return _assembled(frame.y, frame.labels, dual.labels, stacks, pairings)


def pairing_matrix(
    chart,
    frame: FrameSet,
    dual: FrameSet,
    base: BasePointData,
    y,
) -> PairingMatrix:
    """All pairings [phi_b, psi_a] as a matrix indexed (a, b), each cluster's block on its
    frame block's carrier, where P is sampled once.

    Frame and dual germs attached to different clusters pair to zero up to
    quadrature error (the integrand is holomorphic across the other cluster's
    contour), so only same-cluster blocks are integrated; cross blocks are
    set to zero exactly.
    """
    return _pairings(chart, base, y, frame, dual, None)[0]


def expected_base_pairing(systems: Sequence[RootSystem]) -> np.ndarray:
    """Block-diagonal matrix with i on each chain's anti-diagonal.

    At the base parameter, [phi_{j,l}, psi_{j',l'}] = i when j = j' and
    l + l' = L_j - 1, and 0 otherwise.
    """
    total = sum(sys.total for sys in systems)
    out = np.zeros((total, total), dtype=complex)
    offset = 0
    for system in systems:
        for L in system.lengths:
            for l in range(L):
                out[offset + (L - 1 - l), offset + l] = 1j
            offset += L
    return out


@dataclass
class CoefficientVector:
    y: tuple
    labels: list
    values: np.ndarray
    pairing: PairingMatrix

    def by_label(self) -> dict:
        return {lab: val for lab, val in zip(self.labels, self.values)}


def coefficients(
    chart,
    frame: FrameSet,
    dual: FrameSet,
    base: BasePointData,
    y,
    section: Sequence[Germ],
    residual_tol: Optional[float] = None,
) -> CoefficientVector:
    """Coefficients of a section of the kernel bundle in the given frame.

    A section is what the fiber splits into: a sequence with one germ per
    cluster, in cluster order, each on its frame block's carrier and paired
    only there.  Solves ``M f = b`` where ``M[a, b] = [phi_b, psi_a]`` and
    ``b[a] = [section, psi_a]``; one step of iterative refinement keeps the
    solve honest near the condition limit.  ``M`` and ``b`` come from one
    sample of P on the carriers; the result carries ``M`` as its ``pairing``.
    If a tolerance is given, each cluster's reconstruction ``sum f_b phi_b``
    is compared against its germ on a probe circle and a miss raises a
    residual error.
    """
    pairing, b = _pairings(chart, base, y, frame, dual, section)
    f = _solved(pairing.matrix, b)
    if residual_tol is not None:
        residual = _reconstruction_residual(frame, f, section)
        if residual > residual_tol:
            raise SectionResidualError(
                f"section is not in the span of the frame (residual {residual:.3e})"
            )
    return CoefficientVector(frame.y, frame.labels, f, pairing)


def _solved(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of ``m f = b`` after one step of iterative refinement."""
    f = np.linalg.solve(m, b)
    return f + np.linalg.solve(m, b - m @ f)


def _reconstruction_residual(frame: FrameSet, f: np.ndarray, section) -> float:
    """Relative sup miss of each cluster's sum f_b phi_b against its section germ."""
    worst = 0.0
    scale = 0.0
    for block, coeffs, germ in zip(frame.blocks, frame.split(f), section):
        circ = block.carrier.circle
        probe = Circle(circ.center, circ.radius * 1.2, 64)
        target = germ.eval(probe)
        worst = max(worst, float(np.max(np.abs(block.eval(probe) @ coeffs - target))))
        scale = max(scale, float(np.max(np.abs(target))))
    return worst / max(scale, 1e-300)
