"""Contour pairing between frames and dual frames, and section coefficients.

The pairing integrates ``psi(conj(sigma))^H P(y, sigma) phi(sigma)`` over the
cluster contours with the weight ``1/(2 pi)``; on the trapezoid nodes of a
circle this is ``(i rho / N) sum_t e^{i theta_t} (...)``.  At the base
parameter the pairing of the canonical frames is the anti-diagonal constant
block per chain; away from it the matrix stays invertible on the validated
neighborhood and turns frame data into coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contour import Circle, SampledFunction, cauchy_moment
from .errors import InputError, NondegeneracyError, SectionResidualError
from .family import adjoint_chart
from .frames import FrameSet, Germ, frames_at, kframe_at
from .keldysh import DualRootSystem, RootSystem
from .reduction import BasePointData, SchurEvaluator

PAIRING_CONDITION_LIMIT = 1e12
REDUCED_PAIRING_NODES = 256


def cluster_contours(base: BasePointData, node_count: int = 256) -> list:
    """One positively oriented circle per cluster, outside every carrier."""
    return [cl.contour(node_count) for cl in base.clusters]


def _contour_pairing(circle: Circle, pvals, phis, psis) -> np.ndarray:
    """(1/2pi) contour integral of psi(conj sigma)^H P(y, sigma) phi(sigma) on one circle.

    ``pvals`` (N, n, n) holds P at the nodes, ``phis`` (N, n, B) the frame
    values at the nodes and ``psis`` (N, n, A) the dual values at the
    conjugated nodes.  Returns the (A, B) block of pairings: ``i`` times the
    order-0 moment of the integrand.
    """
    integrand = np.conj(psis).swapaxes(1, 2) @ (pvals @ phis)
    return 1j * cauchy_moment(SampledFunction(circle, integrand), 0)


def _dual_eval(psi: Germ, circle: Circle) -> np.ndarray:
    """``psi`` at the conjugated nodes of a circle, node by node.

    Those are the nodes of the conjugate circle in the order ``t -> -t mod N``,
    so the Cauchy kernel of that circle serves.
    """
    n = circle.node_count
    return psi.eval(Circle(np.conj(circle.center), circle.radius, n))[-np.arange(n) % n]


def pair(
    chart,
    y,
    phi: Germ,
    psi: Germ,
    contours: Sequence[Circle],
) -> complex:
    """Pairing of one frame entry against one dual entry over the given contours.

    The entries are single germs, such as ``frame.entry(b)`` and ``dual.entry(a)``.
    """
    total = 0.0 + 0.0j
    for circle in contours:
        phis = phi.eval(circle)[:, :, None]
        psis = _dual_eval(psi, circle)[:, :, None]
        total += _contour_pairing(circle, chart.eval_many(y, circle.nodes), phis, psis)[0, 0]
    return complex(total)


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


def _pairings(chart, frame, dual, base, y, section, node_count: int):
    """Pairings ``[phi_b, psi_a]``, and ``[section, psi_a]`` when a section is given.

    The fiber splits over the clusters, so each cluster's frame block pairs
    only with its dual block, on its own contour: P is sampled once there,
    each block is evaluated with one Cauchy sum, and the section's germ of
    that cluster rides along as one more column.  Returns ``(matrix,
    column)``, with ``column`` None without a section.
    """
    sizes = frame.sizes()
    if sizes != dual.sizes():
        raise InputError("frame and dual frame must have the same number of entries per cluster")
    if section is not None and len(section) != len(sizes):
        raise InputError("a section needs one germ per cluster")
    blocks = []
    columns = []
    for s, circle in enumerate(cluster_contours(base, node_count)):
        pvals = chart.eval_many(y, circle.nodes)
        psis = _dual_eval(dual.blocks[s], circle)
        blocks.append(_contour_pairing(circle, pvals, frame.blocks[s].eval(circle), psis))
        if section is not None:
            # contracted apart: matmul roundoff depends on the column count
            phi = section[s].eval(circle)[:, :, None]
            columns.append(_contour_pairing(circle, pvals, phi, psis)[:, 0])
    column = None if section is None else np.concatenate(columns)
    return _block_diagonal(blocks), column


def _checked_pairing(m: np.ndarray, y: tuple, labels: list, dual_labels: list) -> PairingMatrix:
    """The pairing matrix with its condition number; raises when it is numerically singular."""
    svals = np.linalg.svd(m, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else np.inf
    if not np.isfinite(cond) or cond > PAIRING_CONDITION_LIMIT:
        raise NondegeneracyError(f"pairing matrix is numerically singular (condition {cond:.3e})")
    return PairingMatrix(y=y, matrix=m, labels=labels, dual_labels=dual_labels, condition=cond)


def pairing_matrix(
    chart,
    frame: FrameSet,
    dual: FrameSet,
    base: BasePointData,
    y,
    node_count: int = 256,
) -> PairingMatrix:
    """All pairings [phi_b, psi_a] as a matrix indexed (a, b).

    Frame and dual germs attached to different clusters pair to zero up to
    quadrature error (the integrand is holomorphic across the other cluster's
    contour), so only same-cluster blocks are integrated; cross blocks are
    set to zero exactly.
    """
    m, _ = _pairings(chart, frame, dual, base, y, None, node_count)
    return _checked_pairing(m, frame.y, frame.labels, dual.labels)


def reduced_pairing_matrix(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    duals: Sequence[DualRootSystem],
    y,
) -> PairingMatrix:
    """Pairing computed inside the reduced families, block per cluster.

    Uses the k-valued frame blocks against the adjoint Schur complement at
    the reflected point: the complement corrections of the two embeddings
    cancel in the pairing, so this must agree with the full-space matrix.
    """
    adj_chart = adjoint_chart(chart)
    adj_base = base.conjugate_swapped()
    contours = cluster_contours(base, REDUCED_PAIRING_NODES)
    blocks = []
    labels = []
    dual_labels = []
    for s, (system, dual, circle) in enumerate(zip(systems, duals, contours)):
        ev = SchurEvaluator(chart, base, s)
        dual_ev = SchurEvaluator(adj_chart, adj_base, s)
        kblock = kframe_at(ev, system, y, REDUCED_PAIRING_NODES)
        dual_kblock = kframe_at(dual_ev, dual, y, REDUCED_PAIRING_NODES)
        labels.extend((s, j, l) for j, l in system.entry_labels())
        dual_labels.extend((s, j, l) for j, l in dual.entry_labels())
        # Q(y, conj sigma)^H = P_s(y, sigma): evaluate the adjoint complement
        # at the reflected nodes and undo the conjugation.
        qvals = dual_ev.schur_many(y, np.conj(circle.nodes))
        pvals = np.conj(qvals).swapaxes(1, 2)
        psis = _dual_eval(dual_kblock, circle)
        blocks.append(_contour_pairing(circle, pvals, kblock.eval(circle), psis))
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return _checked_pairing(_block_diagonal(blocks), y_key, labels, dual_labels)


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


def base_point_check(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    duals: Sequence[DualRootSystem],
    node_count: int = 256,
) -> float:
    """Max deviation of the base pairing matrix from its constant pattern."""
    frame, dual = frames_at(chart, base, systems, duals, base.y0, node_count=node_count)
    pm = pairing_matrix(chart, frame, dual, base, base.y0, node_count=node_count)
    return float(np.max(np.abs(pm.matrix - expected_base_pairing(systems))))


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
    node_count: int = 256,
    residual_tol: Optional[float] = None,
) -> CoefficientVector:
    """Coefficients of a section of the kernel bundle in the given frame.

    A section is what the fiber splits into: a sequence with one germ per
    cluster, in cluster order, each paired only on its own cluster's
    contour.  Solves ``M f = b`` where ``M[a, b] = [phi_b, psi_a]`` and
    ``b[a] = [section, psi_a]``; one step of iterative refinement keeps the
    solve honest near the condition limit.  ``M`` and ``b`` come from one
    sample of P per contour; the result carries ``M`` as its ``pairing``.
    If a tolerance is given, each cluster's reconstruction ``sum f_b phi_b``
    is compared against its germ on a probe circle and a miss raises a
    residual error.
    """
    m, b = _pairings(chart, frame, dual, base, y, section, node_count)
    pairing = _checked_pairing(m, frame.y, frame.labels, dual.labels)
    f = np.linalg.solve(m, b)
    f = f + np.linalg.solve(m, b - m @ f)
    if residual_tol is not None:
        residual = _reconstruction_residual(frame, f, section)
        if residual > residual_tol:
            raise SectionResidualError(
                f"section is not in the span of the frame (residual {residual:.3e})"
            )
    return CoefficientVector(frame.y, frame.labels, f, pairing)


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
