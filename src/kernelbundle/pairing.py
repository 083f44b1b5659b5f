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

from .contour import Circle
from .errors import InputError, NondegeneracyError, SectionResidualError
from .family import adjoint_chart
from .frames import FrameSet, Germ, dual_frame_at, fullframe_at, kframe_at
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
    conjugated nodes.  Returns the (A, B) block of pairings.
    """
    weight = 1j * circle.radius / circle.node_count
    return weight * np.einsum("n,nja,njk,nkb->ab", circle.unit, np.conj(psis), pvals, phis)


def pair(
    chart,
    y,
    phi: Germ,
    psi: Germ,
    contours: Sequence[Circle],
) -> complex:
    """Pairing of a single frame germ against a single dual germ."""
    total = 0.0 + 0.0j
    for circle in contours:
        nodes = circle.nodes
        phis = phi.eval(nodes)[:, :, None]
        psis = psi.eval(np.conj(nodes))[:, :, None]
        total += _contour_pairing(circle, chart.eval_many(y, nodes), phis, psis)[0, 0]
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


def _same_cluster_blocks(frame: FrameSet, dual: FrameSet) -> bool:
    clusters = {e.s for e in frame.entries}
    return clusters == {e.s for e in dual.entries}


def _pairings(chart, frame, dual, base, y, section, node_count: int):
    """Pairings ``[phi_b, psi_a]``, and ``[section, psi_a]`` when a section is given.

    P is sampled once per cluster contour; the section rides along as one
    more column next to the frame entries.  Returns ``(matrix, column)``,
    with ``column`` None without a section.
    """
    if len(frame) != len(dual):
        raise InputError("frame and dual frame must have the same number of entries")
    if not _same_cluster_blocks(frame, dual):
        raise InputError("frame and dual frame must cover the same clusters")
    contours = cluster_contours(base, node_count)
    m = np.zeros((len(dual), len(frame)), dtype=complex)
    column = None if section is None else np.zeros(len(dual), dtype=complex)
    for s, circle in enumerate(contours):
        f_idx = [t for t, e in enumerate(frame.entries) if e.s == s]
        d_idx = [t for t, e in enumerate(dual.entries) if e.s == s]
        if not f_idx and not d_idx:
            continue
        nodes = circle.nodes
        cols = [frame.entries[t].germ.eval(nodes) for t in f_idx]
        if section is not None:
            cols.append(_eval_section(section, nodes))
        phis = np.stack(cols, axis=2)
        psis = np.stack([dual.entries[t].germ.eval(np.conj(nodes)) for t in d_idx], axis=2)
        block = _contour_pairing(circle, chart.eval_many(y, nodes), phis, psis)
        m[np.ix_(d_idx, f_idx)] = block[:, : len(f_idx)]
        if section is not None:
            column[d_idx] = block[:, -1]
    return m, column


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
    return _checked_pairing(m, frame.y, frame.labels(), dual.labels())


def reduced_pairing_matrix(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    duals: Sequence[DualRootSystem],
    y,
) -> PairingMatrix:
    """Pairing computed inside the reduced families, block per cluster.

    Uses the k-valued germs against the adjoint Schur complement evaluated at
    the reflected point: the complement corrections of the two embeddings
    cancel in the pairing, so this must agree with the full-space matrix.
    """
    adj_chart = adjoint_chart(chart)
    adj_base = base.conjugate_swapped()
    contours = cluster_contours(base, REDUCED_PAIRING_NODES)
    total = sum(sys.total for sys in systems)
    m = np.zeros((total, total), dtype=complex)
    labels = []
    dual_labels = []
    offset = 0
    for s, (system, dual) in enumerate(zip(systems, duals)):
        ev = SchurEvaluator(chart, base, s)
        dual_ev = SchurEvaluator(adj_chart, adj_base, s)
        kgerms = kframe_at(ev, system, y, REDUCED_PAIRING_NODES)
        dual_kgerms = kframe_at(dual_ev, dual, y, REDUCED_PAIRING_NODES)
        labels.extend((s, j, l) for j, l in system.entry_labels())
        dual_labels.extend((s, j, l) for j, l in dual.entry_labels())
        circle = contours[s]
        nodes = circle.nodes
        # Q(y, conj sigma)^H = P_s(y, sigma): evaluate the adjoint complement
        # at the reflected nodes and undo the conjugation.
        qvals = dual_ev.schur_many(y, np.conj(nodes))
        pvals = np.conj(qvals).swapaxes(1, 2)
        phis = np.stack([g.eval(nodes) for g in kgerms], axis=2)
        psis = np.stack([g.eval(np.conj(nodes)) for g in dual_kgerms], axis=2)
        block = _contour_pairing(circle, pvals, phis, psis)
        d = block.shape[0]
        m[offset : offset + d, offset : offset + d] = block
        offset += d
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return _checked_pairing(m, y_key, labels, dual_labels)


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
    frame = fullframe_at(chart, base, systems, base.y0, node_count=node_count)
    dual = dual_frame_at(chart, base, duals, base.y0, node_count=node_count)
    pm = pairing_matrix(chart, frame, dual, base, base.y0, node_count=node_count)
    return float(np.max(np.abs(pm.matrix - expected_base_pairing(systems))))


@dataclass
class CoefficientVector:
    y: tuple
    labels: list
    values: np.ndarray
    residual: float
    pairing: PairingMatrix

    def by_label(self) -> dict:
        return {lab: val for lab, val in zip(self.labels, self.values)}


def _eval_section(section, pts: np.ndarray) -> np.ndarray:
    """Evaluate a section given as one germ or as a sum of carried germs."""
    if isinstance(section, Germ):
        return section.eval(pts)
    parts = [g.eval(pts) for g in section]
    return np.sum(parts, axis=0)


def coefficients(
    chart,
    frame: FrameSet,
    dual: FrameSet,
    base: BasePointData,
    y,
    section,
    node_count: int = 256,
    residual_tol: Optional[float] = None,
) -> CoefficientVector:
    """Coefficients of a section of the kernel bundle in the given frame.

    Solves ``M f = b`` where ``M[a, b] = [phi_b, psi_a]`` and
    ``b[a] = [section, psi_a]``; one step of iterative refinement keeps the
    solve honest near the condition limit.  If a tolerance is given, the
    reconstruction ``sum f_b phi_b`` is compared against the section on probe
    circles and a miss raises a residual error.  The section may be a single
    germ or a sequence of germs (one carrier per cluster) that sum to it.
    ``M`` and ``b`` come from one sample of P per contour; the result carries
    ``M`` as its ``pairing``.
    """
    m, b = _pairings(chart, frame, dual, base, y, section, node_count)
    pairing = _checked_pairing(m, frame.y, frame.labels(), dual.labels())
    f = np.linalg.solve(m, b)
    f = f + np.linalg.solve(m, b - m @ f)

    residual = _reconstruction_residual(frame, f, section)
    if residual_tol is not None and residual > residual_tol:
        raise SectionResidualError(
            f"section is not in the span of the frame (residual {residual:.3e})"
        )
    return CoefficientVector(frame.y, frame.labels(), f, residual, pairing)


def _reconstruction_residual(frame: FrameSet, f: np.ndarray, section) -> float:
    """Relative sup miss of sum f_b phi_b against the section on probe circles."""
    worst = 0.0
    scale = 0.0
    seen = set()
    for e in frame.entries:
        circ = e.germ.carrier.circle
        key = (circ.center, circ.radius)
        if key in seen:
            continue
        seen.add(key)
        probe = Circle(circ.center, circ.radius * 1.2, 64)
        pts = probe.nodes
        target = _eval_section(section, pts)
        recon = np.zeros(target.shape, dtype=complex)
        for fe, coeff in zip(frame.entries, f):
            recon += coeff * fe.germ.eval(pts)
        worst = max(worst, float(np.max(np.abs(recon - target))))
        scale = max(scale, float(np.max(np.abs(target))))
    return worst / max(scale, 1e-300)
