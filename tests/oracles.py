"""Independent oracles for the pairing, the frames and the canonical systems.

The package pairs each cluster's frame block against its dual block once, on
the frame block's carrier (``pairing.pairing_matrix``, ``coefficients`` and
the sweep's held tensor).  The functions here reach the same numbers by other
routes, so the tests can check one against the other: ``pair`` evaluates the
germs on the cluster contours, ``reduced_pairing_matrix`` pairs the k-valued
frame blocks of ``kframe_at`` through one ``SchurEvaluator`` per cluster and
its adjoint, and ``verify_canonical_system`` checks a root system against its
reduced family.  No pipeline stage and no CLI command calls them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from kernelbundle.contour import Circle, SampledFunction, _continued_winding, singular_part_eval
from kernelbundle.errors import InputError, NumericalError
from kernelbundle.family import FamilyChart, SigmaRegion
from kernelbundle.frames import Germ, _entry_factors, _kernel_values, frames_at, make_germ
from kernelbundle.keldysh import DualRootSystem, RootSystem
from kernelbundle.pairing import (
    PairingMatrix,
    _block_diagonal,
    _checked_pairing,
    _contour_pairing,
    expected_base_pairing,
    pairing_matrix,
)
from kernelbundle.reduction import BasePointData, SchurEvaluator, _continuation

REDUCED_PAIRING_NODES = 256
POLE_GERM_NODES = 128
VERIFY_NODES = 128


def conjugate_region(region: SigmaRegion) -> SigmaRegion:
    """The region's complex conjugate, where the adjoint family lives."""
    return SigmaRegion(region.re_min, region.re_max, -region.im_max, -region.im_min, region.strip)


def adjoint_chart(chart: FamilyChart) -> FamilyChart:
    """Chart of the adjoint family on the conjugated region."""

    def evaluator(y, taus):
        return np.asarray(chart.evaluator(y, np.conj(taus)), dtype=complex).conj().swapaxes(-1, -2)

    return FamilyChart(
        n=chart.n,
        param_dim=chart.param_dim,
        sigma=conjugate_region(chart.sigma),
        evaluator=evaluator,
        name=chart.name + "*",
    )


def adjoint_base(base: BasePointData) -> BasePointData:
    """Base point data of the adjoint family: each cluster at the conjugated centre.

    The kernel of P*(conj(sigma_s)) is the orthocomplement of the range of
    P(sigma_s) and vice versa, so the stored bases swap roles.
    """
    clusters = [replace(c, center=np.conj(c.center), K=c.Rperp, Kperp=c.R, Rperp=c.K, R=c.Kperp) for c in base.clusters]
    return replace(base, clusters=clusters)


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


def kframe_at(ev: SchurEvaluator, system: RootSystem, y) -> Germ:
    """Kernel-side frame block ``s((sigma-c)^l P_s(y,sigma)^{-1} beta_j)``.

    Returns one k-valued germ on the system's carrier, with one column per
    entry, ordered by chain then shift.
    """
    circle = system.beta.circle
    values = _kernel_values(*_entry_factors([system]), ev.schur_many(y, circle.nodes)[None])[0]
    return Germ(ev.cluster.center, SampledFunction(circle, values))


def cluster_contours(base: BasePointData, node_count: int = 256) -> list:
    """One positively oriented circle per cluster, outside every carrier."""
    return [cl.contour(node_count) for cl in base.clusters]


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
        psis = psi.eval(np.conj(circle.nodes))[:, :, None]
        total += _contour_pairing(circle, chart.eval_many(y, circle.nodes) @ phis, psis)[0, 0]
    return complex(total)


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
    adj_base = adjoint_base(base)
    contours = cluster_contours(base, REDUCED_PAIRING_NODES)
    blocks = []
    labels = []
    dual_labels = []
    for s, (system, dual, circle) in enumerate(zip(systems, duals, contours)):
        ev = SchurEvaluator(chart, base, s)
        dual_ev = SchurEvaluator(adj_chart, adj_base, s)
        kblock = kframe_at(ev, system, y)
        dual_kblock = kframe_at(dual_ev, dual, y)
        labels.extend((s, j, l) for j, l in system.entry_labels())
        dual_labels.extend((s, j, l) for j, l in dual.entry_labels())
        # Q(y, conj sigma)^H = P_s(y, sigma): evaluate the adjoint complement
        # at the reflected nodes and undo the conjugation.
        qvals = dual_ev.schur_many(y, np.conj(circle.nodes))
        pvals = np.conj(qvals).swapaxes(1, 2)
        psis = dual_kblock.eval(np.conj(circle.nodes))
        blocks.append(_contour_pairing(circle, pvals @ kblock.eval(circle), psis))
    y_key = tuple(np.atleast_1d(np.asarray(y, dtype=float)).tolist())
    return _checked_pairing(_block_diagonal(blocks), y_key, labels, dual_labels)


def base_point_check(
    chart,
    base: BasePointData,
    systems: Sequence[RootSystem],
    duals: Sequence[DualRootSystem],
) -> float:
    """Max deviation of the base pairing matrix from its constant pattern."""
    frame, dual = frames_at(chart, base, systems, duals, base.y0)
    pm = pairing_matrix(chart, frame, dual, base, base.y0)
    return float(np.max(np.abs(pm.matrix - expected_base_pairing(systems))))


def verify_canonical_system(
    ev: SchurEvaluator,
    system: RootSystem,
    dual: Optional[DualRootSystem] = None,
) -> dict:
    """Diagnostics for a root system: membership, counts and determinant structure.

    Returns a dict of residuals/flags; raises nothing so callers can decide.
    """
    c = ev.cluster
    y0 = ev.stack.base.y0
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

    # both counts read one sample of the reduced determinant on the cluster circle
    d, qdet, counted = system.total, _continuation(ev.stack, y0, True), Circle(c.center, c.radius, VERIFY_NODES)

    def ratio(pair, sig):
        (phase, logabs), z = pair, sig - system.center
        return phase * (np.abs(z) / z) ** d, logabs - d * np.log(np.abs(z))

    held = qdet(counted.nodes)
    q_count = _continued_winding(qdet, counted.path, *held)
    try:
        ratio_winding = _continued_winding(lambda s: ratio(qdet(s), s), counted.path, *ratio(held, counted.nodes))
    except NumericalError:
        ratio_winding = None

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
