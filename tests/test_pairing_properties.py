"""Property tests on families with chains of mixed lengths in random unitary bases:
the base-point pairing is i on each chain's anti-diagonal, and a sweep agrees with
the full-space oracles at every point."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbundle import pairing
from kernelbundle.contour import SampledFunction
from kernelbundle.family import PolyTerm, SigmaRegion, matrix_polynomial_chart
from kernelbundle.frames import Germ, frames_at
from kernelbundle.pairing import coefficients, expected_base_pairing, pairing_matrix
from kernelbundle.reduction import base_point_data
from kernelbundle.shell import ParameterGrid, canonical_systems, sweep
from oracles import base_point_check, reduced_pairing_matrix

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

REGION = SigmaRegion(-2.0, 2.0, -2.0, 2.0)


@st.composite
def unitaries(draw, m):
    """Q of the QR factorization of a random complex m x m matrix."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * m * m, max_size=2 * m * m))
    a = np.array(parts[: m * m]).reshape(m, m) + 1j * np.array(parts[m * m :]).reshape(m, m)
    return np.linalg.qr(a)[0]


@st.composite
def chain_families(draw):
    """``U diag(sigma^k_1, ..., sigma^k_m) V (I + sigma B)`` as PolyTerm lists, with
    the k_i.  B is a unitary scaled to spectral radius 1/4, so det(I + sigma B) has
    no zero in REGION, and the chain vectors past the lead are not zero."""
    powers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    m = len(powers)
    u, v, b = draw(unitaries(m)), draw(unitaries(m)), 0.25 * draw(unitaries(m))
    terms = []
    for k in sorted(set(powers)):
        d = u @ np.diag([1.0 if p == k else 0.0 for p in powers]) @ v
        terms += [PolyTerm(k, (0,), d), PolyTerm(k + 1, (0,), d @ b)]
    return terms, powers


def _check_base_pairing_pattern(terms, powers):
    chart = matrix_polynomial_chart(terms, REGION)
    base = base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    assert sorted(L for sy in systems for L in sy.lengths) == sorted(powers)
    assert base_point_check(chart, base, systems, duals) < 1e-8
    reduced = reduced_pairing_matrix(chart, base, systems, duals, [0.0])
    assert np.max(np.abs(reduced.matrix - expected_base_pairing(systems))) < 1e-8


@SETTINGS
@given(chain_families())
def test_base_pairing_pattern_for_mixed_chain_lengths(family):
    _check_base_pairing_pattern(*family)


def test_base_pairing_pattern_for_a_chain_of_length_four():
    # U diag(sigma^4, sigma^2) V (I + sigma B): without the unit factor
    # I + sigma B every chain vector past the lead is zero; with it, the
    # continuation solve fixes v_1 and v_2 of the length-4 chain, which the
    # pairing pattern then pins
    rng = np.random.default_rng(4)
    u, v, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    u, v = np.linalg.qr(u)[0], np.linalg.qr(v)[0]
    b *= 0.25 / np.max(np.abs(np.linalg.eigvals(b)))  # det(I + sigma B) has no zero in REGION
    d4, d2 = u @ np.diag([1.0, 0.0]) @ v, u @ np.diag([0.0, 1.0]) @ v
    terms = [PolyTerm(p, (0,), m) for p, m in ((2, d2), (3, d2 @ b), (4, d4), (5, d4 @ b))]
    _check_base_pairing_pattern(terms, [4, 2])


@st.composite
def swept_families(draw):
    """A ``chain_families`` family plus ``0.05 y C``, C unitary, with the k_i and a probe's
    coefficients at y = 0 and their slope in y, (2, sum k_i)."""
    terms, powers = draw(chain_families())
    c, size = draw(unitaries(len(powers))), sum(powers)
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * size, max_size=4 * size))
    probe = np.array(parts[: 2 * size]) + 1j * np.array(parts[2 * size :])
    return terms + [PolyTerm(0, (1,), 0.05 * c)], powers, probe.reshape(2, size)


def _close(a, b, tol):
    """``a`` and ``b`` agree to ``tol`` times the largest entry of ``b``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@settings(SETTINGS, max_examples=40)
@given(swept_families())
def test_a_sweep_agrees_with_the_full_space_oracles(family):
    # the sweep pairs S^-1 on its carriers against dual data held from y0; the oracles pair the
    # full-space frames through P.  Both carry the family's roundoff, which the oracle's own
    # distance from the exact base pattern at y0 measures, so the tolerance scales with it
    terms, powers, coeffs = family
    chart = matrix_polynomial_chart(terms, REGION)
    base = base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)

    def probe(y):
        return coeffs[0] + y[0] * coeffs[1]

    formed, checked = [], pairing._checked_pairing

    def recorded(m, *args):
        formed.append(m)
        return checked(m, *args)

    with mock.patch.object(pairing, "_checked_pairing", recorded):
        report = sweep(chart, base, ParameterGrid.from_ranges([(-0.02, 0.02, 3)]), probe=probe, systems=systems, duals=duals)
    assert not report.failures and len(formed) == len(report.points) == 3
    frame, dual = frames_at(chart, base, systems, duals, [0.0])
    tol = 1e-13 + 4 * np.max(np.abs(pairing_matrix(chart, frame, dual, base, [0.0]).matrix - expected_base_pairing(systems)))
    for point, swept in zip(report.points, formed):
        y = list(point.y)
        frame, dual = frames_at(chart, base, systems, duals, y)
        pm = pairing_matrix(chart, frame, dual, base, y)
        assert _close(swept, pm.matrix, tol)
        assert point.pairing_condition == pytest.approx(pm.condition, rel=tol)
        section = [Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values @ c)) for g, c in zip(frame.blocks, frame.split(probe(y)))]
        assert _close(point.coefficients, coefficients(chart, frame, dual, base, y, section).values, tol)
