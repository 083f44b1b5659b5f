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
from kernelbundle.contour import SampledFunction, cauchy_moment
from kernelbundle.family import PolyTerm, SigmaRegion, matrix_polynomial_chart
from kernelbundle.frames import Germ, frames_at
from kernelbundle.keldysh import base_samples
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


def base_pairing_errors(terms, lengths) -> tuple:
    """Systems of the family at y0 = 0, whose chain lengths over every singular point in REGION
    must be ``lengths``, and two distances: of the oracles' base pairing from the anti-diagonal
    unit pattern, and ``keldysh_residual``."""
    chart = matrix_polynomial_chart(terms, REGION)
    base = base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    assert sorted(L for sy in systems for L in sy.lengths) == sorted(lengths)
    reduced = reduced_pairing_matrix(chart, base, systems, duals, [0.0])
    pattern = np.max(np.abs(reduced.matrix - expected_base_pairing(systems)))
    return max(base_point_check(chart, base, systems, duals), pattern), keldysh_residual(chart, base, systems, duals)


def keldysh_residual(chart, base, systems, duals) -> float:
    """Largest miss of Keldysh's identity ``A_m = sum_j sum_{p+q=L_j-m} v_{j,p} w_{j,q}^H``, primal
    chains v and dual chains w, over the largest entry of the A_m of its cluster, with ``A_m`` the
    moment of order m - 1 of S^-1 on the carrier of ``canonical_systems``."""
    worst = 0.0
    for sy, du, samples in zip(systems, duals, base_samples(chart, base, 256)):
        A = cauchy_moment(SampledFunction(samples.circle, np.linalg.inv(samples.values)), np.arange(max(sy.lengths)))
        for m, a in enumerate(A, 1):
            terms = [np.outer(v[p], w[L - m - p].conj()) for L, v, w in zip(sy.lengths, sy.chains, du.chains) for p in range(L - m + 1)]
            worst = max(worst, float(np.max(np.abs(a - sum(terms))) / np.max(np.abs(A))))
    return worst


def _check_base_pairing_pattern(terms, lengths) -> float:
    """Assert the base pairing pattern to 1e-8; return ``keldysh_residual``."""
    pattern, keldysh = base_pairing_errors(terms, lengths)
    assert pattern < 1e-8
    return keldysh


def unit_factor_draws(seed: int, count: int, multiplicities) -> list:
    """The first ``count`` seeded draws of ``U diag(sigma^l_1, sigma^l_2, sigma^l_3) V (I + sigma B)``
    whose multiplicity l_1 + l_2 + l_3 at 0 lies in ``multiplicities``: l_i in {1, 2, 3}, U and V the
    Q of complex Gaussians and B 0.3 times one.  Each draw is a PolyTerm list with the chain lengths
    of all its singular points in REGION: the l_i at 0, and 1 at each zero -1/lambda of det(I + sigma B).
    The nearest of those zeros lies about 1 from 0, which shrinks the carrier at 0."""
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))

    draws = []
    while len(draws) < count:
        powers = rng.integers(1, 4, size=3).tolist()
        u, v = (np.linalg.qr(gaussian())[0] for _ in range(2))
        b = 0.3 * gaussian()
        if sum(powers) not in multiplicities:
            continue
        terms = []
        for k in sorted(set(powers)):
            d = u @ np.diag([1.0 if p == k else 0.0 for p in powers]) @ v
            terms += [PolyTerm(k, (0,), d), PolyTerm(k + 1, (0,), d @ b)]
        draws.append((terms, powers + [1] * int(np.sum(REGION.contains(-1 / np.linalg.eigvals(b))))))
    return draws


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


@pytest.mark.parametrize("terms, lengths", unit_factor_draws(5, 8, range(5, 9)), ids=[f"draw{i}" for i in range(8)])
def test_duals_of_unit_factor_draws(terms, lengths):
    # multiplicity 5 to 8 at 0 on a carrier of radius 0.04 to 0.25: Taylor data of order
    # past the longest chain carries roundoff of relative size eps / r^order, which the
    # dual chains never read
    assert _check_base_pairing_pattern(terms, lengths) < 1e-12


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
