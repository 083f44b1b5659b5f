"""Property test: the base-point pairing is i on each chain's anti-diagonal,
for families with chains of mixed lengths in random unitary bases."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbundle.family import PolyTerm, SigmaRegion, matrix_polynomial_chart
from kernelbundle.pairing import base_point_check, expected_base_pairing, reduced_pairing_matrix
from kernelbundle.reduction import base_point_data
from kernelbundle.shell import canonical_systems

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
    """``U diag(sigma^k_1, ..., sigma^k_m) V`` as PolyTerm lists, with the k_i."""
    powers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    m = len(powers)
    u, v = draw(unitaries(m)), draw(unitaries(m))
    terms = [
        PolyTerm(k, (0,), u @ np.diag([1.0 if p == k else 0.0 for p in powers]) @ v)
        for k in sorted(set(powers))
    ]
    return terms, powers


@SETTINGS
@given(chain_families())
def test_base_pairing_pattern_for_mixed_chain_lengths(family):
    terms, powers = family
    chart = matrix_polynomial_chart(terms, REGION)
    base = base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    assert sorted(L for sy in systems for L in sy.lengths) == sorted(powers)
    assert base_point_check(chart, base, systems, duals) < 1e-8
    reduced = reduced_pairing_matrix(chart, base, systems, duals, [0.0])
    assert np.max(np.abs(reduced.matrix - expected_base_pairing(systems))) < 1e-8
