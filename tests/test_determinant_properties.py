"""Property test: determinant zero counts and locations do not depend on the
family's scale, even where det P itself leaves the float range."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelbundle.contour import count_zeros_rectangle, locate_zeros
from kernelbundle.family import PolyTerm, SigmaRegion, matrix_polynomial_chart
from kernelbundle.reduction import _det_function

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

REGION = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
MIN_SEPARATION = 2.0 / 64.0

roots = st.builds(complex, st.floats(-0.75, 0.75), st.floats(-0.75, 0.75))


@st.composite
def diagonal_families(draw):
    """Diagonal entries ``c_j prod (sigma - r)`` over roots drawn from one pool,
    so that entries may share a root, as PolyTerm lists."""
    pool = draw(st.lists(roots, min_size=1, max_size=4))
    assume(all(abs(a - b) > 4 * MIN_SEPARATION for i, a in enumerate(pool) for b in pool[:i]))
    n = draw(st.integers(2, 4))
    entries = []
    for _ in range(n):
        lead = draw(st.floats(0.5, 2.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        chosen = draw(st.lists(st.sampled_from(pool), max_size=2))
        entries.append(lead * np.poly(chosen) if chosen else np.array([lead]))
    degree = max(len(c) for c in entries) - 1
    terms = []
    for p in range(degree + 1):
        # np.poly lists coefficients from the highest power down
        diag = [c[len(c) - 1 - p] if p < len(c) else 0.0 for c in entries]
        terms.append(PolyTerm(p, (0,), np.diag(diag)))
    return terms


def _scaled(terms, factor):
    return [PolyTerm(t.sigma_power, t.y_powers, factor * t.matrix) for t in terms]


@SETTINGS
@given(diagonal_families(), st.integers(-300, 300))
def test_counts_and_zeros_independent_of_scale(terms, k):
    rect = REGION.search_rect
    plain = _det_function(matrix_polynomial_chart(terms, REGION), [0.0])
    scaled = _det_function(matrix_polynomial_chart(_scaled(terms, 10.0 ** k), REGION), [0.0])
    assert count_zeros_rectangle(scaled, rect) == count_zeros_rectangle(plain, rect)
    a = locate_zeros(plain, rect, MIN_SEPARATION)
    b = locate_zeros(scaled, rect, MIN_SEPARATION)
    assert b.total_count == a.total_count
    assert [z.multiplicity for z in b.zeros] == [z.multiplicity for z in a.zeros]
    assert [u.count for u in b.unresolved] == [u.count for u in a.unresolved]
    for za, zb in zip(a.zeros, b.zeros):
        assert abs(za.location - zb.location) < 1e-12
