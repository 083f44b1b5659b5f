"""Property tests of the singular part on cached circle kernels."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbundle.contour import Circle, SampledFunction, singular_part_eval

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

unit_interval = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit_interval, unit_interval)
centers = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
node_counts = st.sampled_from([16, 32, 64, 128])


@st.composite
def rational_germs(draw):
    """Carrier circle, and poles (at most half the radius from the center) with
    orders and coefficients."""
    carrier = Circle(draw(centers), draw(st.floats(0.1, 2.0)), 128)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        offset = 0.5 * carrier.radius * draw(st.floats(0.0, 1.0))
        pole = carrier.center + offset * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        terms.append((pole, draw(st.integers(1, 3)), draw(complex_unit)))
    return carrier, terms


def _concentric(carrier, factor, node_count):
    return Circle(carrier.center, factor * carrier.radius, node_count)


@SETTINGS
@given(rational_germs(), st.floats(1.2, 3.0), node_counts)
def test_rational_germs_reproduced(germ, factor, node_count):
    carrier, terms = germ

    def f(z):
        return sum(a * (z - p) ** (-m) for p, m, a in terms)

    target = _concentric(carrier, factor, node_count)
    expected = f(target.nodes)
    got = singular_part_eval(SampledFunction.from_function(f, carrier), target)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert np.max(np.abs(got - expected)) <= 1e-10 * scale


@SETTINGS
@given(
    centers,
    st.floats(0.1, 2.0),
    st.lists(complex_unit, min_size=1, max_size=9),
    st.floats(1.2, 3.0),
    node_counts,
)
def test_polynomials_annihilated(center, radius, coeffs, factor, node_count):
    carrier = Circle(center, radius, 128)
    f = SampledFunction.from_function(lambda z: np.polyval(coeffs, z - center), carrier)
    got = singular_part_eval(f, _concentric(carrier, factor, node_count))
    scale = max(float(np.max(np.abs(f.values))), 1e-300)
    assert np.max(np.abs(got)) <= 1e-10 * scale
