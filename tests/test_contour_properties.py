"""Property tests of the singular part, of zero counts and of zero location."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbundle.contour import (
    Circle,
    Rectangle,
    SampledFunction,
    count_zeros_rectangle,
    locate_zeros,
    singular_part_eval,
)
from kernelbundle.errors import NumericalError, ResolutionError, ZeroOnContourError

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
@given(rational_germs(), st.floats(1.02, 3.0), node_counts)
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
    assert np.max(np.abs(got)) <= 1e-12 * scale


RECT = Rectangle(-1.0, 1.0, -0.5, 0.75)


@st.composite
def near_edge_zeros(draw):
    """Simple zeros 1e-13 to 1e-3 inside or outside an edge of ``RECT``, pairwise at
    least 1e-2 apart (a drawn zero closer to an earlier one is dropped)."""
    corners = RECT.corners + RECT.corners[:1]
    zeros = []
    for _ in range(draw(st.integers(1, 4))):
        edge = draw(st.integers(0, 3))
        a, b = corners[edge], corners[edge + 1]
        outward = -1j * (b - a) / abs(b - a)
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -3.0))
        z = a + (b - a) * draw(st.floats(0.01, 0.99)) + offset * outward
        if all(abs(z - other) >= 1e-2 for other in zeros):
            zeros.append(z)
    return zeros


def _count(q):
    try:
        return count_zeros_rectangle(q, RECT)
    except (ZeroOnContourError, ResolutionError) as exc:
        return type(exc)


@SETTINGS
@given(near_edge_zeros())
def test_counts_near_the_edge_are_right_or_raise(zeros):
    # a zero within 1e-3 of the contour may stop the count but must not change
    # it; the same function as a (phase, logabs) pair far past the float range
    # gives the same outcome
    def q(z):
        return np.prod([z - z0 for z0 in zeros], axis=0)

    def pair(z):
        v = q(z)
        return v / np.abs(v), np.log(np.abs(v)) + 1000.0

    inside = sum(RECT.re_min < z.real < RECT.re_max and RECT.im_min < z.imag < RECT.im_max for z in zeros)
    got = _count(q)
    assert got in (inside, ZeroOnContourError, ResolutionError)
    assert _count(pair) == got


@st.composite
def cut_line_zeros(draw):
    """Zeros of multiplicity 1 or 2 within 1e-13 to 1e-6 of a midline of ``RECT``,
    where ``locate_zeros`` cuts first, pairwise at least 5e-2 apart (a drawn zero
    closer to an earlier one is dropped), and 0 to 2 simple poles outside ``RECT``."""
    zeros = []
    for _ in range(draw(st.integers(1, 3))):
        along = draw(st.floats(0.1, 0.9))
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.0, -6.0))
        if draw(st.booleans()):
            z = complex(RECT.center.real + offset, RECT.im_min + along * RECT.height)
        else:
            z = complex(RECT.re_min + along * RECT.width, RECT.center.imag + offset)
        if all(abs(z - other) >= 5e-2 for other, _ in zeros):
            zeros.append((z, draw(st.integers(1, 2))))
    # the half-diagonal of RECT is below 1.2
    poles = [
        RECT.center + draw(st.floats(1.5, 3.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return zeros, poles


@SETTINGS
@given(cut_line_zeros())
def test_zeros_near_the_cut_lines_are_located_or_left_unresolved(family):
    # a zero next to a cut line may leave its box unresolved or stop the
    # location with a typed error, but the total must be right, and so must
    # every zero reported resolved, with its multiplicity
    zeros, poles = family

    def q(z):
        return np.prod([(z - z0) ** m for z0, m in zeros], axis=0) / np.prod([z - p for p in poles], axis=0)

    try:
        report = locate_zeros(q, RECT, 1e-2)
    except NumericalError:
        return
    assert report.total_count == sum(m for _, m in zeros)
    assert report.consistent
    for found in report.zeros:
        distance, mult = min((abs(found.location - z0), m) for z0, m in zeros)
        assert distance < 1e-8
        assert found.multiplicity == mult
