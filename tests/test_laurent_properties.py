"""Property test: Laurent coefficients read off the carrier moments of a germ
reproduce the poles it was sampled from, or the poles are reported as too
clustered to resolve."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelbundle.errors import ClusteredPolesError
from kernelbundle.frames import laurent_coefficients, make_germ

SETTINGS = settings(max_examples=25, deadline=None, database=None, derandomize=True)

unit_interval = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit_interval, unit_interval)
MIN_GAP = 0.15


@st.composite
def pole_germs(draw):
    """Carrier ``(center, rho)``, 1-3 poles of order 1-3 at most ``0.6 rho`` from
    the center and ``MIN_GAP`` apart with their coefficient rows, and a
    linear holomorphic part ``h0 + h1 (sigma - center)``."""
    center = draw(complex_unit)
    rho = draw(st.floats(0.5, 1.0))
    poles = []
    for _ in range(draw(st.integers(1, 3))):
        offset = 0.6 * rho * draw(st.floats(0.0, 1.0))
        loc = center + offset * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        coeffs = [draw(complex_unit) for _ in range(draw(st.integers(1, 3)))]
        poles.append((complex(loc), np.array(coeffs)))
    assume(all(abs(a - b) >= MIN_GAP for (a, _), (b, _) in itertools.combinations(poles, 2)))
    return center, rho, poles, draw(complex_unit), draw(complex_unit)


@SETTINGS
@given(pole_germs())
def test_laurent_round_trip(case):
    center, rho, poles, h0, h1 = case

    def f(sigma):
        out = h0 + h1 * (sigma - center)
        for loc, coeffs in poles:
            for m, c in enumerate(coeffs, start=1):
                out = out + c * (sigma - loc) ** (-m)
        return out

    germ = make_germ(f, center, rho)
    try:
        recovered = laurent_coefficients(germ, [(loc, len(c)) for loc, c in poles])
    except ClusteredPolesError:
        return
    for pole, (loc, coeffs) in zip(recovered, poles):
        assert pole.location == loc
        assert np.max(np.abs(pole.coefficients[:, 0] - coeffs)) < 1e-8
