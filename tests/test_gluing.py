"""The local frames glue: transitions between the frames of three base points satisfy the
cocycle condition g_01 g_12 = g_02.

Base points b_0, b_1, b_2 have nested carriers: every carrier of b_1 lies inside one of
b_0's, and every carrier of b_2 inside one of b_1's.  At a parameter y shared by all three,
an entry of b's frame is a section over a when its germ is evaluated on a's carriers
(``Germ.eval``, the singular part outside b's carrier), and ``coefficients`` with a residual
tolerance expresses it in a's frame: column t of g_ab.  Each carrier radius is at most 0.6
of the one around it: the singular part's Cauchy sum on N nodes misses by about the radius
ratio to the power N, and at a ratio of 0.9 and N = 128 that fails the tolerance.
"""

import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle.contour import SampledFunction
from kernelbundle.errors import SectionResidualError
from kernelbundle.family import PolyTerm
from kernelbundle.frames import Germ, frames_at
from kernelbundle.pairing import coefficients
from kernelbundle.shell import canonical_systems

RESIDUAL_TOL = 1e-8


def _frames(chart, y0, epsilon, y):
    base = kb.base_point_data(chart, [y0], epsilon=epsilon)
    frame, dual = frames_at(chart, base, *canonical_systems(chart, base), [y])
    return base, frame, dual


def _over(frame, germ: Germ) -> list:
    """A germ of another base point's frame as a section for ``frame``: sampled on each of the
    frame's carriers, where it is the singular part of the other frame's entry."""
    return [Germ(g.center, SampledFunction(g.carrier.circle, germ.eval(g.carrier.circle))) for g in frame.blocks]


def _transition(chart, y, a, other) -> np.ndarray:
    """g_ab: the entries of ``other``, b's frame at y, column by column, in a's frame."""
    base, frame, dual = a
    return np.stack(
        [coefficients(chart, frame, dual, base, [y], _over(frame, other.entry(t)), residual_tol=RESIDUAL_TOL).values
         for t in range(len(other))],
        axis=1,
    )


def _cocycle_gap(chart, points, y) -> float:
    """Relative distance of g_01 g_12 from g_02, for base points (y0, epsilon) with nested carriers."""
    b0, b1, b2 = (_frames(chart, y0, eps, y) for y0, eps in points)
    g01, g12, g02 = (_transition(chart, y, a, b[1]) for a, b in ((b0, b1), (b1, b2), (b0, b2)))
    return float(np.max(np.abs(g01 @ g12 - g02)) / np.max(np.abs(g02)))


def test_two_channel_frames_glue(sl_big_chart):
    chart, _ = sl_big_chart
    assert _cocycle_gap(chart, [(0.0, 0.02), (0.01, 0.012), (0.02, 0.006)], 0.02) < 1e-10


def test_frames_glue_across_the_branching_point():
    # one double cluster at y = 0 glues to the two simple clusters +/- y at 0.3 and 0.31
    assert _cocycle_gap(kb.branching_chart(), [(0.0, None), (0.3, 0.12), (0.31, 0.04)], 0.31) < 1e-10


def test_frames_glue_across_a_splitting_jordan_block():
    # [[sigma, 1], [y, sigma]]: a Jordan block at y = 0 whose zeros split into +/- sqrt(y)
    terms = [PolyTerm(1, (0,), np.eye(2)), PolyTerm(0, (0,), np.array([[0.0, 1.0], [0.0, 0.0]])),
             PolyTerm(0, (1,), np.array([[0.0, 0.0], [1.0, 0.0]]))]
    chart = kb.matrix_polynomial_chart(terms, kb.SigmaRegion(-2.0, 2.0, -2.0, 2.0))
    assert _cocycle_gap(chart, [(0.0, None), (0.04, 0.08), (0.041, 0.03)], 0.041) < 1e-10


def test_a_singular_part_outside_the_fibre_is_refused(sl_big_chart):
    # positive control: one entry of b's frame plus r / (sigma - c) for a fixed vector r, a
    # singular part that no section of the kernel bundle has, is not in a's frame
    chart, _ = sl_big_chart
    (base, frame, dual), (_, other, _) = (_frames(chart, y0, eps, 0.02) for y0, eps in ((0.0, 0.02), (0.02, 0.006)))
    entry = other.entry(0)
    r = np.arange(1.0, entry.carrier.value_shape[0] + 1)
    nodes = entry.carrier.circle.nodes
    stray = Germ(entry.center, SampledFunction(entry.carrier.circle, entry.carrier.values + r / (nodes - entry.center)[:, None]))
    coefficients(chart, frame, dual, base, [0.02], _over(frame, entry), residual_tol=RESIDUAL_TOL)
    with pytest.raises(SectionResidualError):
        coefficients(chart, frame, dual, base, [0.02], _over(frame, stray), residual_tol=RESIDUAL_TOL)
