"""Self-tests of the benchmark's statistics and tracing.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import os
import sys

import numpy as np
import pytest

from stats import Span, median, self_times, tail_percentile, totals_by_name

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile([float(v) for v in range(1, 101)], 90) == 90.0
    assert tail_percentile(list(range(19)), 50) is None
    assert tail_percentile(list(range(20)), 50) == 9.0
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(1000)), 99) == 989.0


def test_tail_percentile_rejects_bad_q():
    with pytest.raises(ValueError):
        tail_percentile(list(range(200)), 100)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("leaf", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0), Span("b", 3.0, 6.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_totals_do_not_count_recursion_twice():
    spans = [
        Span("f", 0.0, 10.0, phase="setup"),
        Span("g", 1.0, 8.0, parent=0, phase="setup"),
        Span("f", 2.0, 5.0, parent=1, phase="pass", size=7),
    ]
    tot = totals_by_name(spans)
    assert tot["f"].calls == 2
    assert tot["f"].inclusive == pytest.approx(10.0)
    assert tot["f"].self_time == pytest.approx(3.0 + 3.0)
    assert tot["g"].self_time == pytest.approx(4.0)
    assert tot["f"].size == 8
    only_pass = totals_by_name(spans, phase="pass")
    assert set(only_pass) == {"f"}
    assert only_pass["f"].size == 7


@pytest.fixture
def kernelbundle_modules():
    sys.path.insert(0, SRC)
    try:
        from kernelbundle import contour, frames, keldysh

        yield contour, frames, keldysh
    finally:
        sys.path.remove(SRC)


def test_tracer_patches_every_binding_and_restores(kernelbundle_modules):
    from tracing import Tracer

    contour, frames, keldysh = kernelbundle_modules
    original = contour.singular_part_eval
    assert frames.singular_part_eval is original
    with Tracer() as tracer:
        assert frames.singular_part_eval is contour.singular_part_eval is keldysh.singular_part_eval
        assert frames.singular_part_eval is not original
        germ = frames.make_germ(lambda s: 1.0 / s, 0j, 0.5, node_count=16)
        value = germ.eval(np.array([2.0 + 0j]))
    assert frames.singular_part_eval is original
    assert value[0, 0] == pytest.approx(0.5)
    names = [sp.name for sp in tracer.spans]
    assert names.count("contour.singular_part_eval") == 1
    assert "frames.Germ.eval" in names and "frames.make_germ" in names
    (inner,) = [sp for sp in tracer.spans if sp.name == "contour.singular_part_eval"]
    assert tracer.spans[inner.parent].name == "frames.Germ.eval"
