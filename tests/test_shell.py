import dataclasses
import json
import sys
import warnings

import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle import shell
from kernelbundle.errors import (
    DimensionJumpError,
    InputError,
    SpecError,
)
from kernelbundle.family import PolyTerm, SigmaRegion, matrix_polynomial_chart
from kernelbundle.frames import make_germ
from kernelbundle.shell import (
    ParameterGrid,
    branching_diagram,
    canonical_systems,
    germ_from_trace,
    load_problem,
    load_problem_file,
    numeric_trace_samples,
    probe_from_spec,
    second_divided_differences,
    sweep,
    trace_from_germ,
)


BRANCHING = {"kind": "branching"}
STURM_LIOUVILLE = {
    "kind": "sturm_liouville",
    "r": 1,
    "mode_cutoff": 4,
    "k_gap": 1,
    "r_bound": 0.4,
    "a_terms": [{"y_powers": [0], "matrix": [[0.25]]}, {"y_powers": [1], "matrix": [[0.1]]}],
}
MATRIX_POLYNOMIAL = {
    "kind": "matrix_polynomial",
    "sigma": {"re": [-2, 2], "im": [-2, 2]},
    "terms": [{"sigma_power": 1, "matrix": [[1]]}],
}
AXIS = {"min": -0.2, "max": 0.2, "count": 5}


class TestGrid:
    def test_one_dim(self):
        grid = ParameterGrid.from_ranges([(-1.0, 1.0, 5)])
        assert grid.ndim == 1 and grid.shape == (5,)
        assert grid.steps == (0.5,)
        pts = grid.points()
        assert len(pts) == 5
        assert pts[0][0] == -1.0 and pts[-1][0] == 1.0

    def test_two_dim_row_major(self):
        grid = ParameterGrid.from_ranges([(0.0, 1.0, 2), (0.0, 2.0, 3)])
        pts = [tuple(p) for p in grid.points()]
        assert pts[:3] == [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
        assert pts[3:] == [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)]

    def test_validation(self):
        with pytest.raises(InputError):
            ParameterGrid.from_ranges([(0, 1, 2), (0, 1, 2), (0, 1, 2)])
        with pytest.raises(InputError):
            ParameterGrid.from_ranges([(1.0, 0.0, 3)])
        with pytest.raises(InputError):
            ParameterGrid.from_ranges([(0.0, 1.0, 0)])

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, np.nan)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(InputError, match="grid bounds must be finite"):
            ParameterGrid.from_ranges([(*bounds, 3)])


class TestDividedDifferences:
    def test_quadratic_exact(self):
        y = np.linspace(-1, 1, 21)
        dd = second_divided_differences(3.0 * y ** 2, y[1] - y[0])
        assert np.allclose(dd, 3.0, atol=1e-10)

    def test_linear_vanishes(self):
        y = np.linspace(-1, 1, 21)
        dd = second_divided_differences(2.0 - 5.0 * y, y[1] - y[0])
        assert np.max(np.abs(dd)) < 1e-10

    def test_short_input(self):
        assert second_divided_differences(np.zeros(2), 0.1).shape == (0,)

    def test_huge_finite_values_do_not_overflow(self):
        # 2 f_i overflows above 0.9e308; each column is scaled by a power of two and back
        assert second_divided_differences(np.array([1.7e308] * 3), 0.1).tolist() == [0.0]
        values = np.array([[1.7e308, 0.25], [1.7e308, -1.5], [1.7e308, 3.0]])
        assert second_divided_differences(values, 0.1).tolist() == [[0.0, (3.0 + 3.0 + 0.25) / (2.0 * 0.1 * 0.1)]]

    def test_a_divided_difference_beyond_the_float_range_reads_inf(self, branching_pipeline):
        # +-1.7e308 alternating on h = 0.1: each stencil is about 3.4e310, which scales back
        # to inf with no warning; the max keeps it (only NaN stencils drop) and the
        # report writes it as null, so it stays strict JSON
        column = np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308, 1.7e308])
        grid = ParameterGrid.from_ranges([(-0.2, 0.2, 5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert second_divided_differences(column, 0.1).tolist() == [np.inf, -np.inf, np.inf]
            assert shell._max_dd(column[:, None].astype(complex), grid).tolist() == [np.inf]
            chart, base, systems, duals = branching_pipeline
            probe = lambda y: np.full(2, 1.7e308 * np.cos(np.pi * y[0] / 0.1))
            report = sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
        assert not report.failures and report.coefficient_dd == [np.inf, np.inf]
        out = json.loads(json.dumps(report.to_dict(), allow_nan=False))
        assert out["coefficient_dd"] == [None, None]
        assert out["pairing_entry_dd"] == report.pairing_entry_dd < 1e-10

    def test_failed_points_skip_their_stencils(self):
        # a failed sweep point is a NaN row: every stencil that touches it drops
        # out, so the offset of 100 (a jump of 100 / h^2 were NaN read as 0)
        # never shows, and the stencils clear of it give the exact value
        grid = ParameterGrid.from_ranges([(-1.0, 1.0, 9)])
        y = grid.axes[0]
        values = np.stack([100.0 + 3.0 * y ** 2, 1.0 - y], axis=1).astype(complex)
        values[4] = np.nan
        assert shell._max_dd(values, grid) == pytest.approx([3.0, 0.0], abs=1e-9)

        grid = ParameterGrid.from_ranges([(-1.0, 1.0, 5), (0.0, 1.0, 4)])
        u, v = np.meshgrid(*grid.axes, indexing="ij")
        values = (100.0 + 0.5 * u ** 2 + v ** 2).reshape(-1, 1).astype(complex)
        values[6] = np.nan
        assert shell._max_dd(values, grid) == pytest.approx([1.0], abs=1e-9)


class TestSweep:
    def test_branching_probe_sweep(self, branching_pipeline):
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.2, 0.2, 9)])

        def probe(y):
            t = float(y[0])
            return np.array([1.0 + t * t, np.sin(t)])

        report = sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
        assert len(report.points) == 9 and not report.failures
        assert report.epsilon == pytest.approx(0.8)
        assert report.lengths == [[1, 1]]
        assert report.labels == [(0, 0, 0), (0, 1, 0)]
        assert report.total_dimension == 2
        for pt in report.points:
            assert pt.multiplicities == [2]
            assert pt.probe_error < 1e-8
            assert pt.pairing_condition < 1e3
        # curvature of the recovered coefficients: 2 for 1 + y^2, about
        # sin(0.2)/2 for sin(y) near the window edge
        dd0, dd1 = report.coefficient_dd
        assert dd0 == pytest.approx(1.0, rel=1e-6)
        assert 0.05 < dd1 < 0.11
        assert report.pairing_entry_dd >= 0.0
        # eps |entry| / h^2 with the largest entry, 1, and h = 0.05
        assert report.pairing_entry_dd_floor == pytest.approx(np.finfo(float).eps / 0.05 ** 2)
        assert report.to_dict()["pairing_entry_dd_floor"] == report.pairing_entry_dd_floor

    @pytest.mark.parametrize("seed", range(4))
    def test_pairing_dd_on_a_fine_grid_is_at_its_floor(self, seed):
        # U diag(sigma^3 + 1e-3 y, sigma, 1) V on three points 1e-3 apart: the
        # pairing entries move by roundoff only, so their dd lies at the floor's
        # scale (3.9 to 5.4 times it over these four draws)
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        V, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        terms = [
            PolyTerm(p, (q,), U @ np.diag(d) @ V)
            for p, q, d in [(3, 0, [1, 0, 0]), (0, 1, [1e-3, 0, 0]), (1, 0, [0, 1, 0]), (0, 0, [0, 0, 1])]
        ]
        chart = matrix_polynomial_chart(terms, SigmaRegion(-1, 1, -1, 1))
        base = kb.base_point_data(chart, [0.0])
        systems, duals = kb.canonical_systems(chart, base)
        grid = ParameterGrid.from_ranges([(-1e-3, 1e-3, 3)])
        report = sweep(chart, base, grid, systems=systems, duals=duals)
        assert not report.failures
        assert report.pairing_entry_dd_floor == pytest.approx(np.finfo(float).eps / 1e-6)
        assert report.pairing_entry_dd <= 8 * report.pairing_entry_dd_floor

    def test_pairing_dd_on_a_coarse_grid_is_far_above_its_floor(self, sl_big_pipeline):
        chart, base, systems, duals = sl_big_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 11)])
        report = sweep(chart, base, grid, systems=systems, duals=duals)
        assert not report.failures
        assert report.pairing_entry_dd > 1e9 * report.pairing_entry_dd_floor

    def test_samples_family_once_per_point(self, sl_big_pipeline, counting_chart, monkeypatch):
        # per point: one block evaluation on the nodes of every cluster serves the
        # counts, the margins, both frames and the pairing on the carriers; none at
        # y0, whose data the systems carry
        chart, base, systems, duals = sl_big_pipeline
        counting, calls = counting_chart(chart)
        blocks = []
        eval_blocks = kb.FamilyChart.eval_blocks

        def recorded(self, y, sigmas, *args):
            blocks.append(tuple(np.asarray(y, dtype=float).tolist()))
            return eval_blocks(self, y, sigmas, *args)

        monkeypatch.setattr(kb.FamilyChart, "eval_blocks", recorded)
        grid = ParameterGrid.from_ranges([(-0.05, 0.05, 3)])
        report = sweep(counting, base, grid, probe=lambda y: np.ones(4), systems=systems, duals=duals)
        assert not report.failures and max(p.probe_error for p in report.points) < 1e-8
        want = [(y,) for y in (-0.05, 0.0, 0.05)]
        assert blocks == want and calls == want

    def test_no_lapack_call_on_small_blocks(self, sl_big_pipeline, monkeypatch):
        # the acceptance-10 chart: 1 x 1 reduced families and p22 blocks, 2 x 2 other
        # blocks, all in closed form; its four clusters form one shape class, so one
        # guard per point
        chart, base, systems, duals = sl_big_pipeline
        small = []
        for name in ("inv", "svd", "slogdet", "solve"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, _name=name, **kwargs):
                if np.shape(a)[-1] <= 2:
                    small.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        guards = []
        guard = kb.reduction._guard

        def counted(blocks, held):
            guards.append((blocks[3].shape[:2], blocks[4].shape[:2]))
            return guard(blocks, held)

        monkeypatch.setattr(kb.reduction, "_guard", counted)
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        report = sweep(chart, base, grid, probe=lambda y: np.ones(4), systems=systems, duals=duals)
        assert not report.failures and max(p.probe_error for p in report.points) < 1e-8
        assert small == []
        # p22 per cluster on the two count circles and the carrier, 64 + 64 + 128 nodes, and
        # the other blocks on the outer count circle alone, 64 nodes
        assert len(base.clusters) == 4 and guards == [((4, 256), (4, 64))] * 3

    def test_evaluates_no_germ_off_its_carrier(self, sl_big_pipeline, monkeypatch):
        # the acceptance-10 chart: the sweep reads each germ's class off its carrier
        # samples, so it builds no Cauchy kernel, the sum behind every evaluation off it
        chart, base, systems, duals = sl_big_pipeline
        kernels = []
        cauchy_kernel = kb.contour._cauchy_kernel

        def counted(circle, sigmas):
            kernels.append(len(sigmas))
            return cauchy_kernel(circle, sigmas)

        monkeypatch.setattr(kb.contour, "_cauchy_kernel", counted)
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 5)])
        report = sweep(chart, base, grid, probe=lambda y: np.ones(4), systems=systems, duals=duals)
        assert not report.failures and max(p.probe_error for p in report.points) < 1e-8
        assert kernels == []
        # a germ evaluated off its carrier is counted
        make_germ(lambda z: 1.0 / z, 0.0, 0.5, 16).eval(np.array([1.0, 2.0]))
        assert kernels == [2]

    def test_pairs_no_frame_or_dual_germ(self, sl_big_pipeline):
        # the sweep contracts S^-1 on its carriers against the dual data it holds from the
        # base point: it forms no frame or dual germ, reads no P there and, as h_a(conj sigma)^H
        # is holomorphic, projects nothing onto its class.  Calls are counted by code object,
        # whatever name a module imports them under
        chart, base, systems, duals = sl_big_pipeline
        refs = (kb.frames._frame_pair, kb.pairing._stacked_pairings, kb.contour.singular_part_at_nodes)
        codes = {f.__code__: f.__name__ for f in refs}
        calls = []

        def counted(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls.append(codes[frame.f_code])

        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 5)])
        sys.setprofile(counted)
        try:
            report = sweep(chart, base, grid, probe=lambda y: np.ones(4), systems=systems, duals=duals)
            assert calls == []
            # the full-space reference still goes through all three
            frame, dual = kb.frames_at(chart, base, systems, duals, [0.05])
            kb.pairing_matrix(chart, frame, dual, base, [0.05])
        finally:
            sys.setprofile(None)
        assert not report.failures and max(p.probe_error for p in report.points) < 1e-8
        assert calls == ["_frame_pair", "_stacked_pairings", "singular_part_at_nodes"]

    @pytest.mark.parametrize("pipeline", ["sl_big_pipeline", "jordan_pipeline", "branching_pipeline"])
    def test_a_probe_leaves_the_pairing_bit_identical(self, pipeline, request):
        # the section's column is contracted apart from the frame's, so a probe does not
        # move the pairing matrix by one roundoff
        chart, base, systems, duals = request.getfixturevalue(pipeline)
        size = sum(sy.total for sy in systems)
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 5)])
        plain = sweep(chart, base, grid, systems=systems, duals=duals)
        probed = sweep(chart, base, grid, probe=lambda y: np.arange(1, size + 1) * (1 + y[0]), systems=systems, duals=duals)
        assert not plain.failures and not probed.failures
        assert [p.pairing_condition for p in probed.points] == [p.pairing_condition for p in plain.points]
        assert probed.pairing_entry_dd == plain.pairing_entry_dd

    def test_p22_margin_is_the_condition_3_margin(self, sl_big_pipeline):
        # on the acceptance-10 grid, each point's p22 margin is the smallest condition-(3)
        # margin over the clusters, the one validate_neighborhood reports for that y alone
        chart, base, systems, duals = sl_big_pipeline
        report = sweep(chart, base, ParameterGrid.from_ranges([(-0.1, 0.1, 101)]), systems=systems, duals=duals)
        assert not report.failures
        for point in report.points:
            assert point.p22_margin == kb.validate_neighborhood(chart, base, [list(point.y)]).conditions[2].margin

    def test_count_continues_on_the_midpoints(self, monkeypatch):
        # sigma^17 turns 17 * 2 pi / 64 > pi/2 between the 64 count nodes, so after
        # one evaluation on both count circles each count continues on the 64
        # midpoints of its circle, and only there
        chart = matrix_polynomial_chart([PolyTerm(17, (0,), np.eye(1))], SigmaRegion(-2, 2, -2, 2))
        one, empty = np.eye(1), np.zeros((1, 0))
        cluster = kb.reduction.Cluster(0j, 17, 1, one, empty, one, empty, 0.5, (0,))
        ev = kb.SchurEvaluator(chart, kb.reduction.BasePointData(np.zeros(1), [cluster]), 0)
        sampled, eval_blocks = [], kb.FamilyChart.eval_blocks

        def recorded(self, y, sigmas, *args):
            sampled.append(np.asarray(sigmas))
            return eval_blocks(self, y, sigmas, *args)

        monkeypatch.setattr(kb.FamilyChart, "eval_blocks", recorded)
        assert self.counts(ev) == [17, 17]
        assert [len(s) for s in sampled] == [128, 64, 64]
        sampled = sampled[1:]
        assert [len(s) for s in sampled] == [64, 64]
        for s, circle in zip(sampled, ev.cluster.count_circles()):
            assert np.array_equal(s, circle.path(128)[1::2])

    @staticmethod
    def counts(ev):
        """The sweep's counts of one evaluator's cluster on its outer and inner count circles."""
        circles, stacks = {ev.s: ev.cluster.count_circles()}, [ev.stack]
        classes = kb.reduction._sampled(stacks, [0.0], kb.reduction._nodes(stacks, circles, 1))
        return [c[0] for c in kb.reduction._neighborhood([ev.stack], [0.0], circles, classes, (0, 1), (0,))[0]]

    def test_continued_count_takes_the_closed_form_slogdet(self, monkeypatch):
        # the sigma^17 counts above continue on their midpoints through the guarded
        # slogdet of a one-cluster stack, whose 1 x 1 reduced family needs no LAPACK slogdet
        chart = matrix_polynomial_chart([PolyTerm(17, (0,), np.eye(1))], SigmaRegion(-2, 2, -2, 2))
        one, empty = np.eye(1), np.zeros((1, 0))
        cluster = kb.reduction.Cluster(0j, 17, 1, one, empty, one, empty, 0.5, (0,))
        ev = kb.SchurEvaluator(chart, kb.reduction.BasePointData(np.zeros(1), [cluster]), 0)
        shapes = []
        slogdet = np.linalg.slogdet

        def recorded(a):
            shapes.append(np.shape(a))
            return slogdet(a)

        monkeypatch.setattr(np.linalg, "slogdet", recorded)
        assert self.counts(ev) == [17, 17]
        assert shapes == []

    def test_node_count_must_divide_system_nodes(self, branching_pipeline):
        # the systems carry beta on 256 nodes; a sweep on 96 stops before any point
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        with pytest.raises(InputError, match="must divide"):
            sweep(chart, base, grid, node_count=96, systems=systems, duals=duals)
        assert not sweep(chart, base, grid, node_count=64, systems=systems, duals=duals).failures

    def test_grid_dimension_must_match_family(self, branching_pipeline):
        # a two-axis grid on a one-parameter family stops before any point
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3), (-0.1, 0.1, 3)])
        with pytest.raises(InputError, match="grid has 2 axes, the family 1 parameters"):
            sweep(chart, base, grid, systems=systems, duals=duals)

    def test_sweep_without_probe(self, branching_pipeline):
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        report = sweep(chart, base, grid, systems=systems, duals=duals)
        assert report.coefficient_dd is None
        assert all(p.coefficients is None for p in report.points)

    def test_multiplicity_jump_aborts(self, branching_pipeline):
        # outside |y| < 0.8 the singular points leave the cluster disc
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(1.15, 1.25, 2)])
        with pytest.raises(DimensionJumpError) as info:
            sweep(chart, base, grid, systems=systems, duals=duals)
        partial = info.value.partial_report
        assert partial is not None
        assert partial.points == []

    def test_annulus_stray_recorded_as_failure(self, branching_pipeline):
        # at y = 0.7 the points are still inside the disc but have crossed
        # into the outer annulus, where the carrier misses their poles
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(0.7, 0.7, 1)])
        report = sweep(chart, base, grid, systems=systems, duals=duals)
        assert len(report.failures) == 1
        assert report.failures[0]["error"] == "ValidationError"
        # the placeholder point carries an infinite condition number, which
        # must serialize as null rather than break the JSON
        assert report.points[0].to_dict()["pairing_condition"] is None

    def test_two_parameter_grid(self):
        terms = [
            PolyTerm(1, (0, 0), np.eye(2)),
            PolyTerm(0, (1, 0), np.array([[0.0, 1.0], [1.0, 0.0]])),
            PolyTerm(0, (0, 1), 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])),
        ]
        chart = matrix_polynomial_chart(
            terms, SigmaRegion(-2, 2, -2, 2), param_dim=2, name="two_parameter"
        )
        base = kb.base_point_data(chart, [0.0, 0.0])
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 5), (-0.1, 0.1, 5)])

        def probe(y):
            return np.array([1.0 + y[0] ** 2 + 0.5 * y[1] ** 2, y[0] * y[1]])

        systems, duals = canonical_systems(chart, base)
        report = sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
        assert len(report.points) == 25 and not report.failures
        dd0, dd1 = report.coefficient_dd
        assert dd0 == pytest.approx(1.0, rel=1e-6)  # the larger of 1 and 0.5
        assert dd1 < 1e-8  # bilinear terms have no curvature along the axes

    def test_report_serialization(self, branching_pipeline, tmp_path):
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        report = sweep(chart, base, grid, systems=systems, duals=duals)
        path = tmp_path / "report.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert len(data["points"]) == 3
        # no complement block here, so the margin is trivially perfect
        assert data["points"][0]["p22_margin"] == 1.0
        assert "elapsed" not in data
        report2 = sweep(chart, base, grid, systems=systems, duals=duals)
        assert report2.to_dict() == data


@pytest.mark.parametrize(
    "pipeline, grid",
    [("sl_big_pipeline", (-0.1, 0.1, 11)), ("branching_pipeline", (-0.3, 0.3, 7))],
    ids=["two_channel", "branching"],
)
def test_validation_and_the_sweep_read_the_same_numbers(pipeline, grid, request):
    # both walk reduction._neighborhoods: the worst condition-(3) margin and annulus of the
    # validation are those of the sweep's outer count circles, exactly
    chart, base, systems, duals = request.getfixturevalue(pipeline)
    grid = ParameterGrid.from_ranges([grid])
    conditions = kb.validate_neighborhood(chart, base, grid.points()).conditions
    samples = sweep(chart, base, grid, systems=systems, duals=duals).outer_samples
    assert len(samples) == len(grid.points())
    assert conditions[2].margin == min(m for _, margins, _, _, _ in samples for m in margins)
    assert conditions[3].margin == min(a for _, _, annulus, _, _ in samples for a in annulus)


class TestDiagram:
    def test_branching_rows(self, branching_pipeline, tmp_path):
        chart, base, systems, duals = branching_pipeline
        grid = ParameterGrid.from_ranges([(-0.2, 0.2, 5)])
        out = tmp_path / "diagram.csv"
        rows = branching_diagram(chart, base, grid, out=out)
        assert len(rows) == 9  # two branches except at the collision point
        at_zero = [r for r in rows if r[0] == 0.0]
        assert len(at_zero) == 1 and at_zero[0][4] == 2
        for r in rows:
            y = r[0]
            if y != 0.0:
                assert abs(abs(r[2]) - abs(y)) < 1e-12
        lines = out.read_text().splitlines()
        assert lines[0] == "y,cluster,re_sigma,im_sigma,mult"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert float(first[0]) == -0.2 and first[1] == "0"

    def test_one_sample_of_the_count_circles_per_cluster_and_parameter(self, sl_scalar_pipeline, monkeypatch):
        # the rows are read off the samples of condition (4): one block evaluation per
        # y on 2 x COUNT_NODES nodes of each of the 2 clusters
        chart, base, _, _ = sl_scalar_pipeline
        calls = []
        eval_blocks = kb.FamilyChart.eval_blocks

        def counted(self, y, sigmas, *args):
            calls.append(len(sigmas))
            return eval_blocks(self, y, sigmas, *args)

        monkeypatch.setattr(kb.FamilyChart, "eval_blocks", counted)
        rows = branching_diagram(chart, base, ParameterGrid.from_ranges([(-0.1, 0.1, 3)]))
        assert calls == [2 * 2 * kb.reduction.COUNT_NODES] * 3
        assert len(rows) == 6
        for y, _, re, im, mult in rows:
            want = np.sign(im) * 1j * np.sqrt(1.25 + 0.1 * y)
            assert mult == 1 and abs(complex(re, im) - want) < 1e-12

    def test_one_schur_complement_per_count_circle(self, sl_big_pipeline, monkeypatch):
        # the count keeps the outer circle's samples and the zeros are read off them:
        # one reduction per y of the one shape class, on both count circles, with the
        # other blocks on the outer one alone, and with the rows a fresh one gives
        chart, base, _, _ = sl_big_pipeline
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        want = []
        for y in grid.points():
            for s, cl in enumerate(base.clusters):
                circle = cl.count_circles()[0]
                blocks = kb.SchurEvaluator(chart, base, s).blocks_many(y, circle.nodes)
                held = kb.reduction._slogdet(kb.reduction._schur(blocks, circle.nodes)[0])
                for z in kb.contour.circle_zeros(circle, *held, cl.multiplicity, cl.radius / 64.0):
                    want.append([float(y[0]), s, z.location.real, z.location.imag, z.multiplicity])
        calls = []
        reduce = kb.reduction._reduce

        def counted(blocks, held):
            calls.append((blocks[0].shape[:2], blocks[4].shape[:2]))
            return reduce(blocks, held)

        monkeypatch.setattr(kb.reduction, "_reduce", counted)
        rows = branching_diagram(chart, base, grid)
        c, nodes = len(base.clusters), kb.reduction.COUNT_NODES
        assert calls == [((c, 2 * nodes), (c, nodes))] * len(grid.points())
        assert rows == want and len(rows) == 12

    def test_requires_one_dimension(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        grid = ParameterGrid.from_ranges([(0, 1, 2), (0, 1, 2)])
        with pytest.raises(InputError):
            branching_diagram(chart, base, grid)


def indicial_trace_germ():
    """Germ of 1/(sigma (sigma + i)): residues -i at 0 and +i at -i."""
    return make_germ(
        lambda z: 1.0 / (z * (z + 1j)), -0.5j, 0.75, node_count=128
    )


class TestTrace:
    poles = [(0.0, 1), (-1.0j, 1)]

    def test_symbolic_terms(self):
        exp = trace_from_germ(indicial_trace_germ(), self.poles, gamma=1.5, window=2.0)
        assert len(exp.terms) == 2 and not exp.dropped
        t0, t1 = exp.terms
        assert t0.sigma == pytest.approx(0.0, abs=1e-12)
        assert t0.power == 0
        assert t0.coeff == pytest.approx(1.0, abs=1e-10)
        assert t1.sigma == pytest.approx(-1.0j, abs=1e-12)
        assert t1.coeff == pytest.approx(-1.0, abs=1e-10)
        assert exp.symbolic_numeric_gap < 1e-8
        # S(x) = 1 - x on the probe range
        x = np.array([0.1, 0.5, 0.9])
        assert np.allclose(exp.eval(x), 1.0 - x, atol=1e-10)

    def test_window_drops_fast_terms(self):
        exp = trace_from_germ(indicial_trace_germ(), self.poles, gamma=0.5, window=1.0)
        assert len(exp.terms) == 1
        assert exp.terms[0].sigma == pytest.approx(0.0, abs=1e-12)
        assert len(exp.dropped) == 1
        # the cross-check includes dropped terms, so it still passes
        assert exp.symbolic_numeric_gap < 1e-8

    def test_numeric_samples_match_terms(self):
        g = indicial_trace_germ()
        x = np.geomspace(1e-2, 1.0, 9)
        numeric = numeric_trace_samples(g, x)
        assert np.allclose(numeric, 1.0 - x, atol=1e-10)

    def test_round_trip(self):
        exp = trace_from_germ(indicial_trace_germ(), self.poles, gamma=1.5, window=2.0)
        g2 = germ_from_trace(exp, -0.5j, 0.75)
        probes = -0.5j + 1.5 * np.exp(2j * np.pi * np.arange(5) / 5)
        orig = indicial_trace_germ().eval(probes)
        assert np.allclose(g2.eval(probes), orig, atol=1e-10)

    def test_clustered_poles_degrade_to_numeric(self):
        sep = 1e-4
        f = lambda z: 1.0 / (z - 0.1) ** 2 + 1.0 / (z - 0.1 - sep) ** 2
        g = make_germ(f, 0.0, 0.5)
        exp = trace_from_germ(g, [(0.1, 2), (0.1 + sep, 2)], gamma=1.0, window=2.0)
        assert exp.terms == []
        assert exp.numeric_values is not None
        assert exp.symbolic_numeric_gap is None

    def test_scalar_only(self):
        g = make_germ(
            lambda z: np.stack([1.0 / z, 2.0 / z], axis=-1), 0.0, 0.5
        )
        with pytest.raises(InputError):
            trace_from_germ(g, [(0.0, 1)], gamma=1.0, window=2.0)

    def test_inverse_requires_terms(self):
        exp = kb.TraceExpansion(gamma=1.0, window=2.0, terms=[])
        with pytest.raises(InputError):
            germ_from_trace(exp, 0.0, 0.5)

    def test_inverse_carrier_must_cover_poles(self):
        exp = trace_from_germ(indicial_trace_germ(), self.poles, gamma=1.5, window=2.0)
        with pytest.raises(InputError):
            germ_from_trace(exp, 0.0, 0.5)

    def test_serialization(self, tmp_path):
        exp = trace_from_germ(indicial_trace_germ(), self.poles, gamma=1.5, window=2.0)
        path = tmp_path / "trace.json"
        exp.save(path)
        data = json.loads(path.read_text())
        assert len(data["terms"]) == 2
        assert data["terms"][0]["coeff"] == pytest.approx([1.0, 0.0], abs=1e-10)
        assert data["gamma"] == 1.5


class TestCanonicalSystems:
    def test_coupled_sl_lengths(self, sl_big_pipeline):
        chart, base, systems, duals = sl_big_pipeline
        assert len(base.clusters) == 4
        centers = sorted(c.center.imag for c in base.clusters)
        assert centers == pytest.approx(
            [-np.sqrt(1.1), -np.sqrt(0.9), np.sqrt(0.9), np.sqrt(1.1)], abs=1e-9
        )
        for sy, du in zip(systems, duals):
            assert sy.lengths == [1]
            assert du.lengths == [1]

    def test_samples_each_carrier_once(self, sl_big_pipeline, counting_chart):
        # one evaluation of every carrier; the duals are read off the primal samples:
        # no adjoint evaluation
        chart, base, systems, duals = sl_big_pipeline
        counting, calls = counting_chart(chart)
        again, again_duals = canonical_systems(counting, base)
        assert calls == [(0.0,)]
        assert [sy.lengths for sy in again] == [sy.lengths for sy in systems]
        assert [du.lengths for du in again_duals] == [du.lengths for du in duals]

    @pytest.mark.parametrize("pipeline", ["sl_big_pipeline", "jordan_pipeline"])
    def test_scaled_family_gives_the_same_lengths(self, pipeline, request):
        # at 1e200 a Frobenius norm of the unscaled dual check or chain
        # residual overflows, an error under filterwarnings = error
        chart, base, systems, duals = request.getfixturevalue(pipeline)
        scaled = dataclasses.replace(chart, evaluator=lambda y, s: 1e200 * chart.evaluator(y, s))
        big_systems, big_duals = canonical_systems(scaled, kb.base_point_data(scaled, [0.0]))
        assert [sy.lengths for sy in big_systems] == [sy.lengths for sy in systems]
        assert [du.lengths for du in big_duals] == [du.lengths for du in duals]


class TestProblemFiles:
    def test_minimal(self):
        prob = load_problem({"family": {"kind": "branching"}})
        assert prob.chart.n == 2
        assert np.array_equal(prob.y0, [0.0])
        assert prob.grid is None
        base = prob.base()
        assert base.clusters[0].multiplicity == 2

    def test_full_spec(self, tmp_path):
        spec = {
            "family": {"kind": "branching"},
            "base_point": {"y0": [0.0], "epsilon": 0.5},
            "grid": {"axes": [{"min": -0.2, "max": 0.2, "count": 11}]},
            "probe": [
                {"entry": 0, "coeff": {"type": "poly", "coeffs": [1, 0, 1]}},
                {"entry": 1, "coeff": {"type": "sin"}},
            ],
            "min_separation": 0.01,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec))
        prob = load_problem_file(path)
        assert prob.epsilon == 0.5
        assert prob.grid.shape == (11,)
        probe = probe_from_spec(prob.probe_entries, 2)
        vals = probe([0.2])
        assert vals[0] == pytest.approx(1.04)
        assert vals[1] == pytest.approx(np.sin(0.2))

    @pytest.mark.parametrize("kind, fn", [("sin", np.sin), ("cos", np.cos)])
    @pytest.mark.parametrize("fields", [{}, {"scale": 2.0}, {"freq": 3.0}, {"scale": -0.5, "freq": 2.5}])
    def test_probe_scale_and_freq(self, kind, fn, fields):
        probe = probe_from_spec([{"entry": 1, "coeff": dict(fields, type=kind)}], 2)
        scale, freq = fields.get("scale", 1.0), fields.get("freq", 1.0)
        for t in (-0.2, 0.1, 0.7):
            vals = probe([t])
            assert vals[0] == 0
            assert vals[1] == pytest.approx(scale * fn(freq * t), rel=1e-15, abs=1e-15)

    def test_spec_errors(self, tmp_path):
        with pytest.raises(SpecError):
            load_problem({})
        with pytest.raises(SpecError):
            load_problem({"family": {"kind": "branching"}, "base_point": {"y0": [0, 1]}})
        with pytest.raises(SpecError):
            load_problem({"family": {"kind": "branching"}, "grid": {}})
        with pytest.raises(SpecError):
            load_problem(
                {
                    "family": {"kind": "branching"},
                    "grid": {"axes": [{"min": 0, "max": 1, "count": 2},
                                      {"min": 0, "max": 1, "count": 2}]},
                }
            )
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(SpecError):
            load_problem_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[]")
        with pytest.raises(SpecError):
            load_problem_file(arr)

    @pytest.mark.parametrize(
        "field, spec",
        [
            ("base_point.y0", {"base_point": {"y0": [np.nan]}}),
            ("base_point.y0", {"base_point": {"y0": [np.inf]}}),
            *[("base_point.epsilon", {"base_point": {"epsilon": v}}) for v in (-0.1, 0.0, np.nan, np.inf)],
            *[("min_separation", {"min_separation": v}) for v in (-1.0, 0.0, np.nan, np.inf)],
        ],
    )
    def test_non_finite_or_non_positive_values_rejected(self, field, spec):
        # json reads NaN and Infinity; each field is refused by name when the file is read
        with pytest.raises(SpecError, match=f"{field} must be"):
            load_problem(dict(spec, family={"kind": "branching"}))

    def test_non_finite_grid_bounds_rejected(self):
        axis = {"min": np.nan, "max": 0.1, "count": 3}
        with pytest.raises(InputError, match="grid bounds must be finite"):
            load_problem({"family": {"kind": "branching"}, "grid": {"axes": [axis]}})

    @pytest.mark.parametrize(
        "key, value",
        [("node_count", 64), ("tolerances", {"probe_error": 1e-6}), ("min_seperation", 0.01)],
    )
    def test_unknown_keys_rejected(self, key, value):
        with pytest.raises(SpecError, match=key):
            load_problem({"family": {"kind": "branching"}, key: value})

    @pytest.mark.parametrize(
        "key, spec",
        [
            ("eps", {"family": BRANCHING, "base_point": {"y0": [0.0], "eps": 0.5}}),
            ("spacing", {"family": BRANCHING, "grid": {"axes": [AXIS], "spacing": 0.1}}),
            ("step", {"family": BRANCHING, "grid": {"axes": [dict(AXIS, step=0.1)]}}),
            ("half_width", {"family": dict(BRANCHING, half_width=1.0)}),
            ("order", {"family": {"kind": "indicial", "m": 2, "order": 3}}),
            ("param_dim", {"family": dict(STURM_LIOUVILLE, param_dim=1)}),
            ("width", {"family": dict(MATRIX_POLYNOMIAL, sigma={"re": [-2, 2], "im": [-2, 2], "width": 1})}),
            ("im_half_width", {"family": dict(MATRIX_POLYNOMIAL, sigma={"re": [-2, 2], "im": [-2, 2], "im_half_width": 1})}),
            ("y_power", {"family": dict(MATRIX_POLYNOMIAL, terms=[{"y_power": [1], "matrix": [[1]]}])}),
            ("sigma", {"family": dict(STURM_LIOUVILLE, a_terms=[{"sigma": 0, "matrix": [[0.25]]}])}),
            ("weight", {"family": BRANCHING, "probe": [{"entry": 0, "coeff": {"type": "sin"}, "weight": 2}]}),
            ("scale", {"family": BRANCHING, "probe": [{"entry": 0, "coeff": {"type": "poly", "coeffs": [1], "scale": 2}}]}),
        ],
    )
    def test_unknown_nested_keys_rejected(self, key, spec):
        with pytest.raises(SpecError, match=key):
            load_problem(spec)

    @pytest.mark.parametrize(
        "key, spec",
        [
            *[(key, {"family": {k: v for k, v in STURM_LIOUVILLE.items() if k != key}})
              for key in ("r", "mode_cutoff", "k_gap", "r_bound")],
            ("matrix", {"family": dict(MATRIX_POLYNOMIAL, terms=[{"sigma_power": 1}])}),
            *[(key, {"family": BRANCHING,
                     "grid": {"axes": [{k: v for k, v in AXIS.items() if k != key}]}})
              for key in ("min", "max", "count")],
            ("entry", {"family": BRANCHING, "probe": [{"coeff": {"type": "sin"}}]}),
            ("coeff", {"family": BRANCHING, "probe": [{"entry": 0}]}),
            ("re", {"family": dict(MATRIX_POLYNOMIAL, sigma={"kind": "rectangle", "im": [-2, 2]})}),
            ("im", {"family": dict(MATRIX_POLYNOMIAL, sigma={"re": [-2, 2]})}),
            ("im_half_width", {"family": dict(MATRIX_POLYNOMIAL, sigma={"kind": "strip"})}),
            ("sigma", {"family": {k: v for k, v in MATRIX_POLYNOMIAL.items() if k != "sigma"}}),
        ],
    )
    def test_required_nested_keys(self, key, spec):
        with pytest.raises(SpecError, match=f"needs keys: '{key}'"):
            load_problem(spec)

    def test_nested_spec_objects_load(self):
        for family in (BRANCHING, STURM_LIOUVILLE, MATRIX_POLYNOMIAL):
            spec = {
                "family": family,
                "base_point": {"y0": [0.0], "epsilon": 0.3},
                "grid": {"axes": [AXIS]},
                "probe": [{"entry": 0, "coeff": {"type": "cos", "scale": 2, "freq": 3}}],
            }
            assert load_problem(spec).grid.shape == (5,)

    def test_sturm_liouville_terms_take_one_exponent(self):
        family = dict(STURM_LIOUVILLE, a_terms=[{"y_powers": [1, 1], "matrix": [[0.3]]}])
        with pytest.raises(SpecError, match="y_powers"):
            load_problem({"family": family})

    def test_probe_needs_one_parameter(self):
        family = dict(MATRIX_POLYNOMIAL, param_dim=2, terms=[{"y_powers": [0, 0], "matrix": [[1]]}])
        spec = {"family": family, "probe": [{"entry": 0, "coeff": {"type": "sin"}}]}
        with pytest.raises(SpecError, match="param_dim 2"):
            load_problem(spec)
        del spec["probe"]
        assert load_problem(spec).chart.param_dim == 2

    def test_probe_spec_errors(self):
        with pytest.raises(SpecError):
            probe_from_spec([{"entry": 5, "coeff": {"type": "poly", "coeffs": [1]}}], 2)
        with pytest.raises(SpecError):
            probe_from_spec([{"entry": 0, "coeff": {"type": "exp"}}], 2)
