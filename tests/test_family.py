import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle.errors import ConfigurationError, InputError, RegionError, SpecError
from kernelbundle.family import (
    PolyTerm,
    SigmaRegion,
    SturmLiouvilleSpec,
    branching_chart,
    family_from_dict,
    indicial_chart,
    jordan_chart,
    matrix_polynomial_chart,
    sigma_strip,
    sl_assemble,
    sl_blocks,
    sl_chart,
    validate_chart,
)
from oracles import adjoint_chart, conjugate_region


class TestRegion:
    def test_rectangle_membership(self):
        reg = SigmaRegion(-1.0, 1.0, -2.0, 0.5)
        assert reg.contains(0.3 - 1.0j)
        assert not reg.contains(1.5)
        assert not reg.contains(0.0 + 1.0j)

    def test_strip_ignores_real_part(self):
        reg = SigmaRegion.strip_region(1.5, (-1.0, 1.0))
        assert reg.contains(10.0 + 1.4j)
        assert not reg.contains(0.0 + 1.6j)

    def test_conjugate(self):
        reg = conjugate_region(SigmaRegion(-1.0, 1.0, -2.0, 0.5))
        assert reg.im_min == -0.5 and reg.im_max == 2.0

    def test_boundary_distance(self):
        reg = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        assert reg.boundary_distance(0.2 + 0.9j) == pytest.approx(0.1)

    def test_empty_bounds(self):
        with pytest.raises(InputError):
            SigmaRegion(1.0, -1.0, 0.0, 1.0)


class TestBuiltinCharts:
    def test_jordan_values(self):
        chart = jordan_chart()
        assert np.array_equal(chart.eval([0.3], 0.7), [[0.7, 1.0], [0.0, 0.7]])

    def test_branching_values(self):
        chart = branching_chart()
        assert np.array_equal(chart.eval([0.3], 0.7), [[0.7, 0.3], [0.3, 0.7]])

    def test_indicial_roots(self):
        chart = indicial_chart(3)
        for root in (0.0, -1.0j, -2.0j):
            assert abs(chart.eval([0.0], root)[0, 0]) < 1e-14
        assert chart.eval([0.0], 0.5j, check=False)[0, 0] != 0

    def test_region_gate(self):
        chart = jordan_chart()
        with pytest.raises(RegionError):
            chart.eval([0.0], 3.0)
        # internal searches may probe just outside with the gate off
        assert chart.eval([0.0], 3.0, check=False)[0, 0] == 3.0

    def test_eval_many_matches_eval(self):
        chart = branching_chart()
        sigmas = np.array([0.1, 0.5j, -0.3 + 0.2j])
        stacked = chart.eval_many([0.4], sigmas)
        for k, s in enumerate(sigmas):
            assert np.allclose(stacked[k], chart.eval([0.4], s))

    def test_param_shape_validation(self):
        chart = jordan_chart()
        with pytest.raises(InputError):
            chart.eval([0.0, 1.0], 0.5)


class TestAdjoint:
    def test_pointwise_identity(self):
        chart = branching_chart()
        adj = adjoint_chart(chart)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y = [rng.uniform(-1, 1)]
            assert np.allclose(adj.eval(y, s), chart.eval(y, np.conj(s)).conj().T)

    def test_region_conjugated(self):
        reg = SigmaRegion(-1.0, 1.0, -2.0, 0.5)
        terms = [PolyTerm(1, (0,), np.eye(2))]
        adj = adjoint_chart(matrix_polynomial_chart(terms, reg))
        assert adj.sigma.im_min == -0.5 and adj.sigma.im_max == 2.0

    def test_block_chart(self):
        # the adjoint of a chart of diagonal blocks has the conjugate-transposed blocks
        spec = SturmLiouvilleSpec(
            r=2, a_eval=lambda y: np.array([[0.1, 0.2j], [0.3, -0.1]]) * y[0], mode_cutoff=3, k_gap=1, r_bound=0.4
        )
        chart = sl_chart(spec)
        sigmas = np.array([0.2 + 0.1j, -0.4j])
        blocks = adjoint_chart(chart).eval_blocks([0.5], sigmas)
        assert np.array_equal(blocks, chart.eval_blocks([0.5], np.conj(sigmas)).conj().swapaxes(-1, -2))
        assert np.array_equal(
            adjoint_chart(chart).eval_many([0.5], sigmas), chart.eval_many([0.5], np.conj(sigmas)).conj().swapaxes(1, 2)
        )

    def test_eval_many_path(self):
        adj = adjoint_chart(branching_chart())
        sigmas = np.array([0.2 + 0.1j, -0.4j])
        stacked = adj.eval_many([0.3], sigmas)
        for k, s in enumerate(sigmas):
            assert np.allclose(stacked[k], adj.eval([0.3], s))


class TestMatrixPolynomial:
    def test_two_parameter_terms(self):
        terms = [
            PolyTerm(1, (0, 0), np.eye(2)),
            PolyTerm(0, (1, 1), np.array([[0.0, 1.0], [1.0, 0.0]])),
        ]
        chart = matrix_polynomial_chart(terms, SigmaRegion(-2, 2, -2, 2), param_dim=2)
        got = chart.eval([0.5, 0.4], 0.3)
        assert np.allclose(got, [[0.3, 0.2], [0.2, 0.3]])

    def test_validation(self):
        with pytest.raises(InputError):
            matrix_polynomial_chart([], SigmaRegion(-1, 1, -1, 1))
        with pytest.raises(InputError):
            matrix_polynomial_chart(
                [PolyTerm(-1, (0,), np.eye(2))], SigmaRegion(-1, 1, -1, 1)
            )
        with pytest.raises(InputError):
            matrix_polynomial_chart(
                [PolyTerm(0, (0,), np.eye(2)), PolyTerm(0, (0,), np.eye(3))],
                SigmaRegion(-1, 1, -1, 1),
            )


class TestSturmLiouville:
    def spec(self, r=2):
        return SturmLiouvilleSpec(
            r=r,
            a_eval=lambda y: np.array([[0.3 * y[0], 0.1], [0.1, -0.3 * y[0]]])[:r, :r],
            mode_cutoff=3,
            k_gap=1,
            r_bound=0.4,
        )

    def test_assemble_blocks(self):
        spec = self.spec()
        y = [0.5]
        sigma = 0.7j
        got = sl_assemble(spec, y, sigma)
        a = np.array([[0.15, 0.1], [0.1, -0.15]])
        for k in (1, 2, 3):
            block = got[2 * (k - 1) : 2 * k, 2 * (k - 1) : 2 * k]
            assert np.allclose(block, (k * k + sigma ** 2) * np.eye(2) + a)
        off = got.copy()
        for k in (1, 2, 3):
            off[2 * (k - 1) : 2 * k, 2 * (k - 1) : 2 * k] = 0
        assert np.all(off == 0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("sigma_shape", [(), (3, 5)])
    def test_assemble_matches_per_mode_loop(self, r, sigma_shape):
        # the block-diagonal assignment sums in the order of a loop over modes,
        # so it agrees bit for bit
        rng = np.random.default_rng(r)
        b = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        spec = SturmLiouvilleSpec(
            r=r, a_eval=lambda y: 0.1 * y[0] * b, mode_cutoff=5, k_gap=1, r_bound=0.4
        )
        y = [0.7]
        sigma = rng.normal(size=sigma_shape) + 1j * rng.normal(size=sigma_shape)
        a = spec.coefficient(y)
        ref = np.zeros(sigma.shape + (spec.n, spec.n), dtype=complex)
        for k in range(1, spec.mode_cutoff + 1):
            sl = slice((k - 1) * r, k * r)
            ref[..., sl, sl] = a + (k * k + sigma * sigma)[..., None, None] * np.eye(r)
        assert np.array_equal(sl_assemble(spec, y, sigma), ref)

    def test_strip_half_width(self):
        assert sigma_strip(self.spec(), (-1.0, 1.0)).im_max == pytest.approx(np.sqrt(2.5))

    def test_scalar_singular_points(self):
        # modes k with a constant scalar potential mu: det vanishes at
        # sigma^2 = -(k^2 + mu), i.e. sigma = +/- i sqrt(k^2 + mu)
        spec = SturmLiouvilleSpec(
            r=1, a_eval=lambda y: np.array([[0.25]]), mode_cutoff=2, k_gap=1, r_bound=0.4
        )
        chart = sl_chart(spec)
        for k in (1, 2):
            s = 1j * np.sqrt(k * k + 0.25)
            assert abs(np.linalg.det(chart.eval([0.0], s, check=False))) < 1e-12

    def test_mode_cutoff_guard(self):
        with pytest.raises(ConfigurationError):
            SturmLiouvilleSpec(
                r=1, a_eval=lambda y: np.eye(1), mode_cutoff=1, k_gap=1, r_bound=0.4
            )

    def test_gap_guard(self):
        with pytest.raises(ConfigurationError):
            SturmLiouvilleSpec(
                r=1, a_eval=lambda y: np.eye(1), mode_cutoff=3, k_gap=1, r_bound=1.6
            )

    def test_coefficient_shape_guard(self):
        spec = SturmLiouvilleSpec(
            r=2, a_eval=lambda y: np.eye(3), mode_cutoff=3, k_gap=1, r_bound=0.4
        )
        with pytest.raises(InputError):
            spec.coefficient([0.0])

    def test_eval_many_matches_eval(self):
        chart = sl_chart(self.spec())
        sigmas = np.array([0.3, 1.2j, 0.5 - 0.8j])
        stacked = chart.eval_many([0.2], sigmas)
        for k, s in enumerate(sigmas):
            assert np.allclose(stacked[k], chart.eval([0.2], s))

    def test_chart_returns_the_mode_blocks(self):
        # the chart evaluates one r x r block per mode; its dense values are
        # their assembly, bit for bit as sl_assemble
        spec = self.spec()
        chart = sl_chart(spec)
        sigmas = np.array([0.3, 1.2j, 0.5 - 0.8j])
        blocks = chart.eval_blocks([0.2], sigmas)
        assert blocks.shape == (3, spec.mode_cutoff, spec.r, spec.r)
        assert np.array_equal(blocks, sl_blocks(spec, [0.2], sigmas))
        assert np.array_equal(chart.eval_many([0.2], sigmas), sl_assemble(spec, [0.2], sigmas))


class TestValidation:
    def test_polynomial_chart_passes(self):
        report = validate_chart(jordan_chart(), [[0.0], [0.5]])
        assert report.passed
        assert report.holomorphy_residual < 1e-12
        assert report.invertibility_margin > 1e-8

    def test_sl_chart_passes(self):
        spec = SturmLiouvilleSpec(
            r=1, a_eval=lambda y: np.array([[0.25 + 0.1 * y[0]]]), mode_cutoff=4,
            k_gap=1, r_bound=0.4,
        )
        report = validate_chart(sl_chart(spec), [[-1.0], [0.0], [1.0]], sl_spec=spec)
        assert report.passed
        assert report.self_adjoint_residual < 1e-14

    def test_coefficient_bound_enforced(self):
        spec = SturmLiouvilleSpec(
            r=1, a_eval=lambda y: np.array([[0.39 + y[0]]]), mode_cutoff=3,
            k_gap=1, r_bound=0.4,
        )
        with pytest.raises(ConfigurationError):
            validate_chart(sl_chart(spec), [[0.5]], sl_spec=spec)

    def test_non_self_adjoint_flagged(self):
        spec = SturmLiouvilleSpec(
            r=2, a_eval=lambda y: np.array([[0.0, 0.2], [0.0, 0.0]]), mode_cutoff=3,
            k_gap=1, r_bound=0.4,
        )
        report = validate_chart(sl_chart(spec), [[0.0]], sl_spec=spec)
        assert not report.passed
        assert report.self_adjoint_residual > 0.1

    def test_nonholomorphic_flagged(self):
        region = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        chart = kb.FamilyChart(
            n=1, param_dim=1, sigma=region,
            evaluator=lambda y, ss: np.conj(ss)[:, None, None],
        )
        report = validate_chart(chart, [[0.0]])
        assert not report.passed
        assert report.holomorphy_residual > 1e-3

    def test_evaluator_shape_checked(self):
        region = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        chart = kb.FamilyChart(
            n=2, param_dim=1, sigma=region,
            evaluator=lambda y, ss: np.zeros((len(ss), 3, 3)),
        )
        with pytest.raises(InputError):
            chart.eval_many([0.0], np.array([0.1, 0.2j]))
        with pytest.raises(InputError):
            chart.eval([0.0], 0.1)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2, 3), (4, 2, 2), (5, 5), (6, 1, 1, 1)])
    def test_block_shape_checked(self, shape):
        # diagonal blocks must be square and cover the n = 6 rows exactly
        region = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        chart = kb.FamilyChart(6, 1, region, lambda y, ss: np.ones((len(ss),) + shape))
        with pytest.raises(InputError, match="diagonal blocks"):
            chart.eval_blocks([0.0], np.array([0.1, 0.2j]))

    @pytest.mark.parametrize("shape", [(6, 6), (1, 6, 6), (2, 3, 3), (3, 2, 2), (6, 1, 1)])
    def test_blocks_and_dense_values(self, shape):
        # a whole (n, n) value is one block; (M, b, b) blocks assemble block-diagonally
        region = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        rng = np.random.default_rng(len(shape) + shape[-1])
        vals = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
        chart = kb.FamilyChart(6, 1, region, lambda y, ss: vals)
        blocks = chart.eval_blocks([0.0], np.array([0.1, 0.2j]))
        assert np.array_equal(blocks, vals.reshape((2, -1) + shape[-2:]))
        dense = chart.eval_many([0.0], np.array([0.1, 0.2j]))
        b = shape[-1]
        for j in range(6 // b):
            rows = slice(j * b, (j + 1) * b)
            assert np.array_equal(dense[:, rows, rows], blocks[:, j])
            dense[:, rows, rows] = 0
        assert not np.any(dense)


class TestFromDict:
    def test_matrix_polynomial_round_trip(self):
        obj = {
            "kind": "matrix_polynomial",
            "terms": [
                {"sigma_power": 1, "matrix": [[1, 0], [0, 1]]},
                {"sigma_power": 0, "y_powers": [1], "matrix": [[0, [0, 1]], [[0, -1], 0]]},
            ],
            "sigma": {"re": [-2, 2], "im": [-2, 2]},
        }
        chart, spec = family_from_dict(obj)
        assert spec is None
        got = chart.eval([0.5], 0.3)
        assert np.allclose(got, [[0.3, 0.5j], [-0.5j, 0.3]])

    def test_sturm_liouville(self):
        obj = {
            "kind": "sturm_liouville",
            "r": 1,
            "a_terms": [{"matrix": [[0.25]]}, {"y_powers": [1], "matrix": [[0.1]]}],
            "mode_cutoff": 4,
            "k_gap": 1,
            "r_bound": 0.4,
        }
        chart, spec = family_from_dict(obj)
        assert spec.n == 4
        assert chart.eval([1.0], 0.0, check=False)[0, 0] == pytest.approx(1.35)
        assert chart.sigma.strip

    def test_named_kinds(self):
        for kind in ("jordan", "branching"):
            chart, spec = family_from_dict({"kind": kind})
            assert chart.n == 2 and spec is None
        chart, _ = family_from_dict({"kind": "indicial", "m": 2})
        assert chart.n == 1

    def test_error_paths(self):
        with pytest.raises(SpecError):
            family_from_dict({})
        with pytest.raises(SpecError):
            family_from_dict({"kind": "unknown"})
        with pytest.raises(SpecError):
            family_from_dict({"kind": "matrix_polynomial", "terms": [], "sigma": None})
        with pytest.raises(SpecError):
            family_from_dict(
                {
                    "kind": "matrix_polynomial",
                    "terms": [{"matrix": [["bad"]]}],
                    "sigma": {"re": [-1, 1], "im": [-1, 1]},
                }
            )
        with pytest.raises(SpecError):
            family_from_dict(
                {
                    "kind": "sturm_liouville",
                    "r": 1,
                    "a_terms": [{"sigma_power": 1, "matrix": [[1]]}],
                    "mode_cutoff": 3,
                    "k_gap": 1,
                    "r_bound": 0.4,
                }
            )
