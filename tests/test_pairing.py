import numpy as np
import pytest

import kernelbundle.frames
from kernelbundle.contour import Circle, SampledFunction
from kernelbundle.errors import InputError, SectionResidualError
from kernelbundle.frames import (
    FrameSet,
    Germ,
    dual_frame_at,
    fullframe_at,
    germ_from_pole_coefficients,
)
from kernelbundle.pairing import (
    base_point_check,
    cluster_contours,
    coefficients,
    expected_base_pairing,
    pair,
    pairing_matrix,
    reduced_pairing_matrix,
)


def _frames(pipeline, y):
    chart, base, systems, duals = pipeline
    frame = fullframe_at(chart, base, systems, y)
    dual = dual_frame_at(chart, base, duals, y)
    return chart, base, frame, dual


def _scaled(germ, c):
    return Germ(germ.center, SampledFunction(germ.carrier.circle, c * germ.carrier.values))


def _section(frame, weights):
    """The section sum_b weights[b] phi_b as one germ per cluster."""
    return [
        Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values @ np.asarray(c)))
        for g, c in zip(frame.blocks, frame.split(np.asarray(weights, dtype=complex)))
    ]


class TestPair:
    def test_sesquilinear(self, jordan_pipeline):
        chart, base, frame, dual = _frames(jordan_pipeline, [0.0])
        contours = cluster_contours(base)
        phi, psi = frame.entry(0), dual.entry(0)
        ref = pair(chart, [0.0], phi, psi, contours)
        assert pair(chart, [0.0], _scaled(phi, 2.0j), psi, contours) == pytest.approx(
            2.0j * ref, abs=1e-12
        )
        assert pair(chart, [0.0], phi, _scaled(psi, 1.0 - 0.5j), contours) == pytest.approx(
            np.conj(1.0 - 0.5j) * ref, abs=1e-12
        )

    def test_matches_matrix_entries(self, jordan_pipeline, sl_scalar_pipeline):
        for pipeline, y in [(jordan_pipeline, [0.0]), (sl_scalar_pipeline, [0.3])]:
            chart, base, frame, dual = _frames(pipeline, y)
            contours = cluster_contours(base)
            pm = pairing_matrix(chart, frame, dual, base, y)
            for a, (sa, _, _) in enumerate(dual.labels):
                for b, (sb, _, _) in enumerate(frame.labels):
                    if sa != sb:
                        continue
                    val = pair(chart, y, frame.entry(b), dual.entry(a), contours)
                    assert abs(val - pm.matrix[a, b]) < 1e-12

    def test_contour_independent(self, branching_pipeline):
        chart, base, frame, dual = _frames(branching_pipeline, [0.1])
        narrow = [Circle(cl.center, 0.85 * cl.radius, 128) for cl in base.clusters]
        wide = [Circle(cl.center, 0.95 * cl.radius, 256) for cl in base.clusters]

        def matrix(contours):
            return np.array(
                [[pair(chart, [0.1], frame.entry(b), dual.entry(a), contours)
                  for b in range(len(frame))]
                 for a in range(len(dual))]
            )

        assert np.allclose(matrix(narrow), matrix(wide), atol=1e-10)

    def test_cross_cluster_pairings_vanish(self, sl_scalar_pipeline):
        # integrated over both contours, germs of different clusters pair to
        # quadrature zero; the matrix builder then sets them to exact zero
        chart, base, frame, dual = _frames(sl_scalar_pipeline, [0.3])
        contours = cluster_contours(base)
        val = pair(chart, [0.3], frame.entry(0), dual.entry(1), contours)
        assert abs(val) < 1e-12


class TestBasePattern:
    def test_expected_pattern_shapes(self, jordan_pipeline, triangular_pipeline):
        _, _, systems_j, _ = jordan_pipeline
        assert np.array_equal(
            expected_base_pairing(systems_j), np.array([[0.0, 1.0j], [1.0j, 0.0]])
        )
        _, _, systems_t, _ = triangular_pipeline
        expect = np.zeros((3, 3), dtype=complex)
        expect[1, 0] = expect[0, 1] = 1.0j  # the length-2 chain
        expect[2, 2] = 1.0j  # the length-1 chain
        assert np.array_equal(expected_base_pairing(systems_t), expect)

    def test_jordan_base_pairing(self, jordan_pipeline):
        chart, base, systems, duals = jordan_pipeline
        assert base_point_check(chart, base, systems, duals) < 1e-8

    def test_branching_base_pairing(self, branching_pipeline):
        chart, base, systems, duals = branching_pipeline
        assert base_point_check(chart, base, systems, duals) < 1e-8

    def test_mixed_orders_base_pairing(self, triangular_pipeline):
        chart, base, systems, duals = triangular_pipeline
        assert base_point_check(chart, base, systems, duals) < 1e-8

    def test_scalar_sl_base_pairing(self, sl_scalar_pipeline):
        chart, base, systems, duals = sl_scalar_pipeline
        assert base_point_check(chart, base, systems, duals) < 1e-8


class TestMatrix:
    def test_block_structure(self, sl_scalar_pipeline):
        chart, base, frame, dual = _frames(sl_scalar_pipeline, [0.3])
        pm = pairing_matrix(chart, frame, dual, base, [0.3])
        assert pm.matrix.shape == (2, 2)
        assert pm.matrix[0, 1] == 0.0 and pm.matrix[1, 0] == 0.0
        assert abs(pm.matrix[0, 0]) > 0.1 and abs(pm.matrix[1, 1]) > 0.1
        assert pm.condition < 1e3
        assert pm.labels == frame.labels

    def test_size_mismatch(self, branching_pipeline):
        chart, base, frame, dual = _frames(branching_pipeline, [0.1])
        g = dual.blocks[0]
        first = Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values[:, :, :1]))
        short = FrameSet(y=dual.y, blocks=[first], labels=dual.labels[:1])
        with pytest.raises(InputError):
            pairing_matrix(chart, frame, short, base, [0.1])

    def test_reduced_matches_full(self, branching_pipeline, jordan_pipeline):
        for pipeline, y in ((branching_pipeline, [0.15]), (jordan_pipeline, [0.0])):
            chart, base, systems, duals = pipeline
            frame = fullframe_at(chart, base, systems, y)
            dual = dual_frame_at(chart, base, duals, y)
            full = pairing_matrix(chart, frame, dual, base, y)
            red = reduced_pairing_matrix(chart, base, systems, duals, y)
            assert np.allclose(red.matrix, full.matrix, atol=1e-8)
            assert red.labels == full.labels

    def test_reduced_matches_full_multicluster(self, sl_scalar_pipeline):
        chart, base, systems, duals = sl_scalar_pipeline
        y = [0.4]
        frame = fullframe_at(chart, base, systems, y)
        dual = dual_frame_at(chart, base, duals, y)
        full = pairing_matrix(chart, frame, dual, base, y)
        red = reduced_pairing_matrix(chart, base, systems, duals, y)
        assert np.allclose(red.matrix, full.matrix, atol=1e-8)


class TestCoefficients:
    def test_exact_recovery(self, branching_pipeline):
        chart, base, frame, dual = _frames(branching_pipeline, [0.12])
        c0, c1 = 1.7, 0.3 - 0.4j
        section = _section(frame, [c0, c1])
        cv = coefficients(chart, frame, dual, base, [0.12], section, residual_tol=1e-10)
        assert np.allclose(cv.values, [c0, c1], atol=1e-10)
        assert cv.by_label()[(0, 0, 0)] == pytest.approx(c0, abs=1e-10)

    def test_multi_cluster_section(self, sl_scalar_pipeline):
        chart, base, frame, dual = _frames(sl_scalar_pipeline, [0.25])
        weights = np.array([0.8 + 0.1j, -1.2])
        section = _section(frame, weights)
        cv = coefficients(chart, frame, dual, base, [0.25], section)
        assert np.allclose(cv.values, weights, atol=1e-9)

    def test_carries_pairing_matrix(self, branching_pipeline, sl_scalar_pipeline):
        for pipeline, y in ((branching_pipeline, [0.12]), (sl_scalar_pipeline, [0.25])):
            chart, base, frame, dual = _frames(pipeline, y)
            pm = pairing_matrix(chart, frame, dual, base, y)
            section = _section(frame, np.eye(len(frame))[0])
            cv = coefficients(chart, frame, dual, base, y, section)
            assert np.array_equal(cv.pairing.matrix, pm.matrix)
            assert cv.pairing.condition == pm.condition
            assert cv.pairing.labels == pm.labels
            assert cv.pairing.dual_labels == pm.dual_labels
            assert np.allclose(cv.values, np.eye(len(frame))[0], atol=1e-10)

    def test_samples_family_once_per_contour(self, sl_scalar_pipeline, counting_chart):
        chart, base, frame, dual = _frames(sl_scalar_pipeline, [0.25])
        counting, calls = counting_chart(chart)
        section = _section(frame, [0.8, -1.2])
        coefficients(counting, frame, dual, base, [0.25], section)
        assert calls == [(0.25,)] * len(base.clusters)

    def test_one_cauchy_sum_per_block(self, sl_big_pipeline, monkeypatch):
        # per cluster: the frame block, the dual block and the section germ
        chart, base, frame, dual = _frames(sl_big_pipeline, [0.05])
        section = _section(frame, np.arange(1, len(frame) + 1))
        calls = []
        original = kernelbundle.frames.singular_part_eval

        def counting(f, sigma):
            calls.append(f.values.shape)
            return original(f, sigma)

        monkeypatch.setattr(kernelbundle.frames, "singular_part_eval", counting)
        cv = coefficients(chart, frame, dual, base, [0.05], section)
        assert len(calls) == 3 * len(base.clusters)
        assert np.allclose(cv.values, np.arange(1, len(frame) + 1), atol=1e-9)

    def test_section_needs_one_germ_per_cluster(self, sl_scalar_pipeline):
        chart, base, frame, dual = _frames(sl_scalar_pipeline, [0.25])
        with pytest.raises(InputError):
            coefficients(chart, frame, dual, base, [0.25], _section(frame, [1.0, 0.0])[:1])

    def test_section_outside_span(self, jordan_pipeline):
        # a third-order pole exceeds the partial multiplicity at the cluster
        chart, base, frame, dual = _frames(jordan_pipeline, [0.0])
        rho = frame.blocks[0].rho
        section = [germ_from_pole_coefficients(0.0, {3: np.array([1.0, 0.0])}, rho)]
        with pytest.raises(SectionResidualError):
            coefficients(
                chart, frame, dual, base, [0.0], section, residual_tol=1e-6
            )
