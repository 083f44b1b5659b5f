import numpy as np
import pytest

from kernelbundle.contour import SampledFunction, singular_part_eval
from kernelbundle.errors import (
    ClusteredPolesError,
    InputError,
    NondegeneracyError,
    NumericalError,
    RegionError,
)
from kernelbundle.frames import (
    FrameSet,
    Germ,
    frames_at,
    independence_check,
    laurent_coefficients,
    make_germ,
)
from kernelbundle.reduction import SchurEvaluator
from kernelbundle.shell import canonical_systems
from oracles import adjoint_chart, germ_from_pole_coefficients, kframe_at


def rat(z):
    return 2.0 / (z - 0.1) + (1.0 + 1.0j) / (z + 0.15) ** 2


class TestGerm:
    def test_reproduces_rational(self):
        g = make_germ(rat, 0.0, 0.5)
        for probe in (0.9, -1.1j, 2.0 + 0.5j):
            assert g.eval(probe)[0] == pytest.approx(rat(probe), abs=1e-12)

    def test_strips_holomorphic_part(self):
        g = make_germ(lambda z: rat(z) + np.cos(z), 0.0, 0.5)
        assert g.eval(0.9)[0] == pytest.approx(rat(0.9), abs=1e-12)

    def test_vector_values(self):
        f = lambda z: np.stack([1.0 / (z - 0.1), 2.0 / (z + 0.1)], axis=-1)
        g = make_germ(f, 0.0, 0.5)
        assert g.value_dim == 2
        assert np.allclose(g.eval(1.5), [1.0 / 1.4, 2.0 / 1.6], atol=1e-12)

    def test_pole_on_carrier_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError):
                make_germ(lambda z: 1.0 / (z - 0.5), 0.0, 0.5)

    def test_decay_margin_tracks_residue_mass(self):
        g = make_germ(lambda z: 2.0 / (z - 0.1), 0.0, 0.5)
        assert g.decay_margin() == pytest.approx(2.0, rel=0.05)


class TestLaurent:
    def test_single_pole_round_trip(self):
        # the constructed germ has its pole at the carrier center
        a = 0.1 + 0.05j
        coeffs = {1: np.array([2.0, -1.0j]), 2: np.array([0.5, 1.0])}
        g = germ_from_pole_coefficients(a, coeffs, 0.4)
        probe = a + 0.9
        assert np.allclose(
            g.eval(probe), coeffs[1] / 0.9 + coeffs[2] / 0.81, atol=1e-12
        )
        [pole] = laurent_coefficients(g, [(a, 2)])
        assert pole.location == a
        assert np.allclose(pole.coefficients[0], coeffs[1], atol=1e-10)
        assert np.allclose(pole.coefficients[1], coeffs[2], atol=1e-10)

    def test_two_poles(self):
        f = lambda z: np.stack(
            [1.5 / (z - 0.15) + 0.3 / (z + 0.2j) ** 2, (2.0 - 1.0j) / (z + 0.2j)],
            axis=-1,
        )
        g = make_germ(f, 0.0, 0.5)
        p1, p2 = laurent_coefficients(g, [(0.15, 1), (-0.2j, 2)])
        assert np.allclose(p1.coefficients[0], [1.5, 0.0], atol=1e-10)
        assert np.allclose(p2.coefficients[0], [0.0, 2.0 - 1.0j], atol=1e-10)
        assert np.allclose(p2.coefficients[1], [0.3, 0.0], atol=1e-10)

    def test_requires_a_pole_list(self):
        g = make_germ(lambda z: 1.0 / z, 0.0, 0.5)
        with pytest.raises(InputError):
            laurent_coefficients(g, [])

    def test_positive_orders_only(self):
        with pytest.raises(InputError):
            germ_from_pole_coefficients(0.0, {0: np.array([1.0])}, 0.4)

    def test_pole_outside_carrier(self):
        g = make_germ(lambda z: 1.0 / z, 0.0, 0.5)
        with pytest.raises(RegionError):
            laurent_coefficients(g, [(0.7, 1)])

    def test_coincident_poles(self):
        g = make_germ(lambda z: 1.0 / z, 0.0, 0.5)
        with pytest.raises(ClusteredPolesError):
            laurent_coefficients(g, [(0.1, 1), (0.1 + 1e-11, 1)])

    def test_close_simple_poles_still_resolve(self):
        # the scaled moment system keeps simple-pole pairs well conditioned
        # down to tiny separations
        sep = 1e-6
        f = lambda z: 1.0 / (z - 0.1) + 2.0 / (z - 0.1 - sep)
        g = make_germ(f, 0.0, 0.5)
        p1, p2 = laurent_coefficients(g, [(0.1, 1), (0.1 + sep, 1)])
        assert p1.coefficients[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert p2.coefficients[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_unresolvably_close_double_poles(self):
        sep = 1e-4
        f = lambda z: 1.0 / (z - 0.1) ** 2 + 1.0 / (z - 0.1 - sep) ** 2
        g = make_germ(f, 0.0, 0.5)
        with pytest.raises(ClusteredPolesError):
            laurent_coefficients(g, [(0.1, 2), (0.1 + sep, 2)])

    def test_understated_multiplicity(self):
        g = germ_from_pole_coefficients(0.0, {1: [1.0], 2: [1.0]}, 0.4)
        with pytest.raises(ClusteredPolesError):
            laurent_coefficients(g, [(0.0, 1)])

    def test_random_rational_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            dim = int(rng.integers(1, 4))
            n_poles = int(rng.integers(1, 4))
            while True:
                locs = 0.25 * (rng.normal(size=n_poles) + 1j * rng.normal(size=n_poles))
                locs = np.clip(locs.real, -0.3, 0.3) + 1j * np.clip(locs.imag, -0.3, 0.3)
                sep = np.min(
                    [np.inf] + [abs(a - b) for i, a in enumerate(locs) for b in locs[i + 1 :]]
                )
                if sep > 0.15:
                    break
            orders = rng.integers(1, 3, size=n_poles)
            table = {
                loc: rng.normal(size=(order, dim)) + 1j * rng.normal(size=(order, dim))
                for loc, order in zip(locs, orders)
            }

            def f(z):
                out = np.zeros(np.shape(z) + (dim,), dtype=complex)
                for loc, cs in table.items():
                    for m, row in enumerate(cs, start=1):
                        out += (np.asarray(z - loc) ** (-m))[..., None] * row
                return out

            g = make_germ(f, 0.0, 0.5)
            probes = 0.8 * np.exp(2j * np.pi * np.arange(7) / 7)
            assert np.allclose(g.eval(probes), f(probes), atol=1e-9)
            recovered = laurent_coefficients(
                g, [(loc, len(cs)) for loc, cs in table.items()]
            )
            for pole, (loc, cs) in zip(recovered, table.items()):
                assert np.allclose(pole.coefficients, cs, atol=1e-9)


class TestFrames:
    def test_jordan_kernel_side(self, jordan_pipeline):
        chart, base, systems, _ = jordan_pipeline
        ev = SchurEvaluator(chart, base, 0)
        block = kframe_at(ev, systems[0], [0.0])
        for probe in (0.9, -1.1j):
            assert block.eval(probe)[0, 0] == pytest.approx(probe ** -2, abs=1e-10)
            assert block.eval(probe)[0, 1] == pytest.approx(probe ** -1, abs=1e-10)

    def test_jordan_full_frame(self, jordan_pipeline):
        chart, base, systems, duals = jordan_pipeline
        frame = frames_at(chart, base, systems, duals, [0.0])[0]
        assert frame.labels == [(0, 0, 0), (0, 0, 1)]
        for probe in (0.9, -1.1j, 0.5 + 0.7j):
            phi0 = frame.entry(0).eval(probe)
            assert np.allclose(phi0, [probe ** -2, -(probe ** -1)], atol=1e-10)
            phi1 = frame.entry(1).eval(probe)
            assert np.allclose(phi1, [probe ** -1, 0.0], atol=1e-10)

    def test_branching_full_frame(self, branching_pipeline):
        chart, base, systems, duals = branching_pipeline
        y = 0.15
        frame = frames_at(chart, base, systems, duals, [y])[0]
        for probe in (0.9, 1.2j):
            d = probe ** 2 - y ** 2
            assert np.allclose(
                frame.entry(0).eval(probe), [probe / d, -y / d], atol=1e-10
            )
            assert np.allclose(
                frame.entry(1).eval(probe), [-y / d, probe / d], atol=1e-10
            )

    def test_branching_frame_laurent(self, branching_pipeline):
        # residues of the first frame germ at sigma = +/- y
        chart, base, systems, duals = branching_pipeline
        y = 0.15
        frame = frames_at(chart, base, systems, duals, [y])[0]
        plus, minus = laurent_coefficients(frame.entry(0), [(y, 1), (-y, 1)])
        assert np.allclose(plus.coefficients[0], [0.5, -0.5], atol=1e-10)
        assert np.allclose(minus.coefficients[0], [0.5, 0.5], atol=1e-10)

    def test_dual_frame_branching_symmetry(self, branching_pipeline):
        # the family is real symmetric, so the dual frame coincides with the
        # primal one at real parameters
        chart, base, systems, duals = branching_pipeline
        frame, dual = frames_at(chart, base, systems, duals, [0.15])
        assert len(dual) == len(frame) == 2
        probes = np.array([0.9, -1.3j])
        assert np.allclose(dual.blocks[0].eval(probes), frame.blocks[0].eval(probes), atol=1e-9)

    def test_full_frame_against_block_reference(self, sl_big_pipeline, branching_pipeline):
        # reference: K g - Kperp p22^{-1} (p21 g), blocks built by hand from P
        # on the carrier nodes, g the kernel-side samples; the branching
        # family has a full kernel, so there the correction is empty
        y = [0.07]
        for chart, base, systems, duals in (sl_big_pipeline, branching_pipeline):
            for ch, b, syss, others in (
                (chart, base, systems, duals),
                (adjoint_chart(chart), base.conjugate_swapped(), duals, systems),
            ):
                frame = frames_at(ch, b, syss, others, y)[0]
                for s, system in enumerate(syss):
                    c = b.clusters[s]
                    kblock = kframe_at(SchurEvaluator(ch, b, s), system, y)
                    P = ch.eval_many(y, kblock.carrier.circle.nodes)
                    p21 = c.R.conj().T @ P @ c.K
                    p22 = c.R.conj().T @ P @ c.Kperp
                    for t in range(system.total):
                        g = kblock.carrier.values[:, :, t]
                        corr = np.linalg.solve(p22, p21 @ g[:, :, None])[:, :, 0]
                        ref = g @ c.K.T - corr @ c.Kperp.T
                        scale = float(np.max(np.abs(ref)))
                        got = frame.blocks[s].carrier.values[:, :, t]
                        assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_block_eval_against_entry_reference(self, sl_big_pipeline, triangular_pipeline):
        # reference: one Cauchy sum per entry on the block's column slices
        y = [0.05]
        for chart, base, systems, duals in (sl_big_pipeline, triangular_pipeline):
            for frame in frames_at(chart, base, systems, duals, y):
                for s, g in enumerate(frame.blocks):
                    pts = base.clusters[s].contour(64).nodes
                    ref = np.stack(
                        [
                            singular_part_eval(
                                SampledFunction(g.carrier.circle, g.carrier.values[:, :, t]), pts
                            )
                            for t in range(g.carrier.values.shape[2])
                        ],
                        axis=2,
                    )
                    scale = float(np.max(np.abs(ref)))
                    assert np.max(np.abs(g.eval(pts) - ref)) < 1e-14 * scale
                offsets = np.cumsum([0] + frame.sizes())
                for t, (s, _, _) in enumerate(frame.labels):
                    column = frame.blocks[s].carrier.values[:, :, t - offsets[s]]
                    assert np.array_equal(frame.entry(t).carrier.values, column)

    def test_dual_frame_from_primal_samples(self, sl_big_pipeline, branching_pipeline):
        # reference: the primal construction run on the adjoint chart with the
        # swapped bases, which evaluates the adjoint family itself
        y = [0.07]
        for chart, base, systems, duals in (sl_big_pipeline, branching_pipeline):
            dual = frames_at(chart, base, systems, duals, y)[1]
            ref = frames_at(adjoint_chart(chart), base.conjugate_swapped(), duals, systems, y)[0]
            assert dual.labels == ref.labels
            for got, want in zip(dual.blocks, ref.blocks):
                assert got.center == want.center
                assert got.carrier.circle == want.carrier.circle
                scale = float(np.max(np.abs(want.carrier.values)))
                assert np.max(np.abs(got.carrier.values - want.carrier.values)) < 1e-12 * scale

    def test_frame_nodes_must_divide_system_nodes(self, jordan_pipeline):
        chart, base, systems, duals = jordan_pipeline
        assert [len(f) for f in frames_at(chart, base, systems, duals, [0.0], node_count=64)] == [2, 2]
        with pytest.raises(InputError, match="multiple"):
            frames_at(chart, base, systems, duals, [0.0], node_count=96)
        # primal systems on 1024 nodes admit 512, the duals on 256 do not
        fine, _ = canonical_systems(chart, base, 1024)
        with pytest.raises(InputError, match="multiple"):
            frames_at(chart, base, fine, duals, [0.0], node_count=512)

    def test_samples_family_once_per_cluster(self, sl_scalar_pipeline, counting_chart):
        # one block evaluation on every carrier at y serves both frames; beta
        # comes with the systems
        chart, base, systems, duals = sl_scalar_pipeline
        counting, calls = counting_chart(chart)
        frames_at(counting, base, systems, duals, [0.2])
        assert len(base.clusters) == 2 and calls == [(0.2,)]

    def test_cluster_bookkeeping(self, sl_scalar_pipeline):
        chart, base, systems, duals = sl_scalar_pipeline
        frame = frames_at(chart, base, systems, duals, [0.2])[0]
        assert len(frame) == 2
        assert [s for s, _, _ in frame.labels] == [0, 1]
        assert frame.sizes() == [1, 1]
        for s, g in enumerate(frame.blocks):
            assert g.value_dim == chart.n
            assert g.center == base.clusters[s].center

    def test_independence(self, jordan_pipeline):
        chart, base, systems, duals = jordan_pipeline
        frame = frames_at(chart, base, systems, duals, [0.0])[0]
        cond = independence_check(frame, base)
        assert 1.0 <= cond < 1e6
        g = frame.blocks[0]
        twice = Germ(g.center, SampledFunction(g.carrier.circle, g.carrier.values[:, :, [0, 0]]))
        degenerate = FrameSet(y=frame.y, blocks=[twice], labels=[frame.labels[0]] * 2)
        with pytest.raises(NondegeneracyError):
            independence_check(degenerate, base)
