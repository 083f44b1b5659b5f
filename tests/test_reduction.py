import dataclasses
import tracemalloc

import numpy as np
import pytest

from kernelbundle.contour import Circle, Rectangle, count_zeros, count_zeros_rectangle, locate_zeros
from kernelbundle.errors import (
    InputError,
    NumericalError,
    RankGapError,
    ReductionInvalidError,
    ValidationError,
    ZeroOnContourError,
)
from kernelbundle.family import (
    FamilyChart,
    PolyTerm,
    SigmaRegion,
    SturmLiouvilleSpec,
    branching_chart,
    jordan_chart,
    matrix_polynomial_chart,
    sl_chart,
)
from kernelbundle.reduction import (
    DET_CHUNK_ENTRIES,
    P22_CONDITION_LIMIT,
    BasePointData,
    Cluster,
    SchurEvaluator,
    _det_function,
    _schur,
    base_point_data,
    kernel_cokernel,
    local_multiplicity,
    validate_neighborhood,
)


class TestKernelCokernel:
    def test_diagonal(self):
        K, Kperp, Rperp, R = kernel_cokernel(np.diag([3.0, 2.0, 0.0]))
        assert np.allclose(K, np.array([[0.0], [0.0], [1.0]]))
        assert np.allclose(Rperp, np.array([[0.0], [0.0], [1.0]]))
        # the complements are the leading coordinate axes
        assert np.allclose(Kperp, np.eye(3)[:, :2])
        assert np.allclose(R, np.eye(3)[:, :2])

    def test_rank_one(self):
        u = np.array([1.0, 1.0j]) / np.sqrt(2)
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        M = np.outer(u, v.conj())
        K, _, Rperp, _ = kernel_cokernel(M, rank_tol=1e-8)
        assert K.shape == (2, 1) and Rperp.shape == (2, 1)
        assert np.linalg.norm(M @ K) < 1e-14
        assert np.linalg.norm(Rperp.conj().T @ M) < 1e-14
        assert np.linalg.norm(K.conj().T @ K - np.eye(1)) < 1e-14
        # phase fixing: the dominant entry of each column is real positive
        assert K[np.argmax(np.abs(K[:, 0])), 0].imag == pytest.approx(0.0, abs=1e-15)

    def test_phase_deterministic(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M[:, 0] = M[:, 1]  # force a kernel
        K1, _, R1, _ = kernel_cokernel(M, rank_tol=1e-8)
        K2, _, R2, _ = kernel_cokernel(M * np.exp(0.7j), rank_tol=1e-8)
        assert np.allclose(K1, K2, atol=1e-12)
        K3, _, R3, _ = kernel_cokernel(M, rank_tol=1e-8)
        assert np.array_equal(K1, K3) and np.array_equal(R1, R3)

    def test_rank_gap_guard(self):
        with pytest.raises(RankGapError) as info:
            kernel_cokernel(np.diag([1.0, 1e-10]), rank_tol=1e-10)
        assert info.value.singular_values is not None
        assert len(info.value.singular_values) == 2

    def test_scale_floor_recognizes_roundoff_zero(self):
        M = 1e-17 * np.eye(2)
        K, *_ = kernel_cokernel(M)
        assert K.shape[1] == 0  # full rank relative to its own noise
        K, *_ = kernel_cokernel(M, scale_floor=1.0)
        assert K.shape[1] == 2

    def test_zero_matrix(self):
        K, _, Rperp, _ = kernel_cokernel(np.zeros((3, 3)))
        assert K.shape == (3, 3)
        assert np.allclose(K.conj().T @ K, np.eye(3))

    def test_square_only(self):
        with pytest.raises(InputError):
            kernel_cokernel(np.zeros((2, 3)))


class TestBasePoint:
    def test_jordan_cluster(self, jordan_pipeline):
        _, base, _, _ = jordan_pipeline
        assert len(base.clusters) == 1
        c = base.clusters[0]
        assert abs(c.center) < 1e-10
        assert c.multiplicity == 2
        assert c.kernel_dim == 1
        assert np.allclose(c.K, [[1.0], [0.0]], atol=1e-12)
        assert np.allclose(c.Rperp, [[0.0], [1.0]], atol=1e-12)
        assert base.total_multiplicity == 2

    def test_branching_full_kernel(self, branching_pipeline):
        _, base, _, _ = branching_pipeline
        c = base.clusters[0]
        assert c.multiplicity == 2 and c.kernel_dim == 2
        assert c.Kperp.shape == (2, 0)

    def test_scalar_sl_clusters(self, sl_scalar_pipeline):
        _, base, _, _ = sl_scalar_pipeline
        centers = sorted(c.center.imag for c in base.clusters)
        assert centers == pytest.approx([-np.sqrt(1.25), np.sqrt(1.25)], abs=1e-10)
        for c in base.clusters:
            assert c.multiplicity == 1 and c.kernel_dim == 1
            assert np.argmax(np.abs(c.K[:, 0])) == 0  # first sine mode

    def test_conjugate_swapped(self, jordan_pipeline):
        _, base, _, _ = jordan_pipeline
        sw = base.conjugate_swapped()
        c, cs = base.clusters[0], sw.clusters[0]
        assert cs.center == np.conj(c.center)
        assert np.array_equal(cs.K, c.Rperp)
        assert np.array_equal(cs.Rperp, c.K)

    def test_deterministic(self):
        chart = jordan_chart()
        a = base_point_data(chart, [0.0])
        b = base_point_data(chart, [0.0])
        assert a.clusters[0].center == b.clusters[0].center
        assert np.array_equal(a.clusters[0].K, b.clusters[0].K)

    def test_restricted_search(self, sl_scalar_chart):
        chart, _ = sl_scalar_chart
        base = base_point_data(chart, [0.0], search=Rectangle(-1.0, 1.0, 0.0, 1.58))
        assert len(base.clusters) == 1
        assert base.clusters[0].center.imag == pytest.approx(np.sqrt(1.25), abs=1e-10)

    def test_no_singular_points(self):
        terms = [PolyTerm(1, (0,), np.eye(2)), PolyTerm(0, (0,), 5.0 * np.eye(2))]
        chart = matrix_polynomial_chart(terms, SigmaRegion(-2, 2, -2, 2))
        with pytest.raises(ValidationError):
            base_point_data(chart, [0.0])

    def test_oversized_epsilon(self):
        with pytest.raises(ValidationError):
            base_point_data(branching_chart(), [0.0], epsilon=1.9)

    def test_to_dict(self, jordan_pipeline):
        _, base, _, _ = jordan_pipeline
        d = base.to_dict()
        assert d["clusters"][0]["multiplicity"] == 2
        assert d["clusters"][0]["kernel_dim"] == 1


def _qdet(ev, y, sigma):
    """Reduced determinant values from the ``(phase, logabs)`` sampler."""
    phase, logabs = ev.qdet_function(y)(sigma)
    return phase * np.exp(logabs)


class TestSchur:
    def test_jordan_closed_form(self, jordan_pipeline):
        chart, base, _, _ = jordan_pipeline
        ev = SchurEvaluator(chart, base, 0)
        for s in (0.3, -0.2 + 0.4j, 0.7j):
            got = ev.schur([0.0], s)
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(-(s * s), abs=1e-12)
            assert _qdet(ev, [0.0], s) == pytest.approx(-(s * s), abs=1e-12)

    def test_full_kernel_reduces_to_family(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        ev = SchurEvaluator(chart, base, 0)
        y, s = [0.15], 0.3 + 0.1j
        assert np.allclose(ev.schur(y, s), chart.eval(y, s), atol=1e-14)
        assert _qdet(ev, y, s) == pytest.approx(s * s - 0.15 ** 2, abs=1e-13)

    def test_block_reconstruction(self, jordan_pipeline):
        chart, base, _, _ = jordan_pipeline
        ev = SchurEvaluator(chart, base, 0)
        c = base.clusters[0]
        y, s = [0.0], 0.2 - 0.3j
        p11, p12, p21, p22 = ev.blocks(y, s)
        rebuilt = (
            (c.Rperp @ p11 + c.R @ p21) @ c.K.conj().T
            + (c.Rperp @ p12 + c.R @ p22) @ c.Kperp.conj().T
        )
        assert np.allclose(rebuilt, chart.eval(y, s), atol=1e-12)

    def test_many_matches_single(self, sl_scalar_pipeline):
        chart, base, _, _ = sl_scalar_pipeline
        ev = SchurEvaluator(chart, base, 0)
        c = base.clusters[0]
        sigmas = c.center + 0.5 * c.radius * np.exp(1j * np.linspace(0, 6, 7))
        many = ev.schur_many([0.3], sigmas)
        dets = _qdet(ev, [0.3], sigmas)
        for k, s in enumerate(sigmas):
            assert np.allclose(many[k], ev.schur([0.3], s), atol=1e-13)
            assert dets[k] == pytest.approx(np.linalg.det(many[k]), abs=1e-12)
            assert _qdet(ev, [0.3], s) == pytest.approx(dets[k])
        assert np.allclose(dets, np.linalg.det(many))

    def test_projection_against_loop_reference(self):
        # hand-built clusters from random unitary splits of a random cubic
        # matrix polynomial; the blocks must rebuild P node by node and agree
        # with the per-node triple products, and the scalar views must be
        # exact entries of the batched results
        for seed, n, k in [(0, 3, 1), (1, 5, 2), (2, 8, 3), (3, 8, 1)]:
            rng = np.random.default_rng(seed)

            def cmat(*shape):
                return rng.normal(size=shape) + 1j * rng.normal(size=shape)

            terms = [PolyTerm(p, (0,), cmat(n, n)) for p in range(4)]
            terms.append(PolyTerm(0, (1,), cmat(n, n)))
            chart = matrix_polynomial_chart(terms, SigmaRegion(-2, 2, -2, 2))
            U, _ = np.linalg.qr(cmat(n, n))
            V, _ = np.linalg.qr(cmat(n, n))
            cluster = Cluster(
                center=0.1j, multiplicity=k, kernel_dim=k,
                K=V[:, :k], Kperp=V[:, k:], Rperp=U[:, :k], R=U[:, k:],
                radius=0.5,
            )
            ev = SchurEvaluator(chart, BasePointData(chart, np.array([0.0]), [cluster]), 0)
            y = [0.3]
            sigmas = 0.1j + 0.4 * np.exp(2j * np.pi * np.arange(16) / 16)
            P = chart.eval_many(y, sigmas)
            scale = float(np.max(np.abs(P)))
            p11, p12, p21, p22 = ev.blocks_many(y, sigmas)
            rebuilt = (
                (U[:, :k] @ p11 + U[:, k:] @ p21) @ V[:, :k].conj().T
                + (U[:, :k] @ p12 + U[:, k:] @ p22) @ V[:, k:].conj().T
            )
            assert np.max(np.abs(rebuilt - P)) < 1e-12 * scale
            for t in range(len(sigmas)):
                ref = [
                    left.conj().T @ P[t] @ right
                    for left in (U[:, :k], U[:, k:])
                    for right in (V[:, :k], V[:, k:])
                ]
                for got, want in zip((p11, p12, p21, p22), ref):
                    assert np.max(np.abs(got[t] - want)) < 1e-12 * scale
            schur = ev.schur_many(y, sigmas)
            phase, logabs = ev.qdet_function(y)(sigmas)
            for t, s in enumerate(sigmas):
                for got, want in zip(ev.blocks(y, s), (p11, p12, p21, p22)):
                    assert np.array_equal(got, want[t])
                assert np.array_equal(ev.schur(y, s), schur[t])
                assert ev.qdet_function(y)(s) == (phase[t], logabs[t])

    @pytest.mark.parametrize("factor", [1e160, 1e200])
    def test_guard_is_scale_free(self, sl_big_pipeline, factor):
        # past 1e154 the Frobenius norm of p22 overflows and that of its inverse
        # underflows; the scaled family must give the same clusters
        chart, base, _, _ = sl_big_pipeline
        scaled = dataclasses.replace(chart, evaluator=lambda y, s: factor * chart.evaluator(y, s))
        big = base_point_data(scaled, [0.0])
        pattern = [(c.multiplicity, c.kernel_dim) for c in base.clusters]
        assert [(c.multiplicity, c.kernel_dim) for c in big.clusters] == pattern
        for a, b in zip(base.clusters, big.clusters):
            assert abs(a.center - b.center) < 1e-12

    def test_singular_complement_rejected(self):
        terms = [
            PolyTerm(1, (0,), np.diag([1.0, 1.0, 0.0])),
            PolyTerm(0, (0,), np.diag([0.0, 0.0, 1.0])),
        ]
        chart = matrix_polynomial_chart(terms, SigmaRegion(-2, 2, -2, 2))
        e = np.eye(3)
        cluster = Cluster(
            center=0.0, multiplicity=1, kernel_dim=1,
            K=e[:, :1], Kperp=e[:, 1:], Rperp=e[:, :1], R=e[:, 1:],
            radius=0.5,
        )
        base = BasePointData(chart, np.array([0.0]), [cluster])
        ev = SchurEvaluator(chart, base, 0)
        # p22 = diag(sigma, 1) is nearly singular close to sigma = 0
        with pytest.raises(ReductionInvalidError):
            ev.schur([0.0], 1e-14)
        with pytest.raises(ReductionInvalidError):
            ev.schur_many([0.0], np.array([0.5, 1e-14]))

    def test_exactly_singular_complement_rejected(self):
        # p22 = diag(1, 0) fails a batched inverse as a whole; the guard must
        # still raise its own error and name the node
        p22 = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)]).astype(complex)
        blocks = (np.ones((3, 1, 1)), np.ones((3, 1, 2)), np.ones((3, 2, 1)), p22)
        with pytest.raises(ReductionInvalidError, match=r"condition inf at sigma = \(0\.2\+0j\)"):
            _schur(blocks, np.array([0.1, 0.2, 0.3], dtype=complex))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_guard_rejects_what_the_svd_guard_rejects(self, m):
        # blocks with prescribed 2-norm condition numbers from 1e10 to 1e14,
        # as U diag(s) V^H with random unitary U, V and log-spaced s
        rng = np.random.default_rng(100 + m)
        sigmas = np.array([0.5j])
        rejected = 0
        for target in np.geomspace(1e10, 1e14, 41):
            u, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
            v, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
            s = np.geomspace(1.0, 1.0 / target, m) * rng.uniform(0.1, 10.0)
            p22 = ((u * s) @ v.conj().T)[None]
            blocks = (np.ones((1, 1, 1)), np.ones((1, 1, m)), np.ones((1, m, 1)), p22)
            if np.linalg.cond(p22[0]) > P22_CONDITION_LIMIT:
                rejected += 1
                with pytest.raises(ReductionInvalidError):
                    _schur(blocks, sigmas)
            # among well-conditioned blocks, the guard names the bad node
            batch = tuple(np.concatenate([b, b, b]) for b in blocks)
            batch[3][:2] = np.eye(m)
            if np.linalg.cond(p22[0]) > P22_CONDITION_LIMIT:
                with pytest.raises(ReductionInvalidError, match=r"at sigma = 0\.5j"):
                    _schur(batch, np.array([0.1, 0.2, 0.5j]))
        assert rejected > 10

    def test_cluster_index_range(self, jordan_pipeline):
        chart, base, _, _ = jordan_pipeline
        with pytest.raises(InputError):
            SchurEvaluator(chart, base, 1)

    def test_local_multiplicity(self, jordan_pipeline, sl_scalar_pipeline):
        chart, base, _, _ = jordan_pipeline
        assert local_multiplicity(SchurEvaluator(chart, base, 0), [0.0]) == 2
        chart, base, _, _ = sl_scalar_pipeline
        for s in range(len(base.clusters)):
            assert local_multiplicity(SchurEvaluator(chart, base, s), [0.4]) == 1


class TestNeighborhood:
    def test_branching_grid_passes(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        report = validate_neighborhood(chart, base, [[-0.2], [0.0], [0.2]])
        assert report.passed
        names = [c.name for c in report.conditions]
        assert names == [
            "disjoint_discs_in_region",
            "complement_invertible_base",
            "complement_invertible_grid",
            "annulus_nonvanishing",
        ]

    def test_annulus_violation_detected(self, branching_pipeline):
        # at y = 0.6 the singular points +/- 0.6 sit inside the outer annulus
        chart, base, _, _ = branching_pipeline
        report = validate_neighborhood(chart, base, [[0.6]])
        assert not report.passed
        annulus = report.conditions[3]
        assert annulus.name == "annulus_nonvanishing"
        assert not annulus.passed

    def test_overlapping_discs_detected(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        doubled = BasePointData(chart, base.y0, [base.clusters[0], base.clusters[0]])
        report = validate_neighborhood(chart, doubled, [[0.0]])
        assert not report.conditions[0].passed
        assert report.conditions[0].margin < 0

    def test_worst_at_ties_follow_grid_order(self, sl_big_pipeline):
        # the two-channel family is symmetric in +-y: its margins at y = -0.1
        # and 0.1 tie up to roundoff, and the report names the first listed y
        chart, base, _, _ = sl_big_pipeline
        for grid in ([[-0.1], [0.1]], [[0.1], [-0.1]]):
            report = validate_neighborhood(chart, base, grid)
            for cond in report.conditions[2:]:
                assert cond.detail.endswith(f"y = {grid[0]}"), (cond.name, cond.detail)

    def test_report_serialization(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        d = validate_neighborhood(chart, base, [[0.0]]).to_dict()
        assert d["passed"] is True
        assert len(d["conditions"]) == 4


def _scalar_dirichlet(mode_cutoff):
    """One-channel Dirichlet family with a(y) = 0.25 + 0.1 y."""
    spec = SturmLiouvilleSpec(
        r=1,
        a_eval=lambda y: np.array([[0.25 + 0.1 * y[0]]]),
        mode_cutoff=mode_cutoff,
        k_gap=1,
        r_bound=0.4,
    )
    return sl_chart(spec)


class TestDetFunction:
    def test_batches_are_bounded(self):
        chart = _scalar_dirichlet(64)
        rows = DET_CHUNK_ENTRIES // 64 ** 2
        batches = []

        def evaluator(y, sigmas):
            batches.append(len(sigmas))
            return chart.evaluator(y, sigmas)

        q = _det_function(dataclasses.replace(chart, evaluator=evaluator), [0.3])
        rng = np.random.default_rng(5)
        sigma = rng.uniform(-1.0, 1.0, (3, 700)) + 1j * rng.uniform(-1.5, 1.5, (3, 700))
        phase, logabs = q(sigma)
        assert phase.shape == logabs.shape == sigma.shape
        assert max(batches) <= rows and sum(batches) == sigma.size and len(batches) > 1
        # the slogdet parts of the whole batch, unscaled
        sign, ref = np.linalg.slogdet(chart.eval_many([0.3], sigma.ravel()))
        assert np.max(np.abs(phase - sign.reshape(sigma.shape))) < 1e-12
        assert np.max(np.abs(logabs - ref.reshape(sigma.shape))) < 1e-12 * np.max(np.abs(ref))

    def test_working_set_is_a_few_chunks(self):
        # a 2,048-node count at n = 64 allocates a few chunk-sized batches at
        # a time, not a batch of all its nodes
        q = _det_function(_scalar_dirichlet(64), [0.3])
        sigma = 0.9 * np.exp(2j * np.pi * np.arange(2048) / 2048)
        q(sigma[:1])
        tracemalloc.start()
        try:
            q(sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * DET_CHUNK_ENTRIES * 16

    def test_values_do_not_depend_on_the_call(self, branching_pipeline):
        # a point's (phase, logabs) is bitwise the same in a call of 50 points
        # and on its own, for the full and the reduced determinant
        rng = np.random.default_rng(3)
        chart, base, _, _ = branching_pipeline
        c = base.clusters[0]
        disc = c.center + c.radius * rng.uniform(0.1, 1.0, 50) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 50))
        box = rng.uniform(-1.0, 1.0, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
        samplers = [
            (_det_function(_scalar_dirichlet(64), [0.3]), box),
            (SchurEvaluator(chart, base, 0).qdet_function([0.1]), disc),
        ]
        for q, points in samplers:
            phase, logabs = q(points)
            alone = [q(s) for s in points]
            assert np.array_equal(phase, [p for p, _ in alone])
            assert np.array_equal(logabs, [la for _, la in alone])

    def test_scaled_family_locates_the_same_zeros(self, sl_big_chart):
        # det of the 8 x 8 family times 1e200 is 1e1600 times det: far past
        # the float range, where an unnormalized determinant is inf
        chart, _ = sl_big_chart
        scaled = dataclasses.replace(chart, evaluator=lambda y, s: 1e200 * chart.evaluator(y, s))
        rect = chart.sigma.search_rect
        sep = max(rect.width, rect.height) / 64.0
        plain = locate_zeros(_det_function(chart, [0.0]), rect, sep)
        big = locate_zeros(_det_function(scaled, [0.0]), rect, sep)
        assert len(plain.zeros) == 4 and not plain.unresolved
        assert [z.multiplicity for z in big.zeros] == [z.multiplicity for z in plain.zeros]
        assert not big.unresolved
        for a, b in zip(plain.zeros, big.zeros):
            assert abs(a.location - b.location) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_identically_zero_determinant_raises(self):
        region = SigmaRegion(-1.0, 1.0, -1.0, 1.0)
        chart = FamilyChart(2, 1, region, lambda y, s: np.zeros((len(s), 2, 2)))
        # the sampler reports log|det| = -inf; the count raises
        q = _det_function(chart, [0.0])
        phase, logabs = q(np.array([0.1, 0.2j]))
        assert np.all(phase == 0) and np.all(logabs == -np.inf)
        with pytest.raises(ZeroOnContourError):
            count_zeros(q, Circle(0.0, 0.5, 64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_count_past_the_float_range(self):
        # at n = 100, det P is +-inf on the search rectangle
        chart = _scalar_dirichlet(100)
        q = _det_function(chart, [0.3])
        assert count_zeros_rectangle(q, chart.sigma.search_rect) == 2
