"""One block-diagonal family in two presentations: a chart of diagonal blocks,
and the same family as a dense evaluator of the matrices they assemble to.

A cluster of the block chart reduces only the blocks its kernel lives in; the
other blocks enter only the complement guard and the p22 margins.  Every
reduction, frame, pairing and guard number must agree with the dense one.
"""

import dataclasses
import re

import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle.errors import ReductionInvalidError, ValidationError, ZeroOnContourError
from kernelbundle.family import FamilyChart, SigmaRegion, SturmLiouvilleSpec, sl_chart
from kernelbundle.frames import frames_at
from kernelbundle.pairing import pairing_matrix
from kernelbundle.reduction import (
    COUNT_NODES,
    BasePointData,
    Cluster,
    SchurEvaluator,
    _complement,
    _guard,
    _p22_margin,
    _scaled,
    base_point_data,
    local_multiplicity,
    validate_neighborhood,
)
from kernelbundle.shell import ParameterGrid, branching_diagram, canonical_systems, sweep

REGION = SigmaRegion(-2.0, 2.0, -2.0, 2.0)


def _dense(chart):
    """The family of ``chart`` with an evaluator of whole (N, n, n) values."""
    return dataclasses.replace(chart, evaluator=lambda y, s: chart.eval_many(y, s, check=False))


def _upper(a, b, c):
    """Stacked 2 x 2 blocks [[a, b], [0, c]] of arrays of one shape."""
    return np.stack([np.stack([a, b], -1), np.stack([0 * a, c], -1)], -2)


def _two_vanishing_blocks(y, s):
    # blocks 0 and 1 vanish at 0.5i, block 2 at -0.5i; the zeros of blocks 0 and 1
    # part as y moves
    s = np.asarray(s, dtype=complex)
    one = np.ones_like(s)
    return np.stack(
        [
            _upper(s - 0.5j + 0.1 * y[0], 0.3 * one, 1 + 0.2 * s),
            _upper(one, 0.2 * s, s - 0.5j - 0.2 * y[0]),
            _upper(s + 0.5j, 0.4 * one, one),
        ],
        -3,
    )


def _scalar_dirichlet(mode_cutoff):
    spec = SturmLiouvilleSpec(
        r=1, a_eval=lambda y: np.array([[0.25 + 0.1 * y[0]]]), mode_cutoff=mode_cutoff, k_gap=1, r_bound=0.4
    )
    return sl_chart(spec)


def _two_channel():
    spec = SturmLiouvilleSpec(
        r=2,
        a_eval=lambda y: np.array([[0.3 * y[0], 0.1], [0.1, -0.3 * y[0]]]),
        mode_cutoff=4,
        k_gap=1,
        r_bound=0.4,
    )
    return sl_chart(spec)


# (chart of blocks, active blocks per cluster in center order)
FAMILIES = {
    "two_channel_n8": (_two_channel, [(0,)] * 4),
    "scalar_n64": (lambda: _scalar_dirichlet(64), [(0,), (0,)]),
    "two_vanishing_blocks": (lambda: FamilyChart(6, 1, REGION, _two_vanishing_blocks), [(2,), (0, 1)]),
}


@pytest.fixture(scope="module", params=list(FAMILIES))
def presentations(request):
    make, active = FAMILIES[request.param]
    out = []
    for chart in (make(), None):
        chart = chart if chart is not None else _dense(out[0][0])
        base = base_point_data(chart, [0.0])
        out.append((chart, base, *canonical_systems(chart, base)))
    return out, active


def _close(a, b, tol):
    """``a`` and ``b`` agree to ``tol`` times the largest entry of ``b``."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * np.max(np.abs(b), initial=0.0)


class TestTwoPresentations:
    def test_base_points(self, presentations):
        (blk, bb, *_), (_, bd, *_) = presentations[0]
        assert len(bb.clusters) == len(bd.clusters) == len(presentations[1])
        for a, b, active in zip(bb.clusters, bd.clusters, presentations[1]):
            assert abs(a.center - b.center) < 1e-12
            assert (a.multiplicity, a.kernel_dim) == (b.multiplicity, b.kernel_dim)
            # a dense chart is one block
            assert (a.active_blocks, b.active_blocks) == (active, (0,))
            # the same kernel and cokernel, each zero off the active rows
            for x, z in ((a.K, b.K), (a.Rperp, b.Rperp)):
                assert _close(x @ x.conj().T, z @ z.conj().T, 1e-12)
            b_size = blk.n // blk.eval_blocks([0.0], [0.0]).shape[1]
            off = np.ones(blk.n, dtype=bool)
            for j in active:
                off[j * b_size : (j + 1) * b_size] = False
            for x in (a.K, a.Kperp, a.Rperp, a.R):
                assert not np.any(x[off])

    def test_reductions_and_guards(self, presentations):
        (blk, bb, *_), (den, bd, *_) = presentations[0]
        for s, cl in enumerate(bb.clusters):
            evb, evd = SchurEvaluator(blk, bb, s), SchurEvaluator(den, bd, s)
            nodes = np.concatenate([cl.carrier(64).nodes, kb.Circle(cl.center, cl.radius, 64).nodes])
            blocks = blk.eval_blocks([0.0], [0.0]).shape[1]
            for y in ([0.0], [0.05]):
                got, want = evb.blocks_many(y, nodes), evd.blocks_many(y, nodes)
                # the dense chart's one block is active; the block chart keeps the others apart
                assert want[4].shape[1] == 0 and got[4].shape[1] == blocks - len(cl.active_blocks)
                # the reduced operator from the kernel to the cokernel, free of the bases' choice
                sb, sd = evb.schur_many(y, nodes), evd.schur_many(y, nodes)
                dense = bd.clusters[s]
                assert _close(cl.Rperp @ sb @ cl.K.conj().T, dense.Rperp @ sd @ dense.K.conj().T, 1e-12)
                # the per-node guard: each node held alone, as a cluster of its own
                per_node = [_guard([x[:, None] for x in b], 1)[1][:, 0] for b in (got, want)]
                assert np.max(np.abs(per_node[0] / per_node[1] - 1)) < 1e-12
                margins = [_p22_margin(_complement(_scaled(b))[2][:, None])[0] for b in (got, want)]
                assert margins[0] == pytest.approx(margins[1], rel=1e-12)

    @pytest.mark.parametrize("factor", [1e-200, 1e-160, 1e160, 1e200])
    def test_the_guard_is_never_below_the_per_node_condition(self, presentations, factor):
        # the other blocks are read on the outer count circle alone, and every node of a
        # cluster's two count circles and carrier guards with their largest norms there: by
        # the maximum principle no less than the condition each node had on its own, which
        # this scan forms apart with LAPACK's inverses, over each node's scale.  A dense chart
        # has no other block, so there the two agree, up to the roundoff of the inverses
        for chart, base, *_ in presentations[0]:
            scaled = dataclasses.replace(chart, evaluator=lambda y, s, c=chart: factor * c.evaluator(y, s))
            for s, cl in enumerate(base.clusters):
                nodes = np.concatenate([c.nodes for c in cl.count_circles() + [cl.carrier(128)]])
                for y in ([0.0], [0.05]):
                    blocks = SchurEvaluator(scaled, base, s).blocks_many(y, nodes)
                    bound = _guard([*(x[None] for x in blocks[:4]), blocks[4][None, :COUNT_NODES]], COUNT_NODES)[1][0]
                    assert np.all(bound >= (1 - 1e-12) * _per_node_condition(blocks))

    def test_one_pass_gives_each_cluster_its_samples_alone(self, presentations):
        for chart, base, *_ in presentations[0]:
            _samples_alone(chart, base)

    def test_validation(self, presentations):
        (blk, bb, *_), (den, bd, *_) = presentations[0]
        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 5)]).points()
        got, want = validate_neighborhood(blk, bb, grid), validate_neighborhood(den, bd, grid)
        assert got.passed and want.passed
        for a, b in zip(got.conditions, want.conditions):
            assert (a.name, a.detail) == (b.name, b.detail)
            assert a.margin == pytest.approx(b.margin, rel=1e-12)

    def test_frames_pairing_and_sweep(self, presentations):
        (blk, bb, sys_b, dual_b), (den, bd, sys_d, dual_d) = presentations[0]
        fb, gb = frames_at(blk, bb, sys_b, dual_b, [0.05])
        fd, gd = frames_at(den, bd, sys_d, dual_d, [0.05])
        scale = max(float(np.max(np.abs(g.carrier.values))) for g in fd.blocks + gd.blocks)
        for a, b in zip(fb.blocks + gb.blocks, fd.blocks + gd.blocks):
            assert np.max(np.abs(a.carrier.values - b.carrier.values)) <= 1e-12 * scale
        pb, pd = pairing_matrix(blk, fb, gb, bb, [0.05]), pairing_matrix(den, fd, gd, bd, [0.05])
        assert _close(pb.matrix, pd.matrix, 1e-12)

        grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
        rng = np.random.default_rng(len(fb))
        coeffs = rng.normal(size=(2, len(fb))) + 1j * rng.normal(size=(2, len(fb)))

        def probe(y):
            return coeffs[0] + y[0] * coeffs[1]

        rb = sweep(blk, bb, grid, probe=probe, systems=sys_b, duals=dual_b)
        rd = sweep(den, bd, grid, probe=probe, systems=sys_d, duals=dual_d)
        assert not rb.failures and not rd.failures
        for a, b in zip(rb.points, rd.points):
            assert a.multiplicities == b.multiplicities
            assert _close(a.coefficients, b.coefficients, 1e-12)
            assert a.pairing_condition == pytest.approx(b.pairing_condition, rel=1e-12)
            assert a.p22_margin == pytest.approx(b.p22_margin, rel=1e-12)


def _per_node_condition(blocks):
    """Each node's ``||C||_F ||C^-1||_F`` of C = diag(p22, rest) over its largest real or imaginary
    part, from LAPACK's inverses, raised by ``m eps cond``."""
    p22, rest = blocks[3], blocks[4]
    entries = np.concatenate([p22.reshape(len(p22), -1), rest.reshape(len(rest), -1)], 1).view(float)
    scale = np.max(np.abs(entries), axis=1)[:, None, None, None]
    parts = [x / scale for x in (p22[:, None], rest) if x.size]
    cond = np.sqrt(sum(np.sum(np.abs(x) ** 2, axis=(1, 2, 3)) for x in parts)
                   * sum(np.sum(np.abs(np.linalg.inv(x)) ** 2, axis=(1, 2, 3)) for x in parts))
    return cond * (1 + (p22.shape[-1] + rest.shape[1] * rest.shape[-1]) * np.finfo(float).eps * cond)


def _moving_zero(y, s):
    # block 0 vanishes at 0.5i; block 1 holds the singular point -0.5i at y = 0, and
    # its zero moves along -0.5i + y (0.2 + 1.0i), onto the first node of cluster
    # 0.5i's count circle at y = 1
    s = np.asarray(s, dtype=complex)
    one = np.ones_like(s)
    moving = -0.5j + y[0] * (0.2 + 1.0j)
    return np.stack(
        [_upper(s - 0.5j, 0.3 * one, one), _upper(s - moving, 0.1 * s, one), _upper(one, 0.5 * one, 2 * one)], -3
    )


def test_an_inactive_block_near_singular_on_a_count_circle_is_rejected():
    # cluster 0.5i's kernel lives in block 0, so the near-singular block 1 enters
    # its reduction only through the guard, which must reject it as the dense
    # reduction does
    blk = FamilyChart(6, 1, REGION, _moving_zero)
    active = []
    for chart in (blk, _dense(blk)):
        base = base_point_data(chart, [0.0])
        s = int(np.argmax([c.center.imag for c in base.clusters]))
        cl = base.clusters[s]
        assert abs(cl.center - 0.5j) < 1e-12 and cl.radius == pytest.approx(0.2)
        active.append(cl.active_blocks)
        ev = SchurEvaluator(chart, base, s)
        assert local_multiplicity(ev, [0.5]) == 1
        node = kb.Circle(cl.center, cl.radius).nodes[0]
        with pytest.raises(ReductionInvalidError, match=re.escape(f"at sigma = {node}")):
            local_multiplicity(ev, [1.0])
    assert active == [(0,), (0,)]


# node 5 of the outer count circle, of radius epsilon = 0.4, of the cluster 0.5i of _onto_node_5
NODE_5 = 0.5j + 0.4 * np.exp(2j * np.pi * 5 / COUNT_NODES)


def _onto_node_5(y, s):
    # block 0 vanishes at 0.5i and block 1 at 3i at y = 0; block 1's zero moves onto NODE_5 at y = 1
    s = np.asarray(s, dtype=complex)
    return np.stack([s - 0.5j, s - (3j + y[0] * (NODE_5 - 3j))], -1)[..., None, None]


def test_a_rest_block_singular_on_the_outer_count_circle_is_named_at_its_node():
    # cluster 0.5i has no p22 block, so its guard bound is rest's largest norms on the outer
    # count circle at every node, past the limit at each: the failure names the node where
    # they are attained, not the circle's first
    chart = FamilyChart(2, 1, SigmaRegion(-2.0, 2.0, -1.0, 4.0), _onto_node_5)
    base = base_point_data(chart, [0.0])
    cl = base.clusters[0]
    assert abs(cl.center - 0.5j) < 1e-12 and cl.radius == pytest.approx(0.4) and cl.active_blocks == (0,)
    ev = SchurEvaluator(chart, base, 0)
    assert local_multiplicity(ev, [0.5]) == 1
    nodes = cl.count_circles()[0].nodes
    assert abs(nodes[5] - NODE_5) < 1e-12
    with pytest.raises(ReductionInvalidError, match=re.escape(f"at sigma = {nodes[5]}")):
        local_multiplicity(ev, [1.0])


def test_a_singular_point_that_leaves_its_disc_fails_validation():
    # at y = 0.9 cluster -0.5i's singular point has moved to 0.18 + 0.4i, far
    # outside that cluster's count circles
    chart = FamilyChart(6, 1, REGION, _moving_zero)
    base = base_point_data(chart, [0.0])
    assert abs(base.clusters[0].center + 0.5j) < 1e-12
    assert validate_neighborhood(chart, base, [[0.0], [0.05]]).passed
    annulus = validate_neighborhood(chart, base, [[0.05], [0.9]]).conditions[3]
    assert (annulus.passed, annulus.margin, annulus.detail) == (False, 0.0, "cluster 0, y = [0.9]")


def test_a_singular_complement_block_inside_a_disc_fails_validation():
    # at y = 0.95 block 1's zero, 0.19 + 0.45i, lies 0.98 epsilon from cluster
    # 0.5i, inside its disc, where block 1 is part of that cluster's complement
    # block; 37 samples of the disc missed it, but det p22 times the determinants
    # of the other blocks winds once around the epsilon-circle
    chart = FamilyChart(6, 1, REGION, _moving_zero)
    base = base_point_data(chart, [0.0])
    grid = validate_neighborhood(chart, base, [[0.95]]).conditions[2]
    assert (grid.passed, grid.margin, grid.detail) == (False, 0.0, "cluster 1, y = [0.95]")


def _entering_zero(y, s):
    # block 0 vanishes at 0.5i; block 1's zero enters the region along 3i + y (0.13 - 2.5i),
    # into the disc of cluster 0.5i, where block 1 is part of that cluster's complement
    # block: 0.13 from it at y = 1; block 2 is invertible
    s = np.asarray(s, dtype=complex)
    one = np.ones_like(s)
    entering = 3j + y[0] * (0.13 - 2.5j)
    return np.stack(
        [_upper(s - 0.5j, 0.3 * one, 1 + 0.2 * s), _upper(one, 0.1 * s, s - entering), _upper(2 * one, 0.4 * one, one)], -3
    )


@pytest.mark.parametrize("dense", [False, True], ids=["blocks", "dense"])
def test_a_complement_zero_entering_a_disc_fails_the_sweep_validation_and_diagram_alike(dense):
    # at y = 1 det P has two zeros in the disc, the reduced determinant one: the sweep
    # records a ReductionInvalidError there, condition (3) fails there alone, and the
    # diagram has no row there; elsewhere the sweep's p22 margin is condition (3)'s
    chart = FamilyChart(6, 1, REGION, _entering_zero)
    chart = _dense(chart) if dense else chart
    base = base_point_data(chart, [0.0])
    assert len(base.clusters) == 1 and abs(base.clusters[0].center - 0.5j) < 1e-12
    systems, duals = canonical_systems(chart, base)
    grid = ParameterGrid.from_ranges([(0.0, 1.0, 3)])
    report = sweep(chart, base, grid, systems=systems, duals=duals)
    assert [(f["y"], f["error"]) for f in report.failures] == [([1.0], "ReductionInvalidError")]
    assert "cluster 0 at y=(1.0,)" in report.failures[0]["message"]
    conditions = validate_neighborhood(chart, base, grid.points()).conditions
    assert [c.passed for c in conditions] == [True, True, False, True]
    assert (conditions[2].margin, conditions[2].detail) == (0.0, "cluster 0, y = [1.]")
    assert sorted({row[0] for row in branching_diagram(chart, base, grid)}) == [0.0, 0.5]
    for point in report.points[:2]:
        assert 0 < point.p22_margin == validate_neighborhood(chart, base, [list(point.y)]).conditions[2].margin


# where block 1 of _zero_between_the_carrier_nodes vanishes at y = 1: on the carrier of the cluster
# 0.5i, of radius 0.75 epsilon = 0.45, halfway between its nodes 0 and 1 of 128
BETWEEN = 0.5j + 0.45 * np.exp(1j * np.pi / 128)


def _zero_between_the_carrier_nodes(y, s):
    # block 0 vanishes at 0.5i; block 1's zero moves from 3i, outside the region, to BETWEEN
    s = np.asarray(s, dtype=complex)
    one = np.ones_like(s)
    moving = 3j + y[0] * (BETWEEN - 3j)
    return np.stack([_upper(s - 0.5j, 0.3 * one, 1 + 0.2 * s), _upper(one, 0.1 * s, s - moving), _upper(2 * one, 0.4 * one, one)], -3)


@pytest.mark.parametrize("dense", [False, True], ids=["blocks", "dense"])
def test_a_complement_block_singular_between_the_sampled_nodes_is_refused(dense):
    # at y = 1 block 1, part of the complement block of cluster 0.5i, is singular inside its
    # disc, off every node the sweep samples: its count circles and its carrier.  The guard
    # reads the other blocks on the outer count circle alone, yet det C winds once around it,
    # so the sweep fails that point and condition (3) fails there, with margin 0
    chart = FamilyChart(6, 1, REGION, _zero_between_the_carrier_nodes)
    chart = _dense(chart) if dense else chart
    base = base_point_data(chart, [0.0])
    assert len(base.clusters) == 1 and abs(base.clusters[0].center - 0.5j) < 1e-12 and base.clusters[0].radius == pytest.approx(0.6)
    circles = base.clusters[0].count_circles() + [base.clusters[0].carrier(128)]
    assert min(np.min(np.abs(c.nodes - BETWEEN)) for c in circles) > 0.01
    systems, duals = canonical_systems(chart, base)
    grid = ParameterGrid.from_ranges([(0.0, 1.0, 3)])
    report = sweep(chart, base, grid, systems=systems, duals=duals)
    assert [(f["y"], f["error"]) for f in report.failures] == [([1.0], "ReductionInvalidError")]
    assert "complement block singular on the disc of cluster 0 at y=(1.0,)" in report.failures[0]["message"]
    conditions = validate_neighborhood(chart, base, grid.points()).conditions
    assert [c.passed for c in conditions] == [True, True, False, True]
    assert (conditions[2].margin, conditions[2].detail) == (0.0, "cluster 0, y = [1.]")


# zero of the complement block p22 = 1 - sigma / W of _complement_zero, 1.3 from the
# singular point 0, between the angles and rings of the 36 samples that once stood for
# the doubled disc of radius 2 epsilon = 1.6
W = 1.3 * np.exp(1j * np.pi / 12)


def _complement_zero(y, s):
    # det = sigma: P's only zero is 0, with kernel e2 and range e1 there, so its complement
    # block is the entry 1 - sigma / W, singular at W alone
    s = np.asarray(s, dtype=complex)
    return np.stack([np.stack([1 - s / W, s], -1), np.stack([-s / W, s], -1)], -2)


def test_a_complement_block_singular_inside_the_doubled_disc_halves_epsilon():
    chart = FamilyChart(2, 1, REGION, _complement_zero)
    # the old samples: the center and 12 angles on rings at 0.45, 0.8 and 1 of 1.6
    rings = np.array([0.45, 0.8, 1.0])[:, None] * 1.6 * np.exp(2j * np.pi * np.arange(12) / 12)
    assert np.min(np.abs(1 - np.append(rings.ravel(), 0.0) / W)) > 0.25
    # at the default epsilon, 0.8, det C winds once around the doubled circle at y0
    with pytest.raises(ValidationError, match="complement_invertible_base: 0.000e"):
        base_point_data(chart, [0.0], epsilon=0.8)
    base = base_point_data(chart, [0.0])
    assert len(base.clusters) == 1 and abs(base.clusters[0].center) < 1e-12 and base.clusters[0].radius == 0.4
    wide = BasePointData(base.y0, [dataclasses.replace(base.clusters[0], radius=0.8)])
    conditions = validate_neighborhood(chart, wide, [[0.0]]).conditions
    assert [c.passed for c in conditions] == [True, False, True, True] and conditions[1].margin == 0.0


def _factor(rng, b, zero):
    """A b x b complement factor U diag(sigma - zero, 2 + 0.3 sigma, 3 - 0.2 sigma) V, singular at
    ``zero`` alone, with U unitary and V a well-conditioned random matrix."""
    U, _ = np.linalg.qr(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
    V = np.eye(b) + 0.2 * (rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))

    def factor(s):
        d = np.stack([s - zero, 2 + 0.3 * s, 3 - 0.2 * s], -1)[..., :b]
        return U @ (d[..., :, None] * V)

    return factor


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_complement_counts_against_a_dense_scan(b, seed):
    # a singular point at 0 in block 0, diag(sigma, 1, ..), and a complement factor in block 1
    # whose zero lies inside the epsilon-disc, between it and the doubled one, or outside both:
    # (3) and (2) fail exactly where their disc holds the zero, and where they pass, a dense
    # scan of the closed disc finds no smaller relative singular value of C = diag(p22, factor)
    # than the circle's 64 nodes, up to their spacing
    rng = np.random.default_rng(100 * b + seed)
    eye = np.eye(2 * b)
    cluster = Cluster(0j, 1, 1, eye[:, :1], eye[:, 1:b], eye[:, :1], eye[:, 1:b], 0.5, (0,))
    for low, high in ((0.1, 0.4), (0.6, 0.9), (1.1, 1.9), (2.1, 2.9)):
        zero = rng.uniform(low, high) * 0.5 * np.exp(2j * np.pi * rng.uniform())
        factor = _factor(rng, b, zero)

        def evaluator(y, s):
            s = np.asarray(s, dtype=complex)
            active = np.concatenate([s[:, None], np.ones((len(s), b - 1))], 1)
            return np.stack([active[:, :, None] * np.eye(b), factor(s)], 1)

        chart = FamilyChart(2 * b, 1, REGION, evaluator)
        conditions = validate_neighborhood(chart, BasePointData(np.zeros(1), [cluster]), [[0.0]]).conditions
        assert [c.passed for c in conditions] == [True, abs(zero) > 1.0, abs(zero) > 0.5, True]
        for cond, radius in ((conditions[1], 1.0), (conditions[2], 0.5)):
            if not cond.passed:
                assert cond.margin == 0.0
                continue
            disc = radius * np.linspace(0.0, 1.0, 33)[:, None] * np.exp(2j * np.pi * np.arange(512) / 512)
            sv = np.concatenate([np.linalg.svd(factor(disc.ravel()), compute_uv=False), np.ones((disc.size, b - 1))], 1)
            scan = np.min(sv) / np.max(sv)
            assert scan * (1 - 1e-12) <= cond.margin <= 1.5 * scan


def _three_clusters(y, s):
    # blocks 1 and 2 vanish at 0, where their zeros part as y moves; blocks 0 and 3 at
    # -0.8i and 0.8i: clusters of one, two and one active blocks, in center order
    s = np.asarray(s, dtype=complex)
    one = np.ones_like(s)
    return np.stack(
        [
            _upper(s + 0.8j + 0.1 * y[0], 0.3 * one, 1 + 0.2 * s),
            _upper(s - 0.1 * y[0], 0.2 * s, one),
            _upper(one, 0.4 * one, s + 0.2 * y[0]),
            _upper(2 * (s - 0.8j), 0.1 * one, 2 * one),
        ],
        -3,
    )


def _three_cluster_pipeline():
    chart = FamilyChart(8, 1, REGION, _three_clusters)
    base = base_point_data(chart, [0.0])
    return (chart, base) + canonical_systems(chart, base)


def test_a_sweep_over_two_shape_classes_agrees_with_the_per_cluster_oracles(monkeypatch):
    # clusters 0 and 2 form one shape class and cluster 1 another, so the sweep's arrays
    # run in the cluster order 0, 2, 1; each number it records is the one the public
    # per-cluster oracles give
    chart, base, systems, duals = _three_cluster_pipeline()
    assert [c.active_blocks for c in base.clusters] == [(0,), (1, 2), (3,)]
    assert [st.index for st in kb.frames.cluster_stacks(chart, base, systems, duals)] == [[0, 2], [1]]
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))

    def probe(y):
        return coeffs[0] + y[0] * coeffs[1]

    formed = []
    checked = kb.pairing._checked_pairing

    def recorded(m, *args):
        formed.append(m)
        return checked(m, *args)

    monkeypatch.setattr(kb.pairing, "_checked_pairing", recorded)
    grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
    _agrees_with_the_oracles(chart, base, systems, duals, grid, probe, formed)


@pytest.mark.parametrize(
    "pipeline, node_count",
    [
        ("jordan_pipeline", 128),
        ("branching_pipeline", 128),
        ("triangular_pipeline", 128),
        ("jordan_pipeline", 64),
        ("branching_pipeline", 64),
        ("jordan_pipeline", 32),
        ("branching_pipeline", 32),
    ],
)
def test_a_sweep_over_chains_agrees_with_the_per_cluster_oracles(pipeline, node_count, request, monkeypatch):
    # chains of length 2 (jordan), a kernel of dimension 2 (branching) and chains of lengths
    # {2, 1} (triangular): the sweep contracts S^-1 on its carriers against the dual data
    # held from the base point, the oracles pair the classes of the full-space frames through
    # P; on systems built on 64 and 32 carrier nodes as on 128
    chart, base, _, _ = request.getfixturevalue(pipeline)
    systems, duals = kb.canonical_systems(chart, base, node_count)
    size = sum(sy.total for sy in systems)
    rng = np.random.default_rng(size)
    coeffs = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))

    def probe(y):
        return coeffs[0] + y[0] * coeffs[1]

    formed = []
    checked = kb.pairing._checked_pairing

    def recorded(m, *args):
        formed.append(m)
        return checked(m, *args)

    monkeypatch.setattr(kb.pairing, "_checked_pairing", recorded)
    grid = ParameterGrid.from_ranges([(-0.1, 0.1, 3)])
    _agrees_with_the_oracles(chart, base, systems, duals, grid, probe, formed)


def _agrees_with_the_oracles(chart, base, systems, duals, grid, probe, formed):
    """Sweep ``grid`` with ``probe`` on the carriers of ``systems``, each pairing matrix it forms
    appended to ``formed``, and compare every point with ``local_multiplicity``, ``pairing_matrix``
    of ``frames_at`` on the same carriers and ``coefficients``."""
    report = sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
    assert not report.failures and len(formed) == len(report.points) == grid.shape[0]
    for point, swept in zip(report.points, formed):
        y = list(point.y)
        assert point.multiplicities == [local_multiplicity(SchurEvaluator(chart, base, s), y) for s in range(len(base.clusters))]
        frame, dual = frames_at(chart, base, systems, duals, y)
        pm = pairing_matrix(chart, frame, dual, base, y)
        assert _close(swept, pm.matrix, 1e-13)
        assert point.pairing_condition == pytest.approx(pm.condition, rel=1e-13)
        pieces = frame.split(probe(y))
        section = [kb.Germ(g.center, kb.SampledFunction(g.carrier.circle, g.carrier.values @ c)) for g, c in zip(frame.blocks, pieces)]
        assert _close(point.coefficients, kb.coefficients(chart, frame, dual, base, y, section).values, 1e-13)


@pytest.mark.parametrize("pipeline", ["sl_big_pipeline", "jordan_pipeline", "branching_pipeline", "triangular_pipeline", None])
def test_the_held_dual_data_is_holomorphic(pipeline, request):
    # the sweep pairs without a class projection because h_a(conj sigma)^H is holomorphic on
    # the disc: on each carrier the conjugate of the h that _held_factors holds has no
    # negative-frequency content beyond roundoff (None: the three-cluster family, two classes)
    chart, base, systems, duals = request.getfixturevalue(pipeline) if pipeline else _three_cluster_pipeline()
    for stack in kb.frames.cluster_stacks(chart, base, systems, duals):
        h = kb.frames._held_factors(stack, systems, duals)[1]
        coefficients = np.abs(np.fft.fft(np.conj(h), axis=1))
        assert h.shape[1] == 128 and np.max(coefficients[:, 64:]) <= 1e-13 * np.max(coefficients)


@pytest.mark.parametrize("pipeline", ["sl_big_pipeline", "jordan_pipeline", "branching_pipeline", "triangular_pipeline", None])
def test_one_pass_gives_each_cluster_its_samples_alone(pipeline, request):
    # None: the three-cluster family, whose two shape classes the pass reduces apart
    _samples_alone(*(request.getfixturevalue(pipeline) if pipeline else _three_cluster_pipeline())[:2])


def _samples_alone(chart, base):
    """``base_samples`` reduces every carrier in one pass; each cluster's values are bit for bit the
    ones its own ``SchurEvaluator`` gives on its carrier."""
    for s, (cl, samples) in enumerate(zip(base.clusters, kb.keldysh.base_samples(chart, base, 256))):
        carrier = cl.carrier(256)
        assert samples.circle == carrier
        assert np.array_equal(samples.values, SchurEvaluator(chart, base, s).schur_many(base.y0, carrier.nodes))


def _two_movers(y, s):
    # simple zeros at -0.5i + 0.2 y and 0.5i + 0.2 y, of slopes 1 and 2: at y = 1 each
    # sits on node 0 of its cluster's outer count circle, at y = 0.5 on its inner one's
    s = np.asarray(s, dtype=complex)
    return np.stack([s + 0.5j - 0.2 * y[0], 2 * (s - 0.5j - 0.2 * y[0])], -1)[..., None, None]


def test_a_point_where_two_clusters_fail_records_the_first():
    # both clusters are one shape class, counted in one pass; the failure recorded is
    # the first cluster's, outer circles before inner ones
    chart = FamilyChart(2, 1, REGION, _two_movers)
    base = base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    report = sweep(chart, base, ParameterGrid.from_ranges([(0.5, 1.0, 2)]), systems=systems, duals=duals)
    assert [f["y"] for f in report.failures] == [[0.5], [1.0]]
    errors = []
    for s in range(2):
        with pytest.raises(ZeroOnContourError) as info:
            local_multiplicity(SchurEvaluator(chart, base, s), [1.0])
        errors.append(str(info.value))
    assert errors[0] != errors[1]
    assert report.failures[1]["error"] == "ZeroOnContourError" and report.failures[1]["message"] == errors[0]
    # at y = 0.5 the outer counts hold and both inner circles fail, at -log 5 and -log 2.5 from the top
    assert report.failures[0]["message"] == "zero too close to contour: log |q| from -inf to -1.609e+00"
