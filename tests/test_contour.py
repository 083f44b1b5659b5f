import numpy as np
import pytest

from kernelbundle import contour
from kernelbundle.contour import (
    Circle,
    Rectangle,
    SampledFunction,
    cauchy_moment,
    count_zeros,
    count_zeros_rectangle,
    locate_zeros,
    refine_cluster,
    singular_part_at_nodes,
    singular_part_eval,
    winding_number,
)
from kernelbundle.errors import (
    InputError,
    KernelBundleError,
    NumericalError,
    RegionError,
    ResolutionError,
    ZeroOnContourError,
)


# f with a simple and a double pole at a = 0.2; the centered moments on any
# circle enclosing a are M_p = 3 a^p + (1 - 2i) p a^(p-1).
A = 0.2
C1 = 3.0
C2 = 1.0 - 2.0j


def rational(z):
    return C1 / (z - A) + C2 / (z - A) ** 2


class TestMoments:
    def test_rational_moments(self):
        f = SampledFunction.from_function(rational, Circle(0.0, 0.7, 128))
        assert cauchy_moment(f, 0) == pytest.approx(3.0, abs=1e-12)
        assert cauchy_moment(f, 1) == pytest.approx(1.6 - 2.0j, abs=1e-12)
        assert cauchy_moment(f, 2) == pytest.approx(0.52 - 0.8j, abs=1e-12)

    def test_node_count_insensitive(self):
        a = cauchy_moment(SampledFunction.from_function(rational, Circle(0.0, 0.7, 32)), 3)
        b = cauchy_moment(SampledFunction.from_function(rational, Circle(0.0, 0.7, 256)), 3)
        assert abs(a - b) < 1e-12

    def test_vector_values(self):
        f = SampledFunction.from_function(
            lambda z: np.stack([C1 / (z - A), C2 / (z - A) ** 2], axis=-1),
            Circle(0.0, 0.7, 128),
        )
        m1 = cauchy_moment(f, 1)
        assert m1.shape == (2,)
        assert np.allclose(m1, [C1 * A, C2], atol=1e-12)

    def test_entire_function_moments_vanish(self):
        f = SampledFunction.from_function(np.exp, Circle(0.0, 0.7, 128))
        assert abs(cauchy_moment(f, 0)) < 1e-13
        assert abs(cauchy_moment(f, 4)) < 1e-13

    def test_taylor_of_exp(self):
        f = SampledFunction.from_function(np.exp, Circle(0.3, 0.5, 128))
        import math

        for p in range(6):
            assert cauchy_moment(f, -p - 1) == pytest.approx(
                np.exp(0.3) / math.factorial(p), rel=1e-12
            )

    def test_order_validation(self):
        # negative orders are Taylor coefficients; an order must be an integer
        f = SampledFunction.from_function(np.exp, Circle(0.0, 0.5, 32))
        assert cauchy_moment(f, -1) == pytest.approx(1.0, rel=1e-12)
        for bad in (0.5, 1.0, [[0, 1]], np.array([0.0, 1.5])):
            with pytest.raises(InputError):
                cauchy_moment(f, bad)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["scalar", "vector", "matrix"])
    def test_array_of_orders_stacks_scalar_calls(self, shape):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def g(z):
            return np.multiply.outer(rational(z) + np.exp(z), coeffs)

        f = SampledFunction.from_function(g, Circle(0.1, 0.6, 128))
        orders = np.arange(-6, 5)
        stacked = np.stack([cauchy_moment(f, int(p)) for p in orders])
        moments = cauchy_moment(f, orders)
        assert moments.shape == (len(orders),) + shape
        # relative to r^{p+1} max |f|, the size of the summed terms of order p
        scale = 0.6 ** (orders + 1.0) * np.max(np.abs(f.values))
        gap = np.abs(moments - stacked).reshape(len(orders), -1).max(axis=1)
        assert np.all(gap <= 1e-15 * scale)


class TestSingularPart:
    probes = np.array([0.8, 1.0 + 0.3j, -1.2j])

    def carrier(self, f, n=128):
        return SampledFunction.from_function(f, Circle(0.0, 0.5, n))

    def test_reproduces_rational(self):
        r = lambda z: 2.0 / (z - 0.1) + 0.5j / (z + 0.2) ** 2
        got = singular_part_eval(self.carrier(r), self.probes)
        assert np.allclose(got, r(self.probes), atol=1e-12)

    def test_annihilates_entire(self):
        got = singular_part_eval(self.carrier(np.exp), self.probes)
        assert np.max(np.abs(got)) < 1e-12

    def test_splits_off_singular_part(self):
        r = lambda z: 2.0 / (z - 0.1) + 0.5j / (z + 0.2) ** 2
        f = lambda z: r(z) + np.cos(z)
        got = singular_part_eval(self.carrier(f), self.probes)
        assert np.allclose(got, r(self.probes), atol=1e-12)

    def test_idempotent_across_carriers(self):
        r = lambda z: 2.0 / (z - 0.1) + 0.5j / (z + 0.2) ** 2
        first = self.carrier(lambda z: r(z) + np.sin(z))
        second = SampledFunction(
            Circle(0.0, 0.65, 96),
            singular_part_eval(first, Circle(0.0, 0.65, 96).nodes),
        )
        got = singular_part_eval(second, self.probes)
        assert np.allclose(got, r(self.probes), atol=1e-11)

    def test_rejects_interior_points(self):
        f = self.carrier(np.exp)
        with pytest.raises(RegionError):
            singular_part_eval(f, 0.3)
        with pytest.raises(RegionError):
            singular_part_eval(f, np.array([0.8, 0.1]))

    def test_circle_equals_its_nodes(self):
        r = lambda z: np.stack([2.0 / (z - 0.1), 0.5j / (z + 0.2) ** 2], axis=-1)
        f = self.carrier(r)
        matrix = SampledFunction(f.circle, f.values[:, :, None] * np.array([1.0, -2.0j]))
        for target in (Circle(0.0, 0.6, 128), Circle(0.1j, 0.9, 48), Circle(2.0, 0.5, 16)):
            for g in (f, matrix):
                on_circle = singular_part_eval(g, target)
                assert np.array_equal(on_circle, singular_part_eval(g, target.nodes))
                assert np.array_equal(singular_part_eval(g, target), on_circle)

    def test_cached_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            Circle(0.0, 0.5, 32).unit[0] = 0.0
        for n in (16, 48, 128, 256):
            angles = 2.0 * np.pi * np.arange(n) / n
            assert np.array_equal(Circle(0.0, 1.0, n).unit, np.exp(1j * angles))

    def test_nodes_formed_once_per_circle(self):
        # one read-only array per instance, bit for bit center + radius * unit
        for circle in (Circle(0.3 - 0.2j, 0.7, 64), Circle(1e-3j, 1e-9, 16), Circle(-2.0, 5.0, 256)):
            nodes = circle.nodes
            assert circle.nodes is nodes and not nodes.flags.writeable
            assert nodes.tobytes() == (circle.center + circle.radius * circle.unit).tobytes()
            with pytest.raises(ValueError):
                nodes[0] = 0.0
            # a fresh equal circle forms its own array, with the same bits
            twin = Circle(circle.center, circle.radius, circle.node_count)
            assert twin == circle and twin.nodes is not nodes and twin.nodes.tobytes() == nodes.tobytes()

    def test_overlapping_circle_rejected_every_call(self):
        f = self.carrier(np.exp)
        for target in (Circle(0.0, 0.4, 64), Circle(0.3, 0.3, 64)):
            for _ in range(2):
                with pytest.raises(RegionError):
                    singular_part_eval(f, target)

    def test_matrix_values(self):
        r = lambda z: np.moveaxis(
            np.array([[1.0 / (z - 0.1), 0 * z], [0 * z, 2.0 / (z + 0.15)]]), -1, 0
        )
        f = SampledFunction.from_function(r, Circle(0.0, 0.5, 128))
        got = singular_part_eval(f, 0.9)
        assert got.shape == (2, 2)
        assert got[0, 0] == pytest.approx(1.0 / 0.8, abs=1e-12)
        assert got[1, 1] == pytest.approx(2.0 / 1.05, abs=1e-12)


class TestSingularPartAtNodes:
    # 2/(z - 0.1) + 0.5i/(z + 0.2)^2 plus cos z, sampled on the circle |z| = 0.5: the
    # dropped Laurent terms, of order -N/2 and below, decay like N (0.2/0.5)^(N/2)
    r = staticmethod(lambda z: 2.0 / (z - 0.1) + 0.5j / (z + 0.2) ** 2)

    @pytest.mark.parametrize("n", [96, 128])
    def test_splits_off_the_singular_part(self, n):
        nodes = Circle(0.0, 0.5, n).nodes
        got = singular_part_at_nodes(self.r(nodes) + np.cos(nodes))
        assert np.max(np.abs(got - self.r(nodes))) < 1e-13 * np.max(np.abs(self.r(nodes)))

    def test_acts_along_the_node_axis_alone(self):
        # matrix-valued samples project column by column, and only the offsets from the
        # centre enter: 1/z^3 stays, exp z goes, on any circle
        for circle in (Circle(0.0, 0.5, 64), Circle(0.3 - 0.2j, 0.45, 64)):
            z = circle.nodes - circle.center
            values = np.stack([self.r(z), np.exp(z), 1.0 / z ** 3], axis=-1)
            stacked = singular_part_at_nodes(values[:, :, None] * np.array([1.0, -2.0j]))
            for j in range(3):
                column = singular_part_at_nodes(values[:, j])
                assert np.max(np.abs(stacked[:, j, 1] + 2.0j * column)) < 1e-14 * np.max(np.abs(values[:, j]))
            assert np.max(np.abs(stacked[:, 1])) < 1e-15
            assert np.max(np.abs(stacked[:, 2, 0] - 1.0 / z ** 3)) < 1e-13 / 0.45 ** 3


class TestCounting:
    def q(self, z):
        return (z - 0.3) ** 2 * (z + 0.5j)

    def test_circle_counts(self):
        assert count_zeros(self.q, Circle(0.0, 1.0, 64)) == 3
        assert count_zeros(self.q, Circle(0.3, 0.2, 64)) == 2
        assert count_zeros(self.q, Circle(2.0, 0.5, 64)) == 0

    def test_rectangle_count(self):
        assert count_zeros_rectangle(self.q, Rectangle(-1.0, 1.0, -1.0, 1.0)) == 3

    def test_node_count_invariance(self):
        for n in (16, 64, 256):
            assert count_zeros(self.q, Circle(0.0, 1.0, n)) == 3

    def test_too_few_initial_nodes(self):
        # the node count of a count is checked as a circle's is, not raised to 16
        for n in (8, -5):
            with pytest.raises(InputError, match=f"at least 16, got {n}"):
                winding_number(self.q, Circle(0.0, 1.0).path, n)
        assert winding_number(self.q, Circle(0.0, 1.0).path, 16) == 3

    def test_transcendental(self):
        assert count_zeros(np.sin, Circle(0.0, 1.0, 64)) == 1
        assert count_zeros(np.sin, Circle(0.0, 4.0, 64)) == 3

    def test_zero_on_contour_raises(self):
        with pytest.raises(ZeroOnContourError):
            count_zeros(lambda z: z - 1.0, Circle(0.0, 1.0, 64))

    def test_scalar_only(self):
        with pytest.raises(InputError):
            count_zeros(lambda z: np.stack([z, z], axis=-1), Circle(0.0, 1.0, 64))

    def test_evaluator_error_propagates(self):
        # a callable that only takes one point fails on the node array; the
        # error surfaces instead of falling back to a per-point loop
        with pytest.raises(TypeError):
            count_zeros(lambda z: complex(z) - 0.1, Circle(0.0, 1.0, 64))

    @pytest.mark.parametrize("zeros", [[-1 + 1e-3 - 0.3956j] * 2, [0.1875 - 0.499j, 0.21875 - 0.499j]])
    def test_two_zeros_near_an_edge(self, zeros):
        # a double zero, or two simple ones 0.03 apart, 1e-3 inside an edge: one
        # step between two nodes turns the phase by almost 2 pi, which reads as a
        # small turn, but |q| changes by orders of magnitude there, so the
        # complex-log step refuses the loop and the count refines to 2
        q = lambda z: (z - zeros[0]) * (z - zeros[1])
        assert count_zeros_rectangle(q, Rectangle(-1, 1, -0.5, 0.75)) == 2

    def test_refinement_samples_only_the_midpoints(self):
        calls = []

        def power(k):
            def q(z):
                calls.append(z)
                return z ** k

            return q

        # z^30 turns by more than pi/2 between the nodes of the square at 64 and
        # at 128 nodes, so its count doubles twice; each doubling samples only
        # the new midpoints, and no node twice
        assert count_zeros_rectangle(power(30), Rectangle(-1, 1, -1, 1)) == 30
        assert [len(z) for z in calls] == [64, 64, 128]
        assert len(np.unique(np.concatenate(calls))) == 256
        # z^70 turns by more than pi/2 between 256 nodes: the refinement circle
        # continues on its 256 midpoints, not on 512 fresh nodes
        calls.clear()
        assert refine_cluster(power(70), 0.0, 1.0, 70) == pytest.approx(0.0, abs=1e-12)
        assert [len(z) for z in calls] == [256, 256]
        assert np.array_equal(calls[1], Circle(0.0, 1.0, 512).nodes[1::2])

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="doubling is global: a cut through a zero spends the whole node budget (ROADMAP item 3 (b), (c))",
    )
    def test_a_cut_through_a_zero_fails_within_1024_nodes(self):
        """The right edge of the box runs through the zero -i sqrt(1.25), so no count
        can resolve it; a typed error should come within 1,024 sampled nodes.

        Today the count doubles globally up to ``MAX_WINDING_NODES`` and raises
        ``ResolutionError`` after 16,384 nodes.  The same cost lands wherever a
        cut runs through a zero: locate-n64's first cut, (0.5, 0.5), lies on
        Re sigma = 0 through both zeros, 16,384 of each y0's 20,928 nodes, and
        sweep-n8's base point pays 16,384 of the 23,616 nodes at which
        ``base_point_data`` samples the determinant.
        """
        sampled = []

        def q(z):
            sampled.append(np.size(z))
            return z ** 2 + 1.25

        with pytest.raises(KernelBundleError):
            count_zeros_rectangle(q, Rectangle(-1, 0, -1.5, 0))
        assert sum(sampled) <= 1024

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="doubling is global: a zero near an edge spends the whole node budget (ROADMAP item 3)",
    )
    @pytest.mark.parametrize("side", [1, -1], ids=["inside", "outside"])
    @pytest.mark.parametrize("offset", [1e-12, 1e-9, 1e-6, 1e-5])
    def test_a_zero_near_an_edge_is_told_within_1024_nodes(self, offset, side):
        """A simple zero ``offset`` inside or outside the bottom edge: the count should be
        right, or stop with ``ZeroOnContourError``, within 1,024 sampled nodes.  Today
        each case doubles up to ``MAX_WINDING_NODES`` and raises ``ResolutionError``."""
        zero = 0.3 + 1j * (-0.5 + side * offset)
        sampled = []

        def q(z):
            sampled.append(np.size(z))
            return z - zero

        try:
            outcome = count_zeros_rectangle(q, Rectangle(-1, 1, -0.5, 0.75))
        except KernelBundleError as exc:
            outcome = type(exc)
        assert outcome in (int(side > 0), ZeroOnContourError)
        assert sum(sampled) <= 1024

    def test_wrong_leading_shape(self):
        with pytest.raises(InputError):
            count_zeros(lambda z: z[:-1] - 0.1, Circle(0.0, 1.0, 64))
        with pytest.raises(InputError):
            SampledFunction.from_function(lambda z: np.ones(3), Circle(0.0, 1.0, 64))


class TestRefine:
    def test_pair_centroid(self):
        q = lambda z: (z - (0.1 + 0.1j)) * (z - (0.3 - 0.05j))
        got = refine_cluster(q, 0.0, 1.0, 2)
        assert got == pytest.approx(0.2 + 0.025j, abs=1e-12)

    def test_single_simple_zero(self):
        got = refine_cluster(lambda z: np.sin(z - 0.2), 0.1, 0.5, 1)
        assert got == pytest.approx(0.2, abs=1e-12)

    def test_wrong_count_raises(self):
        q = lambda z: (z - 0.1) * (z + 0.1)
        with pytest.raises(ResolutionError):
            refine_cluster(q, 0.0, 0.5, 3)

    def test_count_validation(self):
        with pytest.raises(InputError):
            refine_cluster(np.sin, 0.0, 0.5, 0)

    def test_an_unconverged_centroid_raises(self, monkeypatch):
        # the first step from 0.1 moves by 0.1, far above the tolerance: one circle cannot converge
        monkeypatch.setattr(contour, "REFINE_MAX_ITER", 1)
        with pytest.raises(ResolutionError):
            refine_cluster(lambda z: np.sin(z - 0.2), 0.1, 0.5, 1)


ZEROS_CIRCLE = Circle(0.3 - 0.2j, 0.8, 64)


def _separated_zeros(seed):
    """1 to 4 simple zeros in the inner half-disc of ``ZEROS_CIRCLE``, pairwise at
    least a tenth of its radius apart."""
    rng = np.random.default_rng(seed)
    m = 1 + seed % 4
    while True:
        w = 0.5 * np.sqrt(rng.uniform(size=m)) * np.exp(2j * np.pi * rng.uniform(size=m))
        if np.min(np.abs(w[:, None] - w) + np.eye(m)) > 0.1:
            return [(ZEROS_CIRCLE.center + ZEROS_CIRCLE.radius * v, 1) for v in w]


class TestCircleZeros:
    a, b = 0.35 - 0.1j, 0.1 - 0.3j

    @pytest.mark.parametrize(
        "zeros, want",
        [
            ([(a, 3)], [(a, 3)]),
            ([(a, 2), (b, 1)], [(b, 1), (a, 2)]),
            # 2e-3 apart, closer than the separation radius / 64: one row at the mean
            ([(a, 1), (a + 2e-3, 1)], [(a + 1e-3, 2)]),
        ]
        + [(z, sorted(z, key=lambda r: r[0].real)) for z in map(_separated_zeros, range(20))],
    )
    def test_rows_from_the_circle_samples(self, zeros, want):
        q = lambda s: np.prod([(s - z) ** k for z, k in zeros], axis=0)
        count = sum(k for _, k in zeros)
        got = contour.circle_zeros(
            ZEROS_CIRCLE, *contour._samples(q, ZEROS_CIRCLE.nodes), count, ZEROS_CIRCLE.radius / 64
        )
        assert [z.multiplicity for z in got] == [k for _, k in want]
        for z, (loc, _) in zip(got, want):
            assert abs(z.location - loc) < 1e-12


class TestLocate:
    def test_simple_and_double(self):
        roots = [0.5, -0.3 + 0.4j, -0.3 + 0.4j]
        coeffs = np.poly(roots)
        q = lambda z: np.polyval(coeffs, z)
        report = locate_zeros(q, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert report.total_count == 3
        assert report.consistent
        assert not report.unresolved
        by_mult = {z.multiplicity: z.location for z in report.zeros}
        assert by_mult[1] == pytest.approx(0.5, abs=1e-9)
        assert by_mult[2] == pytest.approx(-0.3 + 0.4j, abs=1e-9)

    def test_double_zero_on_cut_lines(self):
        # A double zero at the origin sits on both midline cuts of the
        # symmetric box; the subdivision must not split it into two fake
        # simple zeros.
        report = locate_zeros(lambda z: z * z, Rectangle(-2.0, 2.0, -2.0, 2.0), 0.05)
        assert report.total_count == 2
        assert len(report.zeros) == 1
        assert report.zeros[0].multiplicity == 2
        assert abs(report.zeros[0].location) < 1e-8

    def test_near_pair_merges(self):
        q = lambda z: z * z - 1e-8
        report = locate_zeros(q, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.01)
        assert [z.multiplicity for z in report.zeros] == [2]
        assert abs(report.zeros[0].location) < 1e-6

    def test_against_polynomial_roots(self):
        roots = np.array(
            [0.62, -0.71, 0.33 + 0.4j, 0.33 - 0.4j, -0.2 + 0.62j, 0.05 - 0.3j]
        )
        coeffs = np.poly(roots)
        q = lambda z: np.polyval(coeffs, z)
        report = locate_zeros(q, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert report.total_count == 6
        assert not report.unresolved
        located = np.array([z.location for z in report.zeros])
        for r in roots:
            assert np.min(np.abs(located - r)) < 1e-9

    @staticmethod
    def _located(zeros):
        report = locate_zeros(lambda z: np.prod([z - a for a in zeros], axis=0), Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert report.consistent and report.total_count == len(zeros)
        return np.array([z.location for z in report.zeros])

    def test_a_leaf_returns_only_a_converged_centroid(self):
        # b lies 0.039 from a, just outside a's leaf circle; an unconverged centre put both rows near a
        a, b = 0.5079329288862287 + 0.41597767798458163j, 0.5120606390137068 + 0.37715684926926457j
        located = self._located([a, b])
        assert len(located) == 2
        for z in (a, b):
            assert np.min(np.abs(located - z)) < 1e-12

    @pytest.mark.parametrize(
        "zeros",
        [
            [-0.2253051172525437 + 0.5422586920327845j, -0.1850421735102597 + 0.5415231845005019j,
             -0.11744644057334513 + 0.534180323480567j],
            # the leaf box [0, 1/32]^2 holds the first zero in its corner; its centre is nearer the
            # second, outside the box, on which the shrinking leaf circle converges
            [0.0305 + 0.0305j, -0.002 + 0.015625j],
        ],
        ids=["triple", "corner"],
    )
    def test_a_leaf_centroid_lies_in_its_box(self, zeros):
        # a leaf centroid off its box belongs to another box's zeros: no true zero serves two rows
        zeros = np.array(zeros)
        served = [int(np.argmin(np.abs(zeros - z))) for z in self._located(zeros)]
        assert sorted(served) == list(range(len(zeros)))

    def test_seeded_pairs_each_zero_has_its_own_row(self):
        # 300 pairs 0.6 to 2.0 min_separations apart
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            a = complex(*rng.uniform(-0.7, 0.7, 2))
            b = a + rng.uniform(0.6, 2.0) * 0.05 * np.exp(2j * np.pi * rng.uniform())
            located = self._located([a, b])
            worst = max(worst, *(np.min(np.abs(located - z), initial=np.inf) for z in (a, b)))
        assert worst < 1e-12

    @staticmethod
    def _one_row_per_zero(zeros):
        report = locate_zeros(lambda z: np.prod([z - a for a in zeros], axis=0), Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert not report.unresolved
        located = np.array([z.location for z in report.zeros])
        assert len(located) == len(zeros)
        for z in zeros:
            assert np.min(np.abs(located - z)) < 1e-12

    def test_a_pair_that_two_rounds_resolve_between_them(self):
        # 0.69 min_separations apart: the leaf [0, 1/32]^2 holds 0.029+0.029j, and its centre lies as
        # far from the other zero, so its centroid converges only at half the separation
        self._one_row_per_zero([0.029 + 0.029j, -0.003 + 0.0156j])

    def test_a_close_pair_in_two_leaves(self):
        # 0.3 min_separations apart: each leaf refines onto its own zero, but the recount
        # circle of radius 0.6 min_separation holds both, until the separation is a quarter
        self._one_row_per_zero([0.03 + 0.002j, 0.0156 - 0.002j])

    @pytest.mark.parametrize(
        "zeros",
        [
            [0.22798013352351898 - 0.31456765793441893j, 0.23445222249989478 - 0.3069445309984513j],
            # resolved only at min_separation / 8
            [-0.12813751241200189 - 0.6366147285365767j, -0.12337031460044806 - 0.63510680777423j],
        ],
        ids=["fifth", "tenth"],
    )
    def test_a_close_pair_in_two_leaves_at_a_smaller_separation(self, zeros):
        # 0.2 and 0.1 min_separations apart in two leaves: each recount sees both zeros, so each
        # leaf is resolved again at half the separation until it sees its own zero alone
        self._one_row_per_zero(zeros)

    def test_a_pair_below_the_floor_merges_at_another_cut(self):
        # 0.05 min_separations apart: the first cut leaves the zeros in two boxes even at
        # min_separation / 8, and the next offset of the box above puts them in one final box
        a, b = -0.5898623379110592 + 0.1553717023038539j, -0.5895749413799316 + 0.15785512800918428j
        report = locate_zeros(lambda z: (z - a) * (z - b), Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert not report.unresolved
        assert [z.multiplicity for z in report.zeros] == [2]
        assert abs(report.zeros[0].location - (a + b) / 2) < 1e-12

    def test_a_leaf_that_always_fails_costs_a_bounded_number_of_counts(self, monkeypatch):
        # only boxes from 1 to 2 min_separations across retry their cut offsets, so a leaf
        # that never resolves does not make every box above it try all five
        def refuse(*args):
            raise NumericalError("refused")

        counts = []

        def counted(q, rect):
            counts.append(rect)
            assert len(counts) <= 400
            return count_zeros_rectangle(q, rect)

        monkeypatch.setattr(contour, "refine_cluster", refuse)
        monkeypatch.setattr(contour, "count_zeros_rectangle", counted)
        report = locate_zeros(lambda z: z - (0.3 + 0.2j), Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert report.consistent and report.zeros == []
        assert [u.count for u in report.unresolved] == [1]

    def test_empty_region(self):
        report = locate_zeros(lambda z: z - 5.0, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        assert report.total_count == 0
        assert report.zeros == [] and report.unresolved == []

    def test_report_serialization(self):
        report = locate_zeros(lambda z: z - 0.25j, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.05)
        d = report.to_dict()
        assert d["total_count"] == 1
        assert d["zeros"][0]["multiplicity"] == 1
        assert d["zeros"][0]["im"] == pytest.approx(0.25, abs=1e-10)

    def test_min_separation_validation(self):
        with pytest.raises(InputError):
            locate_zeros(np.sin, Rectangle(-1.0, 1.0, -1.0, 1.0), 0.0)


class TestGeometry:
    def test_circle_nodes(self):
        c = Circle(1.0 + 1.0j, 2.0, 16)
        assert len(c.nodes) == 16
        assert c.nodes[0] == pytest.approx(3.0 + 1.0j)
        assert np.allclose(np.abs(c.nodes - c.center), 2.0)

    def test_circle_validation(self):
        with pytest.raises(InputError):
            Circle(0.0, -1.0, 64)
        with pytest.raises(InputError):
            Circle(0.0, 1.0, 8)

    def test_rectangle_split_covers(self):
        r = Rectangle(0.0, 1.0, 0.0, 2.0)
        children = r.split(0.25, 0.75)
        assert len(children) == 4
        assert sum(c.width * c.height for c in children) == pytest.approx(2.0)
        assert children[0].re_max == pytest.approx(0.25)
        assert children[0].im_max == pytest.approx(1.5)

    def test_rectangle_validation(self):
        with pytest.raises(InputError):
            Rectangle(1.0, -1.0, 0.0, 1.0)

    def test_sample_shape_mismatch(self):
        with pytest.raises(InputError):
            SampledFunction(Circle(0.0, 1.0, 32), np.zeros(16, dtype=complex))

    def test_sample_nonfinite(self):
        vals = np.zeros(32, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(InputError):
            SampledFunction(Circle(0.0, 1.0, 32), vals)
