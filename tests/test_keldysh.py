import dataclasses

import numpy as np
import pytest

import kernelbundle.keldysh
from kernelbundle.contour import Circle, SampledFunction
from kernelbundle.errors import InputError, NondegeneracyError, NumericalError
from kernelbundle.family import adjoint_chart
from kernelbundle.keldysh import (
    BETA_CONDITION_LIMIT,
    base_samples,
    dual_root_functions,
    root_functions,
    taylor_coefficients,
    toeplitz,
    verify_canonical_system,
)
from kernelbundle.reduction import SchurEvaluator, base_point_data
from kernelbundle.shell import canonical_systems


def _z(k=1):
    return np.zeros((k, k))


class TestTaylor:
    def test_jordan_reduced_series(self, jordan_pipeline):
        # the reduced family of the Jordan block is exactly -sigma^2
        chart, base, systems, _ = jordan_pipeline
        T = taylor_coefficients(base_samples(SchurEvaluator(chart, base, 0), 256), 5)
        assert len(systems[0].taylor) == 6  # through order 2*multiplicity + 1
        assert T[2][0, 0] == pytest.approx(-1.0, abs=1e-12)
        for p in (0, 1, 3, 4, 5):
            assert abs(T[p][0, 0]) < 1e-11

    def test_branching_reduced_series(self, branching_pipeline):
        chart, base, _, _ = branching_pipeline
        T = taylor_coefficients(base_samples(SchurEvaluator(chart, base, 0), 256), 5)
        assert np.allclose(T[1], np.eye(2), atol=1e-12)
        assert np.max(np.abs(T[0])) < 1e-11
        assert np.max(np.abs(T[2])) < 1e-11

    def test_explicit_order(self, jordan_pipeline):
        chart, base, _, _ = jordan_pipeline
        T = taylor_coefficients(base_samples(SchurEvaluator(chart, base, 0), 256), 3)
        assert len(T) == 4


class TestToeplitz:
    @staticmethod
    def _convolution(series, v):
        """Orders 0..len(v)-1 of the product series, summed term by term."""
        zero = np.zeros(series.shape[1], dtype=complex)
        return np.stack(
            [sum((series[m - i] @ v[i] for i in range(m + 1) if m - i < len(series)), zero) for m in range(len(v))]
        )

    @pytest.mark.parametrize(
        "order, a, b, length",
        [(3, 2, 3, 4), (2, 3, 2, 5), (6, 2, 2, 3), (4, 3, 1, 1)],
        ids=["non_square", "series_shorter_than_length", "series_longer_than_length", "length_one"],
    )
    def test_operator_is_the_product_series(self, order, a, b, length):
        rng = np.random.default_rng(7)
        series = rng.normal(size=(order, a, b)) + 1j * rng.normal(size=(order, a, b))
        v = rng.normal(size=(length, b)) + 1j * rng.normal(size=(length, b))
        T = toeplitz(series, length)
        assert T.shape == (length * a, length * b)
        expect = self._convolution(series, v)
        assert np.allclose((T @ v.ravel()).reshape(length, a), expect, rtol=0, atol=1e-13)


class TestChains:
    def test_mixed_orders(self):
        # diag(-sigma^2, sigma): one chain of length 2 led by e1, one of
        # length 1 led by e2
        T = [_z(2), np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]), _z(2)]
        system = root_functions(T, 3)
        assert system.lengths == [2, 1]
        assert np.allclose(system.chains[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(system.chains[1], [[0.0, 1.0]], atol=1e-12)
        assert np.allclose(system.beta0, [[-1.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_jordan_chain(self, jordan_pipeline):
        _, _, systems, _ = jordan_pipeline
        sy = systems[0]
        assert sy.lengths == [2]
        assert np.allclose(sy.chains[0], [[1.0], [0.0]], atol=1e-10)
        # beta = sigma^{-2} * (-sigma^2) * 1 = -1
        assert sy.beta0[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_branching_chains(self, branching_pipeline):
        _, _, systems, _ = branching_pipeline
        sy = systems[0]
        assert sy.lengths == [1, 1]
        leads = np.stack([c[0] for c in sy.chains], axis=1)
        assert np.allclose(leads.conj().T @ leads, np.eye(2), atol=1e-10)

    def test_truncated_order_still_resolves(self):
        # order two suffices for a single length-2 chain
        system = root_functions([_z(), _z(), -np.eye(1)], 2)
        assert system.lengths == [2]

    def test_multiplicity_mismatch(self):
        T = [_z(2), np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]), _z(2)]
        with pytest.raises(NumericalError):
            root_functions(T, 2)

    def test_nonvanishing_base_rejected(self):
        with pytest.raises(NumericalError):
            root_functions([np.eye(1), np.eye(1), np.eye(1)], 1)

    def test_identically_zero_rejected(self):
        with pytest.raises(NumericalError):
            root_functions([_z(), _z(), _z()], 1)

    def test_insufficient_order(self):
        with pytest.raises(InputError):
            root_functions([_z()], 1)

    def test_psi_eval(self):
        T = [_z(2), np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]), _z(2)]
        system = root_functions(T, 3, center=0.3)
        sig = np.array([0.5, 0.3 + 0.2j])
        vals = system.psi_eval(0, sig)
        expect = system.chains[0][0][None, :] + (sig - 0.3)[:, None] * system.chains[0][1]
        assert np.allclose(vals, expect, atol=1e-14)

    def test_entry_labels(self):
        T = [_z(2), np.diag([0.0, 1.0]), np.diag([-1.0, 0.0]), _z(2)]
        assert root_functions(T, 3).entry_labels() == [(0, 0), (0, 1), (1, 0)]

    def test_beta0_is_the_carrier_mean_of_beta(
        self, sl_big_pipeline, jordan_pipeline, branching_pipeline
    ):
        # beta0 sums the Taylor data of P_s against the chains; beta holds
        # exact values on the carrier, whose mean is the value at the center
        for _, _, systems, duals in (sl_big_pipeline, jordan_pipeline, branching_pipeline):
            for system in list(systems) + list(duals):
                mean = system.beta.values.mean(axis=0)
                scale = np.max(np.abs(system.beta0))
                assert np.max(np.abs(system.beta0 - mean)) <= 1e-12 * scale

    def test_ill_conditioned_beta_basis_rejected(self):
        # two chains of length one with beta0 = T1, of condition about 1.3e8:
        # its smallest singular value, 1.5e-8, is above the rank threshold
        T1 = np.array([[1.0, 1.0], [1.0, 1.0 + 3e-8]])
        assert np.linalg.cond(T1) > BETA_CONDITION_LIMIT
        with pytest.raises(NondegeneracyError, match="well-conditioned"):
            root_functions([_z(2), T1], 2)


class TestDual:
    def test_jordan_dual_chain(self, jordan_pipeline):
        # by hand: the dual chain of the Jordan block at 0 is (-1, 0)
        _, _, _, duals = jordan_pipeline
        du = duals[0]
        assert du.lengths == [2]
        assert np.allclose(du.chains[0], [[-1.0], [0.0]], atol=1e-9)
        assert du.delta_residual < 1e-10
        assert du.center == pytest.approx(0.0, abs=1e-10)

    def test_branching_dual_identity(self, branching_pipeline):
        _, _, systems, duals = branching_pipeline
        sy, du = systems[0], duals[0]
        # with T1 = I the normalization returns the primal leads themselves
        for j in range(2):
            assert np.allclose(du.chains[j], sy.chains[j], atol=1e-9)

    def test_scalar_sl_duals(self, sl_scalar_pipeline):
        _, _, systems, duals = sl_scalar_pipeline
        for sy, du in zip(systems, duals):
            assert du.lengths == sy.lengths == [1]
            assert du.delta_residual < 1e-8

    def test_wrong_primal_rejected(self, jordan_pipeline, branching_pipeline):
        chart_b, base_b, systems_b, _ = branching_pipeline
        _, _, systems_j, _ = jordan_pipeline
        with pytest.raises(NumericalError):
            dual_root_functions(systems_j[0], base_samples(SchurEvaluator(chart_b, base_b, 0), 256))
        with pytest.raises(NumericalError):
            dual_root_functions(systems_b[0], SampledFunction(Circle(0.0, 0.5, 256), np.ones((256, 3, 3))))

    @pytest.mark.parametrize("factor", [1.0, 1e-200])
    def test_samples_of_another_cluster_rejected(self, sl_big_chart, factor):
        # the check reads over the primal's largest Taylor entry, so it fires
        # at any scale of the family
        chart, _ = sl_big_chart
        scaled = dataclasses.replace(chart, evaluator=lambda y, s: factor * chart.evaluator(y, s))
        base = base_point_data(scaled, [0.0])
        systems, _ = canonical_systems(scaled, base)
        samples = base_samples(SchurEvaluator(scaled, base, 1), 256)
        dual_root_functions(systems[1], samples)
        with pytest.raises(NumericalError, match="do not belong"):
            dual_root_functions(systems[0], samples)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_deviating_order_is_named(self, sl_big_pipeline, order):
        # a term eps (zeta - c)^order on the primal samples moves only the
        # dual Taylor coefficient of that order, by eps relative to the scale
        chart, base, systems, _ = sl_big_pipeline
        samples = base_samples(SchurEvaluator(chart, base, 0), 256)
        scale = float(np.max(np.abs(systems[0].taylor)))
        bump = ((samples.circle.nodes - samples.circle.center) ** order)[:, None, None]

        def perturbed(eps):
            return SampledFunction(samples.circle, samples.values + eps * scale * bump)

        dual_root_functions(systems[0], perturbed(1e-10))
        with pytest.raises(NumericalError, match=f"do not belong to the primal system at order {order} "):
            dual_root_functions(systems[0], perturbed(1e-6))

    def test_adjoint_samples_from_primal_samples(
        self, sl_big_pipeline, jordan_pipeline, triangular_pipeline, monkeypatch
    ):
        # reference: the adjoint family evaluated on the conjugate carrier in
        # the swapped bases; the dual system reads the same values off the
        # primal samples
        seen = []
        original = kernelbundle.keldysh.with_beta

        def recording(system, samples):
            seen.append(samples)
            return original(system, samples)

        monkeypatch.setattr(kernelbundle.keldysh, "with_beta", recording)
        for chart, base, systems, _ in (sl_big_pipeline, jordan_pipeline, triangular_pipeline):
            for s, system in enumerate(systems):
                seen.clear()
                dual_root_functions(system, base_samples(SchurEvaluator(chart, base, s), 256))
                ref = base_samples(SchurEvaluator(adjoint_chart(chart), base.conjugate_swapped(), s), 256)
                (got,) = seen
                assert got.circle == ref.circle
                scale = float(np.max(np.abs(ref.values)))
                assert np.max(np.abs(got.values - ref.values)) < 1e-12 * scale


class TestVerification:
    def test_jordan_diagnostics(self, jordan_pipeline):
        chart, base, systems, duals = jordan_pipeline
        ev = SchurEvaluator(chart, base, 0)
        out = verify_canonical_system(ev, systems[0], duals[0])
        assert out["membership_residual"] < 1e-10
        assert out["length_sum"] == 2
        assert out["determinant_count"] == 2
        assert out["counts_match"]
        assert out["ratio_winding"] == 0
        assert out["lead_condition"] < 10.0
        assert out["beta_condition"] < 1e8
        assert out["dual_delta_residual"] < 1e-10
        assert out["dual_lengths_match"]

    def test_sl_big_diagnostics(self, sl_big_pipeline):
        chart, base, systems, duals = sl_big_pipeline
        for s in range(len(base.clusters)):
            ev = SchurEvaluator(chart, base, s)
            out = verify_canonical_system(ev, systems[s], duals[s])
            assert out["membership_residual"] < 1e-8
            assert out["counts_match"]
            assert out["ratio_winding"] == 0
