import dataclasses

import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle.family import SturmLiouvilleSpec, sl_chart
from kernelbundle.shell import canonical_systems


@pytest.fixture(scope="session")
def jordan_pipeline():
    chart = kb.jordan_chart()
    base = kb.base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture(scope="session")
def branching_pipeline():
    chart = kb.branching_chart()
    base = kb.base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture(scope="session")
def sl_scalar_chart():
    """Scalar Dirichlet family with a(y) = 0.25 + 0.1 y, modes 1..4."""
    spec = SturmLiouvilleSpec(
        r=1,
        a_eval=lambda y: np.array([[0.25 + 0.1 * y[0]]]),
        mode_cutoff=4,
        k_gap=1,
        r_bound=0.4,
    )
    return sl_chart(spec), spec


@pytest.fixture(scope="session")
def sl_scalar_pipeline(sl_scalar_chart):
    chart, spec = sl_scalar_chart
    base = kb.base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture(scope="session")
def sl_big_chart():
    """Coupled two-channel Dirichlet family, eight retained components."""
    spec = SturmLiouvilleSpec(
        r=2,
        a_eval=lambda y: np.array([[0.3 * y[0], 0.1], [0.1, -0.3 * y[0]]]),
        mode_cutoff=4,
        k_gap=1,
        r_bound=0.4,
    )
    return sl_chart(spec), spec


@pytest.fixture(scope="session")
def sl_big_pipeline(sl_big_chart):
    chart, spec = sl_big_chart
    base = kb.base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture(scope="session")
def triangular_pipeline():
    """diag(-sigma^2, sigma) as a matrix polynomial; lengths {2, 1} at 0."""
    terms = [
        kb.family.PolyTerm(2, (0,), np.diag([-1.0, 0.0])),
        kb.family.PolyTerm(1, (0,), np.diag([0.0, 1.0])),
    ]
    region = kb.SigmaRegion(-2.0, 2.0, -2.0, 2.0)
    chart = kb.matrix_polynomial_chart(terms, region, param_dim=1, name="mixed_orders")
    base = kb.base_point_data(chart, [0.0])
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture
def counting_chart():
    """Wrap a chart so that every evaluator call records its parameter."""

    def wrap(chart):
        calls = []

        def evaluator(y, sigmas):
            calls.append(tuple(np.asarray(y, dtype=float).tolist()))
            return chart.evaluator(y, sigmas)

        return dataclasses.replace(chart, evaluator=evaluator), calls

    return wrap
