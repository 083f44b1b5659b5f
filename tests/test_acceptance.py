"""End-to-end acceptance checks.

Each test covers one guarantee of the package against an independent closed
form, prints a single PASS/FAIL verdict line, and then asserts.  Run with
``pytest tests/test_acceptance.py -v`` (the verdict lines bypass capture).
"""

import time

import numpy as np
import pytest

import kernelbundle as kb
from kernelbundle.contour import Circle, Rectangle, count_zeros, locate_zeros
from kernelbundle.family import (
    SturmLiouvilleSpec,
    branching_chart,
    indicial_chart,
    jordan_chart,
    sl_chart,
)
from kernelbundle.frames import (
    dual_frame_at,
    fullframe_at,
    laurent_coefficients,
    make_germ,
)
from kernelbundle.pairing import pairing_matrix, reduced_pairing_matrix
from kernelbundle.reduction import SchurEvaluator, local_multiplicity
from kernelbundle.shell import (
    ParameterGrid,
    canonical_systems,
    germ_from_trace,
    numeric_trace_samples,
    sweep,
    trace_from_germ,
)

STRIP = np.sqrt(2.5)


def _verdict(capsys, num: int, name: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy artifacts


@pytest.fixture(scope="module")
def mu_pipeline():
    """Dirichlet family with constant potential mu = 0.25, one channel."""
    spec = SturmLiouvilleSpec(
        r=1, a_eval=lambda y: [[0.25]], mode_cutoff=4, k_gap=1, r_bound=0.4
    )
    t0 = time.perf_counter()
    chart = sl_chart(spec)
    base = kb.base_point_data(chart, [0.0])
    elapsed = time.perf_counter() - t0
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals, elapsed


@pytest.fixture(scope="module")
def mu_sweep(mu_pipeline):
    chart, base, systems, duals, _ = mu_pipeline
    grid = ParameterGrid.from_ranges([(-1.0, 1.0, 21)])
    return sweep(chart, base, grid, systems=systems, duals=duals)


@pytest.fixture(scope="module")
def branching_half():
    """Branching family with the half-radius cluster discs."""
    chart = branching_chart()
    base = kb.base_point_data(chart, [0.0], epsilon=0.5)
    systems, duals = canonical_systems(chart, base)
    return chart, base, systems, duals


@pytest.fixture(scope="module")
def branching_sweep(branching_half):
    chart, base, systems, duals = branching_half

    def probe(y):
        t = float(y[0])
        return np.array([1.0 + t * t, np.sin(t)])

    grid = ParameterGrid.from_ranges([(-0.2, 0.2, 101)])
    return sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)


# ---------------------------------------------------------------------------
# the criteria


def test_01_spectrum_oracle(mu_pipeline, capsys):
    """Singular points of the constant-potential channel sit at +-i sqrt(1.25)."""
    _, base, _, _, elapsed = mu_pipeline
    expected = {1j * np.sqrt(1.25), -1j * np.sqrt(1.25)}
    centers = [cl.center for cl in base.clusters]
    dev = max(min(abs(c - e) for e in expected) for c in centers)
    ok = (
        len(centers) == 2
        and all(cl.multiplicity == 1 for cl in base.clusters)
        and dev < 1e-8
        and elapsed < 5.0
    )
    _verdict(capsys, 1, "spectrum oracle", ok, f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_02_strip_safety(capsys):
    """With the potential bounded by 0.4 no singular point approaches the strip edge."""
    spec = SturmLiouvilleSpec(
        r=1, a_eval=lambda y: [[0.25 + 0.1 * y[0]]], mode_cutoff=4, k_gap=1, r_bound=0.4
    )
    chart = sl_chart(spec)
    # search beyond the strip so an escaping point could not hide; the pad
    # stays below the next channel at |im| ~ 2.06
    rect = Rectangle(-1.0, 1.0, -(STRIP + 0.4), STRIP + 0.4)
    margin = np.inf
    for y in np.linspace(-1.0, 1.0, 21):

        def det(sig, y=y):
            arr = np.atleast_1d(np.asarray(sig, dtype=complex))
            vals = np.linalg.det(chart.eval_many([y], arr, check=False))
            return vals if np.ndim(sig) else vals[0]

        report = locate_zeros(det, rect, min_separation=0.05)
        assert report.zeros, f"no singular points found at y={y}"
        for z in report.zeros:
            margin = min(margin, STRIP - abs(z.location.imag))
    ok = margin >= 0.05
    _verdict(capsys, 2, "strip safety", ok, f"min edge distance {margin:.3f}")


def test_03_multiplicity_constancy(branching_half, capsys):
    """The local dimension stays 2 through the branch point, by three routes."""
    chart, base, systems, _ = branching_half
    cl = base.clusters[0]
    ev = SchurEvaluator(chart, base, 0)
    from_lengths = sum(sum(sy.lengths) for sy in systems)

    def det(sig, y=None):
        arr = np.atleast_1d(np.asarray(sig, dtype=complex))
        return np.linalg.det(chart.eval_many(y, arr, check=False))

    bad = []
    ys = np.linspace(-0.2, 0.2, 101)
    for y in ys:
        via_schur = local_multiplicity(ev, [y])
        via_det = count_zeros(
            lambda s: det(s, y=[y]), Circle(cl.center, cl.radius, 128)
        )
        if not (via_schur == via_det == from_lengths == 2):
            bad.append((y, via_schur, via_det, from_lengths))
    ok = not bad
    _verdict(
        capsys, 3, "multiplicity constancy", ok,
        f"d=2 by all three routes at {len(ys)} points" if ok else f"mismatches {bad[:3]}",
    )


def test_04_base_point_pairing(jordan_pipeline, branching_pipeline, capsys):
    """The pairing at the base point matches the closed-form block pattern."""
    devs = {}
    for name, pipeline, expected in [
        ("jordan", jordan_pipeline, np.array([[0.0, 1j], [1j, 0.0]])),
        ("branching", branching_pipeline, 1j * np.eye(2)),
    ]:
        chart, base, systems, duals = pipeline
        y0 = np.zeros(chart.param_dim)
        frame = fullframe_at(chart, base, systems, y0)
        dual = dual_frame_at(chart, base, duals, y0)
        pm = pairing_matrix(chart, frame, dual, base, y0)
        devs[name] = float(np.max(np.abs(pm.matrix - expected)))
    ok = all(d < 1e-8 for d in devs.values())
    _verdict(
        capsys, 4, "base point pairing", ok,
        ", ".join(f"{k} dev {v:.2e}" for k, v in devs.items()),
    )


def test_05_nondegeneracy(mu_sweep, branching_sweep, capsys):
    """Pairing matrices stay far from singular across both sweeps."""
    conds = [p.pairing_condition for p in mu_sweep.points]
    conds += [p.pairing_condition for p in branching_sweep.points]
    worst = max(conds)
    ok = (
        not mu_sweep.failures
        and not branching_sweep.failures
        and worst < 1e8
    )
    _verdict(
        capsys, 5, "pairing nondegeneracy", ok,
        f"worst condition {worst:.2e} over {len(conds)} points",
    )


def test_06_transition_smoothness(branching_sweep, capsys):
    """Probe coefficients are recovered pointwise and stay smooth through y=0."""
    ys = [p.y[0] for p in branching_sweep.points]
    assert 0.0 in ys  # the branch point itself is on the grid
    worst = max(p.probe_error for p in branching_sweep.points)
    dd = branching_sweep.coefficient_dd
    # second divided differences of (1 + y^2, sin y): exactly 1, sin(0.2)/2
    bounds = [10.0 * 1.0, 10.0 * np.sin(0.2) / 2.0]
    ok = (
        not branching_sweep.failures
        and worst < 1e-6
        and dd[0] <= bounds[0]
        and dd[1] <= bounds[1]
    )
    _verdict(
        capsys, 6, "transition smoothness", ok,
        f"max coeff error {worst:.2e}, dd {dd[0]:.3f}/{dd[1]:.4f} vs bounds 10/{bounds[1]:.4f}",
    )


def test_07_singular_part_corpus(capsys):
    """Random rational functions round-trip through extraction and recovery."""
    rng = np.random.default_rng(20250825)
    worst_eval = 0.0
    worst_laurent = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        n_poles = int(rng.integers(1, 4))
        while True:
            locs = 0.65 * (rng.uniform(-1, 1, n_poles) + 1j * rng.uniform(-1, 1, n_poles))
            if n_poles == 1 or np.min(
                np.abs(locs[:, None] - locs[None, :])[~np.eye(n_poles, dtype=bool)]
            ) >= 0.15:
                break
        orders = rng.integers(1, 4, n_poles)
        coeffs = [
            rng.normal(size=(m, d * d)) + 1j * rng.normal(size=(m, d * d))
            for m in orders
        ]
        poly = rng.normal(size=(2, d * d)) + 1j * rng.normal(size=(2, d * d))

        def f(z, locs=locs, orders=orders, coeffs=coeffs, poly=poly):
            z = np.asarray(z, dtype=complex)[..., None]
            out = poly[0] + z * poly[1]
            for a, m, c in zip(locs, orders, coeffs):
                for p in range(1, m + 1):
                    out = out + c[p - 1] / (z - a) ** p
            return out

        def singular(z, locs=locs, orders=orders, coeffs=coeffs):
            z = np.asarray(z, dtype=complex)[..., None]
            out = np.zeros(z.shape[:-1] + (coeffs[0].shape[1],), dtype=complex)
            for a, m, c in zip(locs, orders, coeffs):
                for p in range(1, m + 1):
                    out = out + c[p - 1] / (z - a) ** p
            return out

        germ = make_germ(f, 0.0, 1.0, node_count=128)
        probes = np.concatenate(
            [1.4 * np.exp(2j * np.pi * np.arange(8) / 8), [2.1, -1.9 + 1.3j]]
        )
        worst_eval = max(
            worst_eval, float(np.max(np.abs(germ.eval(probes) - singular(probes))))
        )
        recovered = laurent_coefficients(germ, list(zip(locs, (int(m) for m in orders))))
        for pole, c in zip(recovered, coeffs):
            worst_laurent = max(
                worst_laurent, float(np.max(np.abs(pole.coefficients - c)))
            )
    ok = worst_eval < 1e-8 and worst_laurent < 1e-8
    _verdict(
        capsys, 7, "singular part corpus", ok,
        f"20 cases, eval dev {worst_eval:.2e}, partial-fraction dev {worst_laurent:.2e}",
    )


def test_08_trace_correspondence(capsys):
    """Trace terms of the order-2 indicial family sit exactly at 0 and -i."""
    chart = indicial_chart(2)
    base = kb.base_point_data(chart, [0.0])

    def inv_trace(sig):
        # check=False: the round-trip probes circle outside the chart window
        arr = np.atleast_1d(np.asarray(sig, dtype=complex))
        vals = np.trace(
            np.linalg.inv(chart.eval_many([0.0], arr, check=False)), axis1=1, axis2=2
        )
        return vals[:, None] if np.ndim(sig) else vals[0]

    pieces = []
    for cl in base.clusters:
        germ = make_germ(inv_trace, cl.center, 0.75 * cl.radius)
        pieces.append(
            trace_from_germ(germ, [(cl.center, cl.multiplicity)], gamma=1.5, window=2.0)
        )
    terms = sorted(
        (t for piece in pieces for t in piece.terms), key=lambda t: -t.sigma.imag
    )
    sigmas_ok = (
        len(terms) == 2
        and abs(terms[0].sigma) < 1e-9
        and abs(terms[1].sigma + 1j) < 1e-9
        and all(t.power == 0 for t in terms)  # simple roots carry no log factors
    )
    gap = max(piece.symbolic_numeric_gap for piece in pieces)

    # round trip: rebuild the germ from the merged expansion on a carrier
    # holding both exponents
    merged = kb.TraceExpansion(gamma=1.5, window=2.0, terms=terms)
    rebuilt = germ_from_trace(merged, -0.5j, 0.75)
    probes = -0.5j + 1.2 * np.exp(2j * np.pi * np.arange(7) / 7)
    round_trip = float(
        np.max(np.abs(rebuilt.eval(probes)[:, 0] - inv_trace(probes)[:, 0]))
    )

    x = np.geomspace(1e-2, 1.0, 9)
    direct = sum(numeric_trace_samples(make_germ(inv_trace, cl.center,
                 0.75 * cl.radius), x) for cl in base.clusters)
    numeric_gap = float(np.max(np.abs(direct - (1.0 - x))))

    ok = sigmas_ok and round_trip < 1e-10 and gap < 1e-8 and numeric_gap < 1e-8
    _verdict(
        capsys, 8, "trace correspondence", ok,
        f"exponents at 0 and -i, round trip {round_trip:.2e}, numeric gap {numeric_gap:.2e}",
    )


def test_09_reduced_pairing_equality(jordan_pipeline, branching_pipeline, capsys):
    """The pairing computed inside the reduced families equals the full one."""
    worst = 0.0
    for pipeline in (jordan_pipeline, branching_pipeline):
        chart, base, systems, duals = pipeline
        for yv in (0.0, -0.1, 0.1):
            y = [yv]
            frame = fullframe_at(chart, base, systems, y)
            dual = dual_frame_at(chart, base, duals, y)
            full = pairing_matrix(chart, frame, dual, base, y)
            red = reduced_pairing_matrix(chart, base, systems, duals, y)
            assert full.labels == red.labels
            worst = max(worst, float(np.max(np.abs(full.matrix - red.matrix))))
    ok = worst < 1e-8
    _verdict(capsys, 9, "reduced pairing equality", ok, f"max entry gap {worst:.2e}")


def test_10_desk_scale_performance(sl_big_pipeline, capsys):
    """A two-channel sweep at fiber dimension 8 finishes within the budget."""
    chart, base, systems, duals = sl_big_pipeline
    assert chart.n == 8
    # the default cluster discs have radius 0.02; on this range the points
    # drift by about 0.002, staying well inside their inner half-discs
    grid = ParameterGrid.from_ranges([(-0.1, 0.1, 101)])

    def probe(y):
        t = float(y[0])
        return np.array([1.0 + t * t, np.sin(t), np.cos(t), 1.0 - t])

    t0 = time.perf_counter()
    report = sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
    elapsed = time.perf_counter() - t0
    ok = not report.failures and len(report.points) == 101 and elapsed < 60.0
    _verdict(
        capsys, 10, "desk scale performance", ok,
        f"101 points, n=8, {elapsed:.1f}s < 60s",
    )
