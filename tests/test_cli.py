import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernelbundle
from kernelbundle.cli import EXIT_NUMERICAL, EXIT_PARSE, EXIT_VALIDATION, main
from kernelbundle.shell import load_problem_file

# ||a(y)|| = 0.25 + 0.1 y reaches r_bound = 0.4 at y = 1.5
SL_FAMILY = {
    "kind": "sturm_liouville", "r": 1, "mode_cutoff": 4, "k_gap": 1, "r_bound": 0.4,
    "a_terms": [{"y_powers": [0], "matrix": [[0.25]]}, {"y_powers": [1], "matrix": [[0.1]]}],
}

STRIP_FAMILY = {
    "kind": "matrix_polynomial", "sigma": {"kind": "strip", "im_half_width": 1.5},
    "terms": [{"sigma_power": 2, "matrix": [[1]]}, {"matrix": [[1.25]]}],
}

CLOSE_ZEROS_FAMILY = {
    "kind": "matrix_polynomial", "sigma": {"kind": "rectangle", "re": [-1, 1], "im": [-1, 1]},
    "terms": [{"sigma_power": 2, "matrix": [[1]]}, {"matrix": [[-0.01]]}],
}

# sigma^2 - 0.01 + 0.1 y_1 + 0.05 y_2
TWO_PARAMETER_FAMILY = dict(
    CLOSE_ZEROS_FAMILY,
    param_dim=2,
    terms=[
        {"sigma_power": 2, "y_powers": [0, 0], "matrix": [[1]]},
        {"y_powers": [0, 0], "matrix": [[-0.01]]},
        {"y_powers": [1, 0], "matrix": [[0.1]]},
        {"y_powers": [0, 1], "matrix": [[0.05]]},
    ],
)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    files = {
        "branching": {
            "family": {"kind": "branching"},
            "grid": {"axes": [{"min": -0.2, "max": 0.2, "count": 5}]},
            "probe": [
                {"entry": 0, "coeff": {"type": "poly", "coeffs": [1, 0, 1]}},
                {"entry": 1, "coeff": {"type": "sin"}},
            ],
        },
        "jordan": {"family": {"kind": "jordan"}},
        "indicial": {"family": {"kind": "indicial", "m": 2}},
        "oversized": {
            "family": {"kind": "branching"},
            "base_point": {"y0": [0.0], "epsilon": 1.9},
        },
    }
    out = {}
    for name, spec in files.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(spec))
        out[name] = str(path)
    return out


class TestSubcommands:
    def test_locate(self, specs, tmp_path):
        out = tmp_path / "locate.json"
        assert main(["locate", "--spec", specs["branching"], "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["zeros"]) == 1
        z = data["zeros"][0]
        assert z["multiplicity"] == 2
        assert abs(complex(z["re"], z["im"])) < 1e-8

    def test_indicial_order_takes_effect(self, tmp_path):
        # m = 3: exactly the simple zeros 0, -i and -2i, in a region that
        # reaches 0.6 past them on either side
        path, out = tmp_path / "indicial3.json", tmp_path / "locate.json"
        path.write_text(json.dumps({"family": {"kind": "indicial", "m": 3}}))
        assert main(["locate", "--spec", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["region"][2:] == [-2.6, 0.6]
        assert [z["multiplicity"] for z in data["zeros"]] == [1, 1, 1]
        zeros = sorted((complex(z["re"], z["im"]) for z in data["zeros"]), key=lambda z: -z.imag)
        assert np.allclose(zeros, [0.0, -1j, -2j], rtol=0, atol=1e-8)

    def test_integral_float_is_an_integer(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"family": {"kind": "indicial", "m": 3.0}}))
        assert load_problem_file(path).chart.n == 1

    def test_locate_stdout(self, specs, capsys):
        assert main(["locate", "--spec", specs["jordan"]]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["zeros"][0]["multiplicity"] == 2

    @pytest.mark.parametrize(
        "family, windowed",
        [
            (SL_FAMILY, dict(SL_FAMILY, re_window=[-0.5, 0.5])),
            (STRIP_FAMILY, dict(STRIP_FAMILY, sigma=dict(STRIP_FAMILY["sigma"], re=[-0.5, 0.5]))),
        ],
        ids=["re_window", "strip_re"],
    )
    def test_real_window_sets_the_locate_region(self, family, windowed, tmp_path):
        # the real window bounds the search rectangle; both find the zeros
        # +/- i sqrt(1.25) on the imaginary axis
        for fam, window in ((family, [-1.0, 1.0]), (windowed, [-0.5, 0.5])):
            path = tmp_path / "problem.json"
            path.write_text(json.dumps({"family": fam}))
            rect = load_problem_file(path).chart.sigma.search_rect
            assert [rect.re_min, rect.re_max] == window
            out = tmp_path / "locate.json"
            assert main(["locate", "--spec", str(path), "--out", str(out)]) == 0
            data = json.loads(out.read_text())
            assert data["region"] == [rect.re_min, rect.re_max, rect.im_min, rect.im_max]
            zeros = sorted(data["zeros"], key=lambda z: z["im"])
            assert [z["multiplicity"] for z in zeros] == [1, 1]
            for z, im in zip(zeros, (-np.sqrt(1.25), np.sqrt(1.25))):
                assert abs(complex(z["re"], z["im"]) - 1j * im) < 1e-8

    @pytest.mark.parametrize("half_width", [1.25, 1.5])
    def test_strip_half_width_sets_the_locate_region(self, half_width, tmp_path):
        family = dict(STRIP_FAMILY, sigma=dict(STRIP_FAMILY["sigma"], im_half_width=half_width))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"family": family}))
        out = tmp_path / "locate.json"
        assert main(["locate", "--spec", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["region"] == [-1.0, 1.0, -half_width, half_width]
        assert [z["multiplicity"] for z in data["zeros"]] == [1, 1]

    @pytest.mark.parametrize("min_separation, multiplicities", [(None, [1, 1]), (1.5, [2])])
    def test_min_separation_merges_close_zeros(self, min_separation, multiplicities, tmp_path):
        # sigma^2 - 0.01: simple zeros at +/- 0.1, one double zero at the
        # resolution 1.5
        spec = {"family": CLOSE_ZEROS_FAMILY}
        if min_separation is not None:
            spec["min_separation"] = min_separation
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "locate.json"
        assert main(["locate", "--spec", str(path), "--out", str(out)]) == 0
        zeros = json.loads(out.read_text())["zeros"]
        assert [z["multiplicity"] for z in zeros] == multiplicities
        centers = [-0.1, 0.1] if len(zeros) == 2 else [0.0]
        for z, c in zip(zeros, centers):
            assert abs(complex(z["re"], z["im"]) - c) < 1e-8

    @pytest.mark.parametrize("epsilon", [None, 0.3, 0.45])
    def test_base_point_epsilon_sets_the_cluster_radius(self, epsilon, tmp_path):
        spec = {"family": {"kind": "branching"}}
        if epsilon is not None:
            spec["base_point"] = {"y0": [0.0], "epsilon": epsilon}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--spec", str(path), "--out", str(out)]) == 0
        (cluster,) = json.loads(out.read_text())["base"]["clusters"]
        if epsilon is None:
            # chosen from the separations: neither value below
            epsilon = kernelbundle.base_point_data(kernelbundle.branching_chart(), [0.0]).clusters[0].radius
            assert epsilon not in (0.3, 0.45)
        assert cluster["epsilon"] == epsilon

    def test_reduce_builds_systems_on_twice_the_nodes(self, specs, tmp_path, monkeypatch):
        built = []
        original = kernelbundle.cli.canonical_systems

        def recording(chart, base, node_count=256):
            systems, duals = original(chart, base, node_count)
            built.extend(sy.beta.circle.node_count for sy in systems + duals)
            return systems, duals

        monkeypatch.setattr(kernelbundle.cli, "canonical_systems", recording)
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--spec", specs["branching"], "--nodes", "64", "--out", str(out)]) == 0
        assert built == [128, 128]

    def test_reduce(self, specs, tmp_path):
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--spec", specs["branching"], "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["validation"]["passed"] is True
        assert data["lengths"] == [[1, 1]]
        assert data["dual_delta_residual"] < 1e-8
        assert data["base"]["clusters"][0]["multiplicity"] == 2

    def test_frame(self, specs, tmp_path):
        out = tmp_path / "frame.json"
        code = main(["frame", "--spec", specs["branching"], "--out", str(out), "--y", "0.1"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["y"] == [0.1]
        assert data["labels"] == [[0, 0, 0], [0, 1, 0]]
        assert 1.0 <= data["independence_condition"] < 1e3
        assert len(data["carriers"]) == 2
        assert data["carriers"][0]["radius"] > 0

    def test_pair_reports_base_pattern(self, specs, tmp_path):
        out = tmp_path / "pair.json"
        assert main(["pair", "--spec", specs["branching"], "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["base_pattern_gap"] < 1e-8
        m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        assert np.allclose(m, 1j * np.eye(2), atol=1e-8)

    def test_pair_off_base_has_no_gap_field(self, specs, tmp_path):
        out = tmp_path / "pair.json"
        code = main(["pair", "--spec", specs["branching"], "--out", str(out), "--y", "0.15"])
        assert code == 0
        data = json.loads(out.read_text())
        assert "base_pattern_gap" not in data
        assert data["condition"] < 1e3

    def test_sweep(self, specs, tmp_path):
        out = tmp_path / "sweep.json"
        csv = tmp_path / "diagram.csv"
        code = main(
            ["sweep", "--spec", specs["branching"], "--out", str(out), "--csv", str(csv)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 5
        assert data["failures"] == []
        assert data["coefficient_dd"][0] == pytest.approx(1.0, rel=1e-6)
        for pt in data["points"]:
            assert pt["probe_error"] < 1e-8
        lines = csv.read_text().splitlines()
        assert lines[0] == "y,cluster,re_sigma,im_sigma,mult"
        assert len(lines) == 10

    def test_sweep_deterministic_output(self, specs, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["sweep", "--spec", specs["branching"], "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace(self, specs, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            ["trace", "--spec", specs["indicial"], "--gamma", "1.5",
             "--window", "2.0", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["terms"]) == 2
        t0, t1 = data["terms"]
        assert t0["sigma"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert t0["coeff"] == pytest.approx([1.0, 0.0], abs=1e-8)
        assert t0["log_power"] == 0
        assert t1["sigma"] == pytest.approx([0.0, -1.0], abs=1e-9)
        assert t1["coeff"] == pytest.approx([-1.0, 0.0], abs=1e-8)


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["locate", "--spec", str(tmp_path / "nope.json")])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["locate", "--spec", str(bad)]) == EXIT_PARSE

    def test_unknown_family_kind(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": {"kind": "mystery"}}))
        assert main(["locate", "--spec", str(bad)]) == EXIT_PARSE

    def test_missing_required_key(self, tmp_path, capsys):
        family = {"kind": "sturm_liouville", "r": 1, "k_gap": 1, "r_bound": 0.4}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": family}))
        assert main(["reduce", "--spec", str(bad)]) == EXIT_PARSE
        assert "needs keys: 'mode_cutoff'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"family": {"kind": "branching"}, "grid": {"axes": 5}},
            {"family": {"kind": "branching"}, "grid": {"axes": [{"min": "a", "max": 1, "count": 3}]}},
            {"family": {"kind": "sturm_liouville", "r": "two", "mode_cutoff": 4, "k_gap": 1, "r_bound": 0.4}},
            {"family": {"kind": "branching"}, "base_point": {"y0": "x"}},
            {"family": {"kind": "branching"}, "min_separation": "abc"},
            {"family": dict(STRIP_FAMILY, sigma={"kind": "rectangle", "re": [-1], "im": [-1, 1]})},
            {"family": dict(STRIP_FAMILY, sigma={"kind": "rectangle", "re": [-1, 1, 9], "im": [-1, 1]})},
            {"family": dict(STRIP_FAMILY, sigma={"kind": "rectangle", "re": [-1, 1], "im": [-1, 1, 9]})},
            {"family": dict(STRIP_FAMILY, sigma=dict(STRIP_FAMILY["sigma"], re=[-1, 1, 9]))},
            {"family": dict(SL_FAMILY, re_window=[0.5])},
            {"family": dict(SL_FAMILY, re_window=[-0.5, 0.5, 9])},
            # integer fields take integral numbers only: no fraction, bool or string
            {"family": {"kind": "indicial", "m": 2.9}},
            {"family": dict(SL_FAMILY, r=1.5)},
            {"family": dict(SL_FAMILY, mode_cutoff="4")},
            {"family": dict(SL_FAMILY, k_gap=True)},
            {"family": dict(STRIP_FAMILY, param_dim=1.5)},
            {"family": dict(STRIP_FAMILY, terms=[{"sigma_power": 2.5, "matrix": [[1]]}])},
            {"family": dict(STRIP_FAMILY, terms=[{"y_powers": ["0"], "matrix": [[1]]}])},
            {"family": {"kind": "branching"}, "grid": {"axes": [{"min": -0.1, "max": 0.1, "count": 3.9}]}},
            {"family": {"kind": "branching"}, "probe": [{"entry": 0.5, "coeff": {"type": "sin"}}]},
        ],
        ids=[
            "axes", "axis_min", "sl_r", "y0", "min_separation", "rect_re_short",
            "rect_re_long", "rect_im_long", "strip_re_long", "re_window_short", "re_window_long",
            "indicial_m", "sl_r_fraction", "mode_cutoff_string", "k_gap_bool", "param_dim",
            "sigma_power", "y_powers_entry", "axis_count", "probe_entry",
        ],
    )
    def test_value_of_wrong_type(self, spec, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["reduce", "--spec", str(bad)]) == EXIT_PARSE
        assert "problem file value of the wrong type" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["locate"],
            ["reduce"],
            ["frame"],
            ["pair"],
            ["sweep"],
            ["trace", "--gamma", "1.5", "--window", "2.0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_too_few_nodes(self, specs, capsys, argv, tmp_path):
        spec = specs["indicial"] if argv[0] == "trace" else specs["branching"]
        out = tmp_path / "out.json"
        assert main(argv + ["--spec", spec, "--nodes", "8", "--out", str(out)]) == EXIT_PARSE
        assert "--nodes must be at least 16, got 8" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_needs_a_one_parameter_grid(self, tmp_path, capsys, monkeypatch):
        # refused before any work: the base point is never computed
        def unreachable(problem):
            raise AssertionError("base point computed")

        monkeypatch.setattr(kernelbundle.shell.Problem, "base", unreachable)
        path = tmp_path / "two.json"
        axis = {"min": -0.1, "max": 0.1, "count": 3}
        path.write_text(json.dumps({"family": TWO_PARAMETER_FAMILY, "grid": {"axes": [axis, axis]}}))
        out, csv = tmp_path / "sweep.json", tmp_path / "diagram.csv"
        assert main(["sweep", "--spec", str(path), "--out", str(out), "--csv", str(csv)]) == EXIT_PARSE
        assert "branching diagrams are defined along a single parameter axis" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_wrong_y_arity(self, specs, capsys):
        code = main(["frame", "--spec", specs["branching"], "--y", "0.1,0.2"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--grid", "a,b"],
            ["sweep", "--grid", "0,0.1,1.5"],
            ["pair", "--y", "abc"],
        ],
        ids=["grid_arity", "grid_count", "y_number"],
    )
    def test_malformed_option(self, specs, capsys, argv):
        assert main(argv + ["--spec", specs["branching"]]) == EXIT_PARSE
        assert f"{argv[1]} needs" in capsys.readouterr().err

    def test_grid_of_wrong_dimension(self, specs, capsys):
        code = main(["sweep", "--spec", specs["branching"], "--grid", "0,0.1,3;0,0.1,3"])
        assert code == EXIT_PARSE
        assert "grid has 2 axes, the family 1 parameters" in capsys.readouterr().err

    def test_trace_needs_scalar_family(self, specs, capsys):
        code = main(
            ["trace", "--spec", specs["branching"], "--gamma", "1.0", "--window", "2.0"]
        )
        assert code == EXIT_PARSE

    def test_sweep_needs_some_grid(self, specs, capsys):
        assert main(["sweep", "--spec", specs["jordan"]]) == EXIT_PARSE

    def test_oversized_disc_fails_validation(self, specs, capsys):
        code = main(["reduce", "--spec", specs["oversized"]])
        assert code == EXIT_VALIDATION
        assert "validation failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, base_point, grid",
        [
            (["locate"], {"y0": [2.0]}, None),
            (["reduce"], {"y0": [0.0]}, {"axes": [{"min": 0.0, "max": 2.0, "count": 3}]}),
            (["sweep", "--grid", "0,2,3"], {"y0": [0.0]}, None),
            (["frame", "--y", "2"], {"y0": [0.0]}, None),
        ],
        ids=["y0", "file_grid", "grid_option", "y_option"],
    )
    def test_r_bound_checked_where_sampled(self, argv, base_point, grid, tmp_path, capsys):
        spec = {"family": SL_FAMILY, "base_point": base_point}
        if grid is not None:
            spec["grid"] = grid
        path = tmp_path / "sl.json"
        path.write_text(json.dumps(spec))
        assert main(argv + ["--spec", str(path)]) == EXIT_VALIDATION
        assert "reaches the declared bound 0.4 at y = [2.]" in capsys.readouterr().err

    def test_r_bound_holds(self, tmp_path):
        path = tmp_path / "sl.json"
        path.write_text(json.dumps({"family": SL_FAMILY, "base_point": {"y0": [1.0]}}))
        assert main(["locate", "--spec", str(path), "--out", str(tmp_path / "out.json")]) == 0

    def test_multiplicity_jump(self, specs, capsys):
        code = main(
            ["sweep", "--spec", specs["branching"], "--grid", "1.15,1.25,2"]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


def _console_command():
    """The `kernelbundle` command: the installed script if one is on PATH,
    else the entry point `pyproject.toml` declares, run in a fresh
    interpreter the way pip's generated wrapper runs it."""
    installed = shutil.which("kernelbundle")
    if installed:
        return [installed], None
    tomllib = pytest.importorskip("tomllib")
    package_dir = Path(kernelbundle.__file__).parent
    with open(package_dir.parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kernelbundle"]
    module, attr = target.split(":")
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'kernelbundle'; sys.exit({attr}())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_dir.parent), env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-c", code], env


def test_console_script(specs, tmp_path):
    command, env = _console_command()
    out = tmp_path / "locate.json"
    proc = subprocess.run(
        [*command, "locate", "--spec", specs["branching"], "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["zeros"][0]["multiplicity"] == 2
