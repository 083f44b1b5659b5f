"""The benchmark's workloads: inputs from a seed, set-up, units of work, checks.

Each workload is driven in a closed loop by one caller that waits for every
call.  A unit of work is a short run of parameter points, so a timed phase
can stop close to its deadline; every point of every unit is checked.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from kernelbundle import cli, errors, family, reduction, shell

PROBE_SIZE = 4
PROBE_TOL = 1e-6
PAIRING_CONDITION_MAX = 1e8
LOCATE_TOL = 1e-8


@dataclass
class UnitResult:
    """Outcome of one unit of work: per-point times and how many points failed."""

    attempted: int
    point_s: list
    wall_s: float
    failed: int
    problems: list = field(default_factory=list)


class SweepWorkload:
    """Grid sweep of the two-channel Dirichlet family with a probe section.

    The seed shifts the grid by at most half a step and draws the probe's
    coefficient polynomials.  A unit sweeps ``chunk`` consecutive grid points
    with the systems built at set-up; a pass is the whole grid.
    """

    def __init__(self, name, mode_cutoff, count, chunk, setup_repeats, seed):
        self.name = name
        self.mode_cutoff = mode_cutoff
        self.setup_repeats = setup_repeats
        rng = np.random.default_rng(seed)
        step = 0.2 / (count - 1)
        self.shift = float(rng.uniform(-0.5, 0.5) * step)
        self.grid = np.linspace(-0.1, 0.1, count) + self.shift
        # probe entry k is a_k + b_k t + c_k t^2 with complex a, b, c
        self.probe_coeffs = rng.uniform(-1.0, 1.0, (3, PROBE_SIZE)) + 1j * rng.uniform(
            -1.0, 1.0, (3, PROBE_SIZE)
        )
        self.units = [list(range(i, min(i + chunk, count))) for i in range(0, count, chunk)]

    def inputs(self) -> dict:
        return {
            "mode_cutoff": self.mode_cutoff,
            "grid": [float(self.grid[0]), float(self.grid[-1]), len(self.grid)],
            "grid_shift": self.shift,
            "probe_coeffs": [[[c.real, c.imag] for c in row] for row in self.probe_coeffs],
        }

    def setup(self):
        spec = family.SturmLiouvilleSpec(
            r=2,
            a_eval=lambda y: np.array([[0.3 * y[0], 0.1], [0.1, -0.3 * y[0]]]),
            mode_cutoff=self.mode_cutoff,
            k_gap=1,
            r_bound=0.4,
        )
        chart = family.sl_chart(spec)
        base = reduction.base_point_data(chart, [0.0])
        systems, duals = shell.canonical_systems(chart, base)
        return chart, base, systems, duals

    def probe(self, y) -> np.ndarray:
        t = float(y[0])
        a, b, c = self.probe_coeffs
        return a + b * t + c * t * t

    def warm_up(self, state) -> None:
        self.run_unit(state, self.units[0][:1])

    def run_unit(self, state, unit) -> UnitResult:
        chart, base, systems, duals = state
        grid = shell.ParameterGrid((self.grid[unit],))
        stamps = []

        def probe(y):
            stamps.append(time.perf_counter())
            return self.probe(y)

        start = time.perf_counter()
        try:
            report = shell.sweep(chart, base, grid, probe=probe, systems=systems, duals=duals)
        except errors.DimensionJumpError as exc:
            wall = time.perf_counter() - start
            return UnitResult(len(unit), np.diff([start] + stamps).tolist(), wall, len(unit), [str(exc)])
        wall = time.perf_counter() - start
        failed, problems = self._check(base, unit, report)
        return UnitResult(len(unit), np.diff([start] + stamps).tolist(), wall, failed, problems)

    def _check(self, base, unit, report):
        problems = [f"{f['y']}: {f['error']}: {f['message']}" for f in report.failures]
        if len(report.points) != len(unit):
            problems.append(f"{len(report.points)} points reported for {len(unit)} grid points")
        base_mults = [cl.multiplicity for cl in base.clusters]
        bad = {tuple(f["y"]) for f in report.failures}
        for p in report.points:
            if tuple(p.y) in bad:
                continue
            why = []
            if p.multiplicities != base_mults:
                why.append(f"multiplicities {p.multiplicities} != {base_mults}")
            if p.probe_error is None or not p.probe_error < PROBE_TOL:
                why.append(f"probe error {p.probe_error}")
            if not p.pairing_condition < PAIRING_CONDITION_MAX:
                why.append(f"pairing condition {p.pairing_condition:.3e}")
            if why:
                bad.add(tuple(p.y))
                problems.append(f"y={p.y}: " + "; ".join(why))
        failed = min(len(unit), len(bad) + max(0, len(unit) - len(report.points)))
        return failed, problems


def _locate_spec(y0: float, mode_cutoff: int) -> dict:
    return {
        "family": {
            "kind": "sturm_liouville",
            "r": 1,
            "mode_cutoff": mode_cutoff,
            "k_gap": 1,
            "r_bound": 0.4,
            "a_terms": [
                {"y_powers": [0], "matrix": [[0.25]]},
                {"y_powers": [1], "matrix": [[0.1]]},
            ],
        },
        "base_point": {"y0": [y0]},
    }


class LocateWorkload:
    """``kernelbundle locate`` run in process on one-channel Dirichlet problem files.

    The seed draws the base parameters y0 in [-1, 1]; a unit locates the
    zeros for one of them, and a pass covers all.
    """

    def __init__(self, name, mode_cutoff, count, setup_repeats, seed, workdir):
        self.name = name
        self.mode_cutoff = mode_cutoff
        self.setup_repeats = setup_repeats
        rng = np.random.default_rng(seed)
        self.y0 = rng.uniform(-1.0, 1.0, count).tolist()
        self.workdir = workdir
        self.units = list(range(count))
        self.specs = [self._write(f"y{i}.json", _locate_spec(y, mode_cutoff)) for i, y in enumerate(self.y0)]
        # small problem that runs the same code path, for the warm-up
        self.warm_spec = self._write("warm.json", _locate_spec(0.0, 4))

    def _write(self, fname, spec) -> str:
        path = os.path.join(self.workdir, fname)
        with open(path, "w") as fh:
            json.dump(spec, fh)
        return path

    def inputs(self) -> dict:
        return {"mode_cutoff": self.mode_cutoff, "y0": self.y0}

    def setup(self):
        return shell.load_problem_file(self.specs[0])

    def warm_up(self, state) -> None:
        cli.main(["locate", "--spec", self.warm_spec, "--out", self.warm_spec + ".out"])

    def run_unit(self, state, unit) -> UnitResult:
        spec = self.specs[unit]
        out = spec + ".out"
        start = time.perf_counter()
        code = cli.main(["locate", "--spec", spec, "--out", out])
        wall = time.perf_counter() - start
        problems = self._check(code, out, self.y0[unit])
        return UnitResult(1, [wall], wall, 1 if problems else 0, problems)

    def _check(self, code, out, y0) -> list:
        if code != 0:
            return [f"y0={y0}: exit code {code}"]
        with open(out) as fh:
            report = json.load(fh)
        root = math.sqrt(1.25 + 0.1 * y0)
        zeros = sorted((complex(z["re"], z["im"]) for z in report["zeros"]), key=lambda z: z.imag)
        mults = [z["multiplicity"] for z in report["zeros"]]
        if len(zeros) != 2 or report["unresolved"] or mults != [1, 1]:
            return [f"y0={y0}: {len(zeros)} zeros, {len(report['unresolved'])} unresolved"]
        dev = max(abs(zeros[0] + 1j * root), abs(zeros[1] - 1j * root))
        if not dev < LOCATE_TOL:
            return [f"y0={y0}: zeros {zeros} miss +-{root:.12f}i by {dev:.2e}"]
        return []


def make(name: str, seed: int, workdir: str):
    if name == "sweep-n8":
        # the acceptance-10 configuration: n = 8, 101 points
        return SweepWorkload(name, mode_cutoff=4, count=101, chunk=10, setup_repeats=7, seed=seed)
    if name == "sweep-n16":
        return SweepWorkload(name, mode_cutoff=8, count=11, chunk=2, setup_repeats=3, seed=seed)
    if name == "locate-n64":
        return LocateWorkload(name, mode_cutoff=64, count=5, setup_repeats=101, seed=seed, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")
