"""Tier-1 twins of the workflow's untraced count gates: the same inputs, the same bounds.

Both are deterministic counts, not timings.  "Sweep set-up and pass sample once per stage"
counts ``reduction._sampled`` calls on the benchmark's sweep-n8 workload, and "Locate family
nodes through eval_blocks" counts the sigma nodes that ``kernelbundle locate`` passes to
``FamilyChart.eval_blocks`` at n = 64.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from kernelbundle import cli, family, frames, keldysh, reduction

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_sweep_setup_and_pass_sample_once_per_stage(monkeypatch):
    # the set-up samples the clusters three times (the base-point check at y0 on the doubled
    # circles and then on the count circles, and the carriers of canonical_systems), and a sweep
    # once per point: the set-up plus one 101-point pass make 104 calls, and a second call per
    # point fails.  Every module binding of _sampled is wrapped
    if not (PERFBENCH / "workloads.py").is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    calls, sampled = [0], reduction._sampled

    def counted(*args, **kwargs):
        calls[0] += 1
        return sampled(*args, **kwargs)

    for module in (reduction, keldysh, frames):
        monkeypatch.setattr(module, "_sampled", counted)
    work = workloads.make("sweep-n8", 1, None)
    state = work.setup()
    results = [work.run_unit(state, unit) for unit in work.units]
    assert sum(r.attempted for r in results) == 101 and sum(r.failed for r in results) == 0
    assert calls[0] <= 104


@pytest.mark.parametrize("y0", [0.0236, 0.9009])
def test_locate_family_nodes_through_eval_blocks(y0, tmp_path, monkeypatch):
    # the one-channel Dirichlet family at n = 64: every zero count starts at 64 nodes and a
    # refining one samples only the midpoints of the nodes it holds, so each of these y0 costs
    # 20,928 family nodes, and a 128-node start (24,320) fails
    nodes, eval_blocks = [0], family.FamilyChart.eval_blocks

    def counted(self, y, sigmas, *args, **kwargs):
        nodes[0] += np.size(sigmas)
        return eval_blocks(self, y, sigmas, *args, **kwargs)

    monkeypatch.setattr(family.FamilyChart, "eval_blocks", counted)
    spec, out = tmp_path / "locate.json", tmp_path / "locate.out.json"
    spec.write_text(json.dumps({
        "family": {"kind": "sturm_liouville", "r": 1, "mode_cutoff": 64, "k_gap": 1, "r_bound": 0.4,
                   "a_terms": [{"y_powers": [0], "matrix": [[0.25]]}, {"y_powers": [1], "matrix": [[0.1]]}]},
        "base_point": {"y0": [y0]},
    }))
    assert cli.main(["locate", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["zeros"]) == 2
    assert nodes[0] <= 20928
