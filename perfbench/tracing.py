"""Spans around the public functions of each kernelbundle module.

The tracer patches functions from outside the package, so the program under
test is unchanged.  ``from .contour import singular_part_eval`` copies a
function into the importing module's namespace, so every module binding of a
wrapped function is replaced, not only the one in its defining module.
Spans stay in memory until the run ends and are then reduced to per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

from stats import Span, totals_by_name

LAYERS = ("family", "contour", "reduction", "keldysh", "frames", "pairing", "shell", "cli")

# Methods traced besides the public module-level functions.  The batched
# ones record how many sigma nodes they received.
METHODS = {
    "family": [("FamilyChart", "eval", False), ("FamilyChart", "eval_many", True)],
    "reduction": [
        ("SchurEvaluator", "blocks", False),
        ("SchurEvaluator", "blocks_many", True),
        ("SchurEvaluator", "schur", False),
        ("SchurEvaluator", "schur_many", True),
    ],
    "frames": [("Germ", "eval", False)],
}


def _nodes(args, kwargs) -> int:
    # (self, y, sigmas) for every batched method above
    return int(np.size(args[2] if len(args) > 2 else kwargs["sigmas"]))


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.spans: list = []
        self.phase = ""
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name, fn, counts_nodes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = _nodes(args, kwargs) if counts_nodes else 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.phase, size)

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"kernelbundle.{layer}")
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    originals[fn] = self._wrap(f"{layer}.{fname}", fn, False)
            for cls_name, meth, counts_nodes in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn, counts_nodes))
        for modname, mod in list(sys.modules.items()):
            if modname != "kernelbundle" and not modname.startswith("kernelbundle."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patch(mod, attr, originals[value])

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# (metric name, unit) in the order they are reported; BENCHMARK.json lists
# the same names under per_layer.
LAYER_METRICS = [
    ("family.eval_calls", "count"),
    ("family.eval_nodes_per_point", "nodes/point"),
    ("family.eval_s", "s"),
    ("contour.winding_calls", "count"),
    ("contour.winding_doublings", "count"),
    ("contour.box_counts", "count"),
    ("contour.winding_s", "s"),
    ("contour.locate_self_s", "s"),
    ("contour.refine_s", "s"),
    ("contour.singular_part_calls", "count"),
    ("contour.singular_part_s", "s"),
    ("reduction.blocks_calls", "count"),
    ("reduction.blocks_nodes_per_point", "nodes/point"),
    ("reduction.blocks_s", "s"),
    ("reduction.schur_self_s", "s"),
    ("reduction.base_point_s", "s"),
    ("keldysh.taylor_s", "s"),
    ("keldysh.chains_s", "s"),
    ("frames.frame_self_s", "s"),
    ("frames.germ_eval_calls", "count"),
    ("pairing.matrix_self_s", "s"),
    ("pairing.coeff_self_s", "s"),
    ("shell.sweep_self_s", "s"),
    ("shell.canonical_self_s", "s"),
    ("cli.self_s", "s"),
]


def layer_metrics(spans, points: int) -> dict:
    """Per-layer metrics of a traced run.

    Counts and times sum over the whole traced run (one set-up and one pass
    over the workload's inputs); the ``_per_point`` ratios count the pass
    alone and divide by its ``points``.
    """
    tot = totals_by_name(spans)
    pas = totals_by_name(spans, phase="pass")
    family = ("family.FamilyChart.eval", "family.FamilyChart.eval_many")
    blocks = ("reduction.SchurEvaluator.blocks", "reduction.SchurEvaluator.blocks_many")

    def calls(*names):
        return sum(tot[n].calls for n in names if n in tot)

    def incl(*names):
        return sum(tot[n].inclusive for n in names if n in tot)

    def self_s(*names):
        return sum(tot[n].self_time for n in names if n in tot)

    def per_point(*names):
        return sum(pas[n].size for n in names if n in pas) / points

    winding = [i for i, sp in enumerate(spans) if sp.name == "contour.winding_number"]
    is_winding = set(winding)
    evals_in_winding = sum(
        1 for sp in spans if sp.name == "contour.eval_along" and sp.parent in is_winding
    )
    values = {
        "family.eval_calls": calls(*family),
        "family.eval_nodes_per_point": per_point(*family),
        "family.eval_s": incl(*family),
        "contour.winding_calls": len(winding),
        "contour.winding_doublings": evals_in_winding - len(winding),
        "contour.box_counts": calls("contour.count_zeros_rectangle"),
        "contour.winding_s": incl("contour.winding_number"),
        "contour.locate_self_s": self_s("contour.locate_zeros"),
        "contour.refine_s": incl("contour.refine_cluster"),
        "contour.singular_part_calls": calls("contour.singular_part_eval"),
        "contour.singular_part_s": incl("contour.singular_part_eval"),
        "reduction.blocks_calls": calls(*blocks),
        "reduction.blocks_nodes_per_point": per_point(*blocks),
        "reduction.blocks_s": incl(*blocks),
        "reduction.schur_self_s": self_s(
            "reduction.SchurEvaluator.schur", "reduction.SchurEvaluator.schur_many"
        ),
        "reduction.base_point_s": incl("reduction.base_point_data"),
        "keldysh.taylor_s": incl("keldysh.taylor_coefficients"),
        "keldysh.chains_s": incl("keldysh.root_functions", "keldysh.dual_root_functions"),
        "frames.frame_self_s": self_s("frames.fullframe_at", "frames.dual_frame_at", "frames.kframe_at"),
        "frames.germ_eval_calls": calls("frames.Germ.eval"),
        "pairing.matrix_self_s": self_s("pairing.pairing_matrix"),
        "pairing.coeff_self_s": self_s("pairing.coefficients", "pairing.section_pairings"),
        "shell.sweep_self_s": self_s("shell.sweep"),
        "shell.canonical_self_s": self_s("shell.canonical_systems"),
        "cli.self_s": self_s("cli.main"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
