"""Smoke test of the benchmark's tracer against the whole package.

``perfbench/tracing.py`` wraps every public function of each module and a
fixed list of methods, looked up in each class's ``__dict__``.  A method
dropped from the package makes installing the tracer fail here, and every
patched attribute must be back in place once the tracer exits.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import kernelbundle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    if not (PERFBENCH / "tracing.py").is_file():
        pytest.skip("perfbench/ is not part of this checkout")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _snapshot(tracing) -> dict:
    """Every function bound in a kernelbundle module, and every traced method."""
    for layer in tracing.LAYERS:
        importlib.import_module(f"kernelbundle.{layer}")
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "kernelbundle" or modname.startswith("kernelbundle."):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    out[(modname, attr)] = value
    for layer, methods in tracing.METHODS.items():
        mod = importlib.import_module(f"kernelbundle.{layer}")
        for cls_name, meth, _ in methods:
            out[(f"{mod.__name__}.{cls_name}", meth)] = vars(getattr(mod, cls_name))[meth]
    return out


def test_tracer_restores_every_patched_attribute(tracing):
    before = _snapshot(tracing)
    with tracing.Tracer() as tracer:
        during = _snapshot(tracing)
        chart = kernelbundle.jordan_chart()
        chart.eval([0.0], 0.5)
    patched = {key for key in before if during[key] is not before[key]}
    assert ("kernelbundle.family", "jordan_chart") in patched
    assert ("kernelbundle.family.FamilyChart", "eval_many") in patched
    assert all(("kernelbundle.reduction.SchurEvaluator", m) in patched for m in ("blocks", "schur"))
    after = _snapshot(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {sp.name for sp in tracer.spans}
    assert {"family.jordan_chart", "family.FamilyChart.eval"} <= names
