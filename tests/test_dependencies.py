"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library, and in particular not SciPy."""

import ast
import sys
from pathlib import Path

import kernelbundle

ALLOWED = {"numpy"}


def foreign_imports(source: str, filename: str) -> list:
    """Absolute imports of ``source`` that are neither numpy nor standard library."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in ALLOWED and top not in sys.stdlib_module_names:
                found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_package_imports_only_numpy_and_stdlib():
    files = sorted(Path(kernelbundle.__file__).parent.glob("*.py"))
    assert len(files) > 1
    assert [hit for f in files for hit in foreign_imports(f.read_text(), f.name)] == []


def test_foreign_imports_are_found():
    source = "import scipy.linalg\nfrom scipy import sparse\nfrom . import frames\nimport numpy as np\nimport json\n"
    assert foreign_imports(source, "m.py") == ["m.py:1: scipy.linalg", "m.py:2: scipy"]
