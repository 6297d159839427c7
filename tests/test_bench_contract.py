"""The benchmark under perfbench/ reaches into the package by name.

``perfbench/tracing.py`` patches every name in its WRAPS table on the
module it lists, and ``perfbench/ops.py`` imports its entry points from
``photonrc``.  A refactor that drops one of those names fails here rather
than halfway through a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    wraps = _load_tracing().WRAPS
    missing = [
        f"{module_name}.{name}"
        for module_name, names in wraps.items()
        for name in names
        if not hasattr(importlib.import_module(module_name), name)
    ]
    assert missing == []
    assert set(wraps) >= {"photonrc.pipeline", "photonrc.tuning"}


def test_bench_imports_resolve():
    tree = ast.parse((PERFBENCH / "ops.py").read_text(encoding="utf-8"))
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "photonrc":
            used += [(node.module, alias.name) for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "photonrc"
        ):
            used.append(("photonrc", node.attr))
    assert ("photonrc", "run_pipeline") in used
    missing = [
        f"{module}.{name}" for module, name in used
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
