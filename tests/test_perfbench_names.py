"""Every library name the benchmark harness reaches must still resolve, so a
deleted or renamed function shows up here rather than only in a benchmark
run."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import wordrep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def test_traced_targets_resolve():
    tree = _module("tracing.py")
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for mod, names in targets.items():
        home = importlib.import_module(f"wordrep.{mod}")
        for name in names:
            assert callable(getattr(home, name)), f"{mod}.{name}"


def test_workload_imports_resolve():
    names = [
        alias.name
        for node in ast.walk(_module("workloads.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "wordrep"
        for alias in node.names
    ]
    assert names
    for name in names:
        assert hasattr(wordrep, name), name
