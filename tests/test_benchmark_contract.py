"""The names the benchmark harness in ``perfbench/`` relies on still exist.

The harness is read as source, not imported, so this check runs without it:
every traced ``(module, attribute path)`` must name a callable defined in
that module or class and be loaded by the harness's own imports, and every
``mq.<name>`` the workloads use must be an attribute of the package.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import mixquant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _tree(name: str) -> ast.Module:
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=name)


def _traced() -> tuple:
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


TRACED = _traced()


@pytest.mark.parametrize("module, path", TRACED, ids=[".".join(entry) for entry in TRACED])
def test_traced_names_resolve_to_callables_defined_there(module, path):
    owner = importlib.import_module(f"mixquant.{module}")
    *cls_name, attr = path.split(".")
    if cls_name:
        owner = vars(owner)[cls_name[0]]
        assert inspect.isclass(owner)
    # The tracer swaps the attribute on its owner, so it must live there.
    target = vars(owner)[attr]
    assert callable(target)
    assert target.__module__ == f"mixquant.{module}"


def test_harness_imports_load_every_traced_module():
    # The tracer finds each traced module in sys.modules after the worker's
    # ``import mixquant, mixquant.cli``; a module loaded only on first use
    # would be missing there, and a traced run would fail.
    modules = sorted({f"mixquant.{module}" for module, _ in TRACED})
    code = f"import sys, mixquant, mixquant.cli; print([m for m in {modules!r} if m not in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_workload_package_names_exist():
    names = {
        node.attr
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mq"
    }
    assert names
    assert sorted(name for name in names if not hasattr(mixquant, name)) == []
