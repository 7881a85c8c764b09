"""Every exported name resolves, so retiring a function cannot leave a dangling export
or strand a name the benchmark reaches; every top-level import is used or exported;
and importing the CLI loads no heavy stdlib module."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelkit

MODULES = ["tunnelkit"] + [
    f"tunnelkit.{info.name}"
    for info in pkgutil.iter_modules(tunnelkit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


# The benchmark reaches the package by name: its tracer wraps TRACED at every
# binding, and its workloads call tk.<name>. A retired name there fails only
# in the middle of a benchmark run, so check them here, reading the files.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_names():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


@pytest.mark.parametrize("module, function", _traced_names())
def test_benchmark_traced_function_resolves(module, function):
    assert hasattr(importlib.import_module(f"tunnelkit.{module}"), function)


WORKLOAD_NAMES = sorted(
    set(re.findall(r"\btk\.(\w+)", (PERFBENCH / "workloads.py").read_text(encoding="utf-8")))
)


def test_benchmark_workloads_reach_names_that_resolve():
    assert "PhaseUnwrapError" in WORKLOAD_NAMES
    missing = [name for name in WORKLOAD_NAMES if not hasattr(tunnelkit, name)]
    assert not missing, f"perfbench/workloads.py uses tunnelkit names that are gone: {missing}"


SOURCE = Path(tunnelkit.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    # The package is stdlib-only: every import is relative, of the package
    # itself, or of a module in sys.stdlib_module_names.
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        top = {name.partition(".")[0] for name in names}
        foreign += sorted(top - sys.stdlib_module_names - {"tunnelkit"})
    assert not foreign, f"{path.name} imports non-stdlib modules {foreign}"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used_or_exported(path):
    # A binding no code reads and __all__ does not name is dead weight.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in bound if name not in read | _exported(tree)]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI command is a fresh process that pays for its imports, and
    # dataclasses (which imports inspect, ast, dis and tokenize) would make
    # `import tunnelkit.cli` about 1.5x slower. -S keeps site hooks from
    # loading either module first.
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    probe = "import sys, tunnelkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_phase_time_does_not_import_resonance():
    # tau_r is read with beta from the record that certifies the root, in
    # resonance; the phase-time layer sits below it.
    tree = ast.parse((SOURCE / "phase_time.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .resonance import x" and "from . import resonance" alike
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert "resonance" not in imported
