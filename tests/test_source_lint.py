"""Source checks that no test of behaviour would catch."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "pattern_entropy").glob("*.py"))
RUNTIME_DEPENDENCIES = {"numpy"}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_referencing_nested_functions(tree):
    """Names of functions nested in a function whose body names themselves.

    Such a function holds its own closure cell, a reference cycle that only
    the cyclic collector frees, so each call of the enclosing function leaves
    garbage behind."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, _FUNCS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, _FUNCS):
                continue
            if any(isinstance(node, ast.Name) and node.id == inner.name
                   for stmt in inner.body for node in ast.walk(stmt)):
                found.append(f"{outer.name}.{inner.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_nested_function_refers_to_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _self_referencing_nested_functions(tree) == []


def test_guard_catches_a_recursive_closure():
    tree = ast.parse("def outer(n):\n"
                     "    def rec(i):\n"
                     "        return [] if i == n else [i] + rec(i + 1)\n"
                     "    return rec(0)\n")
    assert _self_referencing_nested_functions(tree) == ["outer.rec (line 2)"]


def _imported_packages(tree):
    """Top-level package of every absolute import in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_imports_only_stdlib_numpy_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = sys.stdlib_module_names | RUNTIME_DEPENDENCIES | {"pattern_entropy"}
    assert sorted(set(_imported_packages(tree)) - allowed) == []


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert sorted(re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in deps) == sorted(RUNTIME_DEPENDENCIES)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, pattern_entropy.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
