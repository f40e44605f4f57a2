"""Source checks that no test of behaviour would catch."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "pattern_entropy").glob("*.py"))
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
