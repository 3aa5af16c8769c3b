"""Source-level rules that keep the result guards in force."""

import ast
from pathlib import Path

import knotbound

SOURCE = Path(knotbound.__file__).parent


def _trees():
    for path in sorted(SOURCE.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so a guard written as one vanishes.
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _mutable(node) -> bool:
    return isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                             ast.SetComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set"))


def test_no_process_global_state_in_functions():
    # A list, dict or set default is one object shared by every call in the
    # process, so a memo kept there outlives the call; and the recursion limit
    # is a setting of the whole interpreter.
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = node.args.defaults + node.args.kw_defaults
                found += [f"{name}:{d.lineno} default" for d in defaults if _mutable(d)]
            if "setrecursionlimit" in (getattr(node, "attr", None), getattr(node, "id", None),
                                       getattr(node, "name", None)):
                found.append(f"{name}:{node.lineno} setrecursionlimit")
    assert found == []
