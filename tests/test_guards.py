"""Source-level rules: the result guards stay in force, no file holds an
unused import, a module loads no other module of the package than it needs,
and every name the benchmark looks up exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotbound

SOURCE = Path(knotbound.__file__).parent
TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


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


def _imported(node):
    """(bound name, line) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], a.lineno) for a in node.names]


def _unused_imports(paths) -> list[str]:
    # The project runs no linter, so an import left behind by a deletion
    # stays unless a rule finds it.  A line marked "noqa: F401" holds a name
    # for a tracer to patch.
    found = []
    for path in sorted(paths):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.parent.name}/{path.name}:{line} {name}"
                          for name, line in _imported(node)
                          if name not in used and "# noqa: F401" not in lines[line - 1]]
    return found


def test_no_unused_imports_in_library():
    assert _unused_imports(SOURCE.glob("*.py")) == []


def test_no_unused_imports_in_tests_and_scripts():
    assert _unused_imports([*TESTS.glob("*.py"), *SCRIPTS.glob("*.py")]) == []


@pytest.mark.parametrize("module", ["knotbound.cache", "knotbound.braid"])
def test_importing_a_module_loads_no_other(module):
    # The package re-exports nothing, so importing one module loads neither
    # the engines nor anything else it does not import itself.
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; "
         "print(*sorted(m for m in sys.modules if m.startswith('knotbound')))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)})
    assert proc.stdout.split() == ["knotbound", module]


def test_names_the_benchmark_looks_up_resolve():
    # The tracer getattrs every FUNCTIONS entry on its module and on each
    # module it patches, and reads every METHODS entry from the class
    # __dict__; the benchmark children call homfly.clear_cache.  Only a
    # traced run would notice a deleted name.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, attr, _, _, targets in tracing.FUNCTIONS:
        for owner in (mod_name, *(targets or ())):
            if not hasattr(importlib.import_module(owner), attr):
                missing.append(f"{owner}.{attr}")
    for mod_name, cls_name, attr, _, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        if attr not in getattr(cls, "__dict__", {}):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    if not callable(getattr(importlib.import_module("knotbound.homfly"), "clear_cache", None)):
        missing.append("knotbound.homfly.clear_cache")
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(
            "knotbound" if path.stem == "__init__" else f"knotbound.{path.stem}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
