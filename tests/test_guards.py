"""Source-level rules that keep the result guards in force."""

import ast
from pathlib import Path

import knotbound

SOURCE = Path(knotbound.__file__).parent


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so a guard written as one vanishes.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
