"""Checks on the package source itself."""

import ast
from pathlib import Path

import bipcon

PACKAGE = Path(bipcon.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise explicitly.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
