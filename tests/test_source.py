"""Checks on the package source itself."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # The runtime has no dependencies: every import is stdlib or the package itself.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"bipcon"}]
    assert not found, f"imports outside the standard library: {found}"
