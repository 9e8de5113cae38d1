"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import bipcon
from bipcon import connectivity

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


def test_oracles_share_no_code_with_the_flow_path():
    # The oracles cross-check the max-flow kernels, so neither may reach any
    # of their helpers, directly or through a helper of its own.
    flow_path = {"_adjacency_masks", "_rows_connected", "_min_degree", "_unit_flow",
                 "_split_network", "_connected_masks", "_edge_core", "_vertex_core", "_joint_values"}
    assert all(callable(getattr(connectivity, name, None)) for name in flow_path)
    for oracle in ("edge_oracle_value", "vertex_oracle_value"):
        reached, todo = set(), [oracle]
        while todo:
            for name in getattr(connectivity, todo.pop()).__code__.co_names:
                fn = getattr(connectivity, name, None)
                if name not in reached and isinstance(fn, FunctionType) and fn.__module__ == connectivity.__name__:
                    reached.add(name)
                    todo.append(name)
        assert not reached & flow_path, f"{oracle} reaches {sorted(reached & flow_path)}"


_LAZY_ORBITS = """
import sys
from bipcon import cli, shape_sweep, extremal_scan
shape_sweep(3, 4, jobs=1)
assert cli.main(["connectivity", "-", "--format", "json"]) == 0
assert "bipcon.orbits" not in sys.modules, "loaded by a sweep of seven vertices or by connectivity"
extremal_scan(2, 3, 2, "sum_edge", jobs=1)
assert "bipcon.orbits" in sys.modules, "not loaded by a fixed-m scan"
"""


def test_orbits_stay_unloaded_until_the_first_orbit_scan():
    # Sweeps up to eight vertices and the connectivity command never import
    # bipcon.orbits, which imports bigraph; bigraph must not import it back.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LAZY_ORBITS], input="2 2\n1 1\n2 2\n",
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
