"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType, FunctionType

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


def _helpers_called(fn):
    """Functions of any bipcon module that fn's code names, its nested code included."""
    codes, found = [fn.__code__], []
    while codes:
        code = codes.pop()
        codes += [const for const in code.co_consts if isinstance(const, CodeType)]
        for name in code.co_names:
            helper = fn.__globals__.get(name)
            if isinstance(helper, FunctionType) and helper.__module__.split(".")[0] == "bipcon":
                found.append(helper)
    return found


def test_oracles_share_no_code_with_the_flow_path():
    # The oracles cross-check the max-flow kernels, so neither may reach any
    # of their helpers, directly or through a helper of its own, in whichever
    # bipcon module the helper is defined.
    flow_path = {"_adjacency_masks", "_rows_connected", "_bit_indices", "_min_degree", "_unit_flow",
                 "_short_paths", "_split_network", "_connected_masks", "_least_flow", "_edge_core",
                 "_vertex_core", "_joint_values"}
    assert all(callable(getattr(connectivity, name, None)) for name in flow_path)
    flow_path = {getattr(connectivity, name) for name in flow_path}
    assert {fn.__module__ for fn in flow_path} == {"bipcon.bigraph", "bipcon.connectivity"}
    for oracle in ("edge_oracle_value", "vertex_oracle_value"):
        reached, todo = set(), [getattr(connectivity, oracle)]
        while todo:
            for fn in _helpers_called(todo.pop()):
                if fn not in reached:
                    reached.add(fn)
                    todo.append(fn)
        assert reached, f"{oracle} reaches no helper: the walk is broken"
        shared = sorted(fn.__qualname__ for fn in reached & flow_path)
        assert not shared, f"{oracle} reaches {shared}"


_LAZY_ORBITS = """
import sys
from bipcon import check_theorem, cli, shape_sweep, extremal_scan
shape_sweep(3, 4, jobs=1)
assert cli.main(["connectivity", "-", "--format", "json"]) == 0
check_theorem("L2.4", max_r=9, jobs=1)
check_theorem("L2.5", trials=500, jobs=1)
assert "bipcon.orbits" not in sys.modules, "loaded by a sweep of seven vertices, by connectivity, by L2.4 or by L2.5"
extremal_scan(2, 3, 2, "sum_edge", jobs=1)
assert "bipcon.orbits" in sys.modules, "not loaded by a fixed-m scan"
"""


def test_orbits_stay_unloaded_until_the_first_orbit_scan():
    # Sweeps up to eight vertices, the connectivity command and the L2.4 and
    # L2.5 workers never import bipcon.orbits, which imports bigraph; bigraph
    # must not import it back.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LAZY_ORBITS], input="2 2\n1 1\n2 2\n",
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
