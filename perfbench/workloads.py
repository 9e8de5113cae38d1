"""The four benchmark workloads: inputs, the timed call into ``bipcon``, and the check.

Each workload is three functions. ``build(seed)`` makes the inputs (this is
set-up time), ``run(inputs, jobs)`` makes the timed calls through the public
API, and ``check(outputs)`` compares every output with the golden results
recorded from the program as it stood when the benchmark was added
(``golden/``). Names are looked up on the ``bipcon`` modules at call time,
so the spans that ``tracing`` installs see every call.

The certificate checker at the bottom is the benchmark's own code and shares
nothing with ``bipcon.connectivity``: certificates are not golden, because a
valid kernel change may return a different minimum cut.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"

sys.path.insert(0, str(SRC))

import bipcon  # noqa: E402
from bipcon import bigraph, cli, connectivity, verifier  # noqa: E402

if Path(bipcon.__file__).resolve().parent != SRC / "bipcon":
    raise ImportError(f"bipcon was imported from {bipcon.__file__}, not from {SRC}")


@dataclass
class Outcome:
    """What ``check`` found: operations attempted and failed, and why."""

    ops: int
    failed: int = 0
    graphs: int = 0  # labeled graphs whose connectivity the program computed
    messages: list[str] = field(default_factory=list)
    latencies_s: list[float] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int  # operations per pass, all counted as failed when the pass crashes
    graphs: int  # exact graphs_checked of one pass
    build: Callable
    run: Callable
    check: Callable
    must_call: tuple[str, ...]  # spans that the traced pass must see called
    must_not_call: tuple[str, ...]  # spans that the traced pass must never see called


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def same_as_golden(payload: dict, golden: dict) -> bool:
    """Equality over the golden's keys only, so fields added later are ignored."""
    return all(key in payload and payload[key] == value for key, value in golden.items())


# --- verify-n7: the nine claims, vertex-metric claims first ------------------

# max-n 7 and max-r 7 keep one pass near two seconds, so a run holds enough
# passes for a steady median; every swept shape is still audited by the oracles.
VERIFY_ARGS = {"max_n": 7, "max_r": 7, "trials": 10_000, "seed": 20_240}


def _verify_build(seed: int):
    # The order of scripts/run_verification.py: T3.3 and T4.3 fill the sweep
    # cache with vertex metrics, which then serves the edge-only claims.
    return sorted(verifier.THEOREM_IDS, key=lambda t: t not in ("T3.3", "T4.3"))


def _verify_run(order, jobs: int):
    return [verifier.check_theorem(theorem, jobs=jobs, **VERIFY_ARGS) for theorem in order]


def verify_payloads(reports) -> dict:
    return {r.theorem: {k: v for k, v in r.to_json_dict().items() if k != "wall_ms"} for r in reports}


def _verify_check(reports) -> Outcome:
    golden = load_golden("verify-n7")
    payloads = verify_payloads(reports)
    out = Outcome(ops=len(golden), graphs=sum(r.graphs_checked for r in reports))
    for theorem, expected in golden.items():
        if theorem not in payloads or not same_as_golden(payloads[theorem], expected):
            out.fail(f"{theorem}: report differs from golden")
    return out


# --- sweep-edge-n9: exhaustive edge-only sweeps beyond oracle range -----------

EDGE_SHAPES = ((1, 8), (2, 7), (3, 6))
EDGE_METRICS = ("sum_edge", "prod_edge", "sum_delta", "prod_delta")


def _sweep_build(seed: int):
    return EDGE_SHAPES


def _sweep_run(shapes, jobs: int):
    return [verifier.shape_sweep(r, s, jobs=jobs, use_cache=False, include_vertex=False) for r, s in shapes]


def sweep_payload(sweep) -> dict:
    return {
        "r": sweep.r,
        "s": sweep.s,
        "graphs_checked": sweep.graphs_checked,
        "violations": [v.to_json_dict() for v in sweep.violations],
        "mismatches": [list(m) for m in sweep.mismatches],
        "cells": {
            metric: [
                None if c is None else [c.max_value, c.max_mask, c.min_value, c.min_mask, c.count]
                for c in sweep.cells[metric]
            ]
            for metric in EDGE_METRICS
        },
    }


def _sweep_check(sweeps) -> Outcome:
    golden = load_golden("sweep-edge-n9")
    out = Outcome(ops=len(golden), graphs=sum(s.graphs_checked for s in sweeps))
    payloads = {f"{s.r}x{s.s}": sweep_payload(s) for s in sweeps}
    for shape, expected in golden.items():
        if shape not in payloads or not same_as_golden(payloads[shape], expected):
            out.fail(f"shape {shape}: sweep differs from golden")
    return out


# --- scan-vertex-n9: the fixed-m scan engine on vertex connectivity ----------

SCAN_ARGV = ("scan", "--r", "4", "--s", "5", "--m", "5", "--metric", "sum_vertex", "--format", "json")


def _scan_build(seed: int):
    return SCAN_ARGV


def _scan_run(argv, jobs: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--jobs", str(jobs)])
    return code, buf.getvalue()


def _scan_check(result) -> Outcome:
    code, text = result
    golden = load_golden("scan-vertex-n9")
    out = Outcome(ops=1)
    if code != 0:
        out.fail(f"bipcon scan exited {code}")
        return out
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        out.fail("bipcon scan printed no JSON")
        return out
    out.graphs = payload.get("graphs_checked", 0)
    if not same_as_golden(payload, golden):
        out.fail("scan JSON differs from golden")
    return out


# --- graph-corpus: per-graph certificates at sizes no sweep reaches ----------
#
# The pool in golden/graph-corpus.json holds graphs drawn from a fixed seed,
# stratified by shape and edge count, each with the recorded
# (kappa, kappa', delta) for G and its bipartite complement. A run draws
# ``pick`` graphs per stratum with its own seed. Fixed counts per stratum keep
# the total work nearly equal across seeds; n = 20 graphs cost about ten
# times as much as n = 12 ones, so the larger shapes get fewer picks.

CORPUS_POOL_SEED = 1909_11982
CORPUS_STRATA = tuple(
    (n, n, round(density * n * n), pick, pool)
    for n, pick, pool in ((6, 50, 275), (8, 25, 150), (10, 10, 75))
    for density in (0.1, 0.2, 0.3, 0.4, 0.5)
)


def corpus_pool(seed: int = CORPUS_POOL_SEED) -> list[list[int]]:
    """Masks of every pool graph, one list per stratum, drawn from ``seed``."""
    rng = random.Random(seed)
    pool = []
    for r, s, m, _pick, size in CORPUS_STRATA:
        masks = []
        for _ in range(size):
            mask = 0
            for bit in rng.sample(range(r * s), m):
                mask |= 1 << bit
            masks.append(mask)
        pool.append(masks)
    return pool


def corpus_entries(seed: int, golden: list) -> list[tuple]:
    """(r, s, mask, golden values) of the graphs one run uses, in run order."""
    rng = random.Random(seed)
    entries = []
    for (r, s, _m, pick, _size), stratum in zip(CORPUS_STRATA, golden):
        for index in sorted(rng.sample(range(len(stratum)), pick)):
            mask_hex, values = stratum[index]
            entries.append((r, s, int(mask_hex, 16), tuple(values)))
    rng.shuffle(entries)
    return entries


def connectivity_triples(g) -> list:
    """What ``bipcon connectivity`` computes, for G and for its complement."""
    rows = []
    for h in (g, bigraph.bipartite_complement(g)):
        kp = connectivity.edge_connectivity(h)
        kv = connectivity.vertex_connectivity(h)
        rows.append((h, kv, kp, bigraph.degrees(h).min_degree))
    return rows


def _corpus_build(seed: int):
    entries = corpus_entries(seed, load_golden("graph-corpus"))
    return [(bigraph.BipartiteGraph.from_mask(r, s, mask), values) for r, s, mask, values in entries]


def _corpus_run(entries, jobs: int):
    clock = time.perf_counter
    results, latencies = [], []
    for g, _values in entries:
        start = clock()
        rows = connectivity_triples(g)
        latencies.append(clock() - start)
        results.append(rows)
    return entries, results, latencies


def _corpus_check(outputs) -> Outcome:
    entries, results, latencies = outputs
    out = Outcome(ops=len(entries), graphs=2 * len(results), latencies_s=latencies)
    for (g, expected), rows in zip(entries, results):
        values = []
        problems = []
        for h, kv, kp, dd in rows:
            values += [kv.value, kp.value, dd]
            problems += check_edge_certificate(h.left_size, h.right_size, h.adjacency, kp)
            problems += check_vertex_certificate(h.left_size, h.right_size, h.adjacency, kv)
        if tuple(values) != expected:
            problems.append(f"values {values} differ from golden {list(expected)}")
        if problems:
            out.fail(f"graph {g.left_size}x{g.right_size} mask {g.mask:#x}: {'; '.join(problems)}")
    return out


# --- independent certificate checks ------------------------------------------


def _edge_set(r: int, s: int, rows) -> set[tuple[int, int]]:
    return {(i + 1, j + 1) for i in range(r) for j in range(s) if rows[i] >> j & 1}


def _splits(r: int, s: int, edges, removed_vertices=frozenset()) -> bool:
    """True when the graph minus ``removed_vertices`` is disconnected or has at most one vertex."""
    alive = [v for v in [f"x{i}" for i in range(1, r + 1)] + [f"y{j}" for j in range(1, s + 1)]
             if v not in removed_vertices]
    if len(alive) <= 1:
        return True
    neighbours = {v: [] for v in alive}
    for i, j in edges:
        a, b = f"x{i}", f"y{j}"
        if a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
    seen = {alive[0]}
    todo = [alive[0]]
    while todo:
        for w in neighbours[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) < len(alive)


def check_edge_certificate(r: int, s: int, rows, result) -> list[str]:
    """Problems with an edge-connectivity certificate; empty when it holds."""
    edges = _edge_set(r, s, rows)
    if result.kind == "disconnected":
        ok = result.value == 0 and _splits(r, s, edges)
        return [] if ok else ["edge certificate says disconnected, graph is connected"]
    if result.kind != "edge_cut" or result.edges is None:
        return [f"edge certificate of unknown kind {result.kind!r}"]
    cut = set(map(tuple, result.edges))
    if len(cut) != len(result.edges) or len(cut) != result.value:
        return [f"edge cut of {len(result.edges)} edges for value {result.value}"]
    if not cut <= edges:
        return ["edge cut names edges the graph does not have"]
    if not _splits(r, s, edges - cut):
        return ["removing the edge cut leaves the graph connected"]
    return []


def check_vertex_certificate(r: int, s: int, rows, result) -> list[str]:
    """Problems with a vertex-connectivity certificate; empty when it holds."""
    edges = _edge_set(r, s, rows)
    if result.kind == "disconnected":
        ok = result.value == 0 and _splits(r, s, edges)
        return [] if ok else ["vertex certificate says disconnected, graph is connected"]
    if result.kind not in ("vertex_cut", "complete_side") or result.vertices is None:
        return [f"vertex certificate of unknown kind {result.kind!r}"]
    labels = {f"x{i}" for i in range(1, r + 1)} | {f"y{j}" for j in range(1, s + 1)}
    cut = set(result.vertices)
    if len(cut) != len(result.vertices) or len(cut) != result.value or not cut <= labels:
        return [f"vertex cut {list(result.vertices)} does not match value {result.value}"]
    if not _splits(r, s, edges, frozenset(cut)):
        return ["removing the vertex cut leaves a connected graph on two or more vertices"]
    return []


CORPUS_PICKS = sum(stratum[3] for stratum in CORPUS_STRATA)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n7",
            ops=9, graphs=47_150,
            build=_verify_build, run=_verify_run, check=_verify_check,
            must_call=("connectivity.edge_oracle", "connectivity.vertex_oracle",
                       "constructions.dispatch_witness"),
            must_not_call=("connectivity.edge_cert", "connectivity.vertex_cert", "cli.main"),
        ),
        Workload(
            "sweep-edge-n9",
            ops=3, graphs=278_784,
            build=_sweep_build, run=_sweep_run, check=_sweep_check,
            must_call=("connectivity.edge_flow",),
            must_not_call=("connectivity.vertex_flow", "connectivity.edge_oracle",
                           "connectivity.vertex_oracle"),
        ),
        Workload(
            "scan-vertex-n9",
            ops=1, graphs=15_504,
            build=_scan_build, run=_scan_run, check=_scan_check,
            must_call=("connectivity.vertex_flow", "verifier.extremal_scan", "cli.main"),
            must_not_call=("connectivity.edge_flow", "connectivity.edge_oracle"),
        ),
        Workload(
            "graph-corpus",
            ops=CORPUS_PICKS, graphs=2 * CORPUS_PICKS,
            build=_corpus_build, run=_corpus_run, check=_corpus_check,
            must_call=("connectivity.edge_cert", "connectivity.vertex_cert", "bigraph.degrees"),
            must_not_call=("verifier.shape_sweep", "verifier.extremal_scan",
                           "verifier.check_theorem", "verifier.metric_value"),
        ),
    )
}
