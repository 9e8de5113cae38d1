"""Tests of the benchmark's own code: corpus, certificate checker, golden check, accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import workloads as w
from bipcon.bigraph import BipartiteGraph, new_graph
from bipcon.connectivity import edge_connectivity, vertex_connectivity


def test_corpus_is_identical_for_equal_seeds_and_differs_for_different_ones():
    golden = w.load_golden("graph-corpus")
    first = w.corpus_entries(7, golden)
    assert first == w.corpus_entries(7, golden)
    assert first != w.corpus_entries(8, golden)
    assert len(first) == w.CORPUS_PICKS


def test_corpus_pool_matches_the_recorded_golden():
    for masks, stratum in zip(w.corpus_pool(), w.load_golden("graph-corpus")):
        assert [f"{mask:x}" for mask in masks] == [mask_hex for mask_hex, _values in stratum]


def test_certificate_checker_accepts_real_cuts_and_rejects_tampered_ones():
    g = BipartiteGraph.from_mask(3, 3, (1 << 9) - 1)  # K_{3,3}: kappa = kappa' = 3
    kp, kv = edge_connectivity(g), vertex_connectivity(g)
    assert w.check_edge_certificate(3, 3, g.adjacency, kp) == []
    assert w.check_vertex_certificate(3, 3, g.adjacency, kv) == []

    kept = [e for e in kp.edges if e != kp.edges[0]]
    other = next(e for e in g.edges() if e not in kp.edges and e[0] != kp.edges[0][0] and e[1] != kp.edges[0][1])
    swapped = dataclasses.replace(kp, edges=tuple(sorted([*kept, other])))
    assert w.check_edge_certificate(3, 3, g.adjacency, swapped)
    assert w.check_edge_certificate(3, 3, g.adjacency, dataclasses.replace(kp, value=2))
    short = dataclasses.replace(kv, value=2, vertices=kv.vertices[1:])
    assert w.check_vertex_certificate(3, 3, g.adjacency, short)

    path = new_graph(2, 2, [(1, 1), (2, 1), (2, 2)])  # x1 - y1 - x2 - y2, every edge a bridge
    kp = edge_connectivity(path)
    assert kp.value == 1 and w.check_edge_certificate(2, 2, path.adjacency, kp) == []
    assert w.check_edge_certificate(2, 2, path.adjacency, dataclasses.replace(kp, edges=((1, 2),)))
    assert w.check_vertex_certificate(2, 2, path.adjacency, dataclasses.replace(kp, kind="disconnected", value=0))


def test_golden_mismatch_is_counted_as_a_failure():
    golden = w.load_golden("scan-vertex-n9")
    good = json.dumps({**golden, "stats": {"later": "field"}})
    assert w.WORKLOADS["scan-vertex-n9"].check((0, good)).failed == 0

    wrong = json.dumps({**golden, "max_value": golden["max_value"] + 1})
    outcome = w.WORKLOADS["scan-vertex-n9"].check((0, wrong))
    assert (outcome.ops, outcome.failed) == (1, 1)
    assert w.WORKLOADS["scan-vertex-n9"].check((65, "")).failed == 1

    entries = w.WORKLOADS["graph-corpus"].build(3)[:5]
    results = [w.connectivity_triples(g) for g, _values in entries]
    g, values = entries[0]
    entries[0] = (g, (values[0] + 1, *values[1:]))
    outcome = w.WORKLOADS["graph-corpus"].check((entries, results, [0.001] * 5))
    assert (outcome.ops, outcome.failed) == (5, 1)


def _traced_pass(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(w.HERE / "worker.py"), "--workload", workload, "--seed", "1", "--jobs", "1", "--trace"],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_a_second_run_does_the_same_kernel_calls():
    # verify-n7 leans on the module-global sweep cache within a pass; each
    # pass is a fresh interpreter, so the cache never serves the next one.
    first, second = _traced_pass("verify-n7"), _traced_pass("verify-n7")
    for result in (first, second):
        assert (result["ops"], result["failed"], result["graphs"]) == (9, 0, 47_150)
    calls = [{name: span["calls"] for name, span in r["trace"]["spans"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["connectivity.edge_oracle"] == 6_094
    assert first["trace"]["verifier.sweep_reuse"] == second["trace"]["verifier.sweep_reuse"] == 60


def test_run_reports_exactly_the_metrics_benchmark_json_names():
    import run

    spec = json.loads((w.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
