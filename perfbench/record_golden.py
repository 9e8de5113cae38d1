"""Record the golden outputs in ``perfbench/golden/`` from the current code.

The files in the repository were recorded when the benchmark was added;
re-record only when a change is meant to alter the program's outputs, and
say so.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json

import workloads as w
from run import JOBS


def _write(name: str, payload) -> None:
    w.GOLDEN.mkdir(exist_ok=True)
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    (w.GOLDEN / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote golden/{name}.json ({len(text)} bytes)")


def main() -> None:
    reports = w.WORKLOADS["verify-n7"].run(w.WORKLOADS["verify-n7"].build(0), JOBS)
    _write("verify-n7", w.verify_payloads(reports))
    print("verify-n7 graphs_checked", sum(r.graphs_checked for r in reports))

    sweeps = w.WORKLOADS["sweep-edge-n9"].run(w.EDGE_SHAPES, JOBS)
    _write("sweep-edge-n9", {f"{s.r}x{s.s}": w.sweep_payload(s) for s in sweeps})

    code, text = w.WORKLOADS["scan-vertex-n9"].run(w.SCAN_ARGV, JOBS)
    if code != 0:
        raise SystemExit(f"bipcon scan exited {code}")
    _write("scan-vertex-n9", json.loads(text))

    strata = []
    for (r, s, _m, _pick, _size), masks in zip(w.CORPUS_STRATA, w.corpus_pool()):
        stratum = []
        for mask in masks:
            rows = w.connectivity_triples(w.bigraph.BipartiteGraph.from_mask(r, s, mask))
            values = [x for _h, kv, kp, dd in rows for x in (kv.value, kp.value, dd)]
            stratum.append([f"{mask:x}", values])
        strata.append(stratum)
    _write("graph-corpus", strata)


if __name__ == "__main__":
    main()
