#!/usr/bin/env python3
"""The bipcon benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/bipcon``. Every pass runs in a fresh
interpreter (``worker.py``); parallel passes use ``JOBS`` workers.

``--trace 0`` repeats timed passes until ``--seconds`` have gone by (at least
one pass) and reports medians of the end-to-end metrics: ``wall_s``,
``graphs_per_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``. ``--trace 1``
runs ``TRACE_ROUNDS`` rounds of three passes: untraced with ``JOBS`` workers,
untraced with one job, and traced with one job, and reports the per-layer
metrics, the timed ones as medians over the rounds. Both print every metric
by name and unit, write
everything, with the machine facts, to ``perfbench/results/``, and end with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

Exit status 0 whenever that line was printed (``correct`` tells whether the
outputs matched golden), 2 when the benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
# Worker processes of every parallel pass, always passed explicitly: the
# library default os.cpu_count() ignores CPU affinity.
JOBS = 2
TRACE_ROUNDS = 3  # rounds of (JOBS workers, one job, traced) passes in a traced run
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "graphs_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# The traced pass counts spans; only metrics that can never be a constant zero
# are in the JSON line, the rest (every span's self time and time per call)
# is printed and written to the results file.
PER_LAYER = {
    **{f"{name}.calls": "count" for name in SPANS},
    "connectivity.self_s": "s",
    "connectivity.us_per_graph": "us",
    "verifier.graphs_checked": "count",
    "verifier.sweep_reuse": "count",
    "verifier.kernel_calls_per_graph": "calls/graph",
    "verifier.parallel_eff": "ratio",
    "unattributed_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """The passes of one benchmark run and the operations they attempted."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def spawn(self, jobs: int, *flags: str) -> dict | None:
        """One worker pass; None (and the pass's operations failed) when it broke."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload.name,
               "--seed", str(self.seed), "--jobs", str(jobs), *flags]
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        launched = time.monotonic()
        # A session of its own, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err = f"pass stopped after the {DEADLINE_S:.0f} s deadline\n{err}"
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            self.messages.append(f"pass {' '.join(flags)} failed: {err.strip()[-2000:]}")
            return None
        result["setup_s"] = result["first_call"] - launched
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.messages += result["messages"]
        return result

    def lost(self) -> None:
        self.attempted += self.workload.ops
        self.failed += self.workload.ops


def machine_facts(seed: int) -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass  # no /proc: keep the architecture name
    return {
        "os_cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "jobs": JOBS,
        "seed": seed,
    }


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    passes = []
    started = time.perf_counter()
    while True:
        result = run.spawn(JOBS)
        if result is None or "wall_s" not in result:
            if result is None:
                run.lost()
            break
        passes.append(result)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:  # the next pass would end past the run length
            break
    if not passes:
        return {}, {"passes": passes}
    wall = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": wall,
        "graphs_per_s": passes[0]["graphs"] / wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    extra = {"passes": passes}
    if "latencies_us" in passes[0]:
        # Pooled over the run's passes, so p99 has enough samples beyond it.
        latencies = [x for p in passes for x in p.pop("latencies_us")]
        cuts = statistics.quantiles(latencies, n=100)
        extra["graph_latency_us"] = {"p50": cuts[49], "p99": cuts[98], "samples": len(latencies),
                                     "passes": len(passes)}
    return metrics, extra


def per_layer(run: Run) -> tuple[dict, dict]:
    # The rounds interleave the three kinds of pass, so each kind samples the
    # machine over the same stretch of time; timed figures are medians.
    rounds = [[run.spawn(JOBS), run.spawn(1), run.spawn(1, "--trace")] for _ in range(TRACE_ROUNDS)]
    passes = [p for r in rounds for p in r]
    for result in passes:
        if result is None:
            run.lost()
    if any(p is None or "wall_s" not in p for p in passes):
        return {}, {"passes": passes}
    parallel, serial, traced = zip(*rounds)
    traces = [p["trace"] for p in traced]
    trace = traces[0]

    metrics = {f"{name}.calls": trace["spans"][name]["calls"] for name in SPANS}
    traced_s = statistics.median(p["build_run_s"] for p in traced)
    untraced_s = statistics.median(p["build_run_s"] for p in serial)
    serial_wall = statistics.median(p["wall_s"] for p in serial)
    parallel_wall = statistics.median(p["wall_s"] for p in parallel)
    metrics.update({
        "connectivity.self_s": statistics.median(t["connectivity.self_s"] for t in traces),
        "connectivity.us_per_graph": statistics.median(t["connectivity.us_per_graph"] for t in traces),
        "verifier.graphs_checked": traced[0]["graphs"],
        "verifier.sweep_reuse": trace["verifier.sweep_reuse"],
        "verifier.kernel_calls_per_graph": trace["verifier.kernel_calls_per_graph"],
        "verifier.parallel_eff": serial_wall / (JOBS * parallel_wall),
        "unattributed_s": statistics.median(t["unattributed_s"] for t in traces),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    for other in traces[1:]:
        for name in SPANS:
            if other["spans"][name]["calls"] != trace["spans"][name]["calls"]:
                run.messages.append(f"repeat: {name} was called {trace['spans'][name]['calls']} times in "
                                    f"the first traced pass, {other['spans'][name]['calls']} in another")
    for name in run.workload.must_call:
        if trace["spans"][name]["calls"] == 0:
            run.messages.append(f"isolation: {name} was never called")
    for name in run.workload.must_not_call:
        if trace["spans"][name]["calls"] != 0:
            run.messages.append(f"isolation: {name} was called {trace['spans'][name]['calls']} times")
    return metrics, {"spans": trace["spans"], "coarse_spans": traced[0]["spans"], "passes": passes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "bipcon" / "__init__.py").is_file():
        print(f"error: no bipcon sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, extra = per_layer(run)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(run, args.seconds)
        units = END_TO_END
    correct = bool(metrics) and run.failed == 0 and not run.messages

    facts = machine_facts(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  jobs {JOBS}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in facts.items() if k not in ("jobs", "seed")))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g} ({run.failed}/{run.attempted} operations)")
    if "graph_latency_us" in extra:
        lat = extra["graph_latency_us"]
        print(f"graph_latency_us.p50 = {lat['p50']:.6g} us")
        print(f"graph_latency_us.p99 = {lat['p99']:.6g} us "
              f"({lat['samples']} graphs over {lat['passes']} passes)")
    for name, span in extra.get("spans", {}).items():
        per_call = "-" if span["us_per_call"] is None else f"{span['us_per_call']:.4g} us/call"
        print(f"  {name:32s} calls {span['calls']:>9d}  self {span['self_s']:.4f} s  {per_call}")
    for message in run.messages:
        print(f"FAILED: {message}")

    RESULTS.mkdir(exist_ok=True)
    record = {"machine": facts, "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "messages": run.messages, "metrics": metrics, **extra}
    out = RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
