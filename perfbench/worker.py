"""One pass of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, so the module-global sweep
cache of ``bipcon.verifier`` never carries over from one pass to the next.

    python3 perfbench/worker.py --workload NAME --seed N --jobs J [--trace]

The pass imports ``bipcon``, builds the workload's inputs, stamps
``first_call`` on the system-wide monotonic clock (so the parent can compute
set-up time from the moment it launched this process), makes the timed call,
and checks the outputs against golden. ``--trace`` installs the spans of
``tracing.py`` before the inputs are built.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    # Pool workers count once the pool has reaped them, which bipcon does
    # before its sweep and scan calls return.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    build_start = time.perf_counter()
    inputs = workload.build(args.seed)
    first_call = time.monotonic()

    cpu_start = _cpu_s()
    start = time.perf_counter()
    try:
        outputs = workload.run(inputs, args.jobs)
    except Exception:  # a crash of the program under test is a measured failure
        print(json.dumps({
            "first_call": first_call, "ops": workload.ops, "failed": workload.ops,
            "messages": [traceback.format_exc(limit=8)],
        }))
        return 0
    end = time.perf_counter()
    result = {
        "first_call": first_call,
        "wall_s": end - start,
        "build_run_s": end - build_start,
        "cpu_s": _cpu_s() - cpu_start,
        "peak_rss_mb": _peak_rss_mb(),
    }
    outcome = workload.check(outputs)
    if outcome.graphs != workload.graphs:
        outcome.fail(f"graphs_checked {outcome.graphs}, expected {workload.graphs}")
    result.update(ops=outcome.ops, failed=outcome.failed, messages=outcome.messages, graphs=outcome.graphs)
    if outcome.latencies_s is not None:
        result["latencies_us"] = [x * 1e6 for x in outcome.latencies_s]
    if tracer is not None:
        result["trace"] = tracer.summary(end - build_start, outcome.graphs)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
