"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest tests/test_acceptance.py -v -s``. The exhaustive criteria
share one set of cached shape sweeps (all shapes with r <= s and r + s <= 8,
2^(rs) labeled graphs each), built once with oracle cross-checking enabled.
"""

import os
import random
import time

import pytest

from bipcon.bigraph import BipartiteGraph, bipartite_complement
from bipcon.connectivity import (
    edge_connectivity_value,
    edge_oracle_value,
    vertex_connectivity_value,
    vertex_oracle_value,
)
from bipcon.constructions import (
    CayleySubset,
    WitnessFamilyId,
    bi_cayley,
    build_witness,
    claimed_edge_connectivity_pair,
)
from bipcon.errors import PreconditionViolated
from bipcon.verifier import check_theorem, shape_sweep, shapes_within

JOBS = os.cpu_count() or 1
FULL_MAX_N = 8
RANDOM_CORPUS_SEED = 987_654
RANDOM_CORPUS_SIZE = 1000
RANDOM_CORPUS_MAX_N = 12


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def sweeps():
    started = time.perf_counter()
    table = {(r, s): shape_sweep(r, s, jobs=JOBS) for (r, s) in shapes_within(FULL_MAX_N)}
    elapsed = time.perf_counter() - started
    return table, elapsed


def test_criterion_1_bicayley_complement_identity():
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for r in range(1, 9):
        for smask in range(1 << r):
            subset = CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1))
            lhs = bipartite_complement(bi_cayley(subset))
            rhs = bi_cayley(subset.complement())
            checked += 1
            if lhs != rhs:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and checked == sum(1 << r for r in range(1, 9)) and elapsed < 10
    _report(1, ok, f"Bi-Cayley complement identity on {checked} subsets, "
                   f"{mismatches} mismatches, {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_2_maximal_connectivity_of_bicayley_pairs():
    started = time.perf_counter()
    report = check_theorem("L2.4", max_r=8, jobs=JOBS)
    elapsed = time.perf_counter() - started
    ok = report.violations == [] and elapsed < 60
    _report(2, ok, f"maximal connectivity on {report.graphs_checked} connected "
                   f"Bi-Cayley graphs/complements, {len(report.violations)} exceptions, "
                   f"{elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_3_oracle_equivalence(sweeps):
    table, fixture_elapsed = sweeps
    started = time.perf_counter()
    exhaustive_mismatches = sum(len(sweep.mismatches) for sweep in table.values())
    exhaustive_graphs = sum(sweep.graphs_checked for sweep in table.values())

    rng = random.Random(RANDOM_CORPUS_SEED)
    random_mismatches = 0
    for _ in range(RANDOM_CORPUS_SIZE):
        r = rng.randint(1, RANDOM_CORPUS_MAX_N // 2)
        s = rng.randint(r, RANDOM_CORPUS_MAX_N - r)
        density = rng.random()
        mask = 0
        for bit in range(r * s):
            if rng.random() < density:
                mask |= 1 << bit
        rows = BipartiteGraph.from_mask(r, s, mask).adjacency
        if edge_connectivity_value(r, s, rows) != edge_oracle_value(r, s, rows):
            random_mismatches += 1
        if vertex_connectivity_value(r, s, rows) != vertex_oracle_value(r, s, rows):
            random_mismatches += 1
    elapsed = fixture_elapsed + time.perf_counter() - started
    ok = exhaustive_mismatches == 0 and random_mismatches == 0 and elapsed < 300
    _report(3, ok, f"flow equals oracle on {exhaustive_graphs} enumerated graphs "
                   f"(r+s <= {FULL_MAX_N}) and {RANDOM_CORPUS_SIZE} random graphs "
                   f"(r+s <= {RANDOM_CORPUS_MAX_N}); "
                   f"{exhaustive_mismatches + random_mismatches} mismatches, "
                   f"{elapsed:.1f}s (< 300s)")
    assert ok


def test_criterion_4_unconstrained_bound_direction(sweeps):
    table, fixture_elapsed = sweeps
    violations = [
        v
        for sweep in table.values()
        for v in sweep.violations
        if v.theorem in ("L3.1", "T3.2", "T3.3")
    ]
    graphs = sum(sweep.graphs_checked for sweep in table.values())
    expected = sum(1 << (r * s) for r, s in shapes_within(FULL_MAX_N))
    ok = violations == [] and graphs == expected and fixture_elapsed < 600
    _report(4, ok, f"degree/connectivity sum and product bounds on all {graphs} "
                   f"labeled graphs with r+s <= {FULL_MAX_N}; "
                   f"{len(violations)} violations, {fixture_elapsed:.1f}s (< 600s)")
    assert ok


def test_criterion_5_unconstrained_sharpness_witnesses():
    started = time.perf_counter()
    bad = []
    for r in range(4, 9):
        for s in range(r, 10):
            g = build_witness(WitnessFamilyId.S3_G2, r, s)
            gc = bipartite_complement(g)
            pair = (
                edge_connectivity_value(g.left_size, g.right_size, g.adjacency),
                edge_connectivity_value(gc.left_size, gc.right_size, gc.adjacency),
            )
            if pair != (r // 2, (r + 1) // 2):
                bad.append(("s3-g2", r, s, pair))
    for r in range(1, 9):
        for s in range(max(r, 2), 10):
            if r + s < 3 or s < r:
                continue
            g = build_witness(WitnessFamilyId.S3_G1, r, s)
            gc = bipartite_complement(g)
            total = edge_connectivity_value(g.left_size, g.right_size, g.adjacency) + \
                edge_connectivity_value(gc.left_size, gc.right_size, gc.adjacency)
            if total != 0:
                bad.append(("s3-g1", r, s, total))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 60
    _report(5, ok, f"product witnesses reach (floor(r/2), ceil(r/2)) for r in [4,8], "
                   f"s in [r,9]; sum witnesses reach 0; {len(bad)} exceptions, "
                   f"{elapsed:.2f}s (< 60s)")
    assert ok, bad


def test_criterion_6_sized_bound_direction(sweeps):
    table, fixture_elapsed = sweeps
    violations = [
        v
        for sweep in table.values()
        for v in sweep.violations
        if v.theorem in ("T4.1", "T4.2", "T4.3")
    ]
    graphs = sum(sweep.graphs_checked for sweep in table.values())
    ok = violations == [] and fixture_elapsed < 900
    _report(6, ok, f"fixed-size N/M bounds for edge and vertex connectivity on all "
                   f"{graphs} labeled graphs with r+s <= {FULL_MAX_N}; "
                   f"{len(violations)} violations, {fixture_elapsed:.1f}s (< 900s)")
    assert ok


def test_criterion_7_witness_connectivity_pairs():
    started = time.perf_counter()
    built = 0
    bad = []
    for r in range(1, 7):
        for s in range(r, 13 - r):
            for family in WitnessFamilyId:
                if family in (WitnessFamilyId.S3_G1, WitnessFamilyId.S3_G2):
                    continue
                for m in range(r * s // 2 + 1):
                    try:
                        g = build_witness(family, r, s, m)
                    except PreconditionViolated:
                        continue
                    built += 1
                    gc = bipartite_complement(g)
                    pair = (
                        edge_connectivity_value(g.left_size, g.right_size, g.adjacency),
                        edge_connectivity_value(gc.left_size, gc.right_size, gc.adjacency),
                    )
                    if pair != claimed_edge_connectivity_pair(family, r, s, m):
                        bad.append((family.value, r, s, m, pair))
    elapsed = time.perf_counter() - started
    ok = not bad and built > 0 and elapsed < 120
    _report(7, ok, f"{built} witness builds over r+s <= 12 reproduce their claimed "
                   f"connectivity pairs exactly; {len(bad)} exceptions, "
                   f"{elapsed:.2f}s (< 120s)")
    assert ok, bad[:10]


def test_criterion_8_attainment_audit(sweeps):
    table, _ = sweeps  # ensures the sweep cache is warm
    started = time.perf_counter()
    sum_report = check_theorem("T4.1", max_n=FULL_MAX_N, jobs=JOBS)
    prod_report = check_theorem("T4.2", max_n=FULL_MAX_N, jobs=JOBS)
    elapsed = time.perf_counter() - started
    problems = []
    degenerate = []
    for report in (sum_report, prod_report):
        if report.exit_status != 0:
            problems.append(f"{report.theorem} exit {report.exit_status}")
        for a in report.attainment:
            if a.witness_family is not None and not a.attained:
                problems.append(f"witness exists but bound unattained at "
                                f"({a.r},{a.s},{a.m}) {a.metric} {a.bound}")
            if a.witness_family is not None and a.witness_value != a.formula:
                problems.append(f"witness misses formula at ({a.r},{a.s},{a.m})")
            if not a.attained:
                degenerate.append((a.r, a.s, a.m, a.metric, a.enumerated, a.formula))
    flagged = (2, 2, 2, "sum_edge", 0, 1)
    if flagged not in degenerate:
        problems.append("the (2,2,2) degenerate cell was not recorded")
    ok = not problems
    _report(8, ok, f"attainment audit over r+s <= {FULL_MAX_N}: "
                   f"{len(sum_report.attainment) + len(prod_report.attainment)} cells, "
                   f"witnesses attain wherever defined, "
                   f"{len(degenerate)} degenerate cells recorded "
                   f"(incl. (2,2,2) enumerated 0 vs N=1), exit 0, {elapsed:.2f}s")
    assert ok, problems


def test_criterion_9_vertex_addition_trials():
    started = time.perf_counter()
    report = check_theorem("L2.5", trials=10_000, seed=20_240, jobs=JOBS)
    elapsed = time.perf_counter() - started
    ok = report.violations == [] and report.graphs_checked == 10_000 and elapsed < 60
    _report(9, ok, f"{report.graphs_checked} random vertex-addition trials kept "
                   f"edge connectivity; {len(report.violations)} failures, "
                   f"{elapsed:.2f}s (< 60s)")
    assert ok
