"""Exhaustive and randomized verification of the connectivity bound claims.

The bound claims all read the same way: a pair value f(G) + f(G^bc) or
f(G) * f(G^bc), with f the minimum degree, the edge connectivity or the
vertex connectivity, stays on one side of a closed form in (r, s, m). The
engine that checks them has three pieces:

* two mask sources, each of which evaluates a graph/complement pair once
  on a full sweep: the 2^(rs-1) pair masks of a shape (``shape_sweep`` up
  to eight vertices), or one representative per S_r x S_s orbit, weighted
  by its orbit size, from ``orbits.orbit_classes``: from nine vertices on,
  each orbit with at most floor(rs/2) edges, which also stands for its
  complement orbit, and in every ``extremal_scan`` the orbits with m edges;
* one chunk worker that runs only the kernels the requested metrics need
  and folds each value into per-edge-count cells through one reducer (max
  and min with a smallest-mask tie-break, plus a count), the same reducer
  that merges the chunks, so reports are identical for any worker count;
* a claim table, one row per (theorem, metric, side, sized, bound), that
  drives both the per-graph violation checks and the attainment records;
  each record's witness is derived from its row (``_witness``).

All claims share one runner, ``_run_chunked``: it cuts a claim's index
range [0, count) into contiguous chunks, runs the claim's worker over each
(inline for one chunk, else in a process pool) and returns the results in
chunk order. The bound claims' worker ranges over pair masks, 2,048 or
more to a chunk, or orbit ranks, and returns the ``ShapeSweep`` of its
range, which ``_scan`` folds into one, cells through the reducer. The
others return (graphs checked, violations): the Bi-Cayley claims (L2.1,
L2.4) range over the 2^(max_r+1) - 2 subsets S of Z_1, ..., Z_max_r, at
most 2^24, numbered in order by ``_cayley_masks``, in chunks of 2^14
subsets or more, L2.1 label for label, L2.4 valuing only the least S of
each class under affine maps and complementing (``_l24_chunk``); the
vertex-addition claim (L2.5) ranges over blocks of 500 trials, twenty or
more blocks to a chunk, block i seeded from the seed and i, so no draw
depends on the chunks. The minimums for pair masks, Bi-Cayley subsets and
L2.5 are the measured break-even of a pool on two jobs, so the 2^11 pairs
of (3, 4) and (2, 6), ``max_r`` 13 and 10,000 trials run in one process.

Every value comes from the max-flow path, on either walk. A shape sweep
up to eight vertices walks every labeled graph, and only that walk audits
each graph and its complement against the brute-force oracles: each
disagreement is a mismatch, the oracle's value fills the cells, and the
mismatch is a violation of every claim on that kernel (T3.2, T4.1 and T4.2
for edge connectivity, T3.3 and T4.3 for vertex connectivity). Every other
run (full sweeps from nine vertices on, every fixed-m scan) calls no oracle
and evaluates one representative per isomorphism class: every metric and
bound depends only on the class, a class counts for all its labeled
graphs, and it is filed under its smallest labeled mask, so cells, extremes
and reports are those of a labeled walk. A pair that breaks a bound is
reported once, on its side with fewer edges (the smaller mask on a tie): on
the labeled walk a graph or its complement, on the class walk the smallest
mask of a class or of its complement class, which stands for all their
labeled graphs.

The kernels each run calls, per graph; ``_values`` is the one place that
picks them for sweeps, scans, witness values and L2.4:

* a sweep with vertex metrics calls ``connectivity._joint_values`` once for
  delta, k' and k (one row closure, adjacency masks and degree list), and
  L2.4 once per side of each class whose pair is connected on both sides;
* an edge-only sweep calls ``_min_degree`` and ``edge_connectivity_value``,
  a fixed-m scan and a witness value the one kernel of its metric, and the
  labeled walk adds ``edge_oracle_value`` and ``vertex_oracle_value`` for
  its kinds;
* L2.5 keeps each trial graph as packed rows and calls
  ``edge_connectivity_value`` once per distinct graph of a chunk, before or
  after a vertex is attached (10,000 trials value 4,949 graphs), through
  ``functools`` memos, the k' memo keeping the 2^14 most recently used
  graphs.

Every sweep and scan is held to one cap on its shape, rs <= 30, checked
before any work; ``check_theorems`` checks it on the largest shape within
``max_n`` before it lists the shapes, so full sweeps run through n = 11.

``check_theorems`` reads all its bound claims off one ``shape_sweep`` per
shape, with vertex metrics when any of them needs vertex connectivity;
``check_theorem`` is its one-claim form. Claim identifiers accepted by both:

========  ==================================================================
L2.1      complementing BC(Z_r, S) complements its connection set, label
          for label
L2.4      a Bi-Cayley graph and complement that are both connected are
          maximally vertex- and edge-connected (k = k' = delta = |S|)
L2.5      attaching one new vertex with at least k edges to a
          k-edge-connected graph keeps it k-edge-connected (randomized)
L3.1      0 <= delta(G) + delta(G^bc) <= r and
          delta(G) * delta(G^bc) <= ceil(r/2) * floor(r/2)
T3.2      the same two bounds for edge connectivity
T3.3      the same two bounds for vertex connectivity
T4.1      max(0, r-m) <= k'(G) + k'(G^bc) <= N(n, m) at fixed edge count m
T4.2      k'(G) * k'(G^bc) <= M(n, m) at fixed edge count m
T4.3      the N and M bounds applied to vertex connectivity
========  ==================================================================
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, lru_cache
from itertools import groupby
from math import gcd
from multiprocessing import Pool
from operator import add, attrgetter, mul
from typing import Callable, Iterable

from .bigraph import BipartiteGraph, _bit_indices, _bit_map, _rows_connected, attach_vertex, bipartite_complement, rows_of
from .bounds import M_upper, N_upper, ParameterTriple, delta_bounds, sum_lower_sized
from .connectivity import (
    _joint_values,
    _min_degree,
    edge_connectivity_value,
    edge_oracle_value,
    vertex_connectivity_value,
    vertex_oracle_value,
)
from .constructions import (
    BoundGoal,
    CayleySubset,
    WitnessFamilyId,
    bi_cayley,
    build_witness,
    dispatch_witness,
)
from .errors import NoWitness, PreconditionViolated, TooLarge, UnknownTheorem

SHAPE_MAX_BITS = 30
BI_CAYLEY_MAX_BITS = 24
L25_MAX_TRIALS = 1 << 24
ORACLE_BACKEND_MAX_VERTICES = 8

METRIC_IDS = ("sum_edge", "prod_edge", "sum_vertex", "prod_vertex")
_ALL_METRICS = METRIC_IDS + ("sum_delta", "prod_delta")

THEOREM_IDS = ("L2.1", "L2.4", "L2.5", "L3.1", "T3.2", "T3.3", "T4.1", "T4.2", "T4.3")


# --- shapes and size caps ------------------------------------------------------


def _check_shape(r: int, s: int) -> None:
    """Refuse a sweep or scan of a shape with rs > SHAPE_MAX_BITS, before any work.

    The cap bounds what the orbit walk costs: r <= s puts r at most 5, which
    bounds the r! images of ``orbits.orbit_classes`` and the recursion of
    ``class_count``, and the largest shape admitted, (5, 6), walks 1.32 M
    ranks.
    """
    if r * s > SHAPE_MAX_BITS:
        raise TooLarge(f"shape ({r}, {s}) has rs = {r * s} > {SHAPE_MAX_BITS}, the cap on rs of a sweep or scan")


def shapes_within(max_n: int) -> list[tuple[int, int]]:
    """All shapes (r, s) with 1 <= r <= s and r + s <= max_n."""
    return [(r, s) for r in range(1, max_n // 2 + 1) for s in range(r, max_n - r + 1)]


# --- scan engine: mask sources, one chunk worker, one reducer -----------------


_JSON_NAMES = {"witness_edges": "witness", "range_spec": "range"}


def _json(value):
    """A report record as JSON data: fields in declaration order, tuples as lists."""
    if is_dataclass(value):
        return {_JSON_NAMES.get(f.name, f.name): _json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


@dataclass(frozen=True)
class Violation:
    """One graph that broke one bound (expected never to exist).

    A graph/complement pair is reported on its side with fewer edges, the
    smaller mask on a tie; from nine vertices on that side is a class, given
    by its smallest mask, and the violation stands for all its graphs. A
    graph whose max-flow value differs from the oracle's in a claim's
    audited sweep breaks that claim too: side "oracle", metric "edge_flow"
    or "vertex_flow", the flow value observed and the oracle value as bound.
    """

    theorem: str
    side: str  # "lower" | "upper" | "oracle"
    metric: str
    r: int
    s: int
    m: int
    edges: tuple[tuple[int, int], ...]
    observed: int
    bound: int

    def to_json_dict(self) -> dict:
        return _json(self)


@dataclass
class _Cell:
    max_value: int
    max_mask: int
    min_value: int
    min_mask: int
    count: int


@dataclass
class ShapeSweep:
    """Reduced results of one scan of a mask source (a shape sweep or a fixed-m scan), or of one chunk of it."""

    r: int
    s: int
    graphs_checked: int
    cells: dict[str, list[_Cell | None]]  # metric -> cell per edge count 0..rs; an edge-only sweep has no vertex keys
    violations: list[Violation]
    mismatches: list[tuple]  # (mask, invariant, flow_value, oracle_value)
    orbits_checked: int | None = None  # classes covered, one evaluation per class pair; None on a labeled sweep


def _fold(cells: list, m: int, cell: _Cell) -> None:
    """The reducer: fold ``cell`` into ``cells[m]``, which then owns it.

    Keeps the max and the min, each with the smallest mask among ties, and
    adds up the count. The order of folding never changes the result, so
    chunks merge to the same cells for any worker count.
    """
    held = cells[m]
    if held is None:
        cells[m] = cell
        return
    if cell.max_value > held.max_value or (cell.max_value == held.max_value and cell.max_mask < held.max_mask):
        held.max_value, held.max_mask = cell.max_value, cell.max_mask
    if cell.min_value < held.min_value or (cell.min_value == held.min_value and cell.min_mask < held.min_mask):
        held.min_value, held.min_mask = cell.min_value, cell.min_mask
    held.count += cell.count


_KINDS = ("delta", "edge", "vertex")  # the order of ``_joint_values``


def _values(r: int, s: int, rows: tuple[int, ...], kinds: tuple[str, ...]) -> list[int]:
    """The max-flow values of ``kinds`` on one graph, in that order.

    All of ``_KINDS`` take one ``_joint_values`` pass, other kinds their own
    kernels. Each kernel is looked up at call time, so a caller that rebinds
    its module name sees every call.
    """
    if kinds == _KINDS:
        return list(_joint_values(r, s, rows))
    return [_min_degree(r, s, rows) if kind == "delta" else
            edge_connectivity_value(r, s, rows) if kind == "edge" else
            vertex_connectivity_value(r, s, rows) for kind in kinds]


def _chunk(args):
    """Worker: the ``ShapeSweep`` of one chunk of a mask source, its values folded into cells by edge count.

    [lo, hi) is a range of one of two sources; each item is a class of
    weight w (graphs) with its smallest mask, and on a full sweep the
    smallest mask of its complement class too. With ``orbits`` [lo, hi)
    ranks the multisets of column types of ``orbits.orbit_classes(r, s,
    m)``: with ``m`` given, the m-edge orbits, each filed alone; with ``m``
    None, the orbits with at most floor(rs/2) edges. Otherwise ``m`` is
    None and [lo, hi) is a range of pair masks, each a class of one graph
    whose complement class is the complement mask. A full sweep files the
    pair in cell popcount under the class's mask and in cell rs - popcount
    under the complement class's, both with weight w. At popcount rs/2 both
    orbits of a pair are walked, so the one with the larger mask is skipped
    and its partner files both; a self-complementary orbit is filed once.
    Each decision is local to the item, so chunking never changes the
    cells. Items are gathered by key (edge count, whether a complement
    class is filed, pair values) with their total weight and the least mask
    and least complement-class mask seen, the least and not the first, as
    orbit ranks are not in mask order; the keys are folded into the cells
    through ``_fold`` once, at the end of the chunk, and give the cells a
    per-item fold gives. A pair's bounds in ``checks`` depend only on its
    edge count, so they are tested once per key; a pair that breaks one is
    still reported once per pair, on the item's mask or its complement
    class's, whichever has fewer edges (the smaller on a tie), its edges
    built once for all the checks it breaks, so the violations come in
    walk order. ``_values`` runs only the
    kernels the metrics need (minimum degree, edge pair, vertex pair). Every
    value comes from the max-flow path; the pair masks, and only they, are
    audited graph by graph against the brute-force oracles, and a graph
    whose flow differs is a mismatch whose oracle value fills the cells.

    Returns the ``ShapeSweep`` of the range: graphs and classes covered
    (``orbits_checked`` None on the pair masks), cells, violations and
    mismatches.
    """
    lo, hi, r, s, m, orbits, metrics, checks = args
    bits = r * s
    full = (1 << bits) - 1
    kinds = tuple(kind for kind in _KINDS if any(metric.endswith(kind) for metric in metrics))
    oracle = {"edge": edge_oracle_value, "vertex": vertex_oracle_value}
    audits = [] if orbits else [(i, kind, oracle[kind]) for i, kind in enumerate(kinds) if kind != "delta"]
    ops = [(kinds.index(metric.split("_")[1]), add if metric.startswith("sum") else mul) for metric in metrics]
    cells = {metric: [None] * (bits + 1) for metric in metrics}
    per_metric = list(cells.values())
    # (edge count, complement class filed, pair values) -> [weight, least
    # mask, least complement-class mask, failed checks]
    seen = {}
    violations = []
    mismatches = []
    if orbits:
        from .orbits import orbit_classes  # loaded by the first orbit scan only

        items = orbit_classes(r, s, m, lo, hi)
    else:
        items = ((mask, 1, full ^ mask) for mask in range(lo, hi))
    graphs = classes = 0
    for mask, weight, twin in items:
        mm = mask.bit_count()
        mc = bits - mm
        if twin is not None and mm == mc and mask > twin:
            continue  # the complement orbit, walked too, files this pair
        if twin == mask:
            twin = None  # a self-complementary orbit is filed once
        sides = 1 if twin is None else 2
        graphs += sides * weight
        classes += sides
        cmask = full ^ mask
        rows = rows_of(r, s, mask)
        rows_c = rows_of(r, s, cmask)
        found = _values(r, s, rows, kinds), _values(r, s, rows_c, kinds)
        if audits:
            for side_mask, side_rows, side_values in zip((mask, cmask), (rows, rows_c), found):
                for i, kind, fn in audits:
                    expected = fn(r, s, side_rows)
                    if side_values[i] != expected:
                        mismatches.append((side_mask, kind, side_values[i], expected))
                        side_values[i] = expected
        key = (mm, twin is not None, tuple([op(found[0][i], found[1][i]) for i, op in ops]))
        entry = seen.get(key)
        if entry is None:
            # The pair value is symmetric, so a pair is held to the bound at
            # its smaller edge count; the bounds depend on nothing else.
            vm = min(mm, mc)
            failed = []
            for theorem, side, metric, i, bound_by_m, upper in checks:
                value = key[2][i]
                bound = bound_by_m[vm]
                if value > bound if upper else value < bound:
                    failed.append((theorem, side, metric, vm, value, bound))
            seen[key] = [weight, mask, twin, failed]
        else:
            entry[0] += weight
            if mask < entry[1]:
                entry[1] = mask
            if twin is not None and twin < entry[2]:
                entry[2] = twin
            failed = entry[3]
        if failed:
            # Reported once per pair, on the side with fewer edges, the
            # smaller mask on a tie: a graph or its complement, or the
            # smallest mask of a class or of its complement class.
            subject = mask if twin is None or (mm, mask) < (mc, twin) else twin
            edges = tuple(BipartiteGraph.from_mask(r, s, subject).edges())
            violations += [Violation(theorem, side, metric, r, s, vm, edges, value, bound)
                           for theorem, side, metric, vm, value, bound in failed]
    for (mm, paired, values), (weight, mask, twin, _) in seen.items():
        for per_m, value in zip(per_metric, values):
            _fold(per_m, mm, _Cell(value, mask, value, mask, weight))
            if paired:
                _fold(per_m, bits - mm, _Cell(value, twin, value, twin, weight))
    return ShapeSweep(r, s, graphs, cells, violations, mismatches, classes if orbits else None)


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(1, os.cpu_count() or 1)
    if type(jobs) is not int or jobs < 1:  # bool and float excluded
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    return jobs


def _run_chunked(worker, count: int, min_chunk: int, jobs: int, *extra) -> list:
    """Run ``worker((lo, hi, *extra))`` over contiguous ranges covering [0, count); the results in range order.

    One job takes one range, more take about eight ranges a job, none
    shorter than ``min_chunk`` but the last. One range runs inline, more in
    a process pool.
    """
    size = max(1, min_chunk, count if jobs == 1 else count // (jobs * 8))
    arg_sets = [(lo, min(lo + size, count), *extra) for lo in range(0, count, size)]
    if len(arg_sets) <= 1:
        return [worker(args) for args in arg_sets]
    # More processes than CPUs only share them; jobs still sets the chunking.
    with Pool(processes=min(jobs, len(arg_sets), _resolve_jobs(None))) as pool:
        return pool.map(worker, arg_sets)


# An orbit scan up to nine vertices walks at most 9,005 multisets (the full
# sweep of (4, 5), which walks those with at most 10 edges; an m-edge scan
# walks at most 2,506), so it runs as one inline chunk: a pool starts slower
# than the whole scan.
_ORBIT_MIN_CHUNK = 1 << 14


def _scan(r: int, s: int, m: int | None, orbits: bool, metrics, checks, jobs: int) -> ShapeSweep:
    """Run one mask source (see ``_chunk``) in chunks; fold the chunks' sweeps into one.

    The source is the orbit representatives when ``orbits``, ranked by
    ``orbits.class_count(r, s, m)`` (the m-edge ones when ``m`` is given,
    else those with at most floor(rs/2) edges, each with its complement
    orbit), else the pair masks, which cover every edge count and take
    ``m`` None. The cells merge through ``_fold``, the counts add up, and
    the violations and mismatches of contiguous ranges, merged in range
    order, come in walk order for any worker count.
    """
    if orbits:
        from .orbits import class_count

        count, min_chunk = class_count(r, s, m), _ORBIT_MIN_CHUNK
    else:
        # 2,048 pair masks a chunk at least, the measured break-even of a
        # pool on two jobs of a 2-core machine. Wall / CPU of a sweep with
        # vertex metrics, medians of 7 fresh processes:
        #   (2, 6),  2,048 masks: two pooled chunks 52 / 78 ms, inline 40 / 40;
        #   (3, 4),  2,048 masks: two pooled chunks 61 / 95 ms, inline 63 / 63;
        #   (3, 5), 16,384 masks: chunks of 2,048 281 ms wall, of 1,024
        #            294 ms, inline 517 ms.
        # So (2, 6) and (3, 4) run inline, and every larger shape pools.
        count, min_chunk = 1 << (r * s - 1), 2048
    sweep = ShapeSweep(r, s, 0, {metric: [None] * (r * s + 1) for metric in metrics}, [], [], 0 if orbits else None)
    for chunk in _run_chunked(_chunk, count, min_chunk, jobs, r, s, m, orbits, metrics, checks):
        sweep.graphs_checked += chunk.graphs_checked
        if orbits:
            sweep.orbits_checked += chunk.orbits_checked
        for metric, per_m in chunk.cells.items():
            for em, cell in enumerate(per_m):
                if cell is not None:
                    _fold(sweep.cells[metric], em, cell)
        sweep.violations += chunk.violations
        sweep.mismatches += chunk.mismatches
    return sweep


def _checks(r: int, s: int, metrics) -> list[tuple]:
    """Every bound claim on ``metrics`` as (theorem, side, metric, index in metrics, bound per edge count, upper)."""
    return [
        (c.theorem, c.side, c.metric, metrics.index(c.metric),
         [c.bound(r, s, m) for m in range(r * s // 2 + 1)], c.side == "upper")
        for c in _CLAIMS
        if c.metric in metrics
    ]


_SWEEP_CACHE: dict[tuple[int, int], ShapeSweep] = {}


def shape_sweep(
    r: int,
    s: int,
    jobs: int | None = None,
    use_cache: bool = True,
    include_vertex: bool = True,
) -> ShapeSweep:
    """Exhaustively scan one shape (cached per shape).

    Covers all 2^(rs) labeled graphs, valued by max-flow. At r + s <= 8 it
    walks the 2^(rs-1) graph/complement pairs and audits each graph against
    the brute-force oracles (see ``_chunk``). Above that it
    evaluates one graph per pair of an S_r x S_s orbit and its complement
    orbit and weights each side by its orbit size: ``graphs_checked`` still
    counts the labeled graphs covered, and ``orbits_checked`` the classes
    covered, both orbits of each pair. A pair that breaks a bound is one
    violation, on its side with fewer edges. Vertex connectivity dominates
    the cost; edge-only callers pass ``include_vertex=False``, and the
    sweep's ``cells`` then holds no vertex keys and it makes no T3.3/T4.3
    checks. A cached sweep with vertex metrics serves edge-only requests
    too. Raises TooLarge for rs > SHAPE_MAX_BITS before any work.
    """
    if type(r) is not int or type(s) is not int or not (1 <= r <= s):  # bool and float excluded
        raise ValueError(f"needs ints 1 <= r <= s, got r={r!r}, s={s!r}")
    jobs = _resolve_jobs(jobs)
    key = (r, s)
    if use_cache and key in _SWEEP_CACHE:
        cached = _SWEEP_CACHE[key]
        if "sum_vertex" in cached.cells or not include_vertex:
            return cached
    _check_shape(r, s)
    metrics = tuple(metric for metric in _ALL_METRICS if include_vertex or not metric.endswith("vertex"))
    orbits = r + s > ORACLE_BACKEND_MAX_VERTICES
    sweep = _scan(r, s, None, orbits, metrics, _checks(r, s, metrics), jobs)
    if use_cache:
        _SWEEP_CACHE[key] = sweep
    return sweep


# --- fixed-size extremal scan -------------------------------------------------


@dataclass(frozen=True)
class ExtremalResult:
    """Extremes of one metric over all labeled graphs with exactly m edges."""

    metric: str
    r: int
    s: int
    m: int
    max_value: int
    argmax: BipartiteGraph
    min_value: int
    argmin: BipartiteGraph
    graphs_checked: int
    orbits_checked: int  # classes covered, one graph evaluated per orbit with m edges


def metric_value(metric: str, g: BipartiteGraph) -> int:
    """Evaluate one metric (max-flow backed) on a graph and its complement."""
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}")
    op, kind = metric.split("_")
    (a,), (b,) = (_values(h.left_size, h.right_size, h.adjacency, (kind,)) for h in (g, bipartite_complement(g)))
    return a + b if op == "sum" else a * b


def extremal_scan(r: int, s: int, m: int, metric: str, jobs: int | None = None) -> ExtremalResult:
    """Extremal metric values over every labeled graph with exactly m edges.

    Preconditions: r <= s, m <= floor(rs/2), and rs <= SHAPE_MAX_BITS, else
    TooLarge before any work. One graph per orbit is evaluated by max-flow,
    at any size, from the m-edge column multisets only, which are never more
    than the m-edge masks; the extremes and their smallest labeled masks are
    those of a labeled walk. No oracle runs: the audit is the labeled sweep's.
    """
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}; choose one of {METRIC_IDS}")
    ParameterTriple(r, s, m)
    _check_shape(r, s)
    sweep = _scan(r, s, m, True, (metric,), (), _resolve_jobs(jobs))
    cell = sweep.cells[metric][m]
    return ExtremalResult(
        metric, r, s, m, cell.max_value,
        BipartiteGraph.from_mask(r, s, cell.max_mask),
        cell.min_value,
        BipartiteGraph.from_mask(r, s, cell.min_mask),
        sweep.graphs_checked,
        sweep.orbits_checked,
    )


# --- theorem reports ----------------------------------------------------------


@dataclass(frozen=True)
class AttainmentRecord:
    """How close the enumerated extreme came to one formula bound."""

    r: int
    s: int
    m: int | None
    metric: str
    bound: str  # "lower" | "upper"
    enumerated: int
    formula: int
    attained: bool
    witness_family: str | None
    witness_edges: tuple[tuple[int, int], ...] | None
    witness_value: int | None

    def to_json_dict(self) -> dict:
        return _json(self)


@dataclass
class TheoremReport:
    """Outcome of one verification run."""

    theorem: str
    range_spec: dict
    graphs_checked: int
    violations: list[Violation]
    attainment: list[AttainmentRecord]
    wall_ms: int
    notes: list[str] = field(default_factory=list)

    @property
    def exit_status(self) -> int:
        return 0 if not self.violations else 2

    def to_json_dict(self) -> dict:
        return _json(self)


def _sum_cap(r: int, s: int, m: int | None) -> int:
    return delta_bounds(r).sum_upper


def _prod_cap(r: int, s: int, m: int | None) -> int:
    return delta_bounds(r).prod_upper


def _sum_floor(r: int, s: int, m: int) -> int:
    return sum_lower_sized(ParameterTriple(r, s, m))


def _n_bound(r: int, s: int, m: int) -> int:
    return N_upper(ParameterTriple(r, s, m))


def _m_bound(r: int, s: int, m: int) -> int:
    return M_upper(ParameterTriple(r, s, m))


@dataclass(frozen=True)
class _Claim:
    """One bound of one theorem: ``metric`` stays on ``side`` of ``bound(r, s, m)``.

    A sized claim holds per edge count m <= floor(rs/2) and gets one
    attainment record per m; an unsized one ignores m and gets one record
    per shape (m None). ``_witness`` derives the graph meant to reach the
    bound from the claim itself.
    """

    theorem: str
    metric: str
    side: str  # "lower" | "upper"
    sized: bool
    bound: Callable[[int, int, int | None], int]


# The bound functions and ``_witness`` look the bounds and builders up at
# call time, so a caller that rebinds those module names sees every call.
_CLAIMS = (
    _Claim("L3.1", "sum_delta", "upper", False, _sum_cap),
    _Claim("L3.1", "prod_delta", "upper", False, _prod_cap),
    _Claim("T3.2", "sum_edge", "upper", False, _sum_cap),
    _Claim("T3.2", "prod_edge", "upper", False, _prod_cap),
    _Claim("T3.3", "sum_vertex", "upper", False, _sum_cap),
    _Claim("T3.3", "prod_vertex", "upper", False, _prod_cap),
    _Claim("T4.1", "sum_edge", "upper", True, _n_bound),
    _Claim("T4.1", "sum_edge", "lower", True, _sum_floor),
    _Claim("T4.2", "prod_edge", "upper", True, _m_bound),
    _Claim("T4.3", "sum_vertex", "upper", True, _n_bound),
    _Claim("T4.3", "sum_vertex", "lower", True, _sum_floor),
    _Claim("T4.3", "prod_vertex", "upper", True, _m_bound),
)


def _witness(claim: _Claim, r: int, s: int, m: int | None) -> tuple[str, BipartiteGraph] | None:
    """(family name, graph) meant to reach the claim's bound, or None.

    Minimum-degree claims have none. A sized claim takes the family that
    ``dispatch_witness`` picks for its goal ("empty" for the empty graph), an
    unsized sum the complete graph, and an unsized product ``s3-g2``; a goal
    or family whose domain excludes (r, s, m) gives None.
    """
    if claim.metric.endswith("delta"):
        return None
    op = claim.metric.split("_")[0]
    if not claim.sized and op == "sum":
        return "complete", BipartiteGraph.from_mask(r, s, (1 << (r * s)) - 1)
    try:
        if claim.sized:
            family, graph = dispatch_witness(BoundGoal(f"{op}-{claim.side}"), r, s, m)
        else:
            family = WitnessFamilyId.S3_G2
            graph = build_witness(family, r, s)
    except (NoWitness, PreconditionViolated):
        return None
    return (family.value if family is not None else "empty"), graph


def _attainment(claim: _Claim, sweep: ShapeSweep, m: int | None) -> AttainmentRecord:
    """How close the sweep's extreme on the claim's side came to its bound."""
    r, s = sweep.r, sweep.s
    cells = sweep.cells[claim.metric] if m is None else sweep.cells[claim.metric][m:m + 1]
    if claim.side == "upper":
        enumerated = max(c.max_value for c in cells if c is not None)
    else:
        enumerated = min(c.min_value for c in cells if c is not None)
    formula = claim.bound(r, s, m)
    witness = _witness(claim, r, s, m)
    if witness is None:
        family = edges = value = None
    else:
        family, graph = witness
        edges, value = tuple(graph.edges()), metric_value(claim.metric, graph)
    return AttainmentRecord(
        r, s, m, claim.metric, claim.side, enumerated, formula, enumerated == formula, family, edges, value
    )


# Claim workers: each takes one index range [lo, hi) of its claim and returns
# (graphs checked, violations in index order).


def _cayley_masks(lo: int, hi: int):
    """(r, S-mask) of the subsets S of Z_1, Z_2, ... numbered in order, those of Z_r from 2^r - 2: [lo, hi)."""
    for i in range(lo + 2, hi + 2):
        r = i.bit_length() - 1
        yield r, i ^ 1 << r


def _cayley_subset(r: int, smask: int) -> CayleySubset:
    return CayleySubset(r, frozenset(_bit_indices(smask)))


def _l21_chunk(args):
    lo, hi = args
    violations = []
    for r, smask in _cayley_masks(lo, hi):
        subset = _cayley_subset(r, smask)
        g = bi_cayley(subset)
        if bipartite_complement(g) != bi_cayley(subset.complement()):
            violations.append(
                Violation("L2.1", "upper", "labeled_equality", r, r, len(subset.members), tuple(g.edges()), 0, 0)
            )
    return hi - lo, violations


@cache
def _unit_tables(r: int) -> list[tuple[list[int], list[int], list[int]]]:
    """Per unit u of Z_r (1 first), three byte tables whose entries at the bytes of an S-mask OR to the mask of uS.

    Built once per r by ``_bit_map``: the byte at lo moves bit a - lo to
    u * a mod r, a < r, so a byte that r ends in has a short table (r <= 23:
    three bytes hold an S-mask).
    """
    return [
        tuple(_bit_map([u * a % r for a in range(lo, min(lo + 8, r))]) for lo in (0, 8, 16))
        for u in range(1, max(r, 2))
        if gcd(u, r) == 1
    ]


def _class_size(r: int, smask: int) -> int:
    """The size of the class of S under the group G of ``_l24_chunk`` if S is its least mask, else 0.

    An S-mask other than 0 with bit 0 clear is above its image S - 1, and
    one with bit r - 1 set above its complement, so neither is least. The
    others are compared with every image uS + b and Z_r \\ (uS + b), uS
    read off the cached ``_unit_tables(r)``, and refused at the first image
    below them; for a least S, the images equal to it count |Stab(S)|, and
    the class has |G| / |Stab(S)| masks. The empty set's class is {0, Z_r}.
    """
    if not smask:
        return 2
    if not smask & 1 or smask >> (r - 1):
        return 0
    units = _unit_tables(r)
    full = (1 << r) - 1
    stab = 0
    for t0, t1, t2 in units:
        image = t0[smask & 255] | t1[smask >> 8 & 255] | t2[smask >> 16]
        doubled = image | image << r  # its rotation by b is doubled >> b, masked
        for images in (doubled, doubled ^ (full << r | full)):
            for b in range(r):
                x = images >> b & full
                if x <= smask:
                    if x < smask:
                        return 0
                    stab += 1
    return 2 * r * len(units) // stab


def _l24_chunk(args):
    """Check L2.4 on the least S-mask of each class of subsets whose least mask is in [lo, hi).

    The classes are the orbits of G = {S -> uS + b : u a unit of Z_r, b in
    Z_r} x {S -> Z_r \\ S}, of 2 r phi(r) elements. The claim's verdict is
    the same on every S of a class:

    * the map x_g -> x_{ug}, y_h -> y_{uh+b} carries BC(Z_r, S) onto
      BC(Z_r, uS + b) and keeps the sides, since x_g y_h is an edge iff
      h - g is in S, and u(h - g) = (uh + b) - (ug + b);
    * by L2.1 the complement of BC(Z_r, S) is BC(Z_r, Z_r \\ S), and an
      isomorphism of a bipartite graph that keeps the sides is one of its
      complement too.

    So each S of a class gives the same pair up to isomorphism and up to
    which member is the graph, and connectivity, delta, k' and k are those
    of the class. A least S (``_class_size``) is built through ``bi_cayley``
    with its complement; when both are connected, each side takes one joint
    pass, and the class counts as 2 graphs per mask in ``graphs_checked``,
    as the labeled walk counted them. A value that breaks the claim is
    reported once for the class, on its least S, which stands for all its
    subsets.
    """
    checked = 0
    violations = []
    for r, smask in _cayley_masks(*args):
        size = _class_size(r, smask)
        if not size:
            continue
        g = bi_cayley(_cayley_subset(r, smask))
        gc = bipartite_complement(g)
        if not (_rows_connected(r, r, g.adjacency) and _rows_connected(r, r, gc.adjacency)):
            continue  # every r = 1 subset stops here
        checked += 2 * size
        k = smask.bit_count()
        for label, graph, expected in (("graph", g, k), ("complement", gc, r - k)):
            for what, observed in zip(_KINDS, _values(r, r, graph.adjacency, _KINDS)):
                if observed != expected:
                    violations.append(
                        Violation("L2.4", "upper", f"{label}:{what}", r, r, k, tuple(g.edges()), observed, expected)
                    )
    return checked, violations


_L25_SHAPE_MAX = 4  # parts drawn from 1..4, so trial graphs have at most 8 vertices
_L25_CHUNK = 500  # trials per block, block i drawn from seed * 1_000_003 + i: the draws depend on it, not on the chunks
# Graphs a chunk's k' memo keeps. The drawn masks are bounded by the shapes
# (2^16 at (4, 4)), but the attached graphs grow with the trials, up to 2^20
# at (4, 5); 10,000 trials value fewer than 5,000 distinct graphs.
_L25_VALUES_MAX = 1 << 14


def _l25_chunk(args):
    """Check the vertex-addition claim on the trials of blocks [lo, hi).

    Block i holds the trials from 500 i, up to 500 of them and none past
    ``trials``, all drawn from one ``random.Random(seed * 1_000_003 + i)``.
    A trial draws a shape, then up to 300 masks until one is connected, and
    attaches a vertex with at least k' edges to it. Both memos come from
    ``functools`` and start afresh in each chunk: ``drawn`` unpacks each
    drawn mask and tests it by ``_rows_connected`` once, keeping its rows
    with their k', or () when it is disconnected, and every k' comes through
    ``value``, a least-recently-used memo of ``edge_connectivity_value`` on
    (r, s, rows) that the drawn and the attached graphs share and that keeps
    the ``_L25_VALUES_MAX`` most recently used graphs. So
    ``edge_connectivity_value`` runs once per distinct graph of a chunk
    while the memo has room. A graph and its neighbour list are built only
    for a violation.
    """
    lo, hi, seed, trials = args
    checked = 0
    violations = []
    value = lru_cache(maxsize=_L25_VALUES_MAX)(edge_connectivity_value)

    @cache
    def drawn(r: int, s: int, mask: int) -> tuple:
        rows = rows_of(r, s, mask)
        return (rows, value(r, s, rows)) if _rows_connected(r, s, rows) else ()

    # The bits of a part of o vertices: ``sample`` picks the same positions
    # from these as from range(1, o + 1), so their sum is the neighbour mask.
    part_bits = [tuple(1 << v for v in range(o)) for o in range(_L25_SHAPE_MAX + 1)]
    for block in range(lo, hi):
        rng = random.Random(seed * 1_000_003 + block)
        randint, getrandbits, rand, sample = rng.randint, rng.getrandbits, rng.random, rng.sample
        for _ in range(min(_L25_CHUNK, trials - block * _L25_CHUNK)):
            r = randint(1, _L25_SHAPE_MAX)
            s = randint(1, _L25_SHAPE_MAX)
            for _ in range(300):
                entry = drawn(r, s, getrandbits(r * s))
                if entry:
                    break
            else:
                continue
            checked += 1
            rows, k = entry
            side = "right" if rand() < 0.5 else "left"
            opposite = r if side == "right" else s
            attached = sum(sample(part_bits[opposite], randint(k, opposite)))
            after = value(*attach_vertex(r, s, rows, side, attached))
            if after < k:
                g = BipartiteGraph(r, s, rows)
                neighbors = ",".join(str(v + 1) for v in _bit_indices(attached))
                violations.append(
                    Violation("L2.5", "lower", f"attach_{side}:{neighbors}", r, s, g.edge_count, tuple(g.edges()),
                              after, k)
                )
    return checked, violations


_LEMMAS = ("L2.1", "L2.4", "L2.5")  # claims with workers of their own; the others are read off the shape sweeps


def _lemma_report(theorem: str, max_r: int, trials: int, seed: int, jobs: int) -> TheoremReport:
    if theorem == "L2.5":
        range_spec = {"trials": trials, "seed": seed, "max_part": _L25_SHAPE_MAX}
        # Twenty blocks (10,000 trials) a chunk at least: each chunk
        # starts its memos afresh, and a pool pays (saves more wall time
        # than the CPU it adds) only past 10,000 trials. Two chunks on two
        # jobs of a 2-core machine save 27 ms of wall time for 53 ms more
        # CPU at 10,000 trials, and 88 ms for 66 ms at 20,000.
        worker, count, min_chunk, extra = _l25_chunk, -(-trials // _L25_CHUNK), 20, (seed, trials)
    else:
        range_spec = {"max_r": max_r}
        count, extra = (1 << (max_r + 1)) - 2, ()  # the subsets S of Z_1..Z_max_r
        # 2^14 subsets a chunk at least, so a pool pays. Two L2.4 chunks
        # on two jobs of a 2-core machine cost 14 ms more wall time and
        # 15 ms more CPU at max_r = 13 (16,382 subsets), and save 67 ms of
        # wall time for 10 ms more CPU at max_r = 14. L2.1, which builds
        # every graph, took 1.35-1.56 s wall in one chunk and 0.65-0.93 s
        # in two at max_r = 14, and 4.4-5.6 s against 2.5-3.1 s at
        # max_r = 16 (3 fresh runs each).
        worker, min_chunk = _l21_chunk if theorem == "L2.1" else _l24_chunk, 1 << 14
    checked, violations = 0, []
    for chunk_checked, chunk_violations in _run_chunked(worker, count, min_chunk, jobs, *extra):
        checked += chunk_checked
        violations += chunk_violations
    return TheoremReport(theorem, range_spec, checked, violations, [], 0)


def _bound_report(theorem: str, max_n: int, sweeps: list[ShapeSweep]) -> TheoremReport:
    """Read one bound claim's violations and attainment records off the sweeps of the shapes within ``max_n``."""
    claims = [c for c in _CLAIMS if c.theorem == theorem]
    kinds = {c.metric.split("_")[1] for c in claims}
    violations: list[Violation] = []
    attainment: list[AttainmentRecord] = []
    for sweep in sweeps:
        r, s = sweep.r, sweep.s
        violations.extend(v for v in sweep.violations if v.theorem == theorem)
        violations.extend(
            Violation(theorem, "oracle", f"{kind}_flow", r, s, mask.bit_count(),
                      tuple(BipartiteGraph.from_mask(r, s, mask).edges()), flow_value, oracle_value)
            for mask, kind, flow_value, oracle_value in sweep.mismatches
            if kind in kinds
        )
        # Records run metric by metric, then edge count by edge count, then
        # claim by claim in table order.
        for _, group in groupby(claims, key=attrgetter("metric")):
            group = list(group)
            for m in range(r * s // 2 + 1) if group[0].sized else (None,):
                attainment.extend(_attainment(c, sweep, m) for c in group)
    # A cell past its formula is a violation; only a cell short of it is a note.
    short = sum(a.enumerated < a.formula if a.bound == "upper" else a.enumerated > a.formula for a in attainment)
    notes = [f"{short} attainment cell(s) not reached by any graph; recorded, not violations"] if short else []
    checked = sum(sweep.graphs_checked for sweep in sweeps)
    return TheoremReport(theorem, {"max_n": max_n}, checked, violations, attainment, 0, notes)


def check_theorems(theorems: Iterable[str], *, max_n: int = 8, max_r: int = 8, trials: int = 10_000,
                   seed: int = 20_240, jobs: int | None = None) -> list[TheoremReport]:
    """Run the verification of each claim in ``theorems``; return the reports in that order.

    ``max_r`` scopes the Bi-Cayley claims (L2.1, L2.4), ``trials``/``seed``
    the randomized claim (L2.5), and ``max_n`` the exhaustive bound claims,
    which share one ``shape_sweep`` per shape, with vertex metrics when any
    of them has one. The shared sweeps' time is reported once, in the
    ``wall_ms`` of the first bound claim requested. A report with an empty
    violations list means the claim held everywhere it was evaluated.
    Raises, before any work: UnknownTheorem for an id not in THEOREM_IDS;
    ValueError for ``theorems`` given as one string, an argument that is
    not an int, or a negative ``max_n``, ``max_r``, ``trials`` or ``seed``;
    TooLarge for a ``max_r`` past the Bi-Cayley cap of 2^24 subsets (max_r
    <= 23), for more than 2^24 ``trials``, or, with a bound claim requested,
    a ``max_n`` whose largest shape has rs > 30 (max_n <= 11).
    """
    if isinstance(theorems, str):  # a str is an iterable of one-character ids
        raise ValueError(f"theorems must be an iterable of claim ids, got the string {theorems!r}; "
                         f"use check_theorem for one claim")
    theorems = tuple(theorems)
    for theorem in theorems:
        if theorem not in THEOREM_IDS:
            raise UnknownTheorem(f"unknown claim id {theorem!r}; choose one of {THEOREM_IDS}")
    for name, value in (("max_n", max_n), ("max_r", max_r), ("trials", trials), ("seed", seed)):
        if type(value) is not int:  # bool and float excluded
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0:  # random.Random drops the sign of a seed: block 0 of seed -s would draw that of s
            raise ValueError(f"{name} must be >= 0, got {value}")
    if max_r + 1 > BI_CAYLEY_MAX_BITS:  # the subsets S of Z_r over r = 1..max_r
        raise TooLarge(f"max_r = {max_r} takes 2^{max_r + 1} - 2 Bi-Cayley subsets, "
                       f"more than the cap of 2^{BI_CAYLEY_MAX_BITS}")
    if trials > L25_MAX_TRIALS:
        raise TooLarge(f"trials = {trials} is more than the cap of {L25_MAX_TRIALS} vertex-addition trials")
    jobs = _resolve_jobs(jobs)
    if any(theorem not in _LEMMAS for theorem in theorems):
        # The largest rs within max_n is that of (floor(max_n/2), ceil(max_n/2)).
        _check_shape(max_n // 2, (max_n + 1) // 2)
    vertex = any(c.metric.endswith("vertex") for c in _CLAIMS if c.theorem in theorems)
    sweeps = None  # one per shape, made by the first bound claim and read by all
    reports = {}
    for theorem in dict.fromkeys(theorems):
        started = time.perf_counter()
        if theorem in _LEMMAS:
            report = _lemma_report(theorem, max_r, trials, seed, jobs)
        else:
            if sweeps is None:
                sweeps = [shape_sweep(r, s, jobs=jobs, include_vertex=vertex) for r, s in shapes_within(max_n)]
            report = _bound_report(theorem, max_n, sweeps)
        report.wall_ms = int((time.perf_counter() - started) * 1000)
        reports[theorem] = report
    return [reports[theorem] for theorem in theorems]


def check_theorem(theorem: str, **options) -> TheoremReport:
    """One claim's report: ``check_theorems((theorem,), **options)``, with its keywords, defaults and errors."""
    return check_theorems((theorem,), **options)[0]
