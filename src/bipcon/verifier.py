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

All claims share one chunk path: ``_chunk_ranges`` cuts a claim's index
range [0, count) into contiguous chunks, a worker runs over each through
``_run_chunked`` (inline for one job or one chunk, else in a process pool),
and the results merge in chunk order. The bound claims' worker ranges over
pair masks or orbit ranks and returns cells, merged by the reducer. The
others return (graphs checked, violations): the Bi-Cayley claims (L2.1,
L2.4) range over the 2^(max_r+1) - 2 subsets S of Z_1, ..., Z_max_r, at
most 2^24, numbered in order by ``_cayley_subsets``, and L2.1 runs as one
inline chunk; the vertex-addition claim (L2.5) ranges over blocks of 500
trials, ten or more blocks to a chunk, block i seeded from the seed and i,
so no draw depends on the chunks.

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

The kernels each run calls, per graph:

* a sweep with vertex metrics calls ``connectivity._joint_values`` once for
  delta, k' and k (one row closure, adjacency masks and degree list);
* an edge-only sweep calls ``_min_degree`` and ``edge_connectivity_value``,
  a fixed-m scan the one kernel of its metric, and the labeled walk adds
  ``edge_oracle_value`` and ``vertex_oracle_value`` for its kinds;
* L2.4 calls ``_min_degree``, ``edge_connectivity_value`` and
  ``vertex_connectivity_value`` separately, and L2.5 keeps each trial graph
  as packed rows and calls ``edge_connectivity_value`` twice per checked
  trial, before and after the vertex is attached.

Every sweep and scan is held to one cap on its shape, rs <= 30, checked
before any work; ``check_theorem`` checks it on the largest shape within
``max_n`` before it lists the shapes, so full sweeps run through n = 11.

Claim identifiers accepted by ``check_theorem``:

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
from itertools import groupby
from multiprocessing import Pool
from operator import add, attrgetter, mul
from typing import Callable

from .bigraph import BipartiteGraph, _rows_connected, attach_vertex, bipartite_complement, rows_of
from .bounds import M_upper, N_upper, ParameterTriple, delta_bounds, sum_lower_sized
from .connectivity import (
    _joint_values,
    _min_degree,
    edge_connectivity_value,
    edge_oracle_value,
    is_connected,
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
    """Reduced results of one exhaustive shape scan."""

    r: int
    s: int
    graphs_checked: int
    cells: dict[str, list[_Cell | None]]  # metric -> cell per edge count 0..rs
    violations: list[Violation]
    mismatches: list[tuple]  # (mask, invariant, flow_value, oracle_value)
    has_vertex: bool = True
    orbits_checked: int | None = None  # classes covered, one evaluation per class pair; None on a labeled sweep


def _fold(cells: list, m: int, max_value: int, max_mask: int, min_value: int, min_mask: int, count: int) -> None:
    """The reducer: fold one value, or a whole cell, into ``cells[m]``.

    Keeps the max and the min, each with the smallest mask among ties, and
    adds up the count. The order of folding never changes the result, so
    chunks merge to the same cells for any worker count.
    """
    cell = cells[m]
    if cell is None:
        cells[m] = [max_value, max_mask, min_value, min_mask, count]
        return
    if max_value > cell[0] or (max_value == cell[0] and max_mask < cell[1]):
        cell[0], cell[1] = max_value, max_mask
    if min_value < cell[2] or (min_value == cell[2] and min_mask < cell[3]):
        cell[2], cell[3] = min_value, min_mask
    cell[4] += count


_KINDS = ("delta", "edge", "vertex")  # the order of ``_joint_values``


def _chunk(args):
    """Worker: fold the metric values of one chunk of a mask source into cells by edge count.

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
    cells. Each pair is held to the per-edge-count bounds in ``checks``,
    and a pair that breaks one is reported once, on the item's mask or its
    complement class's, whichever has fewer edges (the smaller on a tie),
    so the raw violations come in walk order. Only the kernels the metrics
    need run (minimum degree, edge pair, vertex pair), and a sweep that
    needs all three runs ``_joint_values`` once per graph instead. Every
    value comes from the max-flow path; the pair masks, and only they, are
    audited graph by graph against the brute-force oracles, and a graph
    whose flow differs is a mismatch whose oracle value fills the cells.

    Returns (graphs covered, classes covered, cells, raw violations as
    (theorem, side, metric, m, subject mask, observed, bound), mismatches).
    """
    r, s, m, orbits, lo, hi, metrics, checks = args
    bits = r * s
    full = (1 << bits) - 1
    kinds = [kind for kind in _KINDS if any(metric.endswith(kind) for metric in metrics)]
    joint = len(kinds) == len(_KINDS)  # one joint pass per graph instead of the three kernels
    flow = {"delta": _min_degree, "edge": edge_connectivity_value, "vertex": vertex_connectivity_value}
    kernels = [flow[kind] for kind in kinds]
    oracle = {"edge": edge_oracle_value, "vertex": vertex_oracle_value}
    audits = [] if orbits else [(i, kind, oracle[kind]) for i, kind in enumerate(kinds) if kind != "delta"]
    ops = [(kinds.index(metric.split("_")[1]), add if metric.startswith("sum") else mul) for metric in metrics]
    cells = {metric: [None] * (bits + 1) for metric in metrics}
    per_metric = list(cells.values())
    raw = []  # (theorem, side, metric, m, subject_mask, observed, bound)
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
        if joint:
            found = list(_joint_values(r, s, rows)), list(_joint_values(r, s, rows_c))
        else:
            found = [fn(r, s, rows) for fn in kernels], [fn(r, s, rows_c) for fn in kernels]
        if audits:
            for side_mask, side_rows, side_values in zip((mask, cmask), (rows, rows_c), found):
                for i, kind, fn in audits:
                    expected = fn(r, s, side_rows)
                    if side_values[i] != expected:
                        mismatches.append((side_mask, kind, side_values[i], expected))
                        side_values[i] = expected
        values = [op(found[0][i], found[1][i]) for i, op in ops]
        for per_m, value in zip(per_metric, values):
            _fold(per_m, mm, value, mask, value, mask, weight)
            if twin is not None:
                _fold(per_m, mc, value, twin, value, twin, weight)
        if checks:
            # The pair value is symmetric, so a pair is held to the bound at
            # its smaller edge count.
            vm = min(mm, mc)
            failed = []
            for theorem, side, metric, i, bound_by_m, upper in checks:
                value = values[i]
                bound = bound_by_m[vm]
                if value > bound if upper else value < bound:
                    failed.append((theorem, side, metric, value, bound))
            if failed:
                # Reported once per pair, on the side with fewer edges, the
                # smaller mask on a tie: a graph or its complement, or the
                # smallest mask of a class or of its complement class.
                subject = mask if twin is None or (mm, mask) < (mc, twin) else twin
                raw += [(theorem, side, metric, vm, subject, value, bound)
                        for theorem, side, metric, value, bound in failed]
    return graphs, classes, cells, raw, mismatches


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(1, os.cpu_count() or 1)
    if type(jobs) is not int or jobs < 1:  # bool and float excluded
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    return jobs


def _chunk_ranges(count: int, min_chunk: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges covering 0..count: one for one job, else about 8 per job."""
    size = max(1, min_chunk, count if jobs == 1 else count // (jobs * 8))
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _run_chunked(worker, arg_sets, jobs: int):
    if jobs == 1 or len(arg_sets) <= 1:
        return [worker(a) for a in arg_sets]
    with Pool(processes=min(jobs, len(arg_sets))) as pool:
        return pool.map(worker, arg_sets)


# An orbit scan up to nine vertices walks at most 9,005 multisets (the full
# sweep of (4, 5), which walks those with at most 10 edges; an m-edge scan
# walks at most 2,506), so it runs as one inline chunk: a pool starts slower
# than the whole scan.
_ORBIT_MIN_CHUNK = 1 << 14


def _scan(r: int, s: int, m: int | None, orbits: bool, metrics, checks, jobs: int):
    """Run one mask source (see ``_chunk``) in chunks; merge the results.

    The source is the orbit representatives when ``orbits``, ranked by
    ``orbits.class_count(r, s, m)`` (the m-edge ones when ``m`` is given,
    else those with at most floor(rs/2) edges, each with its complement
    orbit), else the pair masks, which cover every edge count and take
    ``m`` None. Returns (graphs covered, classes covered or None
    for the labeled source, cells as metric -> per-edge-count lists, raw
    violations and mismatches in walk order, which chunks of contiguous
    ranges merged in order keep for any worker count).
    """
    if orbits:
        from .orbits import class_count

        count, min_chunk = class_count(r, s, m), _ORBIT_MIN_CHUNK
    else:
        count, min_chunk = 1 << (r * s - 1), 1024
    arg_sets = [(r, s, m, orbits, lo, hi, metrics, checks) for lo, hi in _chunk_ranges(count, min_chunk, jobs)]
    graphs = classes = 0
    cells = {metric: [None] * (r * s + 1) for metric in metrics}
    raw: list[tuple] = []
    mismatches: list[tuple] = []
    for chunk_graphs, chunk_classes, chunk_cells, chunk_raw, chunk_mismatches in _run_chunked(_chunk, arg_sets, jobs):
        graphs += chunk_graphs
        classes += chunk_classes
        for metric, per_m in chunk_cells.items():
            for em, cell in enumerate(per_m):
                if cell is not None:
                    _fold(cells[metric], em, *cell)
        raw += chunk_raw
        mismatches += chunk_mismatches
    return graphs, classes if orbits else None, cells, raw, mismatches


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
    violation, on its side with fewer edges. Vertex connectivity
    dominates the cost; edge-only callers pass ``include_vertex=False`` and
    the sweep then carries no vertex cells and no T3.3/T4.3 checks. A cached
    sweep with vertex metrics serves edge-only requests too. Raises TooLarge
    for rs > SHAPE_MAX_BITS before any work.
    """
    if type(r) is not int or type(s) is not int or not (1 <= r <= s):  # bool and float excluded
        raise ValueError(f"needs ints 1 <= r <= s, got r={r!r}, s={s!r}")
    jobs = _resolve_jobs(jobs)
    key = (r, s)
    if use_cache and key in _SWEEP_CACHE:
        cached = _SWEEP_CACHE[key]
        if cached.has_vertex or not include_vertex:
            return cached
    _check_shape(r, s)
    bits = r * s
    metrics = tuple(metric for metric in _ALL_METRICS if include_vertex or not metric.endswith("vertex"))
    orbits = r + s > ORACLE_BACKEND_MAX_VERTICES
    graphs, classes, cells, raw, mismatches = _scan(r, s, None, orbits, metrics, _checks(r, s, metrics), jobs)
    violations = [
        Violation(
            theorem, side, metric, r, s, vm,
            tuple(BipartiteGraph.from_mask(r, s, subject).edges()),
            observed, bound,
        )
        for theorem, side, metric, vm, subject, observed, bound in raw
    ]
    final_cells = {
        metric: [None if c is None else _Cell(*c) for c in cells.get(metric, [None] * (bits + 1))]
        for metric in _ALL_METRICS
    }
    sweep = ShapeSweep(r, s, graphs, final_cells, violations, mismatches,
                       has_vertex=include_vertex, orbits_checked=classes)
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
    gc = bipartite_complement(g)
    kernel = edge_connectivity_value if metric.endswith("edge") else vertex_connectivity_value
    a = kernel(g.left_size, g.right_size, g.adjacency)
    b = kernel(gc.left_size, gc.right_size, gc.adjacency)
    return a + b if metric.startswith("sum") else a * b


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
    graphs, classes, cells, _, _ = _scan(r, s, m, True, (metric,), (), _resolve_jobs(jobs))
    max_value, max_mask, min_value, min_mask, _ = cells[metric][m]
    return ExtremalResult(
        metric, r, s, m, max_value,
        BipartiteGraph.from_mask(r, s, max_mask),
        min_value,
        BipartiteGraph.from_mask(r, s, min_mask),
        graphs,
        classes,
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

# Claims on vertex connectivity, the costliest kernel: only their sweeps carry
# vertex cells, and a cached vertex sweep serves the edge-only claims too.
VERTEX_THEOREMS = frozenset(c.theorem for c in _CLAIMS if c.metric.endswith("vertex"))


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


def _cayley_subsets(lo: int, hi: int):
    """The subsets S of Z_1, Z_2, ... numbered in order, those of Z_r from 2^r - 2 by S-mask: [lo, hi)."""
    for i in range(lo + 2, hi + 2):
        r = i.bit_length() - 1
        yield CayleySubset(r, frozenset(a for a in range(r) if i >> a & 1))


def _l21_chunk(args):
    lo, hi = args
    violations = []
    for subset in _cayley_subsets(lo, hi):
        g = bi_cayley(subset)
        if bipartite_complement(g) != bi_cayley(subset.complement()):
            r = subset.modulus
            violations.append(
                Violation("L2.1", "upper", "labeled_equality", r, r, len(subset.members), tuple(g.edges()), 0, 0)
            )
    return hi - lo, violations


def _l24_chunk(args):
    checked = 0
    violations = []
    for subset in _cayley_subsets(*args):
        g = bi_cayley(subset)
        gc = bipartite_complement(g)
        if not (is_connected(g) and is_connected(gc)):
            continue  # every r = 1 subset stops here
        checked += 2
        r, k = subset.modulus, len(subset.members)
        for label, graph, expected in (("graph", g, k), ("complement", gc, r - k)):
            rows = graph.adjacency
            for what, kernel in (("delta", _min_degree), ("edge", edge_connectivity_value),
                                 ("vertex", vertex_connectivity_value)):
                observed = kernel(r, r, rows)
                if observed != expected:
                    violations.append(
                        Violation("L2.4", "upper", f"{label}:{what}", r, r, k, tuple(g.edges()), observed, expected)
                    )
    return checked, violations


_L25_SHAPE_MAX = 4  # parts drawn from 1..4, so trial graphs have at most 8 vertices
_L25_CHUNK = 500  # trials per block, block i drawn from seed * 1_000_003 + i: the draws depend on it, not on the chunks


def _l25_chunk(args):
    """Check the vertex-addition claim on the trials of blocks [lo, hi).

    A trial draws a shape, then up to 300 masks until one is connected, and
    attaches a vertex with at least k' edges to it. Each drawn mask is
    unpacked and tested by ``_rows_connected`` once per chunk: ``seen``
    keeps its rows, or () when it is disconnected. A graph is built only
    for a violation.
    """
    lo, hi, seed, trials = args
    checked = 0
    violations = []
    seen: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for trial in range(lo * _L25_CHUNK, min(hi * _L25_CHUNK, trials)):
        if trial % _L25_CHUNK == 0:
            rng = random.Random(seed * 1_000_003 + trial // _L25_CHUNK)
        r = rng.randint(1, _L25_SHAPE_MAX)
        s = rng.randint(1, _L25_SHAPE_MAX)
        for _ in range(300):
            key = r, s, rng.getrandbits(r * s)
            rows = seen.get(key)
            if rows is None:
                rows = rows_of(*key)
                rows = seen[key] = rows if _rows_connected(r, s, rows) else ()
            if rows:
                break
        else:
            continue
        checked += 1
        k = edge_connectivity_value(r, s, rows)
        side = "right" if rng.random() < 0.5 else "left"
        opposite = r if side == "right" else s
        neighbors = sorted(rng.sample(range(1, opposite + 1), rng.randint(k, opposite)))
        after = edge_connectivity_value(*attach_vertex(r, s, rows, side, sum(1 << (v - 1) for v in neighbors)))
        if after < k:
            g = BipartiteGraph(r, s, rows)
            violations.append(
                Violation("L2.5", "lower", f"attach_{side}:{','.join(map(str, neighbors))}",
                          r, s, g.edge_count, tuple(g.edges()), after, k)
            )
    return checked, violations


def _bound_theorem_report(theorem: str, max_n: int, jobs: int) -> tuple[int, list[Violation], list[AttainmentRecord]]:
    claims = [c for c in _CLAIMS if c.theorem == theorem]
    kinds = {c.metric.split("_")[1] for c in claims}
    # The largest rs within max_n is that of (floor(max_n/2), ceil(max_n/2)).
    _check_shape(max_n // 2, (max_n + 1) // 2)
    shapes = shapes_within(max_n)
    checked = 0
    violations: list[Violation] = []
    attainment: list[AttainmentRecord] = []
    for r, s in shapes:
        sweep = shape_sweep(r, s, jobs=jobs, include_vertex=theorem in VERTEX_THEOREMS)
        checked += sweep.graphs_checked
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
    return checked, violations, attainment


def check_theorem(
    theorem: str,
    *,
    max_n: int = 8,
    max_r: int = 8,
    trials: int = 10_000,
    seed: int = 20_240,
    jobs: int | None = None,
) -> TheoremReport:
    """Run one claim's verification and return its report.

    ``max_r`` scopes the Bi-Cayley claims (L2.1, L2.4), ``trials``/``seed``
    the randomized claim (L2.5), and ``max_n`` the exhaustive bound claims.
    Exit semantics: a report with an empty violations list means the claim
    held everywhere it was evaluated. Raises ValueError for an argument
    that is not an int or a negative ``max_n``, ``max_r`` or ``trials``,
    and TooLarge, both before any work,
    for a ``max_r`` past the Bi-Cayley cap of 2^24 subsets (max_r <= 23),
    for more than 2^24 ``trials``, or, on a bound claim, a ``max_n`` whose
    largest shape has rs > 30 (max_n <= 11).
    """
    if theorem not in THEOREM_IDS:
        raise UnknownTheorem(f"unknown claim id {theorem!r}; choose one of {THEOREM_IDS}")
    for name, value in (("max_n", max_n), ("max_r", max_r), ("trials", trials), ("seed", seed)):
        if type(value) is not int:  # bool and float excluded
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 0 and name != "seed":
            raise ValueError(f"{name} must be >= 0, got {value}")
    if max_r + 1 > BI_CAYLEY_MAX_BITS:  # the subsets S of Z_r over r = 1..max_r
        raise TooLarge(f"max_r = {max_r} takes 2^{max_r + 1} - 2 Bi-Cayley subsets, "
                       f"more than the cap of 2^{BI_CAYLEY_MAX_BITS}")
    if trials > L25_MAX_TRIALS:
        raise TooLarge(f"trials = {trials} is more than the cap of {L25_MAX_TRIALS} vertex-addition trials")
    jobs = _resolve_jobs(jobs)
    started = time.perf_counter()
    attainment: list[AttainmentRecord] = []
    notes: list[str] = []
    if theorem in ("L2.1", "L2.4", "L2.5"):
        if theorem == "L2.5":
            range_spec = {"trials": trials, "seed": seed, "max_part": _L25_SHAPE_MAX}
            # Ten blocks (5,000 trials) a chunk at least: each chunk starts its mask memo afresh.
            worker, count, min_chunk, extra = _l25_chunk, -(-trials // _L25_CHUNK), 10, (seed, trials)
        else:
            range_spec = {"max_r": max_r}
            count, extra = (1 << (max_r + 1)) - 2, ()  # the subsets S of Z_1..Z_max_r
            # L2.1 is milliseconds of work: one inline chunk, no pool.
            worker, min_chunk = (_l21_chunk, count) if theorem == "L2.1" else (_l24_chunk, 16)
        checked, violations = 0, []
        arg_sets = [(lo, hi, *extra) for lo, hi in _chunk_ranges(count, min_chunk, jobs)]
        for chunk_checked, chunk_violations in _run_chunked(worker, arg_sets, jobs):
            checked += chunk_checked
            violations += chunk_violations
    else:
        range_spec = {"max_n": max_n}
        checked, violations, attainment = _bound_theorem_report(theorem, max_n, jobs)
        not_attained = [a for a in attainment if not a.attained]
        if not_attained:
            notes.append(
                f"{len(not_attained)} attainment cell(s) not reached by any graph; "
                "recorded, not violations"
            )
    return TheoremReport(
        theorem,
        range_spec,
        checked,
        violations,
        attainment,
        int((time.perf_counter() - started) * 1000),
        notes,
    )
