"""Exhaustive and randomized verification of the connectivity bound claims.

The bound claims all read the same way: a pair value f(G) + f(G^bc) or
f(G) * f(G^bc), with f the minimum degree, the edge connectivity or the
vertex connectivity, stays on one side of a closed form in (r, s, m). The
engine that checks them has three pieces:

* mask sources: the 2^(rs-1) graph/complement pair masks of a shape
  (``shape_sweep``), or a rank range of the masks with exactly m edges
  (``extremal_scan``);
* one chunk worker that runs only the kernels the requested metrics need
  and folds each value into per-edge-count cells through one reducer (max
  and min with a smallest-mask tie-break, plus a count), the same reducer
  that merges the chunks, so reports are identical for any worker count;
* a claim table, one row per (theorem, metric, side, sized, bound), that
  drives both the per-graph violation checks and the attainment records;
  each record's witness is derived from its row (``_witness``).

All claims share one chunk path: a worker runs over contiguous chunks of
the claim's inputs through ``_run_chunked`` (inline for one job or one chunk,
else in a process pool), and the results merge in chunk order. The bound
claims' worker returns cells, merged by the reducer. The Bi-Cayley claims
(L2.1, L2.4; both enumerate the 2^(max_r+1) - 2 subsets S of Z_r with
r <= max_r, held to the full-enumeration cap) and the vertex-addition claim
(L2.5) have workers that return (graphs checked, violations), merged by
``_run_claim``. ``_chunk_ranges`` sizes the chunks of the sweeps, the scans
and L2.4; L2.1 runs as one inline chunk, and L2.5 keeps fixed 500-trial
chunks, each seeded from the seed and its index, since the draws depend on
them.

At eight vertices and below the connectivity kernels are the brute-force
oracles, and every graph of a shape sweep is also cross-checked against the
max-flow values, so each exhaustive run doubles as an oracle-equivalence
audit. Larger scans use max-flow alone.

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
from math import comb
from multiprocessing import Pool
from operator import add, attrgetter, mul
from typing import Callable, Iterator

from .bigraph import BipartiteGraph, add_left_vertex, add_right_vertex, bipartite_complement
from .bounds import M_upper, N_upper, ParameterTriple, delta_bounds, sum_lower_sized
from .connectivity import (
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

FULL_ENUMERATION_MAX_BITS = 24
FIXED_M_MAX_BITS = 30
FIXED_M_MAX_COUNT = 1 << 24
ORACLE_BACKEND_MAX_VERTICES = 8

METRIC_IDS = ("sum_edge", "prod_edge", "sum_vertex", "prod_vertex")
_ALL_METRICS = METRIC_IDS + ("sum_delta", "prod_delta")

THEOREM_IDS = ("L2.1", "L2.4", "L2.5", "L3.1", "T3.2", "T3.3", "T4.1", "T4.2", "T4.3")


# --- enumeration -------------------------------------------------------------


def _next_same_popcount(mask: int) -> int:
    """Gosper's hack: the next larger integer with the same popcount."""
    low = mask & -mask
    ripple = mask + low
    return (((ripple ^ mask) >> 2) // low) | ripple


def _unrank_colex(rank: int, m: int) -> int:
    """The rank-th m-bit mask in ascending (colexicographic) order."""
    mask = 0
    for i in range(m, 0, -1):
        a = i - 1
        while comb(a + 1, i) <= rank:
            a += 1
        rank -= comb(a, i)
        mask |= 1 << a
    return mask


def _iter_fixed_popcount(bits: int, m: int, start_rank: int, count: int) -> Iterator[int]:
    if m == 0:
        if start_rank == 0 and count > 0:
            yield 0
        return
    mask = _unrank_colex(start_rank, m)
    for _ in range(count):
        yield mask
        mask = _next_same_popcount(mask)


def _check_full_cap(bits: int) -> None:
    if bits > FULL_ENUMERATION_MAX_BITS:
        raise TooLarge(f"full enumeration of 2^{bits} = {1 << bits} graphs exceeds the cap")


def _fixed_m_count(bits: int, m: int) -> int:
    """C(bits, m), the number of m-edge masks, or TooLarge past the caps."""
    total = comb(bits, m)
    if bits > FIXED_M_MAX_BITS or total > FIXED_M_MAX_COUNT:
        raise TooLarge(f"enumeration of C({bits}, {m}) = {total} graphs exceeds the cap")
    return total


def enumerate_graphs(r: int, s: int, m: int | None = None) -> Iterator[BipartiteGraph]:
    """Every labeled graph on the shape exactly once, in ascending mask order.

    With ``m`` given, only the graphs with exactly m edges. Raises TooLarge,
    carrying the estimated count, when the scan caps are exceeded (2^(rs)
    masks for a full enumeration with rs <= 24; C(rs, m) <= 2^24 masks with
    rs <= 30 for a fixed edge count).
    """
    if r < 0 or s < 0:
        raise ValueError("part sizes must be nonnegative")
    bits = r * s
    if m is None:
        _check_full_cap(bits)
        for mask in range(1 << bits):
            yield BipartiteGraph.from_mask(r, s, mask)
        return
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    total = _fixed_m_count(bits, m)
    for mask in _iter_fixed_popcount(bits, m, 0, total):
        yield BipartiteGraph.from_mask(r, s, mask)


def shapes_within(max_n: int) -> list[tuple[int, int]]:
    """All shapes (r, s) with 1 <= r <= s and r + s <= max_n."""
    return [(r, s) for r in range(1, max_n // 2 + 1) for s in range(r, max_n - r + 1)]


# --- scan engine: mask sources, one chunk worker, one reducer -----------------


def _rows_of(mask: int, r: int, s: int) -> tuple[int, ...]:
    smask = (1 << s) - 1
    return tuple((mask >> (i * s)) & smask for i in range(r))


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
    """One graph that broke one bound (expected never to exist)."""

    theorem: str
    side: str  # "lower" | "upper"
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
    wall_ms: int
    has_vertex: bool = True

    def envelope_max(self, metric: str) -> int:
        if metric.endswith("vertex") and not self.has_vertex:
            raise ValueError("this sweep was run without vertex metrics")
        return max(c.max_value for c in self.cells[metric] if c is not None)


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


_KINDS = ("edge", "vertex", "delta")


def _chunk(args):
    """Worker: fold the metric values of one mask range into cells by edge count.

    With ``m`` None, [lo, hi) is a range of pair masks: a mask and its
    complement are two labeled graphs, filed in cells popcount and
    rs - popcount, and every mask is held to the per-edge-count bounds in
    ``checks``. With ``m`` given, [lo, hi) is a rank range of the m-edge masks
    and each mask is filed alone. Only the kernels the metrics need run (edge
    pair, vertex pair, minimum degree). At r + s <= 8 the connectivity
    kernels are the brute-force oracles, and pair ranges cross-check them
    against max-flow graph by graph.
    """
    r, s, m, lo, hi, metrics, checks = args
    bits = r * s
    full = (1 << bits) - 1
    use_oracle = (r + s) <= ORACLE_BACKEND_MAX_VERTICES
    pair_range = m is None
    flow = {"edge": edge_connectivity_value, "vertex": vertex_connectivity_value, "delta": _min_degree}
    oracle = {"edge": edge_oracle_value, "vertex": vertex_oracle_value, "delta": _min_degree}
    kinds = [kind for kind in _KINDS if any(metric.endswith(kind) for metric in metrics)]
    kernels = [(oracle if use_oracle else flow)[kind] for kind in kinds]
    cross = []  # (kind, index in kinds, flow kernel) to check against the oracle
    if pair_range and use_oracle:
        cross = [(kind, i, flow[kind]) for i, kind in enumerate(kinds) if kind != "delta"]
    ops = [(kinds.index(metric.split("_")[1]), add if metric.startswith("sum") else mul) for metric in metrics]
    cells = {metric: [None] * (bits + 1) for metric in metrics}
    per_metric = list(cells.values())
    raw = []  # (theorem, side, metric, m, subject_mask, observed, bound)
    mismatches = []
    masks = range(lo, hi) if pair_range else _iter_fixed_popcount(bits, m, lo, hi - lo)
    for mask in masks:
        cmask = full ^ mask
        rows = _rows_of(mask, r, s)
        rows_c = _rows_of(cmask, r, s)
        pairs = [(fn(r, s, rows), fn(r, s, rows_c)) for fn in kernels]
        if cross:
            for side, side_mask, side_rows in ((0, mask, rows), (1, cmask, rows_c)):
                for kind, i, fn in cross:
                    flow_value = fn(r, s, side_rows)
                    if flow_value != pairs[i][side]:
                        mismatches.append((side_mask, kind, flow_value, pairs[i][side]))
        values = [op(*pairs[i]) for i, op in ops]
        mm = mask.bit_count()
        mc = bits - mm
        for per_m, value in zip(per_metric, values):
            _fold(per_m, mm, value, mask, value, mask, 1)
            if pair_range:
                _fold(per_m, mc, value, cmask, value, cmask, 1)
        if checks:
            # The pair value is symmetric, so both graphs are held to the
            # bound at the smaller edge count, reported on that graph.
            vm, subject = (mm, mask) if mm <= mc else (mc, cmask)
            for theorem, side, metric, i, bound_by_m, upper in checks:
                value = values[i]
                bound = bound_by_m[vm]
                if value > bound if upper else value < bound:
                    raw.append((theorem, side, metric, vm, subject, value, bound))
    return (2 if pair_range else 1) * (hi - lo), cells, raw, mismatches


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def _chunk_ranges(count: int, min_chunk: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges covering 0..count: one for one job, else about 8 per job."""
    size = max(min_chunk, count // (jobs * 8)) if jobs > 1 else max(count, 1)
    return [(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _run_chunked(worker, arg_sets, jobs: int):
    if jobs == 1 or len(arg_sets) <= 1:
        return [worker(a) for a in arg_sets]
    with Pool(processes=min(jobs, len(arg_sets))) as pool:
        return pool.map(worker, arg_sets)


def _scan(r: int, s: int, m: int | None, count: int, min_chunk: int, metrics, checks, jobs: int):
    """Run ``count`` masks of one source (see ``_chunk``) in chunks; merge the results.

    Returns (graphs, cells as metric -> per-edge-count lists, raw violations,
    mismatches), all in mask order.
    """
    arg_sets = [(r, s, m, lo, hi, metrics, checks) for lo, hi in _chunk_ranges(count, min_chunk, jobs)]
    graphs = 0
    cells = {metric: [None] * (r * s + 1) for metric in metrics}
    raw: list[tuple] = []
    mismatches: list[tuple] = []
    for chunk_graphs, chunk_cells, chunk_raw, chunk_mismatches in _run_chunked(_chunk, arg_sets, jobs):
        graphs += chunk_graphs
        for metric, per_m in chunk_cells.items():
            for em, cell in enumerate(per_m):
                if cell is not None:
                    _fold(cells[metric], em, *cell)
        raw += chunk_raw
        mismatches += chunk_mismatches
    return graphs, cells, raw, mismatches


_SWEEP_CACHE: dict[tuple[int, int], ShapeSweep] = {}


def shape_sweep(
    r: int,
    s: int,
    jobs: int | None = None,
    use_cache: bool = True,
    include_vertex: bool = True,
) -> ShapeSweep:
    """Exhaustively scan one shape (cached per shape).

    Covers all 2^(rs) labeled graphs by walking the 2^(rs-1) graph/complement
    pairs. At r + s <= 8 the values come from the brute-force oracle and the
    max-flow results are cross-checked graph by graph. Vertex connectivity
    dominates the cost; edge-only callers pass ``include_vertex=False`` and
    the sweep then carries no vertex cells and no T3.3/T4.3 checks. A cached
    sweep with vertex metrics serves edge-only requests too.
    """
    if not (1 <= r <= s):
        raise ValueError(f"needs 1 <= r <= s, got r={r}, s={s}")
    key = (r, s)
    if use_cache and key in _SWEEP_CACHE:
        cached = _SWEEP_CACHE[key]
        if cached.has_vertex or not include_vertex:
            return cached
    bits = r * s
    _check_full_cap(bits)
    jobs = _resolve_jobs(jobs)
    started = time.perf_counter()
    metrics = tuple(metric for metric in _ALL_METRICS if include_vertex or not metric.endswith("vertex"))
    checks = [
        (c.theorem, c.side, c.metric, metrics.index(c.metric),
         [c.bound(r, s, m) for m in range(bits // 2 + 1)], c.side == "upper")
        for c in _CLAIMS
        if c.metric in metrics
    ]
    graphs, cells, raw, mismatches = _scan(r, s, None, 1 << (bits - 1), 1024, metrics, checks, jobs)
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
    sweep = ShapeSweep(
        r, s, graphs, final_cells, violations, mismatches,
        int((time.perf_counter() - started) * 1000),
        has_vertex=include_vertex,
    )
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

    Preconditions: r <= s, m <= floor(rs/2), and the fixed-size enumeration
    caps (C(rs, m) <= 2^24 masks, rs <= 30).
    """
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}; choose one of {METRIC_IDS}")
    ParameterTriple(r, s, m)
    total = _fixed_m_count(r * s, m)
    graphs, cells, _, _ = _scan(r, s, m, total, 4096, (metric,), (), _resolve_jobs(jobs))
    max_value, max_mask, min_value, min_mask, _ = cells[metric][m]
    return ExtremalResult(
        metric, r, s, m, max_value,
        BipartiteGraph.from_mask(r, s, max_mask),
        min_value,
        BipartiteGraph.from_mask(r, s, min_mask),
        graphs,
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


# Claim workers: each takes one chunk of its claim's inputs and returns
# (graphs checked, violations in input order); ``_run_claim`` merges them.


def _run_claim(worker, chunks: list, jobs: int) -> tuple[int, list[Violation]]:
    checked = 0
    violations: list[Violation] = []
    for chunk_checked, chunk_violations in _run_chunked(worker, chunks, jobs):
        checked += chunk_checked
        violations += chunk_violations
    return checked, violations


def _l21_chunk(tasks):
    violations = []
    for r, smask in tasks:
        subset = CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1))
        g = bi_cayley(subset)
        if bipartite_complement(g) != bi_cayley(subset.complement()):
            violations.append(
                Violation("L2.1", "upper", "labeled_equality", r, r, len(subset.members), tuple(g.edges()), 0, 0)
            )
    return len(tasks), violations


def _l24_chunk(tasks):
    checked = 0
    violations = []
    for r, smask in tasks:
        members = frozenset(a for a in range(r) if smask >> a & 1)
        g = bi_cayley(CayleySubset(r, members))
        gc = bipartite_complement(g)
        if not (is_connected(g) and is_connected(gc)):
            continue
        checked += 2
        k = len(members)
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
_L25_CHUNK = 500  # trials per chunk: chunk i draws from seed * 1_000_003 + i, so the draws depend on it


def _l25_chunk(args):
    chunk_seed, count = args
    rng = random.Random(chunk_seed)
    checked = 0
    violations = []
    for _ in range(count):
        r = rng.randint(1, _L25_SHAPE_MAX)
        s = rng.randint(1, _L25_SHAPE_MAX)
        for _ in range(300):
            g = BipartiteGraph.from_mask(r, s, rng.getrandbits(r * s))
            if is_connected(g):
                break
        else:
            continue
        checked += 1
        k = edge_connectivity_value(r, s, g.adjacency)
        side = "right" if rng.random() < 0.5 else "left"
        opposite = r if side == "right" else s
        neighbors = sorted(rng.sample(range(1, opposite + 1), rng.randint(k, opposite)))
        extended = (add_right_vertex if side == "right" else add_left_vertex)(g, neighbors)
        after = edge_connectivity_value(extended.left_size, extended.right_size, extended.adjacency)
        if after < k:
            violations.append(
                Violation("L2.5", "lower", f"attach_{side}:{','.join(map(str, neighbors))}",
                          r, s, g.edge_count, tuple(g.edges()), after, k)
            )
    return checked, violations


def _bound_theorem_report(theorem: str, max_n: int, jobs: int) -> tuple[int, list[Violation], list[AttainmentRecord]]:
    claims = [c for c in _CLAIMS if c.theorem == theorem]
    shapes = shapes_within(max_n)
    for r, s in shapes:
        _check_full_cap(r * s)
    checked = 0
    violations: list[Violation] = []
    attainment: list[AttainmentRecord] = []
    for r, s in shapes:
        sweep = shape_sweep(r, s, jobs=jobs, include_vertex=theorem in VERTEX_THEOREMS)
        checked += sweep.graphs_checked
        violations.extend(v for v in sweep.violations if v.theorem == theorem)
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
    held everywhere it was evaluated. Raises ValueError for a negative
    ``max_n``, ``max_r`` or ``trials``, and TooLarge past the enumeration
    caps, both before any work.
    """
    if theorem not in THEOREM_IDS:
        raise UnknownTheorem(f"unknown claim id {theorem!r}; choose one of {THEOREM_IDS}")
    for name, value in (("max_n", max_n), ("max_r", max_r), ("trials", trials)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    _check_full_cap(max_r + 1)  # the Bi-Cayley claims take 2^(max_r + 1) - 2 subsets over r = 1..max_r
    jobs = _resolve_jobs(jobs)
    started = time.perf_counter()
    attainment: list[AttainmentRecord] = []
    notes: list[str] = []
    if theorem in ("L2.1", "L2.4"):
        range_spec = {"max_r": max_r}
        tasks = [(r, smask) for r in range(1, max_r + 1) for smask in range(1 << r)]
        if theorem == "L2.1":
            # Milliseconds of work: one inline chunk, no pool.
            checked, violations = _run_claim(_l21_chunk, [tasks], jobs)
        else:
            tasks = tasks[2:]  # at r = 1 no pair is connected on both sides
            chunks = [tasks[lo:hi] for lo, hi in _chunk_ranges(len(tasks), 16, jobs)]
            checked, violations = _run_claim(_l24_chunk, chunks, jobs)
    elif theorem == "L2.5":
        range_spec = {"trials": trials, "seed": seed, "max_part": _L25_SHAPE_MAX}
        starts = range(0, trials, _L25_CHUNK)
        chunks = [(seed * 1_000_003 + i, min(_L25_CHUNK, trials - lo)) for i, lo in enumerate(starts)]
        checked, violations = _run_claim(_l25_chunk, chunks, jobs)
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
