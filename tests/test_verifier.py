import dataclasses
import json
import os
import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, groupby, permutations
from math import comb, factorial, gcd, prod

import pytest

from graphtools import components_count

from bipcon import orbits, verifier
from bipcon.bigraph import BipartiteGraph, bipartite_complement, mask_of, new_graph, rows_of
from bipcon.bounds import M_upper, ParameterTriple
from bipcon import cli
from bipcon.connectivity import edge_connectivity_value, edge_oracle_value, vertex_connectivity_value, vertex_oracle_value
from bipcon.constructions import BoundGoal, CayleySubset, WitnessFamilyId, bi_cayley, dispatch_witness
from bipcon.errors import InvalidTriple, TooLarge, UnknownTheorem
from bipcon.verifier import (
    METRIC_IDS,
    Violation,
    _resolve_jobs,
    check_theorem,
    extremal_scan,
    metric_value,
    shape_sweep,
    shapes_within,
)


def _next_same_popcount(mask):
    """Gosper's hack: the next larger integer with the same popcount."""
    low = mask & -mask
    ripple = mask + low
    return (((ripple ^ mask) >> 2) // low) | ripple


def enumerate_graphs(r, s, m=None):
    """The labeled reference walk: every graph on the shape once, in ascending mask order (only m-edge ones with m)."""
    if m is None:
        for mask in range(1 << (r * s)):
            yield BipartiteGraph.from_mask(r, s, mask)
        return
    mask = (1 << m) - 1
    for _ in range(comb(r * s, m)):
        yield BipartiteGraph.from_mask(r, s, mask)
        if mask:
            mask = _next_same_popcount(mask)


def orbit_members(r, s, mask):
    """Every labeled mask in the S_r x S_s orbit of ``mask``, ascending.

    The closure of the graph under swaps of adjacent rows and of adjacent
    columns, which generate S_r x S_s: the reference for orbit masks and
    weights.
    """
    start = rows_of(r, s, mask)
    seen = {start}
    todo = [start]
    while todo:
        rows = todo.pop()
        neighbours = [rows[:i] + (rows[i + 1], rows[i]) + rows[i + 2:] for i in range(r - 1)]
        neighbours += [tuple(row ^ ((row >> j ^ row >> (j + 1)) & 1) * (3 << j) for row in rows) for j in range(s - 1)]
        for other in neighbours:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return sorted(mask_of(s, rows) for rows in seen)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2, 2, m=2)) == 6
    assert sum(1 for _ in enumerate_graphs(2, 2)) == 16
    assert sum(1 for _ in enumerate_graphs(3, 3, m=0)) == 1


def test_enumerate_yields_each_graph_once_in_ascending_mask_order():
    masks = [g.mask for g in enumerate_graphs(2, 3)]
    assert masks == sorted(masks) and len(set(masks)) == 64
    fixed = [g.mask for g in enumerate_graphs(2, 3, m=2)]
    assert fixed == sorted(fixed) and len(fixed) == 15
    assert all(BipartiteGraph.from_mask(2, 3, mask).edge_count == 2 for mask in fixed)


def test_extremal_scan_degenerate_cell():
    result = extremal_scan(2, 2, 2, "sum_edge", jobs=1)
    assert result.max_value == 0
    assert result.graphs_checked == 6


def test_extremal_scan_empty_graph_cell():
    result = extremal_scan(2, 2, 0, "sum_edge", jobs=1)
    assert result.max_value == 2
    assert result.argmax.edge_count == 0


def test_extremal_scan_result_is_consistent():
    for metric in METRIC_IDS:
        result = extremal_scan(2, 3, 3, metric, jobs=1)
        assert metric_value(metric, result.argmax) == result.max_value
        assert metric_value(metric, result.argmin) == result.min_value
        assert result.argmax.edge_count == 3


def test_prod_bound_feasible_at_4_5_10():
    # The full C(20,10) scan is `bipcon scan --r 4 --s 5 --m 10 --metric
    # prod_edge`; here the dispatched witness must reach M(9, 10) = 4 and
    # sampled 10-edge graphs must stay below it.
    bound = M_upper(ParameterTriple(4, 5, 10))
    assert bound == 4
    family, witness = dispatch_witness(BoundGoal.PROD_UPPER, 4, 5, 10)
    assert family is WitnessFamilyId.S4_G6
    assert metric_value("prod_edge", witness) == bound
    rng = random.Random(41)
    for _ in range(500):
        g = BipartiteGraph.from_mask(4, 5, sum(1 << bit for bit in rng.sample(range(20), 10)))
        assert metric_value("prod_edge", g) <= bound


def test_extremal_scan_deterministic_across_jobs():
    one = extremal_scan(3, 3, 4, "sum_edge", jobs=1)
    two = extremal_scan(3, 3, 4, "sum_edge", jobs=2)
    assert one == two


def test_shape_sweep_deterministic_across_jobs():
    one = shape_sweep(2, 4, jobs=1, use_cache=False)
    two = shape_sweep(2, 4, jobs=2, use_cache=False)
    assert one.graphs_checked == two.graphs_checked == 256
    for metric, cells in one.cells.items():
        assert cells == two.cells[metric], metric
    assert one.violations == two.violations
    assert one.mismatches == two.mismatches


def test_shape_sweep_cell_counts_are_binomials():
    from math import comb

    sweep = shape_sweep(2, 3, jobs=1)
    for m in range(7):
        assert sweep.cells["sum_edge"][m].count == comb(6, m)


def test_shape_sweep_agrees_with_extremal_scan():
    # The scan walks one graph per class with m edges. The sweep walks every
    # labeled graph pair up to seven vertices, auditing the oracle values
    # against max-flow, and at (2, 7) one class per pair; either way the
    # cells above rs/2 edges are filed from the complements, so they are
    # held to a walk of every labeled graph (scans stop at rs/2).
    for r, s in shapes_within(7) + [(2, 7)]:
        sweep = shape_sweep(r, s, jobs=1)
        assert (sweep.orbits_checked is None) == (r + s <= 8) and sweep.mismatches == []
        for m in range(r * s // 2 + 1):
            for metric in METRIC_IDS:
                scan = extremal_scan(r, s, m, metric, jobs=1)
                cell = sweep.cells[metric][m]
                assert (scan.max_value, scan.argmax.mask, scan.min_value, scan.argmin.mask, scan.graphs_checked) == (
                    cell.max_value, cell.max_mask, cell.min_value, cell.min_mask, cell.count), (r, s, m, metric)
        for m in range(r * s // 2 + 1, r * s + 1):
            cells = _labeled_cells(r, s, m, METRIC_IDS)
            for metric in METRIC_IDS:
                assert _cell_lists(sweep.cells[metric])[m] == cells[metric], (r, s, m, metric)


def test_shape_sweep_checks_jobs_when_served_from_the_cache():
    shape_sweep(2, 3, jobs=1)
    for jobs in (0, -5, 2.0, True):
        with pytest.raises(ValueError):
            shape_sweep(2, 3, jobs=jobs)
    # A shape that is not ints is refused too, though it hashes like a cached one.
    for r, s in ((2.0, 3.0), (2, 3.0), (True, 3)):
        with pytest.raises(ValueError, match="needs ints"):
            shape_sweep(r, s, jobs=1)
    with pytest.raises(ValueError, match="jobs must be an int"):
        extremal_scan(2, 3, 1, "sum_edge", jobs=2.0)


def test_edge_only_sweep_matches_full_sweep():
    full = shape_sweep(2, 3, jobs=1, use_cache=False)
    lean = shape_sweep(2, 3, jobs=1, use_cache=False, include_vertex=False)
    assert not lean.has_vertex
    for metric in ("sum_edge", "prod_edge", "sum_delta", "prod_delta"):
        assert lean.cells[metric] == full.cells[metric], metric
    assert all(c is None for c in lean.cells["sum_vertex"])
    assert all(c is None for c in lean.cells["prod_vertex"])
    assert lean.violations == [v for v in full.violations if v.theorem not in ("T3.3", "T4.3")]


def test_sweep_cache_upgrades_to_vertex_metrics():
    verifier._SWEEP_CACHE.pop((1, 3), None)
    lean = shape_sweep(1, 3, jobs=1, include_vertex=False)
    assert not lean.has_vertex
    full = shape_sweep(1, 3, jobs=1, include_vertex=True)
    assert full.has_vertex
    assert shape_sweep(1, 3, jobs=1, include_vertex=False) is full


@pytest.mark.parametrize("side, shift", [("upper", -1), ("lower", 1)])
def test_tightened_claim_reports_every_violating_graph(monkeypatch, side, shift):
    # Tighten T4.1's bound by one; every (2, 3) pair whose edge-connectivity
    # sum lies on the far side must come out as a violation, reported on the
    # graph with fewer edges (the smaller mask on ties) at that edge count.
    claims = list(verifier._CLAIMS)
    index = next(i for i, c in enumerate(claims) if (c.theorem, c.side) == ("T4.1", side))
    loose = claims[index].bound
    claims[index] = dataclasses.replace(claims[index], bound=lambda r, s, m: loose(r, s, m) + shift)
    monkeypatch.setattr(verifier, "_CLAIMS", tuple(claims))
    sweep = shape_sweep(2, 3, jobs=1, use_cache=False, include_vertex=False)
    expected = []
    for g in enumerate_graphs(2, 3):
        gc = bipartite_complement(g)
        if (g.edge_count, g.mask) > (gc.edge_count, gc.mask):
            continue
        observed = metric_value("sum_edge", g)
        bound = loose(2, 3, g.edge_count) + shift
        if (observed > bound) if side == "upper" else (observed < bound):
            expected.append(Violation("T4.1", side, "sum_edge", 2, 3, g.edge_count, tuple(g.edges()), observed, bound))
    assert expected
    assert len(sweep.violations) == len(expected)
    assert set(sweep.violations) == set(expected)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("side, shift", [("upper", -1), ("lower", 1)])
def test_tightened_claim_on_the_orbit_path_reports_every_labeled_graph_in_order(monkeypatch, side, shift, jobs):
    # At (2, 7), nine vertices, the sweep evaluates one graph per orbit and
    # reports a violating pair of a class and its complement class once, on
    # the class's smallest mask. Expanded into the labeled graphs of both
    # classes, each pair on its side with fewer edges (the smaller mask on a
    # tie), the report is the labeled scan's, in pair-mask order, which is
    # also that of an enumeration through metric_value. With two jobs the
    # multisets are cut into chunks of 16, and the merge must keep the order.
    claims = list(verifier._CLAIMS)
    index = next(i for i, c in enumerate(claims) if (c.theorem, c.side) == ("T4.1", side))
    loose = claims[index].bound
    claims[index] = dataclasses.replace(claims[index], bound=lambda r, s, m: loose(r, s, m) + shift)
    monkeypatch.setattr(verifier, "_CLAIMS", tuple(claims))
    if jobs == 2:
        monkeypatch.setattr(verifier, "_ORBIT_MIN_CHUNK", 16)
    sweep = shape_sweep(2, 7, jobs=jobs, use_cache=False, include_vertex=False)
    assert sweep.orbits_checked == 70 and sweep.mismatches == []
    if jobs == 2:
        assert sweep.violations == shape_sweep(2, 7, jobs=1, use_cache=False, include_vertex=False).violations
    metrics = ("sum_edge", "prod_edge", "sum_delta", "prod_delta")
    _, evaluated, _, raw, _ = verifier._scan(2, 7, None, False, metrics, verifier._checks(2, 7, metrics), 1)
    assert evaluated is None
    labeled = [Violation(theorem, side_, metric, 2, 7, vm, tuple(BipartiteGraph.from_mask(2, 7, subject).edges()),
                         observed, bound)
               for theorem, side_, metric, vm, subject, observed, bound in raw]
    expected = []
    for mask in range(1 << 13):  # the pair masks: each graph or its complement, top bit clear
        g = BipartiteGraph.from_mask(2, 7, mask)
        gc = bipartite_complement(g)
        subject = g if (g.edge_count, g.mask) < (gc.edge_count, gc.mask) else gc
        observed = metric_value("sum_edge", g)
        bound = loose(2, 7, subject.edge_count) + shift
        if (observed > bound) if side == "upper" else (observed < bound):
            expected.append(Violation("T4.1", side, "sum_edge", 2, 7, subject.edge_count, tuple(subject.edges()),
                                      observed, bound))
    assert expected
    # The lower side also breaks at vm = 7 = rs/2, where both classes of a
    # pair are walked and only one of them files it; the upper side cannot,
    # since no (2, 7) pair with 7 edges on each side has a connected side.
    assert any(v.m == 7 for v in expected) == (side == "lower")
    assert labeled == expected
    per_check = Counter((v.theorem, v.side, v.metric) for v in sweep.violations)
    assert list(per_check) == [("T4.1", side, "sum_edge")]
    assert per_check["T4.1", side, "sum_edge"] <= sweep.orbits_checked
    assert len(sweep.violations) < len(expected)
    full = (1 << 14) - 1
    expanded = []
    for v in sweep.violations:
        mask = new_graph(2, 7, v.edges).mask
        members = orbit_members(2, 7, mask)
        assert members[0] == mask, v
        for x in set(members) | {full ^ y for y in members}:
            if (x.bit_count(), x) < ((full ^ x).bit_count(), full ^ x):
                graph = BipartiteGraph.from_mask(2, 7, x)
                expanded.append((min(x, full ^ x), dataclasses.replace(v, edges=tuple(graph.edges()))))
    assert [v for _, v in sorted(expanded, key=lambda e: e[0])] == expected


def _cycle_types(n):
    """Counter of the cycle types (sorted cycle lengths) over all permutations of n points.

    The types are the partitions of n, and a type with a_k cycles of length
    k is shared by n! / prod(k^(a_k) a_k!) permutations.
    """

    def partitions(left, largest):
        # Parts of at most largest summing to left, ascending.
        if left == 0:
            yield ()
        for k in range(min(left, largest), 0, -1):
            for rest in partitions(left - k, k):
                yield rest + (k,)

    return Counter({lengths: factorial(n) // prod(k ** a * factorial(a) for k, a in Counter(lengths).items())
                    for lengths in partitions(n, n)})


def _walked_cycle_types(n):
    """``_cycle_types(n)`` by walking the cycles of every permutation of n points."""
    types = Counter()
    for perm in permutations(range(n)):
        seen, lengths = set(), []
        for start in range(n):
            length = 0
            while start not in seen:
                seen.add(start)
                start = perm[start]
                length += 1
            if length:
                lengths.append(length)
        types[tuple(sorted(lengths))] += 1
    return types


def test_cycle_type_counts_match_the_permutation_walk():
    for n in range(8):
        assert _cycle_types(n) == _walked_cycle_types(n), n
    assert len(_cycle_types(11)) == 56 and sum(_cycle_types(11).values()) == factorial(11)


def _burnside_orbits(r, s):
    """Orbits of S_r x S_s on the 2^(rs) labeled graphs: the mean number of fixed graphs.

    A pair of permutations with cycles a (on rows) and b (on columns) moves
    the rs cells in gcd(a, b) cycles per pair of cycles, and fixes 2^(cycles)
    graphs.
    """
    fixed = sum(
        count_r * count_s * 2 ** sum(gcd(a, b) for a in type_r for b in type_s)
        for type_r, count_r in _cycle_types(r).items()
        for type_s, count_s in _cycle_types(s).items()
    )
    return fixed // (factorial(r) * factorial(s))


def test_orbit_representatives_match_burnside_and_cover_every_labeled_graph():
    counted = {}
    for r, s in shapes_within(10) + [(1, 10), (2, 9), (3, 8), (4, 7)]:
        bits = r * s
        # (smallest mask, orbit size) of every class by edge count, from the
        # pair walk: a class below rs/2 edges stands for its complement class
        # too, and at rs/2 a pair counts from its class with the smaller mask.
        filed = [[] for _ in range(bits + 1)]
        for mask, weight, twin in orbits.orbit_classes(r, s):
            m = mask.bit_count()
            if 2 * m < bits or mask < twin:
                filed[m].append((mask, weight))
                filed[bits - m].append((twin, weight))
            elif mask == twin:
                filed[m].append((mask, weight))
        counted[r, s] = sum(map(len, filed))
        assert counted[r, s] == _burnside_orbits(r, s), (r, s)
        for m, at_m in enumerate(filed):
            assert sum(weight for _, weight in at_m) == comb(bits, m), (r, s, m)
            if r + s <= 9:
                assert sorted(orbits.orbit_classes(r, s, m)) == sorted((mask, weight, None) for mask, weight in at_m)
        if r + s <= 7:
            # Each representative is the smallest mask of its orbit, and its
            # weight the orbit's size.
            for mask, weight in (rep for at_m in filed for rep in at_m):
                members = orbit_members(r, s, mask)
                assert (members[0], len(members)) == (mask, weight)
    assert counted[4, 5] == 1053
    assert counted[3, 6] == 386
    assert counted[5, 5] == 5624


def test_orbit_pairs_yield_each_class_with_its_complement_class():
    for r, s in shapes_within(8):
        bits = r * s
        full = (1 << bits) - 1
        pairs = list(orbits.orbit_classes(r, s))
        for mask, weight, twin in pairs:
            members = orbit_members(r, s, mask)
            assert (members[0], len(members), twin) == (mask, weight, min(full ^ x for x in members)), (r, s, mask)
        # Every class with at most floor(rs/2) edges comes once, found here
        # by its smallest mask in an ascending walk of every labeled mask.
        seen, classes = set(), []
        for mask in range(full + 1):
            if mask.bit_count() <= bits // 2 and mask not in seen:
                seen.update(orbit_members(r, s, mask))
                classes.append(mask)
        assert sorted(mask for mask, _, _ in pairs) == classes, (r, s)
        # Filed as the sweep files them, the weights cover every labeled
        # graph: a pair twice, a self-complementary class once, and a pair
        # at rs/2 edges only from its class with the smaller mask.
        covered = sum(weight * (1 if twin == mask else 2) for mask, weight, twin in pairs
                      if 2 * mask.bit_count() < bits or mask <= twin)
        assert covered == 1 << bits, (r, s)



def _row_tables(r):
    """For each row permutation p: table[c] is column type c with row i moved to row p[i]."""
    return [[sum(1 << perm[i] for i in range(r) if c >> i & 1) for c in range(1 << r)]
            for perm in permutations(range(r))]


def _canonical_images(cols, tables):
    """The sorted row-permuted images of cols, or None when one of them is lexicographically smaller."""
    images = []
    for table in tables:
        image = tuple(sorted(table[c] for c in cols))
        if image < cols:
            return None
        images.append(image)
    return images


def _sorted_multisets(r, s, m):
    """The sorted s-tuples of r-bit column types with m edges (at most floor(rs/2) with m None), in lexicographic order."""
    if m is None:
        every = combinations_with_replacement(range(1 << r), s)
        return (cols for cols in every if sum(c.bit_count() for c in cols) <= r * s // 2)

    def grow(k, v, p):
        if k == 0:
            if p == 0:
                yield ()
            return
        for w in range(v, 1 << r):
            if w.bit_count() <= p:
                for rest in grow(k - 1, w, p - w.bit_count()):
                    yield (w,) + rest

    return grow(s, 0, m)


def _filtered_reps(r, s, m=None):
    """The reference for ``orbits.orbit_classes``: (rank, (mask, orbit size, complement mask)) of each canonical multiset.

    Each multiset is tested against all r! row permutations, and kept when
    none of them sorts it smaller. The complement mask, given with ``m``
    None only, is ``full ^`` the orbit's largest mask.
    """
    tables = _row_tables(r)
    spread = [sum(1 << (i * s) for i in range(r) if c >> i & 1) for c in range(1 << r)]
    full = (1 << (r * s)) - 1
    for rank, cols in enumerate(_sorted_multisets(r, s, m)):
        images = _canonical_images(cols, tables)
        if images is not None:
            stabilizer = images.count(cols) * prod(factorial(len(list(run))) for _, run in groupby(cols))
            mask = min(sum(spread[c] << j for j, c in enumerate(reversed(image))) for image in images)
            largest = max(sum(spread[c] << j for j, c in enumerate(image)) for image in images)
            yield rank, (mask, factorial(r) * factorial(s) // stabilizer, full ^ largest if m is None else None)


def test_orbit_tree_equals_the_row_permutation_filter():
    cases = [(r, s, m) for r, s in shapes_within(9) for m in (None, *range(r * s + 1))]
    for r, s, m in cases + [(5, 5, 8), (4, 7, 6), (5, 6, 5)]:
        ranked = list(_filtered_reps(r, s, m))
        assert list(orbits.orbit_classes(r, s, m)) == [rep for _, rep in ranked], (r, s, m)
        count = orbits.class_count(r, s, m)
        cuts = sorted({0, count, *(count * i // 7 for i in range(1, 7)), min(count, 3)})
        for lo, hi in zip(cuts, cuts[1:]):
            expected = [rep for rank, rep in ranked if lo <= rank < hi]
            assert list(orbits.orbit_classes(r, s, m, lo, hi)) == expected, (r, s, m, lo)


def test_every_prefix_of_a_canonical_multiset_is_canonical():
    # Orderly generation prunes every non-canonical prefix; that is exact only
    # if canonicity is hereditary.
    for r, s in shapes_within(8):
        tables = _row_tables(r)
        every = combinations_with_replacement(range(1 << r), s)
        canonical = [cols for cols in every if _canonical_images(cols, tables) is not None]
        assert len(canonical) == _burnside_orbits(r, s)
        for cols in canonical:
            for k in range(1, s):
                assert _canonical_images(cols[:k], tables) is not None, (r, s, cols, k)


def test_m_edge_multisets_are_counted_and_ranked():
    for r, s in shapes_within(9):
        edges = [sum(c.bit_count() for c in cols) for cols in combinations_with_replacement(range(1 << r), s)]
        assert orbits.class_count(r, s) == sum(e <= r * s // 2 for e in edges), (r, s)
        for m in (None, *range(r * s + 1)):
            if m is not None:
                assert orbits.class_count(r, s, m) == edges.count(m) <= comb(r * s, m), (r, s, m)
            count = orbits.class_count(r, s, m)
            # Any cut into rank ranges yields the orbits once each, in order.
            cuts = sorted({0, count, count // 3, count // 2, min(count, 7)})
            walked = [rep for lo, hi in zip(cuts, cuts[1:]) for rep in orbits.orbit_classes(r, s, m, lo, hi)]
            assert walked == list(orbits.orbit_classes(r, s, m)), (r, s, m)


def _labeled_cells(r, s, m, metrics):
    """[max, argmax mask, min, argmin mask, count] per metric over every m-edge graph.

    Walks ``enumerate_graphs`` in ascending mask order, so the first mask to
    reach an extreme is the smallest, and evaluates each graph and its
    complement with the public max-flow kernels.
    """
    kernels = {"edge": edge_connectivity_value, "vertex": vertex_connectivity_value}
    kinds = {metric.split("_")[1] for metric in metrics}
    cells = {}
    for g in enumerate_graphs(r, s, m):
        gc = bipartite_complement(g)
        pairs = {kind: (kernels[kind](r, s, g.adjacency), kernels[kind](r, s, gc.adjacency)) for kind in kinds}
        for metric in metrics:
            op, kind = metric.split("_")
            a, b = pairs[kind]
            value = a + b if op == "sum" else a * b
            cell = cells.setdefault(metric, [value, g.mask, value, g.mask, 0])
            if value > cell[0]:
                cell[0:2] = value, g.mask
            if value < cell[2]:
                cell[2:4] = value, g.mask
            cell[4] += 1
    return cells


def test_fixed_m_orbit_scans_equal_the_labeled_scans_at_ten_and_eleven_vertices(monkeypatch):
    # Chunks of 4 multisets over two jobs, so rank ranges start mid-walk and
    # five-row shapes (120 row permutations) are covered.
    monkeypatch.setattr(verifier, "_ORBIT_MIN_CHUNK", 4)
    for r, s, m in ((5, 5, 3), (5, 6, 2), (4, 7, 3), (2, 9, 5)):
        cells = _labeled_cells(r, s, m, METRIC_IDS)
        for metric in METRIC_IDS:
            result = extremal_scan(r, s, m, metric, jobs=2)
            assert (result.max_value, result.argmax.mask, result.min_value, result.argmin.mask,
                    result.graphs_checked) == tuple(cells[metric]), (r, s, m, metric)
            assert result.orbits_checked == len(list(orbits.orbit_classes(r, s, m))) < comb(r * s, m)


def _cell_lists(cells):
    return [None if c is None else [c.max_value, c.max_mask, c.min_value, c.min_mask, c.count] for c in cells]


def test_orbit_cells_equal_the_audited_labeled_cells_up_to_eight_vertices():
    for r, s in shapes_within(8):
        labeled = shape_sweep(r, s, jobs=2)
        assert labeled.orbits_checked is None
        graphs, evaluated, cells, raw, mismatches = verifier._scan(r, s, None, True, verifier._ALL_METRICS, (), 1)
        assert graphs == labeled.graphs_checked == 1 << (r * s)
        assert evaluated == _burnside_orbits(r, s) and raw == mismatches == []
        for metric in verifier._ALL_METRICS:
            assert cells[metric] == _cell_lists(labeled.cells[metric]), (r, s, metric)


def test_orbit_sweeps_and_scans_equal_the_labeled_scans_at_nine_vertices():
    # Also the full sweeps of (1, 9) and (2, 8) at ten vertices, all six
    # metrics, which the shape cap admits.
    edge_metrics = ("sum_edge", "prod_edge", "sum_delta", "prod_delta")
    shapes = [(1, 8, edge_metrics), (2, 7, edge_metrics), (3, 6, edge_metrics),
              (1, 9, verifier._ALL_METRICS), (2, 8, verifier._ALL_METRICS)]
    for r, s, metrics in shapes:
        sweep = shape_sweep(r, s, jobs=2, use_cache=False, include_vertex="sum_vertex" in metrics)
        graphs, evaluated, cells, _, _ = verifier._scan(r, s, None, False, metrics, (), 2)
        assert (sweep.graphs_checked, sweep.orbits_checked) == (graphs, _burnside_orbits(r, s))
        for metric in metrics:
            assert _cell_lists(sweep.cells[metric]) == cells[metric], (r, s, metric)
    for m, scan_metrics in ((5, METRIC_IDS), (10, ("sum_edge", "prod_edge"))):
        cells = _labeled_cells(4, 5, m, scan_metrics)
        for metric in scan_metrics:
            result = extremal_scan(4, 5, m, metric, jobs=2)
            max_value, max_mask, min_value, min_mask, count = cells[metric]
            assert (result.max_value, result.argmax.mask, result.min_value, result.argmin.mask) == (
                max_value, max_mask, min_value, min_mask), (m, metric)
            assert result.graphs_checked == count == comb(20, m)
            assert 0 < result.orbits_checked < count


def test_extremal_scan_rejects_a_triple_that_is_not_ints():
    with pytest.raises(InvalidTriple):
        extremal_scan(2, 3, 1.0, "sum_edge", jobs=1)


def test_oversized_request_is_rejected_before_any_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a shape before checking the size caps")

    monkeypatch.setattr(verifier, "shape_sweep", no_sweep)
    with pytest.raises(TooLarge, match=r"rs = 36 > 30"):
        check_theorem("T4.1", max_n=12, jobs=1)
    # `verify --theorem all` passes --max-r to every claim and runs T3.3 first.
    with pytest.raises(TooLarge, match="Bi-Cayley subsets"):
        check_theorem("T3.3", max_r=40, jobs=1)
    with pytest.raises(TooLarge, match="Bi-Cayley subsets"):
        check_theorem("L2.1", max_r=24, jobs=1)
    # More trials than the cap, from any claim; 10**7 stays admitted.
    monkeypatch.setattr(verifier, "_run_chunked", no_sweep)
    for theorem in ("L2.5", "T3.3"):
        with pytest.raises(TooLarge, match="trials = 16777217 is more than the cap of 16777216"):
            check_theorem(theorem, trials=2**24 + 1, jobs=1)
    assert cli.main(["verify", "--theorem", "L2.5", "--trials", "1000000000"]) == 65
    # Arguments that are not ints (bool included), and negative counts.
    for theorem, kwargs, message in (
        ("L3.1", {"max_n": 5.0}, "max_n must be an int"),
        ("T4.1", {"max_n": True}, "max_n must be an int"),
        ("L2.4", {"max_r": 3.0}, "max_r must be an int"),
        ("L2.5", {"trials": 600, "jobs": 2.0}, "jobs must be an int"),
        ("L2.1", {"jobs": True}, "jobs must be an int"),
        ("L2.5", {"trials": 1e4}, "trials must be an int"),
        ("L2.5", {"seed": 1.5}, "seed must be an int"),
        ("L2.5", {"seed": False}, "seed must be an int"),
        ("L2.4", {"max_r": -1}, "max_r must be >= 0"),
        ("L2.5", {"trials": -3}, "trials must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            check_theorem(theorem, **kwargs)


@pytest.mark.parametrize("theorem, kwargs, count", [
    ("L2.1", {"max_r": 20}, (1 << 21) - 2),
    ("L2.4", {"max_r": 20}, (1 << 21) - 2),
    ("L2.5", {"trials": 10**7}, 10**7 // 500),
])
def test_enumerated_claims_hand_over_index_ranges(monkeypatch, theorem, kwargs, count):
    # Bi-Cayley subsets and 500-trial blocks are numbered, never listed: the
    # chunks are a few ranges covering [0, count), built in constant memory.
    handed = []

    def record(worker, arg_sets, jobs):
        handed.extend(arg_sets)
        return []

    monkeypatch.setattr(verifier, "_run_chunked", record)
    tracemalloc.start()
    try:
        report = check_theorem(theorem, jobs=2, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (report.graphs_checked, report.violations) == (0, [])
    assert 1 <= len(handed) <= 8 * 2 + 1
    assert theorem != "L2.1" or len(handed) == 1  # one inline chunk, no pool
    ranges = [args[:2] for args in handed]
    assert ranges[0][0] == 0 and ranges[-1][1] == count
    assert all(lo < hi == next_lo for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]))


def test_vertex_addition_chunks_hold_ten_blocks_at_least(monkeypatch):
    # Each chunk starts its mask memo afresh, so two jobs cut the 20 blocks of
    # 10,000 trials into two chunks, not twenty; one job keeps one chunk.
    handed = {}

    def record(worker, arg_sets, jobs):
        handed[jobs] = [args[:2] for args in arg_sets]
        return []

    monkeypatch.setattr(verifier, "_run_chunked", record)
    for jobs in (1, 2):
        check_theorem("L2.5", trials=10_000, jobs=jobs)
    assert handed == {1: [(0, 20)], 2: [(0, 10), (10, 20)]}


def test_huge_max_n_is_refused_before_the_shapes_are_listed(monkeypatch):
    def no_shapes(max_n):
        raise AssertionError("listed the shapes before checking the shape cap")

    monkeypatch.setattr(verifier, "shapes_within", no_shapes)
    with pytest.raises(TooLarge, match=r"rs = 250000000000 > 30"):
        check_theorem("T4.1", max_n=10**6, jobs=1)


def test_every_shape_up_to_eleven_vertices_is_swept(monkeypatch):
    # The shape cap alone decides: max_n = 11 reaches (5, 6), rs = 30.
    swept = []

    def record(r, s, jobs=None, use_cache=True, include_vertex=True):
        swept.append((r, s))
        cells = {metric: [verifier._Cell(0, 0, 0, 0, 1)] * (r * s + 1) for metric in verifier._ALL_METRICS}
        return verifier.ShapeSweep(r, s, 1 << (r * s), cells, [], [], orbits_checked=1)

    monkeypatch.setattr(verifier, "shape_sweep", record)
    report = check_theorem("T4.1", max_n=11, jobs=1)
    assert swept == shapes_within(11) and swept[-1] == (5, 6)
    assert report.graphs_checked == sum(1 << (r * s) for r, s in swept)


def test_extremal_scan_runs_at_the_largest_admitted_shape():
    result = extremal_scan(5, 6, 15, "prod_edge", jobs=1)
    assert (result.max_value, result.orbits_checked, result.graphs_checked) == (4, 3616, comb(30, 15))
    assert metric_value("prod_edge", result.argmax) == 4 and result.argmax.edge_count == 15
    with pytest.raises(TooLarge, match=r"rs = 36 > 30"):
        extremal_scan(6, 6, 1, "prod_edge", jobs=1)


def test_vertex_addition_counts_only_checked_trials(monkeypatch):
    monkeypatch.setattr(verifier, "_rows_connected", lambda r, s, rows: False)
    report = check_theorem("L2.5", trials=5, seed=7, jobs=1)
    assert report.graphs_checked == 0


def _members(r, smask):
    return frozenset(a for a in range(r) if smask >> a & 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_bicayley_complement_fault_reports_every_subset(monkeypatch, jobs):
    # With the complement made the identity, no BC(Z_r, S) equals
    # BC(Z_r, Z_r \ S), so every subset is a violation, in (r, S-mask) order.
    monkeypatch.setattr(verifier, "bipartite_complement", lambda g: g)
    report = check_theorem("L2.1", max_r=4, jobs=jobs)
    expected = [
        Violation("L2.1", "upper", "labeled_equality", r, r, len(_members(r, smask)),
                  tuple(bi_cayley(CayleySubset(r, _members(r, smask))).edges()), 0, 0)
        for r in range(1, 5)
        for smask in range(1 << r)
    ]
    assert report.graphs_checked == len(expected) == 30
    assert report.violations == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_maximal_connectivity_fault_reports_each_shifted_value(monkeypatch, jobs):
    # Vertex connectivity one high on graphs whose last row is 1 mod 3. Every
    # Bi-Cayley pair connected on both sides has k = k' = delta = |S| on the
    # graph and r - |S| on the complement, so exactly the shifted values break.
    def faulty(rows):
        return rows[-1] % 3 == 1

    real = verifier.vertex_connectivity_value
    monkeypatch.setattr(verifier, "vertex_connectivity_value",
                        lambda r, s, rows: real(r, s, rows) + faulty(rows))
    report = check_theorem("L2.4", max_r=5, jobs=jobs)
    expected = []
    checked = 0
    for r in range(2, 6):
        for smask in range(1 << r):
            k = len(_members(r, smask))
            g = bi_cayley(CayleySubset(r, _members(r, smask)))
            gc = bi_cayley(CayleySubset(r, frozenset(range(r)) - _members(r, smask)))
            if components_count(g) != 1 or components_count(gc) != 1:
                continue
            checked += 2
            for label, graph, value in (("graph", g, k), ("complement", gc, r - k)):
                if faulty(graph.adjacency):
                    expected.append(Violation("L2.4", "upper", f"{label}:vertex", r, r, k,
                                              tuple(g.edges()), value + 1, value))
    assert expected and checked > len(expected)
    assert report.graphs_checked == checked
    assert report.violations == expected


def _shifted_flow_violations(theorem, kind):
    """The oracle violations of ``theorem`` at max-n 5 when the ``kind`` flow is one high on graphs whose last row is 1 mod 3."""
    oracle = edge_oracle_value if kind == "edge" else vertex_oracle_value
    expected = []
    for r, s in shapes_within(5):
        full = (1 << (r * s)) - 1
        for mask in range(1 << (r * s - 1)):
            for subject in (mask, full ^ mask):
                g = BipartiteGraph.from_mask(r, s, subject)
                if g.adjacency[-1] % 3 == 1:
                    value = oracle(r, s, g.adjacency)
                    expected.append(Violation(theorem, "oracle", f"{kind}_flow", r, s, subject.bit_count(),
                                              tuple(g.edges()), value + 1, value))
    return expected


def test_flow_oracle_mismatch_is_a_violation_of_every_edge_claim(monkeypatch):
    # Edge max-flow one high on graphs whose last row is 1 mod 3. Up to eight
    # vertices the values come from the oracles and the flows only audit
    # them, so the mismatches are the only violations, on the edge claims.
    real = verifier.edge_connectivity_value
    monkeypatch.setattr(verifier, "edge_connectivity_value",
                        lambda r, s, rows: real(r, s, rows) + (rows[-1] % 3 == 1))
    monkeypatch.setattr(verifier, "_SWEEP_CACHE", {})
    expected = _shifted_flow_violations("T3.2", "edge")
    report = check_theorem("T3.2", max_n=5, jobs=1)
    assert expected and report.violations == expected
    assert report.exit_status == 2
    assert [dataclasses.replace(v, theorem="T3.2") for v in check_theorem("T4.1", max_n=5, jobs=1).violations] == expected
    for theorem in ("L3.1", "T3.3"):
        assert check_theorem(theorem, max_n=5, jobs=1).violations == [], theorem


@pytest.mark.parametrize("kind, served", [("edge", "T3.2"), ("vertex", "T4.3")])
def test_joint_flow_oracle_mismatch_is_a_violation_of_every_claim_on_its_kernel(monkeypatch, kind, served):
    # The joint pass's k' or k one high on graphs whose last row is 1 mod 3.
    # T3.3 sweeps every metric, so its sweeps take all three values from the
    # joint pass and must audit its flows; a claim served from those cached
    # sweeps reports the same mismatches as a sweep of its own would.
    real = verifier._joint_values
    shift = (0, 1, 0) if kind == "edge" else (0, 0, 1)  # (delta, k', k)

    def faulty(r, s, rows):
        values = real(r, s, rows)
        return tuple(v + d for v, d in zip(values, shift)) if rows[-1] % 3 == 1 else values

    def no_scan(*args):
        raise AssertionError("swept again instead of serving the cached sweep")

    monkeypatch.setattr(verifier, "_joint_values", faulty)
    monkeypatch.setattr(verifier, "_SWEEP_CACHE", {})
    first = check_theorem("T3.3", max_n=5, jobs=1)
    monkeypatch.setattr(verifier, "_scan", no_scan)
    report = check_theorem(served, max_n=5, jobs=1)
    expected = _shifted_flow_violations(served, kind)
    assert expected and report.violations == expected
    assert first.violations == ([] if kind == "edge" else _shifted_flow_violations("T3.3", kind))
    assert check_theorem("L3.1", max_n=5, jobs=1).violations == []


def test_the_class_walk_calls_no_oracle(monkeypatch):
    # Every value comes from max-flow; only the labeled walk audits it, so
    # class walks below nine vertices return the audited sweep's cells
    # with both oracles raising.
    sweeps = {shape: shape_sweep(*shape, jobs=1, use_cache=False) for shape in ((3, 3), (3, 4))}
    assert all(sweep.mismatches == [] for sweep in sweeps.values())

    def no_oracle(*args):
        raise AssertionError("an oracle was called on the class walk")

    monkeypatch.setattr(verifier, "edge_oracle_value", no_oracle)
    monkeypatch.setattr(verifier, "vertex_oracle_value", no_oracle)
    for metric in METRIC_IDS:
        result = extremal_scan(3, 4, 6, metric, jobs=1)
        cell = sweeps[3, 4].cells[metric][6]
        assert (result.max_value, result.argmax.mask, result.min_value, result.argmin.mask, result.graphs_checked) == (
            cell.max_value, cell.max_mask, cell.min_value, cell.min_mask, cell.count), metric
    _, _, cells, _, mismatches = verifier._scan(3, 3, None, True, verifier._ALL_METRICS, (), 1)
    assert mismatches == []
    for metric in verifier._ALL_METRICS:
        assert cells[metric] == _cell_lists(sweeps[3, 3].cells[metric]), metric


def test_the_labeled_walk_audits_flows_above_eight_vertices(monkeypatch):
    # Edge max-flow one high on graphs whose last row is 1 mod 3, on the
    # labeled walk of (2, 7): each such graph is a mismatch, in walk order,
    # and the oracle's value fills the cells.
    metrics = ("sum_edge", "prod_edge", "sum_delta", "prod_delta")
    _, _, audited, _, clean = verifier._scan(2, 7, None, False, metrics, (), 1)
    assert clean == []
    real = verifier.edge_connectivity_value
    monkeypatch.setattr(verifier, "edge_connectivity_value",
                        lambda r, s, rows: real(r, s, rows) + (rows[-1] % 3 == 1))
    _, _, cells, _, mismatches = verifier._scan(2, 7, None, False, metrics, (), 1)
    expected = []
    full = (1 << 14) - 1
    for mask in range(1 << 13):
        for subject in (mask, full ^ mask):
            rows = rows_of(2, 7, subject)
            if rows[-1] % 3 == 1:
                value = edge_oracle_value(2, 7, rows)
                expected.append((subject, "edge", value + 1, value))
    assert expected and mismatches == expected
    assert cells == audited


def test_joint_mismatches_list_each_side_before_each_kind(monkeypatch):
    # The joint pass's k' and k both one high on every graph: each pair
    # lists the graph's edge and vertex mismatches, then its complement's.
    real = verifier._joint_values
    monkeypatch.setattr(verifier, "_joint_values", lambda r, s, rows: tuple(
        v + (i > 0) for i, v in enumerate(real(r, s, rows))))
    expected = []
    full = (1 << 6) - 1
    for mask in range(1 << 5):
        for subject in (mask, full ^ mask):
            rows = rows_of(2, 3, subject)
            for kind, oracle in (("edge", edge_oracle_value), ("vertex", vertex_oracle_value)):
                value = oracle(2, 3, rows)
                expected.append((subject, kind, value + 1, value))
    assert shape_sweep(2, 3, jobs=1, use_cache=False).mismatches == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_vertex_addition_fault_reports_each_low_value(monkeypatch, jobs):
    # Edge connectivity one low on every 7th call. 400 trials are one chunk,
    # so the call count does not depend on how chunks reach worker processes.
    # The trials are redrawn here with the same seed, values from the oracle.
    def one_low_every_7th(kernel):
        calls = 0

        def faulty(r, s, rows):
            nonlocal calls
            calls += 1
            return kernel(r, s, rows) - (calls % 7 == 0)

        return faulty

    monkeypatch.setattr(verifier, "edge_connectivity_value", one_low_every_7th(verifier.edge_connectivity_value))
    seed, trials = 3, 400
    report = check_theorem("L2.5", trials=trials, seed=seed, jobs=jobs)
    oracle = one_low_every_7th(edge_oracle_value)
    rng = random.Random(seed * 1_000_003)
    checked = 0
    expected = []
    for _ in range(trials):
        r = rng.randint(1, 4)
        s = rng.randint(1, 4)
        g = None
        for _ in range(300):
            candidate = BipartiteGraph.from_mask(r, s, rng.getrandbits(r * s))
            if components_count(candidate) == 1:
                g = candidate
                break
        if g is None:
            continue
        checked += 1
        before = oracle(r, s, g.adjacency)
        right = rng.random() < 0.5
        opposite = r if right else s
        neighbors = sorted(rng.sample(range(1, opposite + 1), rng.randint(before, opposite)))
        if right:
            extended = BipartiteGraph(r, s + 1, tuple(
                row | (1 << s if i + 1 in neighbors else 0) for i, row in enumerate(g.adjacency)))
        else:
            extended = BipartiteGraph(r + 1, s, g.adjacency + (sum(1 << (j - 1) for j in neighbors),))
        after = oracle(extended.left_size, extended.right_size, extended.adjacency)
        if after < before:
            side = "right" if right else "left"
            expected.append(Violation("L2.5", "lower", f"attach_{side}:{','.join(map(str, neighbors))}",
                                      r, s, g.edge_count, tuple(g.edges()), after, before))
    assert expected
    assert report.graphs_checked == checked
    assert report.violations == expected


def test_default_jobs_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _resolve_jobs(None) == 1


def test_shape_sweep_envelope_below_unconstrained_bound():
    for r, s in shapes_within(6):
        sweep = shape_sweep(r, s, jobs=1)
        for metric in ("sum_edge", "sum_vertex"):
            assert max(c.max_value for c in sweep.cells[metric] if c is not None) <= r


def test_shapes_within():
    assert shapes_within(4) == [(1, 1), (1, 2), (1, 3), (2, 2)]


def test_check_theorem_rejects_unknown_ids():
    with pytest.raises(UnknownTheorem):
        check_theorem("T9.9")


def test_check_theorem_bicayley_complement():
    report = check_theorem("L2.1", max_r=6)
    assert report.violations == []
    assert report.graphs_checked == sum(1 << r for r in range(1, 7))
    assert report.exit_status == 0


def test_check_theorem_maximal_connectivity():
    report = check_theorem("L2.4", max_r=5, jobs=1)
    assert report.violations == []
    # No r = 1 pair is connected on both sides, for any worker count.
    assert check_theorem("L2.4", max_r=1, jobs=1).graphs_checked == 0
    assert check_theorem("L2.4", max_r=1, jobs=2).graphs_checked == 0


def test_check_theorem_vertex_addition():
    report = check_theorem("L2.5", trials=300, seed=7, jobs=1)
    assert report.violations == []
    assert report.graphs_checked == 300


def test_check_theorem_unconstrained_bounds_small():
    for theorem in ("L3.1", "T3.2", "T3.3"):
        report = check_theorem(theorem, max_n=6, jobs=1)
        assert report.violations == [], theorem
        assert report.graphs_checked == sum(1 << (r * s) for r, s in shapes_within(6))


def test_check_theorem_fixed_size_bounds_small():
    for theorem in ("T4.1", "T4.2", "T4.3"):
        report = check_theorem(theorem, max_n=6, jobs=1)
        assert report.violations == [], theorem


def test_t41_attainment_flags_degenerate_cell():
    report = check_theorem("T4.1", max_n=4, jobs=1)
    assert report.violations == []
    flagged = [a for a in report.attainment
               if (a.r, a.s, a.m, a.bound) == (2, 2, 2, "upper")]
    assert len(flagged) == 1
    record = flagged[0]
    assert record.enumerated == 0 and record.formula == 1
    assert not record.attained
    assert record.witness_family is None
    assert report.exit_status == 0  # recorded, not a violation


def test_bound_claims_miss_exactly_the_proved_cells():
    # The README proves each miss: at r = 2 no graph and its complement are
    # both connected, nor at (2, s, s) either one; at r = 3 no pair has one
    # side 2-edge-connected and the other connected.
    product_misses = [(2, s) for s in range(2, 7)] + [(3, 3), (3, 4), (3, 5)]
    expected = {
        "L3.1": [],
        "T3.2": [(r, s, None, "prod_edge", "upper") for r, s in product_misses],
        "T3.3": [(r, s, None, "prod_vertex", "upper") for r, s in product_misses],
        "T4.1": [(2, s, s, "sum_edge", "upper") for s in range(2, 7)],
        "T4.2": [],
        "T4.3": [(2, s, s, "sum_vertex", "upper") for s in range(2, 7)],
    }
    for theorem, cells in expected.items():
        report = check_theorem(theorem, max_n=8, jobs=2)
        missed = [a for a in report.attainment if not a.attained]
        assert [(a.r, a.s, a.m, a.metric, a.bound) for a in missed] == cells, theorem
        assert all(a.enumerated < a.formula for a in missed), theorem
        assert all(a.enumerated == 0 for a in missed if a.r == 2), theorem


def test_attainment_witnesses_match_enumerated_extremes():
    report = check_theorem("T4.1", max_n=6, jobs=1)
    for a in report.attainment:
        if a.witness_family is not None:
            assert a.witness_value == a.formula, a
            assert a.attained, a


def test_report_json_schema():
    report = check_theorem("T4.2", max_n=4, jobs=1)
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert set(blob) >= {"theorem", "range", "graphs_checked", "violations", "attainment", "wall_ms"}
    assert blob["theorem"] == "T4.2"
    assert blob["range"] == {"max_n": 4}
    for record in blob["attainment"]:
        assert set(record) >= {"r", "s", "m", "enumerated", "formula", "attained", "witness"}


def test_unknown_metrics_are_refused_by_name():
    g = new_graph(2, 2, [(1, 1)])
    with pytest.raises(ValueError, match="^unknown metric 'sum_bogus'$"):
        metric_value("sum_bogus", g)
    with pytest.raises(ValueError, match=r"^unknown metric 'sum_bogus'; choose one of \("):
        extremal_scan(2, 2, 1, "sum_bogus", jobs=1)
