import pickle
import random
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipcon.bigraph import (
    BipartiteGraph,
    _rows_connected,
    add_left_vertex,
    add_right_vertex,
    bipartite_complement,
    degrees,
    new_graph,
    rows_of,
)
from bipcon import connectivity
from bipcon.connectivity import (
    ConnectivityResult,
    _adjacency_masks,
    _joint_values,
    _min_degree,
    _short_paths,
    _split_network,
    _unit_flow,
    brute_force_edge_connectivity,
    brute_force_vertex_connectivity,
    edge_connectivity,
    edge_connectivity_value,
    edge_oracle_value,
    is_connected,
    vertex_connectivity,
    vertex_connectivity_value,
    vertex_oracle_value,
)
from bipcon.constructions import CayleySubset, bi_cayley
from bipcon.errors import EmptyGraph, TooLarge, TooSmall

from conftest import graphs
from graphtools import components_count, delete_edges, delete_vertices, min_crossing_edges


def complete(r, s):
    return new_graph(r, s, [(i, j) for i in range(1, r + 1) for j in range(1, s + 1)])


def test_is_connected_examples():
    assert is_connected(complete(2, 3))
    assert not is_connected(new_graph(2, 2, [(1, 1)]))
    assert is_connected(bi_cayley(CayleySubset(4, frozenset({0, 1}))))
    assert is_connected(BipartiteGraph(1, 0, (0,)))
    with pytest.raises(EmptyGraph):
        is_connected(BipartiteGraph(0, 0, ()))


def test_edge_connectivity_complete_23():
    res = edge_connectivity(complete(2, 3))
    assert res.value == 2 == brute_force_edge_connectivity(complete(2, 3))
    assert res.kind == "edge_cut" and len(res.edges) == 2


def test_edge_connectivity_disconnected_matching():
    res = edge_connectivity(new_graph(2, 2, [(1, 1), (2, 2)]))
    assert res.value == 0 and res.kind == "disconnected"


def test_edge_connectivity_eight_cycle():
    cycle = bi_cayley(CayleySubset(4, frozenset({0, 1})))
    assert edge_connectivity(cycle).value == 2 == brute_force_edge_connectivity(cycle)


def test_connectivity_rejects_tiny_graphs():
    single = BipartiteGraph(1, 0, (0,))
    with pytest.raises(TooSmall):
        edge_connectivity(single)
    with pytest.raises(TooSmall):
        vertex_connectivity(single)
    # The value kernels stay total, like the oracles: a single vertex has 0.
    for r, s, rows in ((1, 0, (0,)), (0, 1, ())):
        assert edge_connectivity_value(r, s, rows) == vertex_connectivity_value(r, s, rows) == 0


def test_vertex_connectivity_complete_shapes():
    for r, s in ((1, 1), (2, 2), (2, 3), (3, 3)):
        g = complete(r, s)
        assert vertex_connectivity(g).value == r == brute_force_vertex_connectivity(g)


def test_vertex_connectivity_two_vertex_complete():
    res = vertex_connectivity(complete(1, 1))
    assert res.value == 1
    assert res.kind == "complete_side" and res.vertices == ("x1",)


def test_vertex_connectivity_path():
    g = new_graph(2, 2, [(1, 1), (2, 1), (2, 2)])
    res = vertex_connectivity(g)
    assert res.value == 1 == brute_force_vertex_connectivity(g)
    assert res.vertices in (("x2",), ("y1",))


def test_brute_force_examples():
    assert brute_force_edge_connectivity(complete(2, 2)) == 2
    assert brute_force_edge_connectivity(new_graph(1, 2, [])) == 0
    assert brute_force_edge_connectivity(complete(1, 3)) == 1
    assert brute_force_vertex_connectivity(complete(2, 3)) == 2
    assert brute_force_vertex_connectivity(new_graph(2, 2, [(1, 1)])) == 0
    assert brute_force_vertex_connectivity(complete(1, 1)) == 1


def test_brute_force_size_cap():
    with pytest.raises(TooLarge):
        brute_force_edge_connectivity(complete(5, 12))
    with pytest.raises(TooLarge):
        brute_force_vertex_connectivity(complete(5, 12))


def test_oracle_equivalence_exhaustive_small():
    # Every labeled graph on every shape with r <= s and at most six vertices,
    # and with r > s and at most seven, where the edge source and the vertex
    # pairs can come from Y.
    shapes = [(r, s) for r in range(1, 4) for s in range(r, 7 - r)]
    shapes += [(r, s) for s in range(1, 4) for r in range(s + 1, 8 - s)]
    for r, s in shapes:
        for mask in range(1 << (r * s)):
            g = BipartiteGraph.from_mask(r, s, mask)
            assert edge_connectivity(g).value == brute_force_edge_connectivity(g), (r, s, mask)
            assert vertex_connectivity(g).value == brute_force_vertex_connectivity(g), (r, s, mask)


@given(graphs())
def test_oracle_equivalence_random(g):
    assert edge_connectivity(g).value == brute_force_edge_connectivity(g)
    assert vertex_connectivity(g).value == brute_force_vertex_connectivity(g)


@given(graphs())
def test_whitney_chain(g):
    kv = vertex_connectivity(g).value
    kp = edge_connectivity(g).value
    assert kv <= kp <= degrees(g).min_degree


@given(graphs(), st.integers(0, 10 ** 6))
def test_edge_deletion_decreases_edge_connectivity_by_at_most_one(g, pick):
    assume(g.edge_count > 0)
    edges = g.edges()
    removed = edges[pick % len(edges)]
    smaller = delete_edges(g, [removed])
    assert edge_connectivity(smaller).value >= edge_connectivity(g).value - 1


@given(graphs(), st.randoms(use_true_random=False))
def test_vertex_addition_preserves_edge_connectivity(g, rng):
    assume(is_connected(g))
    k = edge_connectivity(g).value
    if rng.random() < 0.5:
        pool, attach = g.left_size, add_right_vertex
    else:
        pool, attach = g.right_size, add_left_vertex
    count = rng.randint(max(k, 1), pool)
    neighbors = sorted(rng.sample(range(1, pool + 1), count))
    assert edge_connectivity(attach(g, neighbors)).value >= k


@given(graphs())
@settings(max_examples=40)
def test_edge_cut_certificate_disconnects(g):
    res = edge_connectivity(g)
    if res.kind == "edge_cut":
        assert not is_connected(delete_edges(g, res.edges))
        assert len(res.edges) == res.value


@given(graphs())
@settings(max_examples=40)
def test_vertex_cut_certificate_separates(g):
    res = vertex_connectivity(g)
    if res.kind in ("vertex_cut", "complete_side"):
        remainder = delete_vertices(g, res.vertices)
        assert remainder.n <= 1 or components_count(remainder) >= 2
        assert len(res.vertices) == res.value


def test_certificates_on_complete_bipartite():
    res = vertex_connectivity(complete(2, 3))
    assert res.kind == "complete_side"
    assert set(res.vertices) == {"x1", "x2"}


def _assert_valid_certificates(g):
    """Both certificates are cuts of the reported size, and repeat exactly."""
    edge, vertex = edge_connectivity(g), vertex_connectivity(g)
    assert edge == edge_connectivity(g) and vertex == vertex_connectivity(g)
    if edge.value == 0:
        assert edge.kind == vertex.kind == "disconnected" and vertex.value == 0
        assert components_count(g) >= 2
        return edge, vertex
    assert len(edge.edges) == len(set(edge.edges)) == edge.value
    assert components_count(delete_edges(g, edge.edges)) >= 2
    assert len(vertex.vertices) == len(set(vertex.vertices)) == vertex.value
    remainder = delete_vertices(g, vertex.vertices)
    assert remainder.n <= 1 or components_count(remainder) >= 2
    assert vertex.value <= edge.value <= degrees(g).min_degree
    return edge, vertex


def test_certificate_at_delta_is_the_last_minimum_degree_neighbourhood():
    # BC(Z_5, {0, 1, 2}) and its complement are connected, so k = k' = delta = 3
    # (L2.4) and no pair's flow beats delta.
    g = bi_cayley(CayleySubset(5, frozenset({0, 1, 2})))
    edge, vertex = _assert_valid_certificates(g)
    assert edge.value == vertex.value == 3 == brute_force_vertex_connectivity(g)
    # y5 is adjacent to x3, x4, x5 and is the last vertex of degree 3.
    assert vertex.kind == "vertex_cut" and vertex.vertices == ("x3", "x4", "x5")
    assert edge.edges == ((3, 5), (4, 5), (5, 5))


def test_connected_graph_of_minimum_degree_one_needs_no_flow():
    # A path x1 - y1 - x2 - y2 - x3: the last degree-1 vertex is x3, next to y2.
    g = new_graph(3, 2, [(1, 1), (2, 1), (2, 2), (3, 2)])
    edge, vertex = _assert_valid_certificates(g)
    assert edge.value == vertex.value == 1
    assert vertex.vertices == ("y2",) and edge.edges == ((3, 2),)


def test_certificate_from_a_flow_below_delta():
    # Two copies of K_{2,2} joined by the edge x2 - y3: delta = 2, k = k' = 1.
    g = new_graph(4, 4, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (2, 3)])
    edge, vertex = _assert_valid_certificates(g)
    assert edge.value == vertex.value == 1
    assert edge.edges == ((2, 3),)
    assert vertex.vertices in (("x2",), ("y3",))


def test_certificates_beyond_oracle_range():
    rng = random.Random(20_19)
    for _ in range(60):
        r = rng.randint(4, 10)
        s = rng.randint(max(r, 13 - r), 20 - r)
        density = rng.choice((0.2, 0.35, 0.5, 0.7, 0.9))
        mask = sum(1 << bit for bit in range(r * s) if rng.random() < density)
        g = BipartiteGraph.from_mask(r, s, mask)
        _assert_valid_certificates(g)
        _assert_valid_certificates(bipartite_complement(g))


@st.composite
def thinned_graphs(draw, max_r, min_n, max_n):
    """Graphs of min_n to max_n vertices, uniform or thinned or thickened by a second draw."""
    r = draw(st.integers(1, max_r))
    s = draw(st.integers(max(1, min_n - r), max_n - r))
    full = (1 << (r * s)) - 1
    mask = draw(st.integers(0, full))
    thin = draw(st.sampled_from(("as is", "and", "or")))
    if thin == "and":
        mask &= draw(st.integers(0, full))
    elif thin == "or":
        mask |= draw(st.integers(0, full))
    return BipartiteGraph.from_mask(r, s, mask)


@given(thinned_graphs(6, 9, 12))
@settings(max_examples=80)
def test_networkx_agrees_beyond_oracle_range(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((i - 1, g.left_size + j - 1) for i, j in g.edges())
    assert edge_connectivity(g).value == nx.edge_connectivity(h)
    assert vertex_connectivity(g).value == nx.node_connectivity(h)


@given(graphs(max_r=5, max_s=5))
def test_min_degree_matches_degrees(g):
    assume(g.left_size and g.right_size)
    assert _min_degree(g.left_size, g.right_size, g.adjacency) == degrees(g).min_degree


@given(graphs(max_r=5, max_s=5, min_n=6))
@settings(max_examples=30)
def test_every_pair_flow_matches_networkx(g):
    # The kernel alone, pair by pair and without a limit: the minimization
    # above it would hide a pair whose flow is too large.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_edge_connectivity, local_node_connectivity

    r, n = g.left_size, g.n
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((i - 1, r + j - 1) for i, j in g.edges())
    adj = _adjacency_masks(r, g.right_size, g.adjacency)
    arcs, free = _split_network(n, adj)
    for a in range(n):
        for b in range(a + 1, n):
            flow, reach = _unit_flow(adj, [0] * n, a, b, n)
            assert flow == local_edge_connectivity(h, a, b)
            assert reach >> a & 1 and not reach >> b & 1
            assert sum((reach >> u & 1) != (reach >> v & 1) for u, v in h.edges()) == flow
            if not adj[a] >> b & 1:
                flow, reach = _unit_flow(arcs, free, 2 * a + 1, 2 * b, n)
                assert flow == local_node_connectivity(h, a, b)
                cut = [v for v in range(n) if reach >> 2 * v & 1 and not reach >> 2 * v + 1 & 1]
                assert len(cut) == flow and a not in cut and b not in cut


def _joined(adj, a, b, alive):
    """True when b is reachable from a through alive vertices (plain BFS)."""
    seen, todo = {a}, [a]
    while todo:
        u = todo.pop()
        for v in range(len(adj)):
            if adj[u] >> v & 1 and alive >> v & 1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return b in seen


def test_every_pair_cut_matches_its_flow():
    # Max-flow min-cut pair by pair: the cut read off each final residual
    # reach has exactly flow members and separates the pair.
    rng = random.Random(4_1975)
    for _ in range(40):
        r = rng.randint(3, 8)
        s = rng.randint(max(r, 10 - r), 16 - r)
        density = rng.choice((0.3, 0.5, 0.7))
        g = BipartiteGraph.from_mask(r, s, sum(1 << bit for bit in range(r * s) if rng.random() < density))
        n = g.n
        adj = _adjacency_masks(r, s, g.adjacency)
        arcs, free = _split_network(n, adj)
        full = (1 << n) - 1
        for a in range(n):
            for b in range(a + 1, n):
                flow, reach = _unit_flow(adj, [0] * n, a, b, n)
                cut_adj = [adj[u] & (reach if reach >> u & 1 else full & ~reach) for u in range(n)]
                assert sum((adj[u] ^ cut_adj[u]).bit_count() for u in range(n)) == 2 * flow
                assert not _joined(cut_adj, a, b, full)
                if not adj[a] >> b & 1:
                    flow, reach = _unit_flow(arcs, free, 2 * a + 1, 2 * b, n)
                    cut = [v for v in range(n) if reach >> 2 * v & 1 and not reach >> 2 * v + 1 & 1]
                    assert len(cut) == flow and a not in cut and b not in cut
                    assert not _joined(adj, a, b, full & ~sum(1 << v for v in cut))


_CUT = ConnectivityResult(0, "disconnected")


@pytest.mark.parametrize("r, s, rows, connected, value, certificates", [
    (0, 0, (), EmptyGraph, 0, TooSmall),
    (1, 0, (0,), True, 0, TooSmall),
    (0, 1, (), True, 0, TooSmall),
    (0, 3, (), False, 0, (_CUT, _CUT)),
    (2, 0, (0, 0), False, 0, (_CUT, _CUT)),
    (1, 1, (1,), True, 1, (ConnectivityResult(1, "edge_cut", edges=((1, 1),)),
                           ConnectivityResult(1, "complete_side", vertices=("x1",)))),
], ids=["no vertex", "one left vertex", "one right vertex", "three right vertices", "two left vertices", "K_1,1"])
def test_degenerate_graphs_keep_their_values_and_errors(r, s, rows, connected, value, certificates):
    # An empty part, a single vertex and K_{1,1}: every entry point, kernels and oracles alike.
    g = BipartiteGraph(r, s, rows)
    if connected is EmptyGraph:
        with pytest.raises(EmptyGraph):
            is_connected(g)
    else:
        assert is_connected(g) is connected
    for kernel in (edge_connectivity_value, vertex_connectivity_value, edge_oracle_value, vertex_oracle_value):
        assert kernel(r, s, rows) == value, kernel.__name__
    assert brute_force_edge_connectivity(g) == brute_force_vertex_connectivity(g) == value
    if certificates is TooSmall:
        with pytest.raises(TooSmall):
            edge_connectivity(g)
        with pytest.raises(TooSmall):
            vertex_connectivity(g)
    else:
        assert (edge_connectivity(g), vertex_connectivity(g)) == certificates


def test_edge_oracle_matches_every_side_on_every_small_graph():
    # Every labeled graph with r * s <= 12 and at most nine vertices, empty parts included.
    for r in range(10):
        for s in range(10 - r):
            if r * s > 12:
                continue
            for mask in range(1 << (r * s)):
                g = BipartiteGraph.from_mask(r, s, mask)
                assert edge_oracle_value(r, s, g.adjacency) == min_crossing_edges(g), (r, s, mask)


@given(graphs(min_r=0, max_r=6, min_s=0, max_s=6, min_n=1))
@settings(max_examples=40)
def test_edge_oracle_matches_every_side_up_to_twelve_vertices(g):
    assert edge_oracle_value(g.left_size, g.right_size, g.adjacency) == min_crossing_edges(g)


def test_vertex_flows_stay_within_the_esfahanian_hakimi_pairs(monkeypatch):
    # At most (|part of v| - 1) + C(delta, 2) flows per graph, v the first
    # vertex of degree delta: every (3,4) graph, then seeded random graphs of
    # up to 16 vertices.
    flows = 0

    def counted(*args):
        nonlocal flows
        flows += 1
        return _unit_flow(*args)

    monkeypatch.setattr(connectivity, "_unit_flow", counted)
    rng = random.Random(1984)
    samples = [BipartiteGraph.from_mask(3, 4, mask) for mask in range(1 << 12)]
    for _ in range(300):
        r = rng.randint(2, 8)
        s = rng.randint(r, 16 - r)
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        samples.append(BipartiteGraph.from_mask(r, s, sum(1 << bit for bit in range(r * s) if rng.random() < density)))
    most = 0
    for g in samples:
        flows = 0
        value = vertex_connectivity_value(g.left_size, g.right_size, g.adjacency)
        summary = degrees(g)
        delta = summary.min_degree
        part = g.left_size if delta in summary.left_degrees else g.right_size
        assert flows <= (part - 1) + delta * (delta - 1) // 2, (g, flows)
        if g.n == 7:
            assert value == brute_force_vertex_connectivity(g), g
        most = max(most, flows)
    assert most > 0


def test_vertex_connectivity_matches_networkx_on_bi_cayley_graphs():
    # The family L2.4 checks: every connected BC(Z_r, S) and complement with r <= 7.
    nx = pytest.importorskip("networkx")
    checked = 0
    for r in range(1, 8):
        for smask in range(1 << r):
            g = bi_cayley(CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1)))
            for h in (g, bipartite_complement(g)):
                if components_count(h) != 1:
                    continue
                graph = nx.Graph()
                graph.add_nodes_from(range(2 * r))
                graph.add_edges_from((i - 1, r + j - 1) for i, j in h.edges())
                assert vertex_connectivity_value(r, r, h.adjacency) == nx.node_connectivity(graph), (r, smask)
                checked += 1
    assert checked > 200


def test_a_minimum_separator_through_the_minimum_degree_vertex():
    # Two K_{4,4}, x3..x6 with y1..y4 and x7..x10 with y5..y8, joined by x1
    # (y1, y2, y5, y6) and x2 (y3, y4, y7, y8). x1 is the first vertex of
    # degree delta = 4 and lies in {x1, x2}, the only 2-separator, so no flow
    # from x1 finds k = 2; a pair of x1's neighbours in both halves does.
    g = BipartiteGraph(10, 8, (0b00110011, 0b11001100) + (0b1111,) * 4 + (0b11110000,) * 4)
    edge, vertex = _assert_valid_certificates(g)
    assert vertex.value == 2 and vertex.vertices == ("x1", "x2")


def test_short_paths_never_exceed_the_pair_flow_on_every_small_graph():
    # Every pair within one part of every labeled graph with r <= s and at
    # most seven vertices, the first size at which two paths of length 4
    # could share a vertex. No such pair is adjacent, so both flows bound it.
    pairs = 0
    for r in range(1, 4):
        for s in range(r, 8 - r):
            n = r + s
            for mask in range(1 << (r * s)):
                adj = _adjacency_masks(r, s, BipartiteGraph.from_mask(r, s, mask).adjacency)
                arcs, free = _split_network(n, adj)
                for a in range(n):
                    for b in range(a + 1, r if a < r else n):
                        bound = _short_paths(r, adj, a, b, n)
                        assert bound <= _unit_flow(adj, [0] * n, a, b, n)[0], (r, s, mask, a, b)
                        assert bound <= _unit_flow(arcs, free, 2 * a + 1, 2 * b, n)[0], (r, s, mask, a, b)
                        pairs += 1
    assert pairs == 54_684


@given(graphs(max_r=6, max_s=6, min_n=6))
@settings(max_examples=30)
def test_short_paths_never_exceed_networkx_local_connectivity(g):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_edge_connectivity, local_node_connectivity

    r, n = g.left_size, g.n
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((i - 1, r + j - 1) for i, j in g.edges())
    adj = _adjacency_masks(r, g.right_size, g.adjacency)
    for a in range(n):
        for b in range(a + 1, r if a < r else n):
            bound = _short_paths(r, adj, a, b, n)
            assert bound <= local_edge_connectivity(h, a, b)
            assert bound <= local_node_connectivity(h, a, b)


# The 6-cycle x1 y2 x2 y1 x3 y3, the 8-cycle x1 y1 x3 y3 x2 y4 x4 y2, and a
# graph of minimum degree 2 in which x1 and x2 are joined by x1 y1 x4 y4 x2
# and x1 y2 x3 y3 x2, but the greedy pass gives y1 the middle vertex x3 first.
# Every path of length 4 from x1 to x2 in _ONE_MIDDLE, and from y1 to y2 in
# _ONE_END, passes x3, so their count is 1.
_C6 = new_graph(3, 3, [(1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 3)])
_C8 = new_graph(4, 4, [(1, 1), (1, 2), (2, 3), (2, 4), (3, 1), (3, 3), (4, 2), (4, 4)])
_GREEDY_SHORT = new_graph(4, 4, [(1, 1), (1, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 1), (4, 4)])
_ONE_MIDDLE = new_graph(3, 4, [(1, 1), (1, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4)])
_ONE_END = new_graph(3, 4, [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (3, 3), (3, 4)])


_PATH_KINDS = [
    (complete(3, 3), 0, 1, 3, "three common neighbours"),
    (_C6, 4, 5, 2, "y2 x1 y3 and y2 x2 y1 x3 y3"),
    (_C8, 0, 1, 2, "x1 y1 x3 y3 x2 and x1 y2 x4 y4 x2"),
    (_GREEDY_SHORT, 0, 1, 1, "x1 y1 x3 y3 x2 blocks x1 y2 x3 y3 x2"),
    (_ONE_MIDDLE, 0, 1, 1, "x1 y1 x3 y3 x2 blocks x1 y2 x3 y4 x2"),
    (_ONE_END, 3, 4, 1, "y1 x1 y3 x3 y2 blocks y1 x2 y4 x3 y2"),
]


@pytest.mark.parametrize("g, a, b, found, kinds", _PATH_KINDS, ids=[case[-1] for case in _PATH_KINDS])
def test_short_paths_by_path_kind(g, a, b, found, kinds):
    r = g.left_size
    adj = _adjacency_masks(r, g.right_size, g.adjacency)
    assert _short_paths(r, adj, a, b, g.n) == found, kinds


def _flows_run(monkeypatch, kernel, g):
    """The (source, sink) of every flow ``kernel`` runs on g."""
    pairs = []

    def recorded(arcs, free, source, sink, limit):
        pairs.append((source, sink))
        return _unit_flow(arcs, free, source, sink, limit)

    monkeypatch.setattr(connectivity, "_unit_flow", recorded)
    kernel(g.left_size, g.right_size, g.adjacency)
    return pairs


def test_paths_of_length_three_and_four_settle_every_vertex_pair_of_the_six_cycle(monkeypatch):
    # delta = 2; the pairs are (x1, y1) and (y2, y3), neither with two common neighbours.
    assert _flows_run(monkeypatch, vertex_connectivity_value, _C6) == []
    assert vertex_connectivity(_C6).value == 2


def test_a_pair_the_greedy_bound_misses_still_runs_its_flow(monkeypatch):
    g = _GREEDY_SHORT
    assert (1, 2) in _flows_run(monkeypatch, vertex_connectivity_value, g)  # out(x1) -> in(x2)
    assert (0, 1) in _flows_run(monkeypatch, edge_connectivity_value, g)
    assert vertex_connectivity_value(4, 4, g.adjacency) == 2 == brute_force_vertex_connectivity(g)
    assert edge_connectivity_value(4, 4, g.adjacency) == 2 == brute_force_edge_connectivity(g)


def _seeded_graphs(seed, count, smallest, largest):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(smallest, largest)
        r = rng.randint(1, n - 1)
        s = n - r
        density = rng.choice((0.2, 0.4, 0.6, 0.8, 0.95))
        yield BipartiteGraph.from_mask(r, s, sum(1 << bit for bit in range(r * s) if rng.random() < density))


def test_joint_kernel_equals_the_three_kernels():
    # Every labeled graph with r + s <= 8, r > s included, then 300 seeded
    # graphs of 9 to 16 vertices, each with its complement.
    def separate(r, s, rows):
        return _min_degree(r, s, rows), edge_connectivity_value(r, s, rows), vertex_connectivity_value(r, s, rows)

    for r in range(1, 8):
        for s in range(1, 9 - r):
            for mask in range(1 << (r * s)):
                rows = rows_of(r, s, mask)
                assert _joint_values(r, s, rows) == separate(r, s, rows), (r, s, mask)
    for g in _seeded_graphs(916, 300, 9, 16):
        for h in (g, bipartite_complement(g)):
            r, s, rows = h.left_size, h.right_size, h.adjacency
            assert _joint_values(r, s, rows) == separate(r, s, rows), h


_PREWORK_READERS = {"edge": edge_connectivity, "vertex": vertex_connectivity, "degrees": degrees}
_PREWORK_ORDERS = (("edge", "vertex", "degrees"), ("vertex", "degrees", "edge"), ("degrees", "edge", "vertex"))


def _check_prework(r, s, mask, turn, slow=True):
    # g and a fresh equal graph build their prework through different readers.
    g, fresh = BipartiteGraph.from_mask(r, s, mask), BipartiteGraph.from_mask(r, s, mask)
    shown = repr(g), asdict(g) if slow else None
    results = [{name: _PREWORK_READERS[name](h) for name in _PREWORK_ORDERS[(turn + k) % 3]}
               for k, h in enumerate((g, fresh))]
    assert results[0] == results[1], (r, s, mask)
    rows = g.adjacency
    values = results[0]["edge"].value, results[0]["vertex"].value, results[0]["degrees"].min_degree
    assert values == (edge_connectivity_value(r, s, rows), vertex_connectivity_value(r, s, rows),
                      _min_degree(r, s, rows)), (r, s, mask)
    # Both flows have run on g's masks, which must still be the ones built.
    adj = tuple(_adjacency_masks(r, s, rows))
    assert g.prework == (_rows_connected(r, s, rows), adj, tuple(a.bit_count() for a in adj)), (r, s, mask)
    assert g == fresh and hash(g) == hash(fresh) and (repr(g), asdict(g) if slow else None) == shown, (r, s, mask)
    assert not slow or pickle.loads(pickle.dumps(g)) == g


def test_the_cached_prework_is_the_same_whichever_reader_builds_it():
    # Every labeled graph with r + s <= 8, then 300 seeded graphs of 9 to 20
    # vertices with their complements; the order in which the certificates
    # and degrees read the prework turns with the mask. asdict and pickle,
    # the slow checks, run on one labeled mask in 16 and on every seeded graph.
    for r in range(1, 8):
        for s in range(1, 9 - r):
            for mask in range(1 << (r * s)):
                _check_prework(r, s, mask, mask, slow=mask % 16 == 0)
    for turn, g in enumerate(_seeded_graphs(2_021, 300, 9, 20)):
        for h in (g, bipartite_complement(g)):
            _check_prework(h.left_size, h.right_size, h.mask, turn)


def test_skipping_pairs_leaves_values_and_certificates_unchanged(monkeypatch):
    # Every (3,4) graph and 300 seeded graphs of 2 to 20 vertices, with every
    # pair skipped as usual and then with every pair flowing.
    samples = [BipartiteGraph.from_mask(3, 4, mask) for mask in range(1 << 12)]
    samples += _seeded_graphs(10_384, 300, 2, 20)

    def results():
        return [(edge_connectivity(g), vertex_connectivity(g),
                 edge_connectivity_value(g.left_size, g.right_size, g.adjacency),
                 vertex_connectivity_value(g.left_size, g.right_size, g.adjacency)) for g in samples]

    default = results()
    monkeypatch.setattr(connectivity, "_short_paths", lambda r, adj, a, b, limit: 0)
    assert results() == default


def test_short_paths_settle_almost_every_pair_at_twelve_to_twenty_vertices(monkeypatch):
    # 150 seeded graphs and their complements. With the common-neighbour skip
    # alone they took 684 edge and 575 vertex flows, and with the short paths
    # over every sink and every non-neighbour 6 and 14.
    flows = {"edge": 0, "vertex": 0}

    def counted(arcs, free, source, sink, limit):
        flows["vertex" if len(arcs) == 2 * g.n else "edge"] += 1
        return _unit_flow(arcs, free, source, sink, limit)

    monkeypatch.setattr(connectivity, "_unit_flow", counted)
    for g in _seeded_graphs(2026, 150, 12, 20):
        for h in (g, bipartite_complement(g)):
            edge_connectivity(h)
            vertex_connectivity(h)
    assert flows == {"edge": 1, "vertex": 0}


def _transposed(g):
    """The same graph with X and Y swapped."""
    return new_graph(g.right_size, g.left_size, [(j, i) for i, j in g.edges()])


def _bridged_blocks(d):
    """Two K_{d,d} joined by one edge, delta = d and k' = k = 1.

    x1..xd with y1..yd and x(d+1)..x(2d) with y(d+1)..y(2d), joined by the
    edge xd - y(d+1), and x(2d+1) next to y(d+1)..y(2d).
    """
    blocks = [(i, j) for b in (0, d) for i in range(b + 1, b + d + 1) for j in range(b + 1, b + d + 1)]
    return new_graph(2 * d + 1, 2 * d, blocks + [(d, d + 1)] + [(2 * d + 1, j) for j in range(d + 1, 2 * d + 1)])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_cut_below_delta_is_found_with_only_twice_delta_vertices_in_the_smaller_part(d):
    # Y is the smaller part, with 2d vertices, the fewest that allow k' <
    # delta = d, and of the sinks y2..y(d+1) only y(d+1) lies beyond the cut.
    g = _bridged_blocks(d)
    for h, bridge in ((g, (d, d + 1)), (_transposed(g), (d + 1, d))):
        edge, vertex = _assert_valid_certificates(h)
        assert edge.value == vertex.value == 1 and degrees(h).min_degree == d
        assert edge.edges == (bridge,)  # read off the flow's reach, not a vertex's degree


def _full_pair_values(g):
    """(k', k) by the unrestricted pair sets, flows only.

    Edge connectivity: vertex 0 against every other vertex. Vertex
    connectivity: the first vertex v of minimum degree against every vertex
    outside N[v], then every pair of neighbours of v. Both capped at delta.
    """
    r, n = g.left_size, g.n
    if n < 2 or components_count(g) != 1:
        return 0, 0
    adj = _adjacency_masks(r, g.right_size, g.adjacency)
    delta = min(nbrs.bit_count() for nbrs in adj)
    edge = min([delta] + [_unit_flow(adj, [0] * n, 0, t, delta)[0] for t in range(1, n)])
    arcs, free = _split_network(n, adj)
    v = [nbrs.bit_count() for nbrs in adj].index(delta)
    near = [u for u in range(n) if adj[v] >> u & 1]
    pairs = [(v, u) for u in range(n) if u != v and u not in near]
    pairs += [(a, b) for i, a in enumerate(near) for b in near[i + 1:]]
    vertex = min([delta] + [_unit_flow(arcs, free, 2 * a + 1, 2 * b, delta)[0] for a, b in pairs])
    return edge, vertex


def test_one_part_pairs_agree_with_the_full_pair_sets():
    # 300 seeded graphs of 2 to 20 vertices, each in both orientations.
    for g in _seeded_graphs(1987, 300, 2, 20):
        for h in (g, _transposed(g)):
            r, s, rows = h.left_size, h.right_size, h.adjacency
            assert (edge_connectivity_value(r, s, rows), vertex_connectivity_value(r, s, rows)) == _full_pair_values(h), h


def test_both_kernels_pass_short_paths_only_pairs_within_one_part(monkeypatch):
    # 300 seeded graphs of 2 to 20 vertices and the bridged blocks, where
    # edge flows run, each in both orientations. Every flow runs right after
    # _short_paths leaves its pair below the limit, at that pair's ends: (a, b)
    # on the edge network, out(a) = 2a + 1 and in(b) = 2b on the split
    # network. A pair that _short_paths settles runs no flow.
    graphs = [*_seeded_graphs(4_096, 300, 2, 20), *map(_bridged_blocks, range(2, 6))]
    samples = [h for g in graphs for h in (g, _transposed(g))]
    for kernel, ends in ((edge_connectivity_value, lambda a, b: (a, b)),
                         (vertex_connectivity_value, lambda a, b: (2 * a + 1, 2 * b))):
        calls = []

        def recorded(r, adj, a, b, limit):
            found = _short_paths(r, adj, a, b, limit)
            calls.append(("paths", r, a, b, limit, found))
            return found

        def flowed(arcs, free, source, sink, limit):
            calls.append(("flow", source, sink, limit))
            return _unit_flow(arcs, free, source, sink, limit)

        monkeypatch.setattr(connectivity, "_short_paths", recorded)
        monkeypatch.setattr(connectivity, "_unit_flow", flowed)
        for h in samples:
            kernel(h.left_size, h.right_size, h.adjacency)
        pairs = [call[1:] for call in calls if call[0] == "paths"]
        assert pairs, kernel.__name__
        assert [(r, a, b) for r, a, b, _, _ in pairs if (a < r) != (b < r)] == [], kernel.__name__
        flows = [(calls[i - 1] if i else None, call) for i, call in enumerate(calls) if call[0] == "flow"]
        assert flows, kernel.__name__
        for before, (_, source, sink, limit) in flows:
            assert before is not None and before[0] == "paths", kernel.__name__
            _, _, a, b, paths_limit, found = before
            assert (paths_limit, source, sink) == (limit, *ends(a, b)), kernel.__name__
            assert found < limit, kernel.__name__
        assert len(flows) == sum(found < limit for *_, limit, found in pairs), kernel.__name__


@given(thinned_graphs(19, 2, 20))
@settings(max_examples=60)
def test_networkx_agrees_up_to_twenty_vertices_in_both_orientations(g):
    nx = pytest.importorskip("networkx")
    for h in (g, _transposed(g)):
        graph = nx.Graph()
        graph.add_nodes_from(range(h.n))
        graph.add_edges_from((i - 1, h.left_size + j - 1) for i, j in h.edges())
        assert edge_connectivity(h).value == nx.edge_connectivity(graph)
        assert vertex_connectivity(h).value == nx.node_connectivity(graph)
