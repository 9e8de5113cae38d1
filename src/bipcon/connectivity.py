"""Exact vertex and edge connectivity of bipartite graphs.

The fast path runs unit-capacity max-flow on a residual network held as one
Python-int bitmask per node, finding each augmenting path by a depth-first
search over mask operations. Both minimizations start from the minimum
degree delta, since k <= k' <= delta: no flow runs past the best value so
far, and a connected graph with delta <= 1 needs no flow at all. A row
closure tests whether the graph is connected: the columns reached from row 0
absorb every row that meets them, so a disconnected graph returns 0 at once,
and the value kernels build no adjacency for it.

Both take their pairs from one part, by one fact: in a connected bipartite
graph, each side of a cut smaller than delta holds vertices of both parts
(the proofs are in ``_edge_core`` and ``_vertex_core``). So edge
connectivity needs only the flows from one vertex of the smaller part to
the other vertices of that part: Matula's dominating-set argument
("Determining edge connectivity in O(nm)", FOCS 1987), each part of a
connected bipartite graph being a dominating set. An edge cut below delta
even leaves delta vertices of each part on each side, so of the
min(r, s) - 1 sinks the first min(r, s) - delta suffice, and none are
needed when min(r, s) < 2 delta. Vertex connectivity pairs a vertex v of
minimum degree with the other vertices of its own part, then every two
neighbours of v, on the split-vertex network (each vertex becomes an in/out
node pair joined by a capacity-1 arc): (|part of v| - 1) + C(delta, 2)
flows at most, the pairs of Esfahanian and Hakimi (Networks 14, 1984)
restricted to v's part.

Most pairs run no flow. ``_short_paths`` greedily packs internally disjoint
paths of length at most 4 between the two vertices of a pair, which lie in
one part: the common neighbours and paths a-y-x-y'-b. The paths share no
inner vertex (the common neighbours, N(a) - N(b) and N(b) - N(a) are
disjoint, each inner vertex is taken once, and the middle vertices x lie in
the other part from the neighbours y), so their number is a lower bound on
the pair's local vertex and edge connectivity. Every flow is capped at the
best value so far, so a pair with that many paths could change neither the
value nor the cut, and skipping it leaves both exactly as running every
flow would. On uniform random graphs nearly all pairs are settled this way,
since nearly all have k = delta.

The two minimizations share their prework: the row closure, the adjacency
masks and the degree list. The value kernels take bare rows and build it
with ``_connected_masks``, which builds no masks for a disconnected graph;
the certificate routines read the graph's cached ``BipartiteGraph.prework``
(``bipcon.bigraph``, where ``_rows_connected`` and ``_adjacency_masks``
live), so both certificates and ``bigraph.degrees`` of one graph build it
once. Each kernel is that prework plus its core, ``_edge_core`` or
``_vertex_core``, which differ only in their pairs and network and share
one minimizing loop, ``_least_flow``; the flow code only reads the masks.
A sweep that needs delta, k' and k of one graph calls ``_joint_values``:
one prework and both cores, with no shortcut from k = delta to k' = delta,
so each flow value is still computed, and audited where an oracle runs.

Both report a certificate, a concrete cut whose removal disconnects the
graph or leaves one vertex. When the minimum is below delta, the cut is read
off the source side's residual reach in the first flow that attains it;
otherwise it is the neighbourhood (vertex kind) or the delta edges (edge
kind) of the last vertex of minimum degree, read bit by bit off its mask.
Identical inputs always yield identical certificates.

``brute_force_edge_connectivity`` and ``brute_force_vertex_connectivity``
are deliberately independent oracles; they share no code with the flow path
(not even the adjacency masks or the connectivity test) and exist to
cross-check it exhaustively at small sizes. The edge oracle enumerates the
2^(r-1) X parts of the side that holds x1 and places each y on its cheaper
side in closed form; the vertex oracle enumerates removal sets in
increasing size and floods what is left.

Vertices are indexed 0..r-1 for X and r..r+s-1 for Y in all internal
adjacency masks. A graph on a single vertex has connectivity 0 by
convention; the certificate routines reject it outright (TooSmall) while
the value kernels and the oracles simply return 0 so that enumeration code
can stay total.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import combinations

from .bigraph import BipartiteGraph, _adjacency_masks, _bit_indices, _rows_connected, mask_of
from .errors import EmptyGraph, TooLarge, TooSmall

_BRUTE_FORCE_MAX_VERTICES = 16


@dataclass(frozen=True)
class ConnectivityResult:
    """A connectivity value plus a certificate.

    ``kind`` is one of:

    * ``"disconnected"``: value 0, the graph is already disconnected;
    * ``"edge_cut"``: ``edges`` is a minimum edge cut (1-based (i, j) pairs);
    * ``"vertex_cut"``: ``vertices`` is a minimum separating set;
    * ``"complete_side"``: ``vertices`` is an entire part whose removal
      leaves an edgeless graph or a single vertex (the minimum-side cut of a
      complete bipartite graph, including the two-vertex complete case).

    Vertex labels are strings like "x2" or "y5".
    """

    value: int
    kind: str
    vertices: tuple[str, ...] | None = None
    edges: tuple[tuple[int, int], ...] | None = None


def _vertex_label(r: int, v: int) -> str:
    return f"x{v + 1}" if v < r else f"y{v - r + 1}"


def is_connected(g: BipartiteGraph) -> bool:
    """True iff all vertices lie in one component; a single vertex counts as connected."""
    n = g.n
    if n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined")
    return n == 1 or _rows_connected(g.left_size, g.right_size, g.adjacency)


# --- unit-capacity max-flow on bitset residual networks ---------------------
#
# Both networks carry at most one unit on every arc, so each node keeps its
# residual arcs (residual capacity > 0) as one bitmask and the arcs it sends
# a unit along as another. The edge network is the graph itself, capacity 1
# each way. The split network gives vertex v the nodes in(v) = 2v and
# out(v) = 2v + 1 joined by a unit arc in(v) -> out(v), and turns each edge
# u-w into the uncapacitated arcs out(u) -> in(w) and out(w) -> in(u).


def _min_degree(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Minimum degree over both parts, read from the X rows (needs r, s >= 1)."""
    # Stacking the rows s bits apart puts column j at bits j, j + s, j + 2s, ...
    stacked = mask_of(s, rows)
    column = ((1 << (r * s)) - 1) // ((1 << s) - 1)
    dmin = min(row.bit_count() for row in rows)
    for j in range(s):
        d = (stacked >> j & column).bit_count()
        if d < dmin:
            dmin = d
    return dmin


def _unit_flow(arcs: Sequence[int], free: Sequence[int], source: int, sink: int, limit: int) -> tuple[int, int]:
    """Augment unit paths from source to sink until the flow reaches ``limit``.

    ``arcs[u]`` masks the arcs out of node u; ``free[u]``, a subset, masks
    those no flow saturates. Returns (flow, reach). When the flow stays below
    ``limit``, reach masks the nodes the source reaches in the final residual
    network, the source side of a minimum cut; otherwise it is 0.
    """
    res = list(arcs)
    sent = [0] * len(arcs)
    tbit = 1 << sink
    flow = 0
    while flow < limit:
        # Depth-first search: the path is the stack, so only its nodes are
        # ever unpacked from a mask.
        seen = 1 << source
        path = [source]
        while True:
            nxt = res[path[-1]] & ~seen
            if nxt & tbit:
                break
            if nxt:
                low = nxt & -nxt
                seen |= low
                path.append(low.bit_length() - 1)
            else:
                path.pop()
                if not path:
                    return flow, seen
        path.append(sink)
        u = source
        for v in path[1:]:
            ub, vb = 1 << u, 1 << v
            if sent[v] & ub:
                # Cancel v's unit to u; u -> v stays residual only on an arc of its own.
                sent[v] ^= ub
                if not arcs[u] & vb:
                    res[u] ^= vb
            else:
                sent[u] |= vb
                if not free[u] & vb:
                    res[u] ^= vb
            res[v] |= ub
            u = v
        flow += 1
    return flow, 0


def _short_paths(r: int, adj: Sequence[int], a: int, b: int, limit: int) -> int:
    """Greedily packed internally disjoint a-b paths of length <= 4; a and b share a part.

    Stops once it has ``limit`` or more and returns how many it found, a
    lower bound on the local vertex and edge connectivity of the pair (two
    vertices of one part are never adjacent). Every common neighbour is a
    path a-y-b; then each y in N(a) - N(b), in index order, takes the first
    unused x of the pair's part adjacent to y and to an unused y' in
    N(b) - N(a) (so x is neither a nor b), and the first such y', for a
    path a-y-x-y'-b. The paths share no inner vertex: the common
    neighbours, N(a) - N(b) and N(b) - N(a) are disjoint, each y, x and y'
    is taken once, and the x's lie in the other part from the y's.
    Vertex-disjoint paths are edge-disjoint too.
    """
    na, nb = adj[a], adj[b]
    found = (na & nb).bit_count()
    ends = nb & ~na
    # a and b are never middles: one is not next to y, the other not to y'.
    middles = (1 << r) - 1 if a < r else (1 << len(adj)) - (1 << r)
    starts = na & ~nb
    while found < limit and starts and ends:
        low = starts & -starts
        starts ^= low
        xs = adj[low.bit_length() - 1] & middles
        while xs:
            x = xs & -xs
            hit = adj[x.bit_length() - 1] & ends
            if hit:
                middles ^= x
                ends ^= hit & -hit
                found += 1
                break
            xs ^= x
    return found


def _last_of_degree(degrees: Sequence[int], degree: int) -> int:
    # The last rather than the first, so the cut of K_{1,1} is x1, its whole X side.
    return len(degrees) - 1 - degrees[::-1].index(degree)


def _connected_masks(r: int, s: int, rows: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(adjacency masks, degrees) of a connected graph, the prework both min cuts share.

    Both are empty when the row closure finds the graph disconnected or a
    single vertex, so no masks are built for it; every kernel then returns
    0 or the ``disconnected`` certificate.
    """
    if not _rows_connected(r, s, rows):
        return [], []
    adj = _adjacency_masks(r, s, rows)
    return adj, [nbrs.bit_count() for nbrs in adj]


def _least_flow(r: int, adj: Sequence[int], best: int, pairs: Iterable[tuple[int, int, int, int]],
                network: Callable[[], tuple[Sequence[int], Sequence[int]]]) -> tuple[int, int]:
    """(least flow, reach) over ``pairs``, starting from ``best``.

    Each pair is (a, b, source, sink): two vertices of one part and the ends
    of their flow in the network ``network()`` returns as (arcs, free), built
    for the first pair that needs a flow. Each flow is capped at the best
    value so far, so a pair to which ``_short_paths`` finds best internally
    disjoint paths of length at most 4 runs none: its flow would reach best
    and change neither best nor reach. reach is the source side of the cut
    of the first pair that attains the minimum, and 0 when none goes below
    the starting best. A flow of 1, the least possible, ends the search.
    """
    cut = 0
    arcs: Sequence[int] = ()
    for a, b, source, sink in pairs:
        if _short_paths(r, adj, a, b, best) >= best:
            continue
        if not arcs:
            arcs, free = network()
        f, reach = _unit_flow(arcs, free, source, sink, best)
        if f < best:
            best, cut = f, reach
            if best == 1:
                break
    return best, cut


def _edge_core(r: int, s: int, adj: Sequence[int], degrees: Sequence[int]) -> tuple[int, int]:
    """(edge connectivity, reach) of a connected graph from its masks and degrees.

    Minimizes the flow from the first vertex of the smaller part P (X on a
    tie) to the next |P| - delta vertices of P, starting from the minimum
    degree delta (k' <= delta), so no flow runs past the best value so far
    and a connected graph with delta <= 1 needs none; nor does one with
    |P| < 2 delta. This is exact. Every flow is at least k', so if k' =
    delta the minimum stays delta. Let F be an edge cut with |F| < delta. A
    side of a <= delta vertices sends at least a (delta - a + 1) >= delta
    edges out, so each side B of F holds more than |F| vertices and some w
    in B touches no edge of F. The delta or more neighbours of w lie in B,
    in the other part from w; they too outnumber F, so one of them touches
    no edge of F and its delta or more neighbours, in w's part, lie in B.
    Each side of F thus holds delta or more vertices of each part. So k' <
    delta needs |P| >= 2 delta, and the side without the source holds
    delta or more sinks of P, at least one of them among the first |P| -
    delta: its flow is at most |F|, and the minimum is k'. For the same
    reason the first sink of P that attains k' is among them, so reach is
    that of trying every sink of P.
    """
    best = min(degrees)
    source, part = (0, r) if r <= s else (r, s)
    if best <= 1 or part < 2 * best:
        return best, 0
    pairs = ((source, t, source, t) for t in range(source + 1, source + 1 + part - best))
    return _least_flow(r, adj, best, pairs, lambda: (adj, [0] * (r + s)))


def edge_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Edge connectivity by bitset max-flow seeded with delta (no certificate)."""
    adj, degrees = _connected_masks(r, s, rows)
    return _edge_core(r, s, adj, degrees)[0] if adj else 0


def edge_connectivity(g: BipartiteGraph) -> ConnectivityResult:
    """Edge connectivity with a minimum-cut certificate.

    The cut is the set of edges leaving the source side of the first
    minimum flow, when that flow is below delta. Otherwise it is the delta
    edges of the last vertex of minimum degree, read off its row or column.
    Identical inputs always yield identical cuts.
    """
    if g.n < 2:
        raise TooSmall("edge connectivity needs at least two vertices")
    connected, adj, degrees = g.prework
    if not connected:
        return ConnectivityResult(0, "disconnected")
    r = g.left_size
    best, reach = _edge_core(r, g.right_size, adj, degrees)
    if reach:
        # The edges of each x_i to the neighbours on the other side of reach.
        cut = [(i + 1, u - r + 1) for i in range(r)
               for u in _bit_indices(adj[i] & (~reach if reach >> i & 1 else reach))]
    else:
        v = _last_of_degree(degrees, best)
        ends = _bit_indices(adj[v])
        cut = [(v + 1, u - r + 1) for u in ends] if v < r else [(u + 1, v - r + 1) for u in ends]
    if len(cut) != best:
        raise RuntimeError(f"edge cut of {len(cut)} edges for a flow of {best}")
    return ConnectivityResult(best, "edge_cut", edges=tuple(cut))


def _split_network(n: int, adj: Sequence[int]) -> tuple[list[int], list[int]]:
    """(arcs, uncapacitated arcs) of the split network, one mask per node."""
    arcs = [0] * (2 * n)
    free = [0] * (2 * n)
    for v in range(n):
        arcs[2 * v] = 1 << (2 * v + 1)
        nbrs = adj[v]
        ins = 0
        while nbrs:
            low = nbrs & -nbrs
            ins |= 1 << (2 * low.bit_length() - 2)
            nbrs ^= low
        arcs[2 * v + 1] = free[2 * v + 1] = ins
    return arcs, free


def _vertex_core(r: int, s: int, adj: Sequence[int], degrees: Sequence[int]) -> tuple[int, int]:
    """(vertex connectivity, reach in the split network) of a connected graph from its masks and degrees.

    Starts from the minimum degree delta (k <= delta) and minimizes the flow
    from out(a) to in(b) over these pairs: with v the first vertex of degree
    delta, v and every other vertex of v's part, then every pair of
    neighbours of v. That is (|part of v| - 1) + C(delta, 2) pairs, and it
    is exact. If k = delta, no pair's flow is below k and the minimum stays
    delta. Otherwise let S be a minimum separator, |S| < delta. No component
    of G - S is a single vertex u, since the delta or more neighbours of u
    would lie inside S, so each has two or more vertices and meets both
    parts. If v is not in S, a component that v is not in holds a vertex u
    of v's part, and S separates v from u. If v is in S, v has a neighbour
    in every component of G - S (else S - v would separate too), so two
    neighbours of v lie in different components and S separates them. No
    pair is adjacent (each lies in one part), so every pair's flow is at
    least k and the minimum is k.
    """
    n = r + s
    best = min(degrees)
    if best <= 1:
        return best, 0
    v = degrees.index(best)
    pairs = [(v, u, 2 * v + 1, 2 * u) for u in (range(r) if v < r else range(r, n)) if u != v]
    pairs += [(a, b, 2 * a + 1, 2 * b) for a, b in combinations(_bit_indices(adj[v]), 2)]
    return _least_flow(r, adj, best, pairs, lambda: _split_network(n, adj))


def vertex_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Vertex connectivity on the split-vertex network, seeded with delta (no certificate)."""
    adj, degrees = _connected_masks(r, s, rows)
    return _vertex_core(r, s, adj, degrees)[0] if adj else 0


def _joint_values(r: int, s: int, rows: tuple[int, ...]) -> tuple[int, int, int]:
    """(delta, edge connectivity, vertex connectivity) from one shared prework (needs r, s >= 1).

    One row closure, one set of adjacency masks and one degree list serve
    all three, and the values are those of ``_min_degree``,
    ``edge_connectivity_value`` and ``vertex_connectivity_value``. Each
    minimization runs in full: k' is minimized even where k = delta forces
    k' = delta, so an audit checks both flows. A disconnected graph builds
    no masks; its delta comes from ``_min_degree``.
    """
    adj, degrees = _connected_masks(r, s, rows)
    if not adj:
        return _min_degree(r, s, rows), 0, 0
    return min(degrees), _edge_core(r, s, adj, degrees)[0], _vertex_core(r, s, adj, degrees)[0]


def vertex_connectivity(g: BipartiteGraph) -> ConnectivityResult:
    """Vertex connectivity with a minimum separating set as certificate.

    When the first minimum flow is below delta, the set is the vertices
    whose in-node but not out-node lies on that flow's source side.
    Otherwise it is the neighbourhood of the last vertex of minimum degree,
    whose removal isolates that vertex or leaves it alone. Identical inputs
    always yield identical sets; ``complete_side`` marks a set that is a
    whole part.
    """
    n = g.n
    if n < 2:
        raise TooSmall("vertex connectivity needs at least two vertices")
    connected, adj, degrees = g.prework
    if not connected:
        return ConnectivityResult(0, "disconnected")
    r = g.left_size
    best, reach = _vertex_core(r, g.right_size, adj, degrees)
    if reach:
        # In-nodes 2v on the source side whose out-nodes 2v + 1 are not.
        cut = 0
        for v in range(n):
            if reach >> (2 * v) & 3 == 1:
                cut |= 1 << v
    else:
        cut = adj[_last_of_degree(degrees, best)]
    if cut.bit_count() != best:
        raise RuntimeError(f"vertex cut of {cut.bit_count()} vertices for a flow of {best}")
    xs = (1 << r) - 1
    kind = "complete_side" if cut == xs or cut == ((1 << n) - 1) ^ xs else "vertex_cut"
    return ConnectivityResult(best, kind, vertices=tuple(_vertex_label(r, v) for v in _bit_indices(cut)))


# --- independent brute-force oracles ----------------------------------------


def _columns(r: int, s: int, rows: tuple[int, ...]) -> list[int]:
    """The X neighbours of each y_j as a bitmask over 0..r-1."""
    cols = [0] * s
    for i in range(r):
        row = rows[i]
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def edge_oracle_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Oracle core: minimum crossing-edge count over proper vertex bipartitions.

    Enumerates the X part A of the side that holds x1. Each y_j then adds
    k_j = |N(y_j) & A| or deg(y_j) - k_j crossing edges, whichever side it
    joins, independently of the other y's, so the best placement of Y costs
    the sum of min(k_j, deg(y_j) - k_j). A proper subset A makes every
    placement proper; A = X needs some y on the other side, and the cheapest
    such placement moves one y of least degree. The minimum is 0 exactly on
    disconnected graphs, so no connectivity test precedes it. Cost
    2^(r-1) * s.
    """
    if not (r and s):
        return 0
    cols = _columns(r, s, rows)
    degrees = [col.bit_count() for col in cols]
    best = min(degrees)
    pairs = list(zip(cols, degrees))
    for side in range(1, (1 << r) - 1, 2):
        crossing = 0
        for col, d in pairs:
            k = (col & side).bit_count()
            crossing += k if 2 * k <= d else d - k
            if crossing >= best:
                break
        else:
            best = crossing
    return best


def _floods(nbrs: list[int], alive: int) -> bool:
    """True iff a flood from the lowest vertex of ``alive`` over ``nbrs`` reaches all of it."""
    reach = frontier = alive & -alive
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= nbrs[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & alive & ~reach
        reach |= frontier
    return reach == alive


def vertex_oracle_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Oracle core: smallest removal set that disconnects or leaves one vertex.

    Enumerates removal sets in increasing size and floods each remainder
    over neighbour masks of its own.
    """
    n = r + s
    if n <= 1:
        return 0
    nbrs = [row << r for row in rows] + _columns(r, s, rows)
    full = (1 << n) - 1
    if not _floods(nbrs, full):
        return 0
    for k in range(1, n - 1):
        for combo in combinations(range(n), k):
            alive = full
            for v in combo:
                alive ^= 1 << v
            if not _floods(nbrs, alive):
                return k
    return n - 1


def brute_force_edge_connectivity(g: BipartiteGraph) -> int:
    """Oracle: minimum crossing-edge count over all proper vertex bipartitions.

    Returns 0 for disconnected graphs (and for a single vertex, by
    convention). Cost 2^(r-1) * s; rejects graphs above 16 vertices.
    """
    if g.n > _BRUTE_FORCE_MAX_VERTICES:
        raise TooLarge(f"brute force capped at {_BRUTE_FORCE_MAX_VERTICES} vertices, got {g.n}")
    return edge_oracle_value(g.left_size, g.right_size, g.adjacency)


def brute_force_vertex_connectivity(g: BipartiteGraph) -> int:
    """Oracle: smallest vertex set whose removal disconnects or leaves one vertex.

    Enumerates removal sets in increasing size. Returns 0 for disconnected
    graphs and for a single vertex.
    """
    if g.n > _BRUTE_FORCE_MAX_VERTICES:
        raise TooLarge(f"brute force capped at {_BRUTE_FORCE_MAX_VERTICES} vertices, got {g.n}")
    return vertex_oracle_value(g.left_size, g.right_size, g.adjacency)
