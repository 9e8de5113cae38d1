"""Exact vertex and edge connectivity of bipartite graphs.

The fast path runs unit-capacity max-flow on a residual network held as one
Python-int bitmask per node, finding each augmenting path by a depth-first
search over mask operations. Edge connectivity minimizes the flow from vertex
0 over every sink on the graph itself. Vertex connectivity minimizes over
non-adjacent pairs (a, b), b > a, on the split-vertex network (each vertex
becomes an in/out node pair joined by a capacity-1 arc), with sources a = 0,
1, ... only while a < best (the source bound of Even, SIAM J. Comput. 1975,
and Esfahanian-Hakimi, Networks 1984), so O(kn) flows instead of O(n^2).
Both minimizations start from the minimum degree delta, since
k <= k' <= delta: no flow runs past the best value so far, and a connected
graph with delta <= 1 needs no flow at all.

Both report a certificate, a concrete cut whose removal disconnects the
graph or leaves one vertex. When the minimum is below delta, the cut is read
off the source side's residual reach in the first flow that attains it;
otherwise it is the neighbourhood (vertex kind) or the delta edges (edge
kind) of the last vertex of minimum degree. Identical inputs always yield
identical certificates.

``brute_force_edge_connectivity`` and ``brute_force_vertex_connectivity``
are deliberately independent oracles that enumerate vertex subsets; they
share no code with the flow path and exist to cross-check it exhaustively
at small sizes.

Vertices are indexed 0..r-1 for X and r..r+s-1 for Y in all internal
adjacency masks. A graph on a single vertex has connectivity 0 by
convention; the certificate routines reject it outright (TooSmall) while
the value kernels and the oracles simply return 0 so that enumeration code
can stay total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bigraph import BipartiteGraph
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


def _adjacency_masks(r: int, s: int, rows: tuple[int, ...]) -> list[int]:
    """Neighbor bitmask per combined vertex index."""
    adj = [0] * (r + s)
    for i in range(r):
        row = rows[i]
        adj[i] = row << r
        while row:
            low = row & -row
            adj[r + low.bit_length() - 1] |= 1 << i
            row ^= low
    return adj


def _reachable(adj: list[int], start_bit: int, alive: int) -> int:
    """Bitmask of vertices reachable from start_bit inside the alive set."""
    reach = start_bit
    frontier = start_bit
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        frontier = grow & alive & ~reach
        reach |= frontier
    return reach


def _connected_masks(n: int, adj: list[int], alive: int | None = None) -> bool:
    if alive is None:
        alive = (1 << n) - 1
    start = alive & -alive
    return _reachable(adj, start, alive) == alive


def is_connected(g: BipartiteGraph) -> bool:
    """True iff all vertices lie in one component; a single vertex counts as connected."""
    n = g.n
    if n == 0:
        raise EmptyGraph("connectivity of the empty graph is undefined")
    if n == 1:
        return True
    adj = _adjacency_masks(g.left_size, g.right_size, g.adjacency)
    return _connected_masks(n, adj)


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
    stacked = 0
    for i in range(r):
        stacked |= rows[i] << (i * s)
    column = ((1 << (r * s)) - 1) // ((1 << s) - 1)
    dmin = min(row.bit_count() for row in rows)
    for j in range(s):
        d = (stacked >> j & column).bit_count()
        if d < dmin:
            dmin = d
    return dmin


def _unit_flow(arcs: list[int], free: list[int], source: int, sink: int, limit: int) -> tuple[int, int]:
    """Augment unit paths from source to sink until the flow reaches ``limit``.

    ``arcs[u]`` masks the arcs out of node u; ``free[u]``, a subset, masks
    those no flow saturates. Returns (flow, reach). When the flow stays below
    ``limit``, reach masks the nodes the source reaches in the final residual
    network, the source side of a minimum cut; otherwise it is 0.
    """
    res = arcs[:]
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


def _last_of_degree(adj: list[int], degree: int) -> int:
    # The last rather than the first, so the cut of K_{1,1} is x1, its whole X side.
    return max(v for v, nbrs in enumerate(adj) if nbrs.bit_count() == degree)


def _edge_min_cut(r: int, s: int, rows: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """(edge connectivity, reach, adjacency masks).

    Minimizes the flow from vertex 0 over every sink, starting from the
    minimum degree delta (k' <= delta), so no flow runs past the best value
    so far and a connected graph with delta <= 1 needs none. A sink whose
    common neighbours with vertex 0, plus a direct edge, already give that
    many edge-disjoint paths cannot do better and runs no flow. reach is the
    source side of the cut of the first sink that attains the minimum, and 0
    when no flow goes below delta.
    """
    n = r + s
    adj = _adjacency_masks(r, s, rows)
    if n < 2 or not _connected_masks(n, adj):
        return 0, 0, adj
    best = _min_degree(r, s, rows)
    cut = 0
    if best > 1:
        free = [0] * n
        for t in range(1, n):
            if (adj[0] & adj[t]).bit_count() + (adj[0] >> t & 1) >= best:
                continue
            f, reach = _unit_flow(adj, free, 0, t, best)
            if f < best:
                best, cut = f, reach
                if best == 1:
                    break
    return best, cut, adj


def edge_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Edge connectivity by bitset max-flow seeded with delta (no certificate)."""
    return _edge_min_cut(r, s, rows)[0]


def edge_connectivity(g: BipartiteGraph) -> ConnectivityResult:
    """Edge connectivity with a minimum-cut certificate.

    The cut is the set of edges leaving the source side of the first
    minimum flow, when that flow is below delta. Otherwise it is the delta
    edges of the last vertex of minimum degree. Identical inputs always
    yield identical cuts.
    """
    if g.n < 2:
        raise TooSmall("edge connectivity needs at least two vertices")
    r, rows = g.left_size, g.adjacency
    best, reach, adj = _edge_min_cut(r, g.right_size, rows)
    if best == 0:
        return ConnectivityResult(0, "disconnected")
    if not reach:
        reach = 1 << _last_of_degree(adj, best)
    cut = []
    for i in range(r):
        row = rows[i]
        while row:
            low = row & -row
            j = low.bit_length() - 1
            if ((reach >> i) & 1) != ((reach >> (r + j)) & 1):
                cut.append((i + 1, j + 1))
            row ^= low
    cut.sort()
    if len(cut) != best:
        raise RuntimeError(f"edge cut of {len(cut)} edges for a flow of {best}")
    return ConnectivityResult(best, "edge_cut", edges=tuple(cut))


def _split_network(n: int, adj: list[int]) -> tuple[list[int], list[int]]:
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


def _vertex_min_cut(r: int, s: int, rows: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """(vertex connectivity, reach in the split network, adjacency masks).

    Starts from the minimum degree delta (k <= delta) and minimizes the flow
    from out(a) to in(b) over non-adjacent pairs b > a, for sources a = 0,
    1, ... while a < best (Even 1975; Esfahanian and Hakimi 1984). That is
    exact: every vertex below the smallest index a* outside a minimum
    separator lies in it, so a* <= k, and every vertex on the far side of the
    separator has a larger index. While best > k, a* < best and the loop
    reaches a*; once best = k nothing is left to find. A pair whose common
    neighbours already give best disjoint paths cannot do better and runs no
    flow. reach is the source side of the cut of the first pair that attains
    the minimum, and 0 when no flow goes below delta.
    """
    n = r + s
    adj = _adjacency_masks(r, s, rows)
    if n < 2 or not _connected_masks(n, adj):
        return 0, 0, adj
    best = _min_degree(r, s, rows)
    cut = 0
    if best > 1:
        arcs, free = _split_network(n, adj)
        full = (1 << n) - 1
        a = 0
        while a < best:
            far = full & ~adj[a] & ~((2 << a) - 1)
            while far:
                low = far & -far
                far ^= low
                b = low.bit_length() - 1
                if (adj[a] & adj[b]).bit_count() >= best:
                    continue
                f, reach = _unit_flow(arcs, free, 2 * a + 1, 2 * b, best)
                if f < best:
                    best, cut = f, reach
                    if best == 1:
                        return best, cut, adj
            a += 1
    return best, cut, adj


def vertex_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Vertex connectivity on the split-vertex network, seeded with delta (no certificate)."""
    return _vertex_min_cut(r, s, rows)[0]


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
    r = g.left_size
    best, reach, adj = _vertex_min_cut(r, g.right_size, g.adjacency)
    if best == 0:
        return ConnectivityResult(0, "disconnected")
    if reach:
        cut = [v for v in range(n) if (reach >> (2 * v) & 1) and not (reach >> (2 * v + 1) & 1)]
    else:
        nbrs = adj[_last_of_degree(adj, best)]
        cut = [v for v in range(n) if nbrs >> v & 1]
    if len(cut) != best:
        raise RuntimeError(f"vertex cut of {len(cut)} vertices for a flow of {best}")
    kind = "vertex_cut"
    if cut == list(range(r)) or cut == list(range(r, n)):
        kind = "complete_side"
    return ConnectivityResult(best, kind, vertices=tuple(_vertex_label(r, v) for v in cut))


# --- independent brute-force oracles ----------------------------------------


def edge_oracle_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Oracle core: minimum crossing-edge count over proper vertex bipartitions."""
    n = r + s
    if n <= 1:
        return 0
    adj = _adjacency_masks(r, s, rows)
    if not _connected_masks(n, adj):
        return 0
    smask = (1 << s) - 1
    best = r * s + 1
    # Each bipartition is counted once, by its side that holds vertex 0.
    for side in range(1, (1 << n) - 1, 2):
        ay = side >> r
        crossing = 0
        for i in range(r):
            row = rows[i]
            if side >> i & 1:
                crossing += (row & ~ay & smask).bit_count()
            else:
                crossing += (row & ay).bit_count()
        if crossing < best:
            best = crossing
    return best


def vertex_oracle_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Oracle core: smallest removal set that disconnects or leaves one vertex."""
    n = r + s
    if n <= 1:
        return 0
    adj = _adjacency_masks(r, s, rows)
    full = (1 << n) - 1
    if not _connected_masks(n, adj):
        return 0
    for k in range(1, n - 1):
        for combo in combinations(range(n), k):
            alive = full
            for v in combo:
                alive ^= 1 << v
            start = alive & -alive
            if _reachable(adj, start, alive) != alive:
                return k
    return n - 1


def brute_force_edge_connectivity(g: BipartiteGraph) -> int:
    """Oracle: minimum crossing-edge count over all proper vertex bipartitions.

    Returns 0 for disconnected graphs (and for a single vertex, by
    convention). Cost 2^(r+s); rejects graphs above 16 vertices.
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
