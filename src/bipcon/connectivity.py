"""Exact vertex and edge connectivity of bipartite graphs.

The fast path runs unit-capacity max-flow: edge connectivity minimizes a
fixed-source flow over all sinks, vertex connectivity minimizes over all
non-adjacent vertex pairs on the split-vertex network (each vertex becomes
an in/out node pair joined by a capacity-1 arc). Both report a certificate,
a concrete cut whose removal disconnects the graph or leaves one vertex.

``brute_force_edge_connectivity`` and ``brute_force_vertex_connectivity``
are deliberately independent oracles that enumerate vertex subsets; they
share no code with the flow path and exist to cross-check it exhaustively
at small sizes.

Vertices are indexed 0..r-1 for X and r..r+s-1 for Y in all internal
adjacency masks. A graph on a single vertex has connectivity 0 by
convention; the flow-backed operations reject it outright (TooSmall) while
the oracles simply return 0 so that enumeration code can stay total.
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


# --- unit-capacity max-flow (augmenting BFS) --------------------------------


def _maxflow(cap: list[list[int]], source: int, sink: int, limit: int | None) -> int:
    """Max flow on a dense capacity matrix, stopping early at ``limit``.

    A result >= limit only certifies "at least limit"; callers taking a
    minimum over several runs pass their current best as the limit.
    """
    n = len(cap)
    flow = 0
    while limit is None or flow < limit:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        head = 0
        while head < len(queue) and parent[sink] < 0:
            u = queue[head]
            head += 1
            row = cap[u]
            for v in range(n):
                if row[v] and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break
        push = None
        v = sink
        while v != source:
            u = parent[v]
            c = cap[u][v]
            if push is None or c < push:
                push = c
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= push
            cap[v][u] += push
            v = u
        flow += push
    return flow


def _edge_capacity_base(r: int, n: int, rows: tuple[int, ...]) -> list[list[int]]:
    base = [[0] * n for _ in range(n)]
    for i in range(r):
        row = rows[i]
        while row:
            low = row & -row
            j = r + low.bit_length() - 1
            base[i][j] = 1
            base[j][i] = 1
            row ^= low
    return base


def _edge_min_cut(r: int, s: int, rows: tuple[int, ...]):
    """(edge connectivity, minimizing sink, capacity base) by fixed-source,
    varying-sink max-flow; the sink is the first in index order that attains
    the minimum, and is None when the value is 0."""
    n = r + s
    adj = _adjacency_masks(r, s, rows)
    if not _connected_masks(n, adj):
        return 0, None, None
    base = _edge_capacity_base(r, n, rows)
    best: int | None = None
    best_sink = None
    for t in range(1, n):
        cap = [row[:] for row in base]
        f = _maxflow(cap, 0, t, best)
        if best is None or f < best:
            best, best_sink = f, t
            if best <= 1:
                break
    return (best if best is not None else 0), best_sink, base


def edge_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Edge connectivity by fixed-source, varying-sink max-flow (no certificate)."""
    return _edge_min_cut(r, s, rows)[0]


def edge_connectivity(g: BipartiteGraph) -> ConnectivityResult:
    """Edge connectivity with a minimum-cut certificate.

    The certificate comes from the first sink (in index order) that attains
    the minimum, so identical inputs always yield identical cuts.
    """
    if g.n < 2:
        raise TooSmall("edge connectivity needs at least two vertices")
    r, rows = g.left_size, g.adjacency
    best, sink, base = _edge_min_cut(r, g.right_size, rows)
    if best == 0:
        return ConnectivityResult(0, "disconnected")
    cap = [row[:] for row in base]
    _maxflow(cap, 0, sink, None)
    reach = _residual_reachable(cap, 0)
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


def _residual_reachable(cap: list[list[int]], source: int) -> int:
    n = len(cap)
    reach = 1 << source
    stack = [source]
    while stack:
        u = stack.pop()
        row = cap[u]
        for v in range(n):
            if row[v] and not reach >> v & 1:
                reach |= 1 << v
                stack.append(v)
    return reach


def _split_capacity_base(r: int, n: int, rows: tuple[int, ...]) -> list[list[int]]:
    # in(v) = 2v, out(v) = 2v + 1; internal arcs carry 1, edge arcs carry n
    # (any value exceeding the largest possible flow works as infinity).
    base = [[0] * (2 * n) for _ in range(2 * n)]
    big = n
    for v in range(n):
        base[2 * v][2 * v + 1] = 1
    for i in range(r):
        row = rows[i]
        while row:
            low = row & -row
            j = r + low.bit_length() - 1
            base[2 * i + 1][2 * j] = big
            base[2 * j + 1][2 * i] = big
            row ^= low
    return base


def _nonadjacent_pairs(n: int, adj: list[int]):
    for a in range(n):
        for b in range(a + 1, n):
            if not adj[a] >> b & 1:
                yield a, b


def _vertex_min_cut(r: int, s: int, rows: tuple[int, ...]):
    """(vertex connectivity, minimizing pair, split network) over all
    non-adjacent pairs in index order. The pair is None when the value is 0
    or when no non-adjacent pair exists (value n - 1)."""
    n = r + s
    adj = _adjacency_masks(r, s, rows)
    if not _connected_masks(n, adj):
        return 0, None, None
    base = _split_capacity_base(r, n, rows)
    best: int | None = None
    best_pair: tuple[int, int] | None = None
    for a, b in _nonadjacent_pairs(n, adj):
        cap = [row[:] for row in base]
        f = _maxflow(cap, 2 * a + 1, 2 * b, best)
        if best is None or f < best:
            best, best_pair = f, (a, b)
            if best <= 1:
                break
    return (n - 1 if best is None else best), best_pair, base


def vertex_connectivity_value(r: int, s: int, rows: tuple[int, ...]) -> int:
    """Vertex connectivity on the split-vertex network (no certificate)."""
    return _vertex_min_cut(r, s, rows)[0]


def vertex_connectivity(g: BipartiteGraph) -> ConnectivityResult:
    """Vertex connectivity with a minimum separating set as certificate.

    Minimizes over all non-adjacent pairs in index order. When no
    non-adjacent pair exists (only the two-vertex complete graph in the
    bipartite world) the value is n - 1 and the certificate is the whole
    first part, honoring the "or leaves one vertex" clause.
    """
    n = g.n
    if n < 2:
        raise TooSmall("vertex connectivity needs at least two vertices")
    r = g.left_size
    best, pair, base = _vertex_min_cut(r, g.right_size, g.adjacency)
    if best == 0:
        return ConnectivityResult(0, "disconnected")
    if pair is None:
        side = tuple(_vertex_label(r, v) for v in range(max(r, 1)))
        return ConnectivityResult(n - 1, "complete_side", vertices=side)
    a, b = pair
    cap = [row[:] for row in base]
    _maxflow(cap, 2 * a + 1, 2 * b, None)
    reach = _residual_reachable(cap, 2 * a + 1)
    cut = [v for v in range(n) if (reach >> (2 * v) & 1) and not (reach >> (2 * v + 1) & 1)]
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
    for side in range(1, (1 << n) - 1):
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
