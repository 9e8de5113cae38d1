"""Helpers for validating cut certificates in tests."""

from collections import deque

from bipcon.bigraph import BipartiteGraph


def delete_edges(g: BipartiteGraph, cut) -> BipartiteGraph:
    rows = list(g.adjacency)
    for i, j in cut:
        assert rows[i - 1] >> (j - 1) & 1, f"edge ({i},{j}) not present"
        rows[i - 1] ^= 1 << (j - 1)
    return BipartiteGraph(g.left_size, g.right_size, tuple(rows))


def delete_vertices(g: BipartiteGraph, labels) -> BipartiteGraph:
    """Induced subgraph after removing vertices given as 'x3' / 'y1' labels."""
    gone_x = {int(v[1:]) for v in labels if v[0] == "x"}
    gone_y = {int(v[1:]) for v in labels if v[0] == "y"}
    keep_x = [i for i in range(1, g.left_size + 1) if i not in gone_x]
    keep_y = [j for j in range(1, g.right_size + 1) if j not in gone_y]
    rows = []
    for i in keep_x:
        row = 0
        for new_j, j in enumerate(keep_y):
            if g.adjacency[i - 1] >> (j - 1) & 1:
                row |= 1 << new_j
        rows.append(row)
    return BipartiteGraph(len(keep_x), len(keep_y), tuple(rows))


def components_count(g: BipartiteGraph) -> int:
    """Connected components, by a plain breadth-first search over ``g.edges()``.

    Shares no code with ``bipcon.connectivity``, so the certificate tests do
    not check the program's connectivity code against itself.
    """
    vertices = [("x", i) for i in range(1, g.left_size + 1)] + [("y", j) for j in range(1, g.right_size + 1)]
    neighbours = {v: [] for v in vertices}
    for i, j in g.edges():
        neighbours[("x", i)].append(("y", j))
        neighbours[("y", j)].append(("x", i))
    seen = set()
    count = 0
    for start in vertices:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for w in neighbours[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return count


def min_crossing_edges(g: BipartiteGraph) -> int:
    """Fewest edges between the two sides of a proper vertex bipartition.

    Tries every one of the 2^(n-1) sides that hold vertex 0 and counts the
    edges of ``g.edges()`` with one end on it. Returns 0 below two vertices.
    Shares no code with ``bipcon.connectivity``.
    """
    r, n = g.left_size, g.n
    if n < 2:
        return 0
    ends = [(i - 1, r + j - 1) for i, j in g.edges()]
    everything = (1 << n) - 1
    best = len(ends)
    for others in range(1 << (n - 1)):
        side = others << 1 | 1
        if side != everything:
            best = min(best, sum(1 for u, v in ends if (side >> u & 1) != (side >> v & 1)))
    return best
