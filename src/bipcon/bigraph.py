"""Immutable labeled bipartite graphs with a fixed bipartition.

A graph lives on parts X = {x_1..x_r} and Y = {y_1..y_s}; edges join X to Y
only, so the representation cannot express loops, multi-edges, or edges
inside a part. Adjacency is one bit row per X vertex: bit j-1 of row i-1 is
set exactly when the edge x_i y_j is present. Vertex labels are fixed
1-based indices within each part and all identities in this package are
checked label for label; no isomorphism machinery exists anywhere.

Everything in this module is a pure function over immutable values, safe to
share between worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateEdge, EmptyPart, IndexOutOfRange


@dataclass(frozen=True)
class BipartiteGraph:
    """A labeled bipartite graph on parts of size ``left_size`` and ``right_size``.

    ``adjacency`` holds ``left_size`` bit rows; row ``i`` describes the
    neighbors of x_{i+1} among y_1..y_{right_size}. Python integers act as
    arbitrarily wide bitsets, so single-graph operations are not capped by a
    word size. Instances are hashable and compare by exact labeled equality.
    """

    left_size: int
    right_size: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.left_size < 0 or self.right_size < 0:
            raise ValueError("part sizes must be nonnegative")
        if len(self.adjacency) != self.left_size:
            raise ValueError(
                f"expected {self.left_size} adjacency rows, got {len(self.adjacency)}"
            )
        smask = (1 << self.right_size) - 1
        for row in self.adjacency:
            if row < 0 or row & ~smask:
                raise ValueError("adjacency row has bits outside the right part")

    @property
    def r(self) -> int:
        return self.left_size

    @property
    def s(self) -> int:
        return self.right_size

    @property
    def n(self) -> int:
        """Total number of vertices."""
        return self.left_size + self.right_size

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency)

    @property
    def mask(self) -> int:
        """The graph packed into a single integer, bit i*s + j for edge (i+1, j+1)."""
        s = self.right_size
        packed = 0
        for i, row in enumerate(self.adjacency):
            packed |= row << (i * s)
        return packed

    @classmethod
    def from_mask(cls, r: int, s: int, mask: int) -> "BipartiteGraph":
        """Inverse of ``mask``: unpack an r*s-bit integer into a graph."""
        if mask < 0 or mask >> (r * s):
            raise ValueError("mask has bits outside the r*s grid")
        smask = (1 << s) - 1
        return cls(r, s, tuple((mask >> (i * s)) & smask for i in range(r)))

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge x_i y_j (1-based) is present."""
        if not (1 <= i <= self.left_size and 1 <= j <= self.right_size):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [1,{self.left_size}]x[1,{self.right_size}]")
        return bool(self.adjacency[i - 1] >> (j - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 1-based (i, j) pairs in lexicographic order."""
        out = []
        for i, row in enumerate(self.adjacency, start=1):
            while row:
                low = row & -row
                out.append((i, low.bit_length()))
                row ^= low
        return out


@dataclass(frozen=True)
class DegreeSummary:
    """Per-vertex degrees plus the minimum and maximum over all vertices."""

    left_degrees: tuple[int, ...]
    right_degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


def new_graph(r: int, s: int, edges: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> BipartiteGraph:
    """Build a graph from 1-based edge pairs.

    Raises IndexOutOfRange for a pair outside [1,r]x[1,s] and DuplicateEdge
    for a repeated pair.
    """
    rows = [0] * r
    for i, j in edges:
        if not (1 <= i <= r and 1 <= j <= s):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [1,{r}]x[1,{s}]")
        bit = 1 << (j - 1)
        if rows[i - 1] & bit:
            raise DuplicateEdge(f"edge ({i}, {j}) given twice")
        rows[i - 1] |= bit
    return BipartiteGraph(r, s, tuple(rows))


def bipartite_complement(g: BipartiteGraph) -> BipartiteGraph:
    """The bipartite complement: same parts, exactly the missing X-Y pairs."""
    smask = (1 << g.right_size) - 1
    return BipartiteGraph(g.left_size, g.right_size, tuple(row ^ smask for row in g.adjacency))


def degrees(g: BipartiteGraph) -> DegreeSummary:
    """Degree sequence of both parts; needs r >= 1 and s >= 1."""
    if g.left_size == 0 or g.right_size == 0:
        raise EmptyPart("degrees need both parts nonempty")
    left = tuple(row.bit_count() for row in g.adjacency)
    right = tuple(
        sum(g.adjacency[i] >> j & 1 for i in range(g.left_size))
        for j in range(g.right_size)
    )
    return DegreeSummary(left, right, min(left + right), max(left + right))


def graphs_equal(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Labeled equality: same part sizes and identical bit matrices."""
    return g1 == g2


def add_right_vertex(g: BipartiteGraph, neighbors: list[int] | tuple[int, ...]) -> BipartiteGraph:
    """Append y_{s+1} adjacent to the given 1-based X indices."""
    r, s = g.left_size, g.right_size
    rows = list(g.adjacency)
    seen = set()
    for i in neighbors:
        if not (1 <= i <= r):
            raise IndexOutOfRange(f"left index {i} outside [1,{r}]")
        if i in seen:
            raise DuplicateEdge(f"left index {i} given twice")
        seen.add(i)
        rows[i - 1] |= 1 << s
    return BipartiteGraph(r, s + 1, tuple(rows))


def add_left_vertex(g: BipartiteGraph, neighbors: list[int] | tuple[int, ...]) -> BipartiteGraph:
    """Append x_{r+1} adjacent to the given 1-based Y indices."""
    r, s = g.left_size, g.right_size
    row = 0
    for j in neighbors:
        if not (1 <= j <= s):
            raise IndexOutOfRange(f"right index {j} outside [1,{s}]")
        bit = 1 << (j - 1)
        if row & bit:
            raise DuplicateEdge(f"right index {j} given twice")
        row |= bit
    return BipartiteGraph(r + 1, s, g.adjacency + (row,))


# --- interchange formats ---------------------------------------------------
#
# Edge-list text: first non-comment line "r s", then one "i j" line per edge,
# 1-based, '#' starts a comment line, UTF-8 with LF line endings.
# JSON: {"r": int, "s": int, "edges": [[i, j], ...]} with edges sorted.


def format_edge_list(g: BipartiteGraph) -> str:
    lines = [f"{g.left_size} {g.right_size}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse the edge-list text format; inverse of format_edge_list."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
        if header is None:
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: part sizes must be nonnegative")
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ValueError("missing 'r s' header line")
    return new_graph(header[0], header[1], edges)


def graph_to_json(g: BipartiteGraph) -> dict:
    return {"r": g.left_size, "s": g.right_size, "edges": [list(e) for e in g.edges()]}


def graph_from_json(obj: dict) -> BipartiteGraph:
    try:
        r, s, edges = obj["r"], obj["s"], obj["edges"]
    except (KeyError, TypeError):
        raise ValueError("JSON graph needs fields 'r', 's', 'edges'") from None
    try:
        r, s, edges = int(r), int(s), [(int(i), int(j)) for i, j in edges]
    except TypeError as exc:
        raise ValueError(f"JSON graph needs integer 'r', 's' and [i, j] 'edges': {exc}") from None
    return new_graph(r, s, edges)
