"""Immutable labeled bipartite graphs with a fixed bipartition.

A graph lives on parts X = {x_1..x_r} and Y = {y_1..y_s}; edges join X to Y
only, so the representation cannot express loops, multi-edges, or edges
inside a part. Adjacency is one bit row per X vertex: bit j-1 of row i-1 is
set exactly when the edge x_i y_j is present. Vertex labels are fixed
1-based indices within each part, and every identity the library states
(graph equality, which is ``==``, the complement, the Bi-Cayley identity)
is checked label for label; no library function tests two graphs for
isomorphism. Only the verifier's exhaustive scans group graphs into
isomorphism classes (``bipcon.orbits``), to evaluate one graph per class and
to report a class that breaks a bound once, on its smallest mask.

The sweeps also pack a graph into one r*s-bit mask, bit i*s + j for the
edge x_{i+1} y_{j+1}, so that its complement is an XOR; ``rows_of`` and
``mask_of`` are the one definition of that layout, ``_bit_indices`` the one
lister of a mask's set bits (for edge lists and cuts), ``_bit_map`` the one
builder of tables that move bit i to a given position p_i (the orbit walk's
row permutations and L2.4's unit maps of Z_r), and ``attach_vertex``
the one place that grows rows by a vertex; ``add_right_vertex`` and
``add_left_vertex`` check their neighbour lists with one helper.

A part size read from outside the program (the edge-list header, a JSON
graph, and in ``bipcon.constructions`` a Bi-Cayley modulus or a witness's
r and s) is refused with TooLarge above ``PART_MAX_SIZE`` before any row is
built. A graph built directly, as the sweeps do, is not capped here.

A graph carries one cached attribute that is not a dataclass field,
``prework``: (connected, neighbour mask per vertex, degree per vertex),
built on first use with ``functools.cached_property`` and then shared by
both connectivity certificates and ``degrees``. It takes no part in
equality, hashing, ``repr`` or ``asdict``. The two helpers it rests on,
``_rows_connected`` (a row closure that builds no masks) and
``_adjacency_masks``, are also the prework of the connectivity kernels that
take bare rows.

Everything in this module is a pure function over immutable values, safe to
share between worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DuplicateEdge, EmptyPart, IndexOutOfRange, TooLarge

# The largest part size read from outside the program: an edge-list header,
# a JSON graph, a Bi-Cayley modulus or a witness's r and s. At 256 the
# slowest of these, `bipcon witness --family s3-g2` with its connectivity
# pair, takes 2.3 to 2.6 s on a 2-core machine with Python 3.11; at 512 it
# takes 20 s.
PART_MAX_SIZE = 256


def _check_part_sizes(*sizes: int) -> None:
    """Raise TooLarge, before any row is built, for a part larger than PART_MAX_SIZE."""
    for size in sizes:
        if size > PART_MAX_SIZE:
            raise TooLarge(f"part size {size} is more than the cap of {PART_MAX_SIZE}")


def rows_of(r: int, s: int, mask: int) -> tuple[int, ...]:
    """The r bit rows of a packed r*s-bit mask; row i is bits i*s .. i*s + s - 1."""
    smask = (1 << s) - 1
    return tuple([mask >> i * s & smask for i in range(r)])


def mask_of(s: int, rows: tuple[int, ...]) -> int:
    """Inverse of ``rows_of``: the rows stacked s bits apart, row 0 lowest."""
    mask = 0
    for i in range(len(rows)):
        mask |= rows[i] << (i * s)
    return mask


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bit_map(positions) -> list[int]:
    """table[c] for every c < 2^len(positions): bit i of c moved to bit positions[i]."""
    table = [0]
    for p in positions:
        table += [t | 1 << p for t in table]
    return table


def _adjacency_masks(r: int, s: int, rows: tuple[int, ...]) -> list[int]:
    """Neighbor bitmask per combined vertex index: x_{i+1} is i, y_{j+1} is r + j."""
    adj = [0] * (r + s)
    for i in range(r):
        row = rows[i]
        adj[i] = row << r
        while row:
            low = row & -row
            adj[r + low.bit_length() - 1] |= 1 << i
            row ^= low
    return adj


def _rows_connected(r: int, s: int, rows: tuple[int, ...]) -> bool:
    """True iff the graph is connected and has at least two vertices.

    Grows the set of columns reached from row 0 and absorbs every row that
    meets it. The graph is connected iff every row is absorbed and every
    column is covered, so no adjacency masks are built.
    """
    if not (r and s):
        return False
    cols = rows[0]
    pending = rows[1:]
    while pending:
        rest = []
        for row in pending:
            if row & cols:
                cols |= row
            else:
                rest.append(row)
        if len(rest) == len(pending):
            return False
        pending = rest
    return cols == (1 << s) - 1


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
    def n(self) -> int:
        """Total number of vertices."""
        return self.left_size + self.right_size

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency)

    @property
    def mask(self) -> int:
        """The graph packed into a single integer, bit i*s + j for edge (i+1, j+1)."""
        return mask_of(self.right_size, self.adjacency)

    @classmethod
    def from_mask(cls, r: int, s: int, mask: int) -> "BipartiteGraph":
        """Inverse of ``mask``: unpack an r*s-bit integer into a graph."""
        if mask < 0 or mask >> (r * s):
            raise ValueError("mask has bits outside the r*s grid")
        return cls(r, s, rows_of(r, s, mask))

    @cached_property
    def prework(self) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
        """(connected, neighbour mask per vertex, degree per vertex), built once per graph.

        ``connected`` is ``_rows_connected``: false for a single vertex.
        Vertices are indexed as in ``_adjacency_masks``. Never mutated.
        """
        r, s, rows = self.left_size, self.right_size, self.adjacency
        adj = _adjacency_masks(r, s, rows)
        return _rows_connected(r, s, rows), tuple(adj), tuple([nbrs.bit_count() for nbrs in adj])

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge x_i y_j (1-based) is present."""
        if not (1 <= i <= self.left_size and 1 <= j <= self.right_size):
            raise IndexOutOfRange(f"edge ({i}, {j}) outside [1,{self.left_size}]x[1,{self.right_size}]")
        return bool(self.adjacency[i - 1] >> (j - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as 1-based (i, j) pairs in lexicographic order."""
        return [(i, j + 1) for i, row in enumerate(self.adjacency, start=1) for j in _bit_indices(row)]


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
    """Degree sequence of both parts, read off ``g.prework``; needs r >= 1 and s >= 1."""
    r = g.left_size
    if r == 0 or g.right_size == 0:
        raise EmptyPart("degrees need both parts nonempty")
    degs = g.prework[2]
    return DegreeSummary(degs[:r], degs[r:], min(degs), max(degs))


def attach_vertex(r: int, s: int, rows: tuple[int, ...], side: str, attach: int) -> tuple[int, int, tuple[int, ...]]:
    """(r', s', rows') after adding one vertex to the ``side`` part.

    Bit i of ``attach`` joins the new vertex to x_{i+1} when ``side`` is
    "right" (it becomes y_{s+1}, bit s of each row) and to y_{i+1} when it
    is "left" (it becomes x_{r+1}, the new last row). Unchecked: the
    callers validate ``attach``.
    """
    if side == "right":
        return r, s + 1, tuple([row | (attach >> i & 1) << s for i, row in enumerate(rows)])
    return r + 1, s, rows + (attach,)


def _attach_mask(part: str, size: int, neighbors: list[int] | tuple[int, ...]) -> int:
    """The bitmask of 1-based ``neighbors`` in a part of ``size`` vertices, each checked once."""
    attach = 0
    for i in neighbors:
        if not (1 <= i <= size):
            raise IndexOutOfRange(f"{part} index {i} outside [1,{size}]")
        bit = 1 << (i - 1)
        if attach & bit:
            raise DuplicateEdge(f"{part} index {i} given twice")
        attach |= bit
    return attach


def add_right_vertex(g: BipartiteGraph, neighbors: list[int] | tuple[int, ...]) -> BipartiteGraph:
    """Append y_{s+1} adjacent to the given 1-based X indices."""
    attach = _attach_mask("left", g.left_size, neighbors)
    return BipartiteGraph(*attach_vertex(g.left_size, g.right_size, g.adjacency, "right", attach))


def add_left_vertex(g: BipartiteGraph, neighbors: list[int] | tuple[int, ...]) -> BipartiteGraph:
    """Append x_{r+1} adjacent to the given 1-based Y indices."""
    attach = _attach_mask("right", g.right_size, neighbors)
    return BipartiteGraph(*attach_vertex(g.left_size, g.right_size, g.adjacency, "left", attach))


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
        # ASCII digits with an optional sign: int() alone also reads "1_0" and non-ASCII digits.
        if len(fields) != 2 or not all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields):
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}")
        a, b = map(int, fields)
        if header is None:
            if a < 0 or b < 0:
                raise ValueError(f"line {lineno}: part sizes must be nonnegative")
            _check_part_sizes(a, b)
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
        edges = [(i, j) for i, j in edges]
    except TypeError as exc:
        raise ValueError(f"JSON graph needs [i, j] 'edges': {exc}") from None
    # Only ints: int() would truncate 2.5, parse "2" and read true as 1.
    for value in (r, s, *(v for edge in edges for v in edge)):
        if type(value) is not int:
            raise ValueError(f"JSON graph needs integer 'r', 's' and edge labels, got {value!r}")
    _check_part_sizes(r, s)
    return new_graph(r, s, edges)
