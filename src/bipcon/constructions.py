"""Deterministic builders for Bi-Cayley graphs and extremal witness families.

A Bi-Cayley graph BC(Z_r, S) lives on parts of size r with the canonical
labeling x_{g+1} = (g, 0), y_{g+1} = (g, 1) and edges x_{g+1} y_{((a+g) mod r)+1}
for every a in S. Complementing it is the same as complementing the subset:
the bipartite complement of BC(Z_r, S) equals BC(Z_r, Z_r \\ S) label for
label, which the verifier checks exhaustively.

The witness families are the concrete graphs that attain the connectivity
bounds. One table row per family id declares whether the family is sized
(needs m and has exactly m edges), its builder, and the (edge connectivity,
complement edge connectivity) pair it is designed to achieve.
``build_witness`` checks the sized preconditions every sized family shares
(m given, r <= s), runs the builder, which checks only its own domain, and
names the family in any PreconditionViolated; ``claimed_edge_connectivity_pair``
reads the row. The test suite recomputes the pairs with the connectivity
module instead of trusting the construction. ``dispatch_witness`` picks the
family for a bound goal through one case split on (r, s, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .bigraph import BipartiteGraph, new_graph
from .bounds import ParameterTriple
from .errors import BadSubset, NoWitness, PreconditionViolated


@dataclass(frozen=True)
class CayleySubset:
    """A subset of the cyclic group Z_modulus."""

    modulus: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise BadSubset(f"modulus must be >= 1, got {self.modulus}")
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for a in members:
            if not (0 <= a < self.modulus):
                raise BadSubset(f"member {a} outside Z_{self.modulus}")

    def complement(self) -> "CayleySubset":
        return CayleySubset(self.modulus, frozenset(range(self.modulus)) - self.members)


def bi_cayley(subset: CayleySubset, extra_right: int = 0) -> BipartiteGraph:
    """BC(Z_r, S), optionally with ``extra_right`` unconnected right vertices appended.

    The appended vertices y_{r+1}.. exist so that callers can attach them;
    this builder leaves them isolated.
    """
    if extra_right < 0:
        raise ValueError("extra_right must be nonnegative")
    r = subset.modulus
    rows = []
    for g in range(r):
        row = 0
        for a in subset.members:
            row |= 1 << ((a + g) % r)
        rows.append(row)
    return BipartiteGraph(r, r + extra_right, tuple(rows))


class WitnessFamilyId(Enum):
    """The nine named extremal constructions, keyed by their stable CLI names."""

    S3_G1 = "s3-g1"
    S3_G2 = "s3-g2"
    S4_G1 = "s4-g1"
    S4_G2 = "s4-g2"
    S4_G3 = "s4-g3"
    S4_G4 = "s4-g4"
    S4_G5 = "s4-g5"
    S4_G6 = "s4-g6"
    S4_G7 = "s4-g7"


class BoundGoal(Enum):
    """Which extremal bound a dispatched witness should attain."""

    SUM_LOWER = "sum-lower"
    SUM_UPPER = "sum-upper"
    PROD_UPPER = "prod-upper"


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise PreconditionViolated(why)


def _round_robin_targets(r: int, d: int, k: int) -> list[int]:
    """0-based left indices for the k-th appended right vertex (k = 1, 2, ...)."""
    start = (k - 1) * d % r
    return [(start + t) % r for t in range(d)]


def _bi_cayley_with_attachments(r: int, s: int, d: int) -> BipartiteGraph:
    """BC(Z_r, {0..d-1}) plus s - r appended right vertices of degree d.

    The appended vertex y_{r+k} attaches round-robin to x-indices
    (k-1)d, ..., (k-1)d + d - 1 (mod r), spreading the extra degree evenly.
    """
    rows = list(bi_cayley(CayleySubset(r, frozenset(range(d))), extra_right=s - r).adjacency)
    for k in range(1, s - r + 1):
        col = r + k - 1
        for i in _round_robin_targets(r, d, k):
            rows[i] |= 1 << col
    return BipartiteGraph(r, s, tuple(rows))


def _appended_collisions_with_x1(r: int, s: int, d: int) -> int:
    """How many appended right vertices the round-robin rule attaches to x_1."""
    return sum(1 for k in range(1, s - r + 1) if 0 in _round_robin_targets(r, d, k))


# Builders check only their own family's domain; ``build_witness`` has
# already checked the shared sized preconditions (m given, r <= s).


def _build_s3_g1(r: int, s: int, m: int | None) -> BipartiteGraph:
    _require(r >= 1 and s >= 2, f"needs r >= 1 and s >= 2, got r={r}, s={s}")
    _require(r + s >= 3, f"needs n >= 3, got n={r + s}")
    # y_1 adjacent to all of X, y_2 isolated: both the graph and its
    # complement are disconnected.
    return new_graph(r, s, [(i, 1) for i in range(1, r + 1)])


def _build_s3_g2(r: int, s: int, m: int | None) -> BipartiteGraph:
    _require(r >= 4, f"needs r >= 4, got r={r}")
    _require(s >= r, f"needs s >= r, got r={r}, s={s}")
    return _bi_cayley_with_attachments(r, s, r // 2)


def _build_s4_g1(r: int, s: int, m: int) -> BipartiteGraph:
    _require(0 <= m < r, f"needs 0 <= m < r, got m={m}, r={r}")
    return new_graph(r, s, [(i, 1) for i in range(1, m + 1)])


def _build_s4_g2(r: int, s: int, m: int) -> BipartiteGraph:
    _require(s >= 2, f"needs s >= 2 so y_2 can stay isolated, got s={s}")
    _require(m >= r, f"needs m >= r, got m={m}, r={r}")
    _require(m <= r * s // 2, f"needs m <= floor(rs/2) = {r * s // 2}, got m={m}")
    edges = [(i, 1) for i in range(1, r + 1)]
    # Remaining m - r edges fill column-major over y_3..y_s, keeping y_2
    # isolated; any placement works, greedy keeps it deterministic.
    remaining = m - r
    for j in range(3, s + 1):
        for i in range(1, r + 1):
            if remaining == 0:
                break
            edges.append((i, j))
            remaining -= 1
        if remaining == 0:
            break
    if remaining:
        raise RuntimeError(f"{remaining} of {m} edges left unplaced, though m <= floor(rs/2) leaves room")
    return new_graph(r, s, edges)


def _build_s4_g3(r: int, s: int, m: int) -> BipartiteGraph:
    _require(1 <= m <= s, f"needs 1 <= m <= s, got m={m}, s={s}")
    # With r = 2 and m = s, both the witness and its complement have s edges,
    # one fewer than a connected graph on n = s + 2 vertices needs, so the
    # target pair (0, r-1) is unreachable by any graph, not just this one.
    _require(
        not (r == 2 and m == s),
        "needs m < s when r = 2: with m = s both the graph and its "
        "complement have fewer than n-1 edges and stay disconnected",
    )
    if m < r:
        # The textual edge set has r edges regardless of m; for m < r emit
        # the partial matching instead so the m-edge contract holds.
        return new_graph(r, s, [(i, i) for i in range(1, m + 1)])
    edges = [(i, i) for i in range(1, r + 1)]
    edges.extend((1, j) for j in range(r + 1, m + 1))
    return new_graph(r, s, edges)


def _build_s4_g4(r: int, s: int, m: int) -> BipartiteGraph:
    _require(s + 1 <= m <= r + s - 2, f"needs s+1 <= m <= n-2, got m={m}, s={s}, n={r + s}")
    edges = [(i, i) for i in range(1, r + 1)]
    edges.extend((i, i + 1) for i in range(1, m - s + 1))
    edges.extend((1, j) for j in range(r + 1, s + 1))
    return new_graph(r, s, edges)


def _build_s4_g5(r: int, s: int, m: int) -> BipartiteGraph:
    _require(r >= 2, f"needs r >= 2, got r={r}")
    _require(m == r + s - 1, f"needs m = n-1 = {r + s - 1}, got m={m}")
    edges = [(i, i) for i in range(1, r + 1)]
    edges.extend((i, i + 1) for i in range(1, r))
    edges.extend((r, j) for j in range(r + 1, s + 1))
    return new_graph(r, s, edges)


def _build_s4_g6(r: int, s: int, m: int) -> BipartiteGraph:
    _require(m >= r + s, f"needs m >= n = {r + s}, got m={m}")
    _require(m <= r * s // 2, f"needs m <= floor(rs/2) = {r * s // 2}, got m={m}")
    _require(m % s == 0, f"needs m divisible by s, got m={m}, s={s}")
    d = m // s
    if d < 2:
        raise RuntimeError(f"m = {m} >= n = {r + s} forces m/s >= 2, got {d}")
    return _bi_cayley_with_attachments(r, s, d)


def _build_s4_g7(r: int, s: int, m: int) -> BipartiteGraph:
    _require(m >= r + s, f"needs m >= n = {r + s}, got m={m}")
    _require(m <= r * s // 2, f"needs m <= floor(rs/2) = {r * s // 2}, got m={m}")
    _require(m % s != 0, f"needs m not divisible by s, got m={m}, s={s}")
    d, l = m // s, m % s
    collisions = _appended_collisions_with_x1(r, s, d)
    # The l extra edges all leave x_1, so x_1 keeps s - d - collisions - l
    # complement neighbors; the family's target pair needs at least
    # r - d - 1 of them. Beyond that the construction cannot work.
    _require(
        l + collisions <= s - r + 1,
        f"with m = {d}*{s} + {l} the added star would drop x_1's complement "
        f"degree below r-d-1 = {r - d - 1}; needs (m mod s) + {collisions} <= s-r+1",
    )
    g = _bi_cayley_with_attachments(r, s, d)
    rows = list(g.adjacency)
    x1 = rows[0]
    added = 0
    j = d  # 0-based y index; the range starts right after x_1's Bi-Cayley neighbors
    while added < l and j < s:
        if not x1 >> j & 1:
            x1 |= 1 << j
            added += 1
        j += 1
    _require(added == l, "ran out of right vertices not adjacent to x_1")
    rows[0] = x1
    return BipartiteGraph(r, s, tuple(rows))


class _Family(NamedTuple):
    """One witness family's row in the table.

    A sized family needs m and builds exactly m edges. ``pair(r, s, m)`` is
    the (edge connectivity, complement edge connectivity) pair the family is
    designed to reach.
    """

    sized: bool
    build: Callable[[int, int, int | None], BipartiteGraph]
    pair: Callable[[int, int, int | None], tuple[int, int]]


_FAMILIES = {
    WitnessFamilyId.S3_G1: _Family(False, _build_s3_g1, lambda r, s, m: (0, 0)),
    WitnessFamilyId.S3_G2: _Family(False, _build_s3_g2, lambda r, s, m: (r // 2, (r + 1) // 2)),
    WitnessFamilyId.S4_G1: _Family(True, _build_s4_g1, lambda r, s, m: (0, r - m)),
    WitnessFamilyId.S4_G2: _Family(True, _build_s4_g2, lambda r, s, m: (0, 0)),
    WitnessFamilyId.S4_G3: _Family(True, _build_s4_g3, lambda r, s, m: (0, r - 1)),
    WitnessFamilyId.S4_G4: _Family(True, _build_s4_g4, lambda r, s, m: (0, r - 2)),
    WitnessFamilyId.S4_G5: _Family(True, _build_s4_g5, lambda r, s, m: (1, r - 2)),
    WitnessFamilyId.S4_G6: _Family(True, _build_s4_g6, lambda r, s, m: (m // s, r - m // s)),
    WitnessFamilyId.S4_G7: _Family(True, _build_s4_g7, lambda r, s, m: (m // s, r - m // s - 1)),
}


def build_witness(family: WitnessFamilyId, r: int, s: int, m: int | None = None) -> BipartiteGraph:
    """Build the named witness graph; the s3-* families ignore ``m``.

    Raises PreconditionViolated, naming the family and the failed condition,
    whenever the parameters lie outside the family's domain.
    """
    row = _FAMILIES[family]
    try:
        if row.sized:
            _require(m is not None, "needs m")
            _require(r <= s, f"needs r <= s, got r={r}, s={s}")
        g = row.build(r, s, m)
    except PreconditionViolated as exc:
        raise PreconditionViolated(f"{family.value}: {exc}") from None
    if row.sized and g.edge_count != m:
        raise RuntimeError(f"{family.value} built {g.edge_count} edges, wanted {m}")
    return g


def claimed_edge_connectivity_pair(family: WitnessFamilyId, r: int, s: int, m: int | None = None) -> tuple[int, int]:
    """The (edge connectivity, complement edge connectivity) pair each family targets."""
    return _FAMILIES[family].pair(r, s, m)


def witness_notes(family: WitnessFamilyId, r: int, s: int, m: int | None = None) -> tuple[str, ...]:
    """Interpretation notes a report should carry alongside the built graph."""
    notes = []
    if family is WitnessFamilyId.S4_G3 and m is not None and m < r:
        notes.append(
            "m < r: emitted the partial matching x_i y_i (i <= m) so the "
            "m-edge contract holds; the full matching would have r edges"
        )
    if family is WitnessFamilyId.S4_G7:
        notes.append(
            "extra edges read as x_1 y_j for j = d+1, d+2, ... in the "
            "canonical labeling, skipping right vertices already adjacent "
            "to x_1; the verifier confirms the resulting connectivity pair "
            "instead of trusting this interpretation"
        )
    return tuple(notes)


def dispatch_witness(goal: BoundGoal, r: int, s: int, m: int) -> tuple[WitnessFamilyId | None, BipartiteGraph]:
    """Select and build the witness family for one bound goal and parameter triple.

    Returns (family, graph); the family is None for the degenerate cases
    where the witness is simply the empty graph. Raises NoWitness when no
    family's preconditions hold for the triple (reported, never fabricated).
    """
    ParameterTriple(r, s, m)
    if not isinstance(goal, BoundGoal):
        raise ValueError(f"unknown goal {goal!r}")
    n = r + s
    if m == 0 and goal is not BoundGoal.SUM_LOWER:
        return None, new_graph(r, s, [])
    if goal is BoundGoal.SUM_LOWER or (goal is BoundGoal.PROD_UPPER and m <= n - 2):
        family = WitnessFamilyId.S4_G1 if m < r else WitnessFamilyId.S4_G2
    # Only sum-upper gets here with m <= n - 2: prod-upper has m >= n - 1 > s.
    elif m <= s:
        family = WitnessFamilyId.S4_G3
    elif m <= n - 2:
        family = WitnessFamilyId.S4_G4
    elif m == n - 1:
        family = WitnessFamilyId.S4_G5
    elif m % s == 0:
        family = WitnessFamilyId.S4_G6
    else:
        family = WitnessFamilyId.S4_G7
    try:
        return family, build_witness(family, r, s, m)
    except PreconditionViolated as exc:
        raise NoWitness(f"no witness for {goal.value} at (r={r}, s={s}, m={m}): {exc}") from exc
