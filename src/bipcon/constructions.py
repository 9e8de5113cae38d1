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
``build_witness`` refuses a part above ``bigraph.PART_MAX_SIZE`` with
TooLarge, as ``CayleySubset`` refuses such a modulus, then checks the
domain the families share once: a sized s4-* family needs m and a valid
``ParameterTriple(r, s, m)``, the domain of the fixed-size bounds; an
unsized s3-* family takes int r and s and no m. It then runs the builder,
which checks only its own domain, and names the family in any
PreconditionViolated; ``claimed_edge_connectivity_pair`` builds the witness
first, so it refuses exactly the same triples, and then reads the row. The
test suite recomputes the pairs with the connectivity module instead of
trusting the construction. ``dispatch_witness`` picks the family for a
bound goal through one case split on (r, s, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .bigraph import BipartiteGraph, _check_part_sizes, new_graph
from .bounds import ParameterTriple
from .errors import BadSubset, InvalidTriple, NoWitness, PreconditionViolated


@dataclass(frozen=True)
class CayleySubset:
    """A subset of the cyclic group Z_modulus."""

    modulus: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # Only ints: a float or bool would pass the range checks and fail later.
        if type(self.modulus) is not int:
            raise BadSubset(f"modulus must be an int, got {self.modulus!r}")
        if self.modulus < 1:
            raise BadSubset(f"modulus must be >= 1, got {self.modulus}")
        _check_part_sizes(self.modulus)
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for a in members:
            if type(a) is not int:
                raise BadSubset(f"member {a!r} is not an int")
            if not (0 <= a < self.modulus):
                raise BadSubset(f"member {a} outside Z_{self.modulus}")

    def complement(self) -> "CayleySubset":
        return CayleySubset(self.modulus, frozenset(range(self.modulus)) - self.members)


def bi_cayley(subset: CayleySubset) -> BipartiteGraph:
    """BC(Z_r, S)."""
    r = subset.modulus
    rows = []
    for g in range(r):
        row = 0
        for a in subset.members:
            row |= 1 << ((a + g) % r)
        rows.append(row)
    return BipartiteGraph(r, r, tuple(rows))


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


def _bi_cayley_with_attachments(r: int, s: int, d: int) -> BipartiteGraph:
    """BC(Z_r, {0..d-1}) plus s - r appended right vertices of degree d.

    The appended vertex y_{r+k+1} (k = 0, 1, ...) attaches round-robin to
    x_{i+1} for i = kd, ..., kd + d - 1 (mod r), spreading the extra degree
    evenly.
    """
    rows = list(bi_cayley(CayleySubset(r, frozenset(range(d)))).adjacency)
    for k in range(s - r):
        for t in range(d):
            rows[(k * d + t) % r] |= 1 << (r + k)
    return BipartiteGraph(r, s, tuple(rows))


# Builders check only their own family's domain; ``build_witness`` has
# already checked the one the families share: for a sized family, int r, s
# and m with 1 <= r <= s and 0 <= m <= floor(rs/2) (``ParameterTriple``);
# for an unsized one, int r and s and no m.


def _build_s3_g1(r: int, s: int, m: int | None) -> BipartiteGraph:
    _require(r >= 1 and s >= 2, f"needs r >= 1 and s >= 2, got r={r}, s={s}")
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
    # The remaining m - r edges fill column-major over y_3..y_s, keeping y_2
    # isolated; any placement works, and m <= floor(rs/2) leaves room.
    tail = [(i, j) for j in range(3, s + 1) for i in range(1, r + 1)]
    return new_graph(r, s, [(i, 1) for i in range(1, r + 1)] + tail[:m - r])


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
    _require(m % s == 0, f"needs m divisible by s, got m={m}, s={s}")
    d = m // s
    if d < 2:
        raise RuntimeError(f"m = {m} >= n = {r + s} forces m/s >= 2, got {d}")
    return _bi_cayley_with_attachments(r, s, d)


def _build_s4_g7(r: int, s: int, m: int) -> BipartiteGraph:
    _require(m >= r + s, f"needs m >= n = {r + s}, got m={m}")
    _require(m % s != 0, f"needs m not divisible by s, got m={m}, s={s}")
    d, l = m // s, m % s
    rows = list(_bi_cayley_with_attachments(r, s, d).adjacency)
    collisions = (rows[0] >> r).bit_count()  # appended right vertices on x_1
    # The l extra edges all leave x_1, so x_1 keeps s - d - collisions - l
    # complement neighbors; the family's target pair needs at least
    # r - d - 1 of them. Beyond that the construction cannot work.
    _require(
        l + collisions <= s - r + 1,
        f"with m = {d}*{s} + {l} the added star would drop x_1's complement "
        f"degree below r-d-1 = {r - d - 1}; needs (m mod s) + {collisions} <= s-r+1",
    )
    # x_1's Bi-Cayley neighbors are y_1..y_d, and d = floor(m/s) <= r - 1 on
    # the domain, so y_{d+1}..y_s hold s - d - collisions >= s - r + 1 -
    # collisions >= l columns free of x_1: the first l of them always exist.
    free = [j for j in range(d, s) if not rows[0] >> j & 1]
    rows[0] |= sum(1 << j for j in free[:l])
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
    """Build the named witness graph; only the sized s4-* families take ``m``.

    Requires int r and s, then raises TooLarge for a part above
    PART_MAX_SIZE, before any work. Checks the rest of the domain the
    families share: a sized family needs m and a valid
    ``ParameterTriple(r, s, m)`` (ints, 1 <= r <= s, 0 <= m <= floor(rs/2));
    an unsized s3-* family takes no m. Then runs the builder, which checks
    its own domain. Raises PreconditionViolated, naming the family and the
    failed condition, whenever the parameters lie outside the family's
    domain.
    """
    row = _FAMILIES[family]
    try:
        _require({type(r), type(s)} == {int}, f"needs int r and s, got r={r!r}, s={s!r}")
        _check_part_sizes(r, s)
        if row.sized:
            _require(m is not None, "needs m")
            ParameterTriple(r, s, m)
        else:
            _require(m is None, f"takes no m, got m={m!r}")
        g = row.build(r, s, m)
    except (InvalidTriple, PreconditionViolated) as exc:
        raise PreconditionViolated(f"{family.value}: {exc}") from None
    if row.sized and g.edge_count != m:
        raise RuntimeError(f"{family.value} built {g.edge_count} edges, wanted {m}")
    return g


def claimed_edge_connectivity_pair(family: WitnessFamilyId, r: int, s: int, m: int | None = None) -> tuple[int, int]:
    """The (edge connectivity, complement edge connectivity) pair each family targets.

    Raises PreconditionViolated, naming the family, exactly where
    ``build_witness`` does: the family's domain is the builder's.
    """
    build_witness(family, r, s, m)
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
