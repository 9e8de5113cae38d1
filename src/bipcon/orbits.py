"""Isomorph-free enumeration: one graph per S_r x S_s orbit of a shape.

Both parts of a shape (r, s) are fixed, so two labeled graphs are isomorphic
as bipartite graphs with their sides kept exactly when one permutation of
the rows and one of the columns carry one onto the other. A column type is
an r-bit int, bit i set when row i has the column. A sorted multiset of s
column types stands for every graph that lists those columns in some order,
which absorbs S_s; it is kept only when it is canonical, the
lexicographically least of its r! row-permuted images sorted, which absorbs
S_r.

The canonical multisets are grown by orderly generation (Read, "Every one a
winner", Ann. Discrete Math. 1978; Faradzev 1978; McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): one depth-first tree whose
nodes are canonical sorted prefixes, each extended by one column type w no
smaller than its last. Each node keeps the sorted image of its prefix under
every row permutation; an extension inserts the permuted w into each image,
and the first image below the extended prefix rejects it with its whole
subtree. That is exact because canonicity is hereditary: say a row
permutation maps the sorted prefix P = c_1..c_(k-1) to a sorted image Q < P,
first differing at index j. Every extension appends c_k >= c_(k-1) to P,
while inserting the permuted c_k into Q can only lower each of Q's order
statistics. So each entry of the new image before j is at most that of
P c_k, and the one at j is at most Q_j < P_j: the new image is smaller than
P c_k, and by induction no extension of a non-canonical prefix is canonical.

The tree walks the multisets in lexicographic order, and ranks lo..hi-1
are those of every sorted multiset in one of two rank spaces, canonical or
not: those with m edges in all when an edge count m is given, else those
with at most floor(rs/2) edges. A subtree outside the range, or under a
rejected prefix, is skipped by its count, so a chunk of a scan costs only
its own part of the tree, and an m-edge scan never visits more multisets
than there are m-edge labeled graphs.

Complementing every graph maps orbits onto orbits, so a full sweep walks
only the orbits O with at most floor(rs/2) edges and covers the complement
orbit O^c with each: its smallest mask is ``full ^`` the largest mask of O.

At each leaf only some images are folded, which is exact. Folded in
descending column order, an image's top s bits are its top row r-1; a type
has that row exactly when it is >= 2^(r-1), and the sorted image puts its t
such types in the lowest columns, so those bits read 2^t - 1. Folded in
ascending order, for the largest mask, they read (2^t - 1) << (s - t). Both
grow with t, and a mask with smaller top bits is smaller whatever its lower
bits, so the smallest mask comes from an image of least t and the largest
from one of greatest t. t is the degree of the row moved to the top, so it
is read once per row. The other images are not folded, while every image
still takes part in the canonicity test.

The verifier imports this module on its first orbit scan: any fixed-m scan,
or a shape sweep from nine vertices on. A run of shape sweeps up to eight
vertices, such as ``verify --max-n 8``, never loads it. Its permutation
and spread tables come from ``bigraph._bit_map``, which L2.4 also uses, so
that builder lives in a module every run loads.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cache
from itertools import permutations
from math import factorial
from typing import Callable, Iterator

from .bigraph import _bit_map


@cache
def _counter(r: int, at_most: bool) -> Callable[[int, int, int], int]:
    """count(k, v, p): sorted k-tuples of the column types v..2^r - 1 with p edges in all (at most p with at_most).

    One table per (r, at_most) for the whole process: a scan's count and
    each of its chunks share it.
    """
    top = 1 << r

    @cache
    def count(k: int, v: int, p: int) -> int:
        if p < 0 or (k and v == top):
            return 0
        if k == 0:
            return int(at_most or p == 0)
        # The first type is either above v, or v itself.
        return count(k, v + 1, p) + count(k - 1, v, p - v.bit_count())

    return count


def class_count(r: int, s: int, m: int | None = None) -> int:
    """The ranks of ``orbit_classes(r, s, m)``: sorted multisets of s column types with m edges, at most floor(rs/2) with m None."""
    return _counter(r, m is None)(s, 0, r * s // 2 if m is None else m)


def orbit_classes(r: int, s: int, m: int | None = None, lo: int = 0,
                  hi: int | None = None) -> Iterator[tuple[int, int, int | None]]:
    """(smallest mask, orbit size, complement mask) of each orbit among the multisets ranked lo..hi-1.

    The ranks are those of ``class_count(r, s, m)``. With ``m`` given they
    are the orbits with m edges, and the complement mask is None. With ``m``
    None they are the orbits with at most floor(rs/2) edges, and the
    complement mask is the smallest of the complement orbit: ``full ^`` the
    orbit's largest mask, the greatest of its images folded in ascending
    order. An orbit holds r! s! / (|row stabilizer| * prod(multiplicity!))
    labeled graphs. For one row permutation the smallest mask lists its
    columns in descending order, column 0 first (row r-1 is the most
    significant), so the orbit's smallest mask is the least of those over
    its images, each folded as ``mask << 1 | spread[c]`` column by column.
    """
    if hi is None:
        hi = class_count(r, s, m)
    pairs = m is None
    top, half, full = 1 << r, 1 << r >> 1, (1 << r * s) - 1
    size = _counter(r, pairs)  # size(k, w, p): the sorted k-tuples of the types w.. with p edges (at most p for pairs)
    perms = list(permutations(range(r)))
    tables = [_bit_map(perm) for perm in perms]
    # The images of the permutations that move row i to the top, for each row i.
    by_top = [[k for k, perm in enumerate(perms) if perm[i] == r - 1] for i in range(r)]
    spread = _bit_map([i * s for i in range(r)])
    labelings = factorial(r) * factorial(s)

    def fold(image) -> int:
        mask = 0
        for c in image:
            mask = mask << 1 | spread[c]
        return mask

    def walk(cols: list[int], images: list[list[int]], k: int, v: int, p: int,
             run: int, mult: int, lo: int, hi: int) -> Iterator[tuple[int, int, int | None]]:
        # Ranks lo..hi-1 (0 <= lo) of the k-tuples of types v.. (with p edges,
        # or at most p) that complete the canonical prefix cols, whose sorted
        # images are images; its last run of equal types is run long, and
        # mult is the product of its runs' factorials.
        for w in range(v, top):
            if hi <= 0:
                return
            q = p - w.bit_count()
            n = size(k - 1, w, q)
            if lo < n:
                grown = cols + [w]
                extended = []
                for table, image in zip(tables, images):
                    image = image[:]
                    insort(image, table[w])
                    if image < grown:
                        break
                    extended.append(image)
                else:
                    w_run = run + 1 if w == v else 1
                    if k > 1:
                        yield from walk(grown, extended, k - 1, w, q, w_run, mult * w_run, lo, hi)
                    else:
                        # s - t for the images of each row's group, t their types
                        # with the top row (see the module docstring).
                        below = [bisect_left(extended[group[0]], half) for group in by_top]
                        least = max(below)
                        mask = min(fold(extended[i]) for group, b in zip(by_top, below) if b == least for i in group)
                        weight = labelings // (extended.count(grown) * mult * w_run)
                        twin = None
                        if pairs:
                            most = min(below)
                            twin = full ^ max(fold(reversed(extended[i]))
                                              for group, b in zip(by_top, below) if b == most for i in group)
                        yield mask, weight, twin
            lo, hi = max(lo - n, 0), hi - n

    yield from walk([], [[] for _ in tables], s, 0, r * s // 2 if pairs else m, 0, 1, lo, hi)
