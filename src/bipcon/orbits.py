"""Isomorph-free enumeration: one graph per S_r x S_s orbit of a shape.

Both parts of a shape (r, s) are fixed, so two labeled graphs are isomorphic
as bipartite graphs with their sides kept exactly when one permutation of
the rows and one of the columns carry one onto the other. A column type is
an r-bit int, bit i set when row i has the column. A sorted multiset of s
column types stands for every graph that lists those columns in some order,
which absorbs S_s; it is kept only when it is the lexicographically least of
its r! row-permuted images, which absorbs S_r (Read 1978, McKay 1998).

The multisets are walked in lexicographic order. With an edge count m given,
only the multisets with m edges in all are walked, so an m-edge scan never
visits more multisets than there are m-edge labeled graphs, and a rank range
of them is reached by skipping whole subtrees by their counts, so a chunk of
a scan costs only its own length.

The verifier imports this module on its first orbit scan: any fixed-m scan,
or a shape sweep from nine vertices on. A run of shape sweeps up to eight
vertices, such as ``verify --max-n 8``, never loads it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement, groupby, islice, permutations
from math import comb, factorial, prod
from typing import Callable, Iterator


def _counter(r: int) -> Callable[[int, int, int], int]:
    """count(k, v, p): sorted k-tuples of the column types v..2^r - 1 with p edges in all."""
    top = 1 << r

    @cache
    def count(k: int, v: int, p: int) -> int:
        if p < 0 or (k and v == top):
            return 0
        if k == 0:
            return int(p == 0)
        # The first type is either above v, or v itself.
        return count(k, v + 1, p) + count(k - 1, v, p - v.bit_count())

    return count


def multiset_count(r: int, s: int, m: int | None = None) -> int:
    """The number of sorted multisets of s column types, only those with m edges when m is given."""
    if m is None:
        return comb((1 << r) + s - 1, s)
    return _counter(r)(s, 0, m)


def _multisets(r: int, s: int, m: int | None, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The multisets that ``multiset_count`` counts, ranks lo..hi-1 in lexicographic order."""
    top = 1 << r
    if m is None:
        # Skipping to lo in C costs little next to the orbit test of the rest.
        return islice(combinations_with_replacement(range(top), s), lo, hi)
    count = _counter(r)

    def walk(prefix: tuple[int, ...], k: int, v: int, p: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        # Ranks lo..hi-1 (0 <= lo) of the k-tuples over types v.. with p edges that complete prefix.
        for w in range(v, top):
            if hi <= 0:
                return
            q = p - w.bit_count()
            n = count(k - 1, w, q)
            if lo < n:
                if k == 1:
                    yield prefix + (w,)
                else:
                    yield from walk(prefix + (w,), k - 1, w, q, lo, hi)
            lo, hi = max(lo - n, 0), hi - n

    return walk((), s, 0, m, lo, hi)


def _bit_map(positions) -> list[int]:
    """table[c] for every c < 2^len(positions): bit i of c moved to bit positions[i]."""
    table = [0]
    for p in positions:
        table += [t | 1 << p for t in table]
    return table


def orbit_reps(r: int, s: int, m: int | None = None, lo: int = 0, hi: int | None = None) -> Iterator[tuple[int, int]]:
    """(smallest labeled mask, orbit size) of each orbit among the multisets ranked lo..hi-1.

    The ranks are those of ``multiset_count(r, s, m)``: with ``m`` given,
    only the orbits with m edges. An orbit holds
    r! s! / (|row stabilizer| * prod(multiplicity!)) labeled graphs. For one
    row permutation the smallest mask lists its columns in descending
    order, column 0 first (row r-1 is the most significant), so the orbit's
    smallest mask is the least of those over its images.
    """
    if hi is None:
        hi = multiset_count(r, s, m)
    tables = [_bit_map(perm) for perm in permutations(range(r))]
    spread = _bit_map([i * s for i in range(r)])
    labelings = factorial(r) * factorial(s)
    for cols in _multisets(r, s, m, lo, hi):
        images = []
        for table in tables:
            image = tuple(sorted([table[c] for c in cols]))
            if image < cols:
                break
            images.append(image)
        else:
            stabilizer = images.count(cols) * prod(factorial(len(list(run))) for _, run in groupby(cols))
            mask = min(sum(spread[c] << j for j, c in enumerate(reversed(image))) for image in images)
            yield mask, labelings // stabilizer


def orbit_members(r: int, s: int, mask: int) -> list[int]:
    """Every labeled mask in the S_r x S_s orbit of ``mask``, ascending.

    The closure of the graph under swaps of adjacent rows and of adjacent
    columns, which generate S_r x S_s.
    """
    smask = (1 << s) - 1
    start = tuple((mask >> (i * s)) & smask for i in range(r))
    seen = {start}
    todo = [start]
    while todo:
        rows = todo.pop()
        neighbours = [rows[:i] + (rows[i + 1], rows[i]) + rows[i + 2:] for i in range(r - 1)]
        neighbours += [tuple(row ^ ((row >> j ^ row >> (j + 1)) & 1) * (3 << j) for row in rows) for j in range(s - 1)]
        for other in neighbours:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return sorted(sum(row << (i * s) for i, row in enumerate(rows)) for rows in seen)
