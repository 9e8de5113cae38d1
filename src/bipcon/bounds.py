"""Closed-form bounds on connectivity sums and products.

For a bipartite graph on parts of size r <= s, the minimum degree, the edge
connectivity, and the vertex connectivity of the graph and its bipartite
complement always satisfy

    0 <= f(G) + f(G^bc) <= r        and
    0 <= f(G) * f(G^bc) <= ceil(r/2) * floor(r/2),

which ``delta_bounds`` returns for all three invariants.

Fixing the edge count m (with m <= floor(rs/2)) sharpens these to

    max(0, r - m) <= k'(G) + k'(G^bc) <= N(n, m)    and
    k'(G) * k'(G^bc) <= M(n, m),

where the lower sum bound is ``sum_lower_sized`` and N and M are the
piecewise formulas evaluated by ``N_upper`` and ``M_upper``; the same N and
M bound the vertex connectivity variants. All values are exact integers;
no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidTriple


@dataclass(frozen=True)
class ParameterTriple:
    """(r, s, m) with 1 <= r <= s and 0 <= m <= floor(rs/2)."""

    r: int
    s: int
    m: int

    def __post_init__(self) -> None:
        if {type(self.r), type(self.s), type(self.m)} != {int}:  # bool and float excluded
            raise InvalidTriple(f"needs int r, s and m, got r={self.r!r}, s={self.s!r}, m={self.m!r}")
        if not (1 <= self.r <= self.s):
            raise InvalidTriple(f"needs 1 <= r <= s, got r={self.r}, s={self.s}")
        if not (0 <= self.m <= self.r * self.s // 2):
            raise InvalidTriple(
                f"needs 0 <= m <= floor(rs/2) = {self.r * self.s // 2}, got m={self.m}"
            )

    @property
    def n(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class BoundSet:
    sum_lower: int
    sum_upper: int
    prod_lower: int
    prod_upper: int

    def __post_init__(self) -> None:
        if not (0 <= self.sum_lower <= self.sum_upper):
            raise ValueError("sum bounds out of order")
        if not (0 <= self.prod_lower <= self.prod_upper):
            raise ValueError("product bounds out of order")


def _half_product(r: int) -> int:
    return ((r + 1) // 2) * (r // 2)


def delta_bounds(r: int) -> BoundSet:
    """Bounds on min-degree sum and product over a graph/complement pair."""
    if r < 1:
        raise ValueError(f"needs r >= 1, got {r}")
    return BoundSet(0, r, 0, _half_product(r))


def sum_lower_sized(p: ParameterTriple) -> int:
    """Lower bound max(0, r - m) on the edge-connectivity sum at fixed size."""
    return max(0, p.r - p.m)


def N_upper(p: ParameterTriple) -> int:
    """Upper bound N(n, m) on the connectivity sum at fixed size.

    Branches evaluate top-down and are mutually exclusive on valid triples
    (the exhaustive branch-totality test pins this down):

    * r - 2  when s+1 <= m <= n-2;
    * r - 1  when 1 <= m <= s, or m = n-1 and r >= 2,
             or m is not divisible by s and m >= n;
    * r      otherwise.
    """
    r, s, m, n = p.r, p.s, p.m, p.n
    if s + 1 <= m <= n - 2:
        return r - 2
    if (1 <= m <= s) or (m == n - 1 and r >= 2) or (m % s != 0 and m >= n):
        return r - 1
    return r


def M_upper(p: ParameterTriple) -> int:
    """Upper bound M(n, m) on the connectivity product at fixed size.

    * 0                          when m <= n-2, or m = n-1 and r = 1
      (the latter case is vacuous under m <= floor(rs/2): it would need
      m = s <= floor(s/2));
    * (m/s) * (r - m/s)          when m is divisible by s and m >= n;
    * floor(m/s) * (r - 1 - floor(m/s))   otherwise.
    """
    r, s, m, n = p.r, p.s, p.m, p.n
    if m <= n - 2 or (m == n - 1 and r == 1):
        return 0
    if m % s == 0 and m >= n:
        d = m // s
        value = d * (r - d)
    else:
        d = m // s
        value = d * (r - 1 - d)
    if value < 0:
        raise RuntimeError(f"negative product bound {value} for a valid triple {p}")
    return value
