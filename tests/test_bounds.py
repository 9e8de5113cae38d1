import pytest

from bipcon.bounds import (
    BoundSet,
    M_upper,
    N_upper,
    ParameterTriple,
    delta_bounds,
    sum_lower_sized,
)
from bipcon.errors import InvalidTriple


def test_delta_bounds_examples():
    b5 = delta_bounds(5)
    assert (b5.sum_lower, b5.sum_upper, b5.prod_lower, b5.prod_upper) == (0, 5, 0, 6)
    assert delta_bounds(4).prod_upper == 4
    b1 = delta_bounds(1)
    assert (b1.sum_upper, b1.prod_upper) == (1, 0)
    with pytest.raises(ValueError):
        delta_bounds(0)


def test_unconstrained_connectivity_bounds_examples():
    # Without a fixed m the connectivity bounds are the minimum-degree bounds.
    b4 = delta_bounds(4)
    assert (b4.sum_lower, b4.sum_upper, b4.prod_lower, b4.prod_upper) == (0, 4, 0, 4)
    assert delta_bounds(2).prod_upper == 1
    assert delta_bounds(7).prod_upper == 12


def test_sum_lower_sized_examples():
    assert sum_lower_sized(ParameterTriple(5, 5, 2)) == 3
    assert sum_lower_sized(ParameterTriple(3, 8, 7)) == 0
    assert sum_lower_sized(ParameterTriple(4, 4, 4)) == 0


def test_n_upper_examples():
    assert N_upper(ParameterTriple(4, 5, 7)) == 2   # middle band s+1 <= m <= n-2
    assert N_upper(ParameterTriple(4, 5, 10)) == 4  # m divisible by s and m >= n
    assert N_upper(ParameterTriple(4, 5, 0)) == 4   # empty graph, complete complement
    assert N_upper(ParameterTriple(4, 5, 9)) == 3   # m >= n and m not divisible by s
    assert N_upper(ParameterTriple(4, 5, 4)) == 3   # 1 <= m <= s
    assert N_upper(ParameterTriple(3, 4, 6)) == 2   # m = n - 1 with r >= 2


def test_m_upper_examples():
    assert M_upper(ParameterTriple(4, 5, 10)) == 4  # (m/s)(r - m/s)
    assert M_upper(ParameterTriple(4, 5, 7)) == 0   # m <= n - 2
    assert M_upper(ParameterTriple(4, 5, 9)) == 2   # floor(m/s)(r - 1 - floor(m/s))
    assert M_upper(ParameterTriple(4, 4, 7)) == 2   # m = n - 1 with r >= 2


def test_invalid_triples_rejected():
    with pytest.raises(InvalidTriple):
        ParameterTriple(5, 4, 2)  # r > s
    with pytest.raises(InvalidTriple):
        ParameterTriple(0, 4, 0)  # r < 1
    with pytest.raises(InvalidTriple):
        ParameterTriple(4, 5, 11)  # m above floor(rs/2)
    with pytest.raises(InvalidTriple):
        ParameterTriple(4, 5, -1)
    for triple in ((2, 3.5, 1), (2.0, 3, 1), (2, 3, 1.0), (True, 3, 1), (2, 3, False)):
        with pytest.raises(InvalidTriple):
            ParameterTriple(*triple)  # not ints


def all_valid_triples(max_s):
    for r in range(1, max_s + 1):
        for s in range(r, max_s + 1):
            for m in range(r * s // 2 + 1):
                yield ParameterTriple(r, s, m)


def test_n_between_lower_bound_and_r():
    for p in all_valid_triples(8):
        n_value = N_upper(p)
        assert sum_lower_sized(p) <= n_value <= p.r, p


def test_m_below_unconstrained_product_cap():
    for p in all_valid_triples(8):
        assert 0 <= M_upper(p) <= delta_bounds(p.r).prod_upper, p


def test_sized_bound_functions_are_ordered():
    for p in all_valid_triples(6):
        b = BoundSet(sum_lower_sized(p), N_upper(p), 0, M_upper(p))  # refuses bounds out of order
        assert b.sum_lower <= b.sum_upper
        assert b.prod_lower <= b.prod_upper


def test_n_branches_are_mutually_exclusive_on_valid_triples():
    # Top-down evaluation is stated for safety, but on valid triples the
    # three branch conditions never overlap, so the order cannot matter.
    for p in all_valid_triples(8):
        r, s, m, n = p.r, p.s, p.m, p.n
        first = s + 1 <= m <= n - 2
        second = (1 <= m <= s) or (m == n - 1 and r >= 2) or (m % s != 0 and m >= n)
        assert not (first and second), p


def test_m_branches_are_mutually_exclusive_on_valid_triples():
    for p in all_valid_triples(8):
        r, s, m, n = p.r, p.s, p.m, p.n
        first = m <= n - 2 or (m == n - 1 and r == 1)
        second = m % s == 0 and m >= n
        assert not (first and second), p


def test_star_branch_of_m_is_vacuous():
    # m = n - 1 with r = 1 would need m = s <= floor(s/2); no valid triple
    # reaches that branch.
    for p in all_valid_triples(10):
        assert not (p.m == p.n - 1 and p.r == 1), p


def test_am_gm_consistency():
    # For a + b <= r the product never beats ceil(r/2) * floor(r/2).
    for r in range(1, 65):
        cap = delta_bounds(r).prod_upper
        for a in range(r + 1):
            for b in range(r - a + 1):
                assert a * b <= cap
