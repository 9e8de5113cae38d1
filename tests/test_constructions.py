import pytest

from bipcon import constructions
from bipcon.bigraph import PART_MAX_SIZE, bipartite_complement, degrees
from bipcon.connectivity import edge_connectivity, is_connected, vertex_connectivity
from bipcon.bounds import M_upper, N_upper, ParameterTriple, sum_lower_sized
from bipcon.constructions import (
    BoundGoal,
    CayleySubset,
    WitnessFamilyId,
    bi_cayley,
    build_witness,
    claimed_edge_connectivity_pair,
    dispatch_witness,
    witness_notes,
)
from bipcon.errors import BadSubset, InvalidTriple, NoWitness, PreconditionViolated, TooLarge
from bipcon.verifier import metric_value
from conftest import fail_if_reached


def kp_pair(g):
    return (edge_connectivity(g).value, edge_connectivity(bipartite_complement(g)).value)


def test_cayley_subset_validation():
    with pytest.raises(BadSubset):
        CayleySubset(3, frozenset({3}))
    with pytest.raises(BadSubset):
        CayleySubset(0, frozenset())
    for modulus, members in ((3, {1.5}), (3.0, {1}), (True, set()), (3, {True})):
        with pytest.raises(BadSubset):
            CayleySubset(modulus, frozenset(members))  # not ints
    assert CayleySubset(4, frozenset({1, 2})).complement().members == frozenset({0, 3})


def test_bi_cayley_identity_is_matching():
    g = bi_cayley(CayleySubset(3, frozenset({0})))
    assert g.edges() == [(1, 1), (2, 2), (3, 3)]


def test_bi_cayley_four_with_two_generators_is_eight_cycle():
    g = bi_cayley(CayleySubset(4, frozenset({0, 1})))
    assert g.edges() == [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 1), (4, 4)]
    d = degrees(g)
    assert d.min_degree == d.max_degree == 2
    assert edge_connectivity(g).value == 2


def test_complement_of_bicayley_flips_the_subset_exhaustively():
    for r in range(1, 6):
        for smask in range(1 << r):
            subset = CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1))
            lhs = bipartite_complement(bi_cayley(subset))
            rhs = bi_cayley(subset.complement())
            assert lhs == rhs, (r, sorted(subset.members))


def test_connected_bicayley_pairs_are_maximally_connected_small():
    for r in range(2, 6):
        for smask in range(1 << r):
            subset = CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1))
            g = bi_cayley(subset)
            gc = bipartite_complement(g)
            if not (is_connected(g) and is_connected(gc)):
                continue
            k = len(subset.members)
            assert vertex_connectivity(g).value == edge_connectivity(g).value == k
            assert vertex_connectivity(gc).value == edge_connectivity(gc).value == r - k


def test_witness_s4_g1_example():
    g = build_witness(WitnessFamilyId.S4_G1, 5, 5, 2)
    assert g.edges() == [(1, 1), (2, 1)]
    assert kp_pair(g) == (0, 3)


def test_witness_s4_g5_example():
    g = build_witness(WitnessFamilyId.S4_G5, 3, 4, 6)
    assert kp_pair(g) == (1, 1)


def test_witness_s4_g6_example():
    g = build_witness(WitnessFamilyId.S4_G6, 4, 5, 10)
    assert kp_pair(g) == (2, 2)


def test_witness_s3_families():
    g1 = build_witness(WitnessFamilyId.S3_G1, 3, 4)
    assert kp_pair(g1) == (0, 0)
    for r in (4, 5, 6):
        g2 = build_witness(WitnessFamilyId.S3_G2, r, r + 2)
        assert kp_pair(g2) == (r // 2, (r + 1) // 2)


def test_witness_edge_counts_match_m():
    cases = [
        (WitnessFamilyId.S4_G1, 4, 6, 3),
        (WitnessFamilyId.S4_G2, 4, 6, 9),
        (WitnessFamilyId.S4_G3, 4, 6, 5),
        (WitnessFamilyId.S4_G4, 4, 6, 8),
        (WitnessFamilyId.S4_G5, 4, 6, 9),
        (WitnessFamilyId.S4_G6, 4, 6, 12),
        (WitnessFamilyId.S4_G7, 5, 6, 13),
    ]
    for family, r, s, m in cases:
        assert build_witness(family, r, s, m).edge_count == m


def test_witness_preconditions_rejected():
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S3_G2, 3, 5)  # needs r >= 4
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G1, 4, 4, 4)  # needs m < r
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G3, 2, 2, 2)  # degenerate cell
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G4, 4, 5, 5)  # needs m >= s + 1
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G6, 4, 5, 11)  # needs s | m
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G7, 4, 5, 9)  # added star saturates x_1
    with pytest.raises(PreconditionViolated):
        build_witness(WitnessFamilyId.S4_G2, 3, 3, 2)  # needs m >= r


def test_witness_claimed_pairs_small():
    for r in range(1, 5):
        for s in range(r, 8 - r):
            for family in WitnessFamilyId:
                for m in (None,) if family.value.startswith("s3") else range(r * s // 2 + 1):
                    try:
                        g = build_witness(family, r, s, m)
                    except PreconditionViolated:
                        continue
                    assert kp_pair(g) == claimed_edge_connectivity_pair(family, r, s, m), (
                        family, r, s, m)


def test_witness_notes():
    assert witness_notes(WitnessFamilyId.S4_G3, 5, 5, 3)
    assert witness_notes(WitnessFamilyId.S4_G7, 5, 5, 11)
    assert not witness_notes(WitnessFamilyId.S4_G1, 5, 5, 3)


def test_dispatch_sum_upper_examples():
    family, g = dispatch_witness(BoundGoal.SUM_UPPER, 4, 5, 10)
    assert family is WitnessFamilyId.S4_G6
    assert metric_value("sum_edge", g) == 4

    family, g = dispatch_witness(BoundGoal.SUM_UPPER, 4, 5, 0)
    assert family is None and g.edge_count == 0
    assert metric_value("sum_edge", g) == 4


def test_dispatch_sum_lower_example():
    family, g = dispatch_witness(BoundGoal.SUM_LOWER, 5, 5, 3)
    assert family is WitnessFamilyId.S4_G1
    assert metric_value("sum_edge", g) == 2


def test_dispatch_rejects_invalid_triples():
    with pytest.raises(InvalidTriple):
        dispatch_witness(BoundGoal.SUM_UPPER, 5, 4, 3)
    with pytest.raises(InvalidTriple):
        dispatch_witness(BoundGoal.SUM_UPPER, 4, 5, 11)
    with pytest.raises(ValueError, match="unknown goal"):
        dispatch_witness("sum-upper", 4, 5, 10)


def test_dispatch_reports_no_witness_at_degenerate_cells():
    with pytest.raises(NoWitness):
        dispatch_witness(BoundGoal.SUM_UPPER, 2, 2, 2)


def test_dispatched_witnesses_hit_their_formulas():
    # Wherever a witness exists, its metric value must equal the formula.
    for r in range(1, 5):
        for s in range(r, 9 - r):
            for m in range(r * s // 2 + 1):
                triple = ParameterTriple(r, s, m)
                goals = (
                    (BoundGoal.SUM_LOWER, "sum_edge", sum_lower_sized(triple)),
                    (BoundGoal.SUM_UPPER, "sum_edge", N_upper(triple)),
                    (BoundGoal.PROD_UPPER, "prod_edge", M_upper(triple)),
                )
                for goal, metric, formula in goals:
                    try:
                        _, g = dispatch_witness(goal, r, s, m)
                    except NoWitness:
                        continue
                    assert metric_value(metric, g) == formula, (goal, r, s, m)


G1, G2, G3, G4, G5, G6, G7 = (WitnessFamilyId(f"s4-g{i}") for i in range(1, 8))

# (r, s, m) -> family chosen for (sum-lower, sum-upper, prod-upper); None is
# the empty graph, NoWitness a cell no family covers.
DISPATCH_TABLE = {
    (4, 5, 0): (G1, None, None),
    (4, 5, 3): (G1, G3, G1),
    (4, 5, 7): (G2, G4, G2),
    (4, 5, 8): (G2, G5, G5),
    (4, 5, 9): (G2, NoWitness, NoWitness),  # s4-g7's added star does not fit
    (4, 5, 10): (G2, G6, G6),
    (5, 6, 13): (G2, G7, G7),
    (2, 2, 2): (G2, NoWitness, G2),  # s4-g3 is degenerate at r = 2, m = s
}


@pytest.mark.parametrize("triple", DISPATCH_TABLE)
def test_dispatch_family_per_branch(triple):
    goals = (BoundGoal.SUM_LOWER, BoundGoal.SUM_UPPER, BoundGoal.PROD_UPPER)
    for goal, expected in zip(goals, DISPATCH_TABLE[triple]):
        if expected is NoWitness:
            with pytest.raises(NoWitness):
                dispatch_witness(goal, *triple)
            continue
        family, g = dispatch_witness(goal, *triple)
        assert family is expected, (goal, triple)
        assert g.edge_count == triple[2]


@pytest.mark.parametrize("family", list(WitnessFamilyId), ids=lambda f: f.value)
def test_empty_parts_and_missing_m_are_rejected_naming_the_family(family):
    sized = family.value.startswith("s4")
    for r, s in ((0, 0), (0, 2), (0, 5), (1, 0), (3, 0)):
        for m in (None, 0, 1, 2):
            for call in (build_witness, claimed_edge_connectivity_pair):
                with pytest.raises(PreconditionViolated, match=f"^{family.value}: "):
                    call(family, r, s, m)
    if sized:
        for call in (build_witness, claimed_edge_connectivity_pair):
            with pytest.raises(PreconditionViolated, match=f"^{family.value}: needs m"):
                call(family, 3, 4)
    else:
        assert claimed_edge_connectivity_pair(family, 4, 5) == kp_pair(build_witness(family, 4, 5))


def test_every_precondition_failure_names_its_family():
    # The claimed pair refuses exactly the triples the builder refuses, with
    # the same message, and is a pair of connectivities everywhere else. A
    # sized family builds only on the domain of the fixed-size bounds, so
    # s4-g3 at r = 1 with floor(s/2) < m <= s and s4-g5 at m = n - 1 >
    # floor(rs/2) (r = 2 for every s, and (3, 3, 5)) are refused. An unsized
    # s3-* family builds only without m.
    failures = 0
    for family in WitnessFamilyId:
        for r in range(1, 8):
            for s in range(1, 10):
                for m in (None, *range(-1, r * s + 2)):
                    try:
                        build_witness(family, r, s, m)
                    except PreconditionViolated as exc:
                        failures += 1
                        assert str(exc).startswith(f"{family.value}: "), (family, r, s, m, str(exc))
                        with pytest.raises(PreconditionViolated) as claimed:
                            claimed_edge_connectivity_pair(family, r, s, m)
                        assert str(claimed.value) == str(exc), (family, r, s, m)
                        continue
                    if family.value.startswith("s4"):
                        ParameterTriple(r, s, m)  # raises InvalidTriple off the domain
                    else:
                        assert m is None, (family, r, s, m)
                    pair = claimed_edge_connectivity_pair(family, r, s, m)
                    assert len(pair) == 2 and all(type(k) is int and k >= 0 for k in pair), (family, r, s, m, pair)
    assert failures > 0


# One triple each family builds; the type test swaps one parameter at a time.
BUILDABLE = {
    WitnessFamilyId.S3_G1: (3, 4, None),
    WitnessFamilyId.S3_G2: (4, 5, None),
    WitnessFamilyId.S4_G1: (4, 5, 2),
    WitnessFamilyId.S4_G2: (4, 6, 9),
    WitnessFamilyId.S4_G3: (4, 6, 5),
    WitnessFamilyId.S4_G4: (4, 6, 8),
    WitnessFamilyId.S4_G5: (4, 6, 9),
    WitnessFamilyId.S4_G6: (4, 6, 12),
    WitnessFamilyId.S4_G7: (5, 6, 13),
}


@pytest.mark.parametrize("family", list(WitnessFamilyId), ids=lambda f: f.value)
def test_parameters_that_are_not_ints_are_refused_naming_the_family(family):
    # A float or a bool once reached the builders: 4.0 raised TypeError in
    # range(), and True was read as 1. A str or None part reached the size
    # cap, which raised a bare TypeError comparing it with an int.
    triple = BUILDABLE[family]
    build_witness(family, *triple)
    for position in range(3):
        # None is a valid m for the unsized families and a missing one for the sized.
        for value in (4.0, True) if position == 2 else (4.0, True, "4", None):
            args = list(triple)
            args[position] = value
            expected = "takes no m" if triple[2] is None and position == 2 else "needs int"
            for call in (build_witness, claimed_edge_connectivity_pair):
                with pytest.raises(PreconditionViolated, match=f"^{family.value}: {expected}"):
                    call(family, *args)


def test_builders_admit_part_sizes_up_to_the_cap():
    cap = PART_MAX_SIZE
    g = bi_cayley(CayleySubset(cap, frozenset({0, cap - 1})))
    assert (g.left_size, g.right_size, g.edge_count) == (cap, cap, 2 * cap)
    g = build_witness(WitnessFamilyId.S3_G2, cap, cap)
    assert (g.left_size, g.right_size) == (cap, cap)
    assert degrees(g).min_degree == cap // 2


def test_builders_refuse_part_sizes_past_the_cap_before_any_graph(monkeypatch):
    big = PART_MAX_SIZE + 1
    message = rf"^part size {big} is more than the cap of {PART_MAX_SIZE}$"
    with pytest.raises(TooLarge, match=message):
        CayleySubset(big, frozenset({0, 1}))
    for family, row in list(constructions._FAMILIES.items()):
        monkeypatch.setitem(constructions._FAMILIES, family, row._replace(build=fail_if_reached))
    for family in WitnessFamilyId:
        for r, s in ((big, big), (1, big), (big, 1)):
            with pytest.raises(TooLarge, match=message):
                build_witness(family, r, s, big)
