import pytest

from bipcon.bigraph import bipartite_complement, degrees, graphs_equal
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
from bipcon.errors import BadSubset, InvalidTriple, NoWitness, PreconditionViolated
from bipcon.verifier import metric_value


def kp_pair(g):
    return (edge_connectivity(g).value, edge_connectivity(bipartite_complement(g)).value)


def test_cayley_subset_validation():
    with pytest.raises(BadSubset):
        CayleySubset(3, frozenset({3}))
    with pytest.raises(BadSubset):
        CayleySubset(0, frozenset())
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


def test_bi_cayley_extra_right_vertices_start_isolated():
    g = bi_cayley(CayleySubset(3, frozenset({0, 1})), extra_right=2)
    assert (g.left_size, g.right_size) == (3, 5)
    assert degrees(g).right_degrees[3:] == (0, 0)


def test_complement_of_bicayley_flips_the_subset_exhaustively():
    for r in range(1, 6):
        for smask in range(1 << r):
            subset = CayleySubset(r, frozenset(a for a in range(r) if smask >> a & 1))
            lhs = bipartite_complement(bi_cayley(subset))
            rhs = bi_cayley(subset.complement())
            assert graphs_equal(lhs, rhs), (r, sorted(subset.members))


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


def test_every_precondition_failure_names_its_family():
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
    assert failures > 0
