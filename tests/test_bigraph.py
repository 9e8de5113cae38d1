import json

import pytest
from hypothesis import given

from bipcon.bigraph import (
    BipartiteGraph,
    add_left_vertex,
    add_right_vertex,
    bipartite_complement,
    degrees,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    graphs_equal,
    new_graph,
    parse_edge_list,
)
from bipcon.constructions import CayleySubset, bi_cayley
from bipcon.errors import DuplicateEdge, EmptyPart, IndexOutOfRange

from conftest import graphs


def test_new_graph_perfect_matching():
    g = new_graph(2, 2, [(1, 1), (2, 2)])
    assert g.edge_count == 2
    assert g.edges() == [(1, 1), (2, 2)]


def test_new_graph_empty():
    g = new_graph(3, 3, [])
    assert g.edge_count == 0
    assert g.edges() == []


def test_new_graph_star():
    g = new_graph(1, 4, [(1, 1), (1, 2), (1, 3), (1, 4)])
    assert g.edge_count == 4
    assert degrees(g).max_degree == 4


def test_new_graph_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        new_graph(2, 2, [(3, 1)])
    with pytest.raises(IndexOutOfRange):
        new_graph(2, 2, [(1, 0)])


def test_new_graph_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        new_graph(2, 2, [(1, 1), (1, 1)])


def test_complement_of_empty_is_complete():
    g = new_graph(4, 5, [])
    gc = bipartite_complement(g)
    assert gc.edge_count == 20
    assert all(gc.has_edge(i, j) for i in range(1, 5) for j in range(1, 6))


def test_complement_of_matching_is_six_cycle():
    matching = bi_cayley(CayleySubset(3, frozenset({0})))
    assert matching.edges() == [(1, 1), (2, 2), (3, 3)]
    assert bipartite_complement(matching) == bi_cayley(CayleySubset(3, frozenset({1, 2})))


def test_complement_involution_example():
    g = new_graph(2, 3, [(1, 1), (2, 3)])
    assert bipartite_complement(bipartite_complement(g)) == g


def test_degrees_complete_bipartite():
    g = new_graph(2, 3, [(i, j) for i in (1, 2) for j in (1, 2, 3)])
    d = degrees(g)
    assert (d.min_degree, d.max_degree) == (2, 3)
    assert d.left_degrees == (3, 3)
    assert d.right_degrees == (2, 2, 2)


def test_degrees_matching():
    g = new_graph(3, 3, [(1, 1), (2, 2), (3, 3)])
    d = degrees(g)
    assert d.min_degree == d.max_degree == 1


def test_degrees_bicayley_biregular():
    d = degrees(bi_cayley(CayleySubset(4, frozenset({0, 1}))))
    assert d.min_degree == d.max_degree == 2


def test_degrees_rejects_empty_part():
    with pytest.raises(EmptyPart):
        degrees(BipartiteGraph(0, 3, ()))


def test_graphs_equal():
    g = new_graph(2, 2, [(1, 1), (2, 2)])
    other = new_graph(2, 2, [(1, 2), (2, 1)])
    assert graphs_equal(g, g)
    assert not graphs_equal(g, other)
    lhs = bipartite_complement(bi_cayley(CayleySubset(5, frozenset({0, 2}))))
    rhs = bi_cayley(CayleySubset(5, frozenset({1, 3, 4})))
    assert graphs_equal(lhs, rhs)


def test_mask_round_trip():
    g = new_graph(3, 4, [(1, 2), (2, 4), (3, 1)])
    assert BipartiteGraph.from_mask(3, 4, g.mask) == g


def test_edge_list_text_round_trip():
    g = new_graph(2, 3, [(1, 1), (1, 3), (2, 2)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_parser_skips_comments_and_blanks():
    text = "# header comment\n\n2 2\n1 1\n# middle\n2 2\n"
    assert parse_edge_list(text) == new_graph(2, 2, [(1, 1), (2, 2)])


def test_edge_list_parser_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n1\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(IndexOutOfRange):
        parse_edge_list("2 2\n5 1\n")


def test_json_round_trip():
    g = new_graph(2, 3, [(2, 3), (1, 1)])
    blob = json.dumps(graph_to_json(g))
    assert graph_from_json(json.loads(blob)) == g
    assert graph_to_json(g)["edges"] == [[1, 1], [2, 3]]


@pytest.mark.parametrize("obj", [
    {"r": 2, "s": 2, "edges": [1]},
    {"r": 2, "s": 2, "edges": None},
    {"r": 2, "s": 2, "edges": [[1, None]]},
    {"r": None, "s": 2, "edges": []},
    {"r": "a", "s": 2, "edges": []},
    {"r": 2, "s": 2},
    [2, 2],
])
def test_malformed_json_graph_raises_value_error(obj):
    with pytest.raises(ValueError):
        graph_from_json(obj)


def test_add_vertices():
    g = new_graph(2, 2, [(1, 1)])
    bigger = add_right_vertex(g, [1, 2])
    assert bigger.right_size == 3
    assert bigger.has_edge(1, 3) and bigger.has_edge(2, 3)
    taller = add_left_vertex(g, [2])
    assert taller.left_size == 3
    assert taller.has_edge(3, 2)
    with pytest.raises(IndexOutOfRange):
        add_right_vertex(g, [5])


@given(graphs())
def test_complement_is_involution(g):
    assert bipartite_complement(bipartite_complement(g)) == g


@given(graphs())
def test_edge_count_conservation(g):
    assert g.edge_count + bipartite_complement(g).edge_count == g.left_size * g.right_size


@given(graphs())
def test_degree_complementarity(g):
    d = degrees(g)
    dc = degrees(bipartite_complement(g))
    assert all(a + b == g.right_size for a, b in zip(d.left_degrees, dc.left_degrees))
    assert all(a + b == g.left_size for a, b in zip(d.right_degrees, dc.right_degrees))


@given(graphs())
def test_serialization_round_trips(g):
    assert parse_edge_list(format_edge_list(g)) == g
    assert graph_from_json(graph_to_json(g)) == g
