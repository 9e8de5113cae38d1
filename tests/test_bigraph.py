import json

import pytest
from hypothesis import given

from bipcon import bigraph
from bipcon.bigraph import (
    PART_MAX_SIZE,
    BipartiteGraph,
    add_left_vertex,
    add_right_vertex,
    attach_vertex,
    bipartite_complement,
    degrees,
    format_edge_list,
    graph_from_json,
    graph_to_json,
    mask_of,
    new_graph,
    parse_edge_list,
    rows_of,
)
from bipcon.constructions import CayleySubset, bi_cayley
from bipcon.errors import DuplicateEdge, EmptyPart, IndexOutOfRange, TooLarge

from conftest import fail_if_reached, graphs


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


def test_graphs_compare_label_for_label():
    g = new_graph(2, 2, [(1, 1), (2, 2)])
    other = new_graph(2, 2, [(1, 2), (2, 1)])
    assert g == g
    assert g != other
    lhs = bipartite_complement(bi_cayley(CayleySubset(5, frozenset({0, 2}))))
    rhs = bi_cayley(CayleySubset(5, frozenset({1, 3, 4})))
    assert lhs == rhs


def test_mask_round_trip():
    g = new_graph(3, 4, [(1, 2), (2, 4), (3, 1)])
    assert BipartiteGraph.from_mask(3, 4, g.mask) == g
    # The packed layout: bit i*s + j is the edge x_{i+1} y_{j+1}, for every
    # (2,3) mask and a few of other shapes, r = 1 and s = 1 included, and
    # an empty part on either side.
    for r, s, masks in ((2, 3, range(1 << 6)), (3, 4, (0, 0b1010_0110_0001, (1 << 12) - 1)),
                        (1, 5, (0b10110,)), (4, 1, (0b1001,)), (3, 0, (0,)), (0, 2, (0,))):
        for mask in masks:
            rows = rows_of(r, s, mask)
            assert mask_of(s, rows) == mask
            g = BipartiteGraph(r, s, rows)
            assert g.mask == mask
            assert [(i + 1, j + 1) for i in range(r) for j in range(s) if mask >> (i * s + j) & 1] == g.edges()


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
    {"r": 2.5, "s": 2, "edges": []},
    {"r": 2, "s": 2, "edges": [[1.9, 1]]},
    {"r": True, "s": 2, "edges": []},
    {"r": "2", "s": 2, "edges": []},
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
    with pytest.raises(IndexOutOfRange, match=r"^left index 5 outside \[1,2\]$"):
        add_right_vertex(g, [5])
    with pytest.raises(IndexOutOfRange, match=r"^right index 3 outside \[1,2\]$"):
        add_left_vertex(g, [1, 3])
    with pytest.raises(IndexOutOfRange, match=r"^right index 0 outside \[1,2\]$"):
        add_left_vertex(g, [0])
    for add, part in ((add_right_vertex, "left"), (add_left_vertex, "right")):
        with pytest.raises(DuplicateEdge, match=rf"^{part} index 1 given twice$"):
            add(g, [1, 1])


def test_attach_vertex_grows_the_packed_rows():
    # Every (2,3) graph with every neighbor set of a new y_4 or x_3: the rows
    # hold exactly the old edges plus those of the new vertex.
    for mask in range(1 << 6):
        g = BipartiteGraph.from_mask(2, 3, mask)
        for attach in range(1 << 2):
            grown = BipartiteGraph(*attach_vertex(2, 3, g.adjacency, "right", attach))
            assert grown.edges() == sorted(g.edges() + [(i + 1, 4) for i in range(2) if attach >> i & 1])
        for attach in range(1 << 3):
            grown = BipartiteGraph(*attach_vertex(2, 3, g.adjacency, "left", attach))
            assert grown.edges() == g.edges() + [(3, j + 1) for j in range(3) if attach >> j & 1]


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


def test_graph_input_checks_name_the_fault():
    with pytest.raises(ValueError, match="^part sizes must be nonnegative$"):
        BipartiteGraph(-1, 2, ())
    with pytest.raises(ValueError, match="^expected 2 adjacency rows, got 1$"):
        BipartiteGraph(2, 2, (1,))
    for row in (0b100, -1):
        with pytest.raises(ValueError, match="^adjacency row has bits outside the right part$"):
            BipartiteGraph(1, 2, (row,))
    for mask in (1 << 4, -1):
        with pytest.raises(ValueError, match=r"^mask has bits outside the r\*s grid$"):
            BipartiteGraph.from_mask(2, 2, mask)
    g = new_graph(2, 3, [(1, 1)])
    for i, j in ((3, 1), (0, 1), (1, 4)):
        with pytest.raises(IndexOutOfRange, match=rf"^edge \({i}, {j}\) outside \[1,2\]x\[1,3\]$"):
            g.has_edge(i, j)
    with pytest.raises(ValueError, match="^line 3: expected two integers, got '1 x'$"):
        parse_edge_list("2 2\n# a comment\n1 x\n")
    with pytest.raises(ValueError, match="^line 1: expected two integers, got '2.0 2'$"):
        parse_edge_list("2.0 2\n")
    with pytest.raises(ValueError, match="^line 1: part sizes must be nonnegative$"):
        parse_edge_list("2 -1\n")


def test_edge_list_fields_are_ascii_digits_with_an_optional_sign():
    # int() also reads digit separators and non-ASCII digits; the format does not.
    for line in ("1_0 1", "1 2_0", "\u0661 1", "1 \uff11", "\u09e7\u09e8 1"):
        with pytest.raises(ValueError, match=f"^line 2: expected two integers, got {line!r}$"):
            parse_edge_list(f"12 12\n{line}\n")
    with pytest.raises(ValueError, match="^line 1: expected two integers, got '1_2 2'$"):
        parse_edge_list("1_2 2\n")
    assert parse_edge_list("+2 02\n+1 2\n") == new_graph(2, 2, [(1, 2)])
    with pytest.raises(IndexOutOfRange, match=r"^edge \(-1, 1\) outside \[1,2\]x\[1,2\]$"):
        parse_edge_list("2 2\n-1 1\n")


def test_readers_admit_part_sizes_up_to_the_cap():
    cap = PART_MAX_SIZE
    assert parse_edge_list(f"{cap} {cap}\n") == BipartiteGraph(cap, cap, (0,) * cap)
    assert parse_edge_list(f"2 {cap}\n2 {cap}\n") == new_graph(2, cap, [(2, cap)])
    assert graph_from_json({"r": cap, "s": 1, "edges": [[cap, 1]]}) == new_graph(cap, 1, [(cap, 1)])


def test_readers_refuse_part_sizes_past_the_cap_before_any_graph(monkeypatch):
    monkeypatch.setattr(bigraph, "new_graph", fail_if_reached)
    big = PART_MAX_SIZE + 1
    message = rf"^part size {big} is more than the cap of {PART_MAX_SIZE}$"
    for text in (f"{big} {big}\n", f"2 {big}\n1 1\n", f"{big} 2\n"):
        with pytest.raises(TooLarge, match=message):
            parse_edge_list(text)
    with pytest.raises(TooLarge, match="^part size 2000000 is more than"):
        parse_edge_list("2 2000000\n")
    for r, s in ((big, 1), (1, big)):
        with pytest.raises(TooLarge, match=message):
            graph_from_json({"r": r, "s": s, "edges": [[1, 1]]})
