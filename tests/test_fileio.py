import pytest

from stripmwis.errors import ParseError
from stripmwis.fileio import fields, read_graph, write_graph
from stripmwis.generate import generate_random_instance

from helpers import same_graph


def test_p3_parse():
    text = "c a comment\np 3 2\nv 1 4\nv 2 5\nv 3 6\ne 1 2\ne 2 3\n"
    G = read_graph(text)
    assert G.n == 3 and G.edge_count() == 2
    assert G.weight_of(1) == 4 and G.weight_of(3) == 6
    assert G.has_edge_labels(1, 2) and not G.has_edge_labels(1, 3)


def test_round_trip_is_canonical():
    messy = "p 3 2\nv 2 5\nv 1 4\nv 3 6\ne 2 3\ne 1 2\n"
    G = read_graph(messy)
    canon = write_graph(G)
    assert same_graph(read_graph(canon), G)
    assert canon == write_graph(read_graph(canon))


def test_round_trip_random():
    # the writer renumbers to 1..n in positional order, so compare the
    # text fixpoint and the positional structure
    for seed in range(5):
        G = generate_random_instance(15, 4, 2, seed)
        text = write_graph(G)
        back = read_graph(text)
        assert write_graph(back) == text
        assert back.weights == G.weights
        assert back.edges_ids() == G.edges_ids()


@pytest.mark.parametrize("text,lineno", [
    ("p 2 0\nv 1 -3\nv 2 1\n", 2),              # negative weight
    ("p 2 2\nv 1 1\nv 2 1\ne 1 2\ne 2 1\n", 5),  # duplicate edge
    ("p 2 1\nv 1 1\nv 2 1\ne 1 3\n", 4),         # out of range id
    ("p 2 1\nv 1 1\nv 2 1\ne 1\n", 4),           # malformed edge line
    ("p 1 0\nv 1 1\nv 1 2\n", 3),                # duplicate vertex
    ("v 1 1\n", 1),                               # body before header
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        read_graph(text)
    assert err.value.line == lineno


def test_count_mismatches_detected():
    with pytest.raises(ParseError):
        read_graph("p 2 1\nv 1 1\nv 2 1\n")
    with pytest.raises(ParseError):
        read_graph("p 2 0\nv 1 1\n")


def test_list_fields_hold_distinct_integers():
    form = "eta e <x> <y> : ... | ... | ..."
    # one label in two lists of a line is legal, twice in one list is not
    assert fields(1, "eta e 0 1 : 4 5 | 4 | 5".split(), form) == [0, 1, [4, 5], [4], [5]]
    with pytest.raises(ParseError) as err:
        fields(7, "eta e 0 1 : 4 5 4 | 4 | 5".split(), form)
    assert err.value.line == 7
