import math

import pytest

from conftest import CATALOG, SMALL_CATALOG, brute_chromatic, brute_girth
from semitrans import (
    BoundExceeded,
    Coloring,
    FormatError,
    Graph,
    MissingEdge,
    chromatic_number,
    chvatal,
    circulant,
    complete,
    cycle,
    degree_profile,
    delete_edge,
    girth,
    grotzsch,
    is_connected,
    is_proper,
    is_triangle_free,
    kneser,
    proper_coloring,
    read_edge_list,
    toft,
    write_edge_list,
)


def test_construction_validates():
    with pytest.raises(Exception):
        Graph(3, [(0, 3)])
    with pytest.raises(Exception):
        Graph(3, [(-1, 0)])
    with pytest.raises(Exception):
        Graph(3, [(1, 1)])


def test_edges_deduped_and_sorted():
    g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.edge_count == 2


def test_adjacency_symmetric():
    for g in CATALOG.values():
        for u, v in g.edges:
            assert g.adjacent(u, v) and g.adjacent(v, u)
        for v in range(g.n):
            assert not g.adjacent(v, v)


def test_neighbors_and_degree():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3 and g.degree(1) == 1


def test_equality_and_hash():
    assert cycle(5) == cycle(5)
    assert hash(cycle(5)) == hash(cycle(5))
    assert cycle(5) != cycle(6)


def test_delete_edge():
    g = delete_edge(chvatal(), 4, 5)
    assert g.n == 12 and len(g.edges) == 23
    p = delete_edge(cycle(4), 0, 1)
    assert p.edges == ((0, 3), (1, 2), (2, 3))
    with pytest.raises(MissingEdge):
        delete_edge(cycle(4), 0, 2)


def test_is_connected():
    assert is_connected(cycle(5))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(1, []))


def test_girth_examples():
    assert girth(cycle(7)) == 7
    assert girth(grotzsch()) == 4
    assert girth(toft(5)) == 4
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == math.inf
    assert girth(Graph(3, [])) == math.inf


def test_girth_matches_cycle_enumeration():
    # oracle equivalence on every catalog graph with <= 12 vertices
    checked = 0
    for name, g in CATALOG.items():
        if g.n > 12:
            continue
        assert girth(g) == brute_girth(g), name
        checked += 1
    assert checked >= 25


def test_triangle_free():
    assert is_triangle_free(chvatal())
    assert not is_triangle_free(complete(3))
    assert not is_triangle_free(circulant(14, [1, 3, 4, 5]))
    for g in CATALOG.values():
        assert is_triangle_free(g) == (girth(g) > 3)


def test_chromatic_examples():
    assert chromatic_number(grotzsch()) == 4
    assert chromatic_number(circulant(13, [1, 5])) == 4
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(chvatal()) == 4
    assert chromatic_number(Graph(3, [])) == 1
    assert chromatic_number(Graph(0, [])) == 0


def test_chromatic_matches_brute_force():
    for name, g in SMALL_CATALOG.items():
        if g.n <= 8:
            assert chromatic_number(g) == brute_chromatic(g), name


def test_chromatic_bound():
    assert kneser(8, 3).n == 56
    with pytest.raises(BoundExceeded):
        chromatic_number(kneser(8, 3))
    # raising the bound is allowed
    assert chromatic_number(toft(5), max_vertices=20) == 4


def test_proper_coloring():
    c = proper_coloring(cycle(5), 3)
    assert c is not None and c.num_colors <= 3
    assert is_proper(cycle(5), c)
    assert proper_coloring(grotzsch(), 3) is None
    c4 = proper_coloring(complete(4), 4)
    assert sorted(c4.colors) == [0, 1, 2, 3]
    # deterministic for fixed input
    assert proper_coloring(cycle(7), 3).colors == proper_coloring(cycle(7), 3).colors


def test_coloring_type():
    c = Coloring((0, 1, 0))
    assert c.num_colors == 2 and c.color_of(1) == 1
    assert is_proper(Graph(3, [(0, 1), (1, 2)]), c)
    assert not is_proper(Graph(3, [(0, 2)]), c)


def test_degree_profile():
    assert degree_profile(chvatal()) == (4, 4, True)
    assert degree_profile(circulant(13, [1, 5])) == (4, 4, True)
    # layer degrees: cycle+matching = 3, K_{n,n}+matching = n+1
    assert degree_profile(toft(5)) == (3, 6, False)
    assert degree_profile(Graph(3, [])) == (0, 0, True)


EDGE_FILE = """# a square
4
0 1
1 2
2 3
0 3
"""


def test_read_edge_list():
    g = read_edge_list(EDGE_FILE)
    assert g == cycle(4)


def test_write_edge_list_bit_exact():
    text = write_edge_list(cycle(4))
    assert text == "4\n0 1\n0 3\n1 2\n2 3\n"
    assert read_edge_list(text) == cycle(4)
    for g in CATALOG.values():
        assert read_edge_list(write_edge_list(g)) == g


@pytest.mark.parametrize(
    "bad",
    [
        "not a number\n",
        "3\n0 5\n",
        "3\n1 1\n",
        "3\n0 1\n0 1\n",
        "3\n0 1 2\n",
        "",
    ],
)
def test_read_edge_list_rejects(bad):
    with pytest.raises(FormatError):
        read_edge_list(bad)


def test_format_error_carries_position():
    try:
        read_edge_list("3\n0 1\n0 9\n")
    except FormatError as e:
        assert "line 3" in str(e)
    else:
        raise AssertionError("expected FormatError")
