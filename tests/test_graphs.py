import io

import pytest

from domlab.graphs import (build_graph, complement, complementary_prism,
                           complete, complete_bipartite,
                           complete_multipartite, corona_k1, cycle, k_join,
                           path, read_edge_list, write_edge_list)


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_complete_degrees():
    g = complete(6)
    assert g.num_edges == 15
    assert all(g.degree(v) == 5 for v in range(6))


def test_cycle_structure():
    g = cycle(5)
    assert g.num_edges == 5
    assert 4 in g.adj[0]
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_path_endpoints():
    g = path(5)
    assert g.degree(0) == g.degree(4) == 1
    assert g.num_edges == 4


def test_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert g.n == 7 and g.num_edges == 12
    assert g.degree(0) == 4 and g.degree(6) == 3


def test_complete_multipartite_degrees():
    g = complete_multipartite([2, 2, 2])
    assert g.n == 6 and all(g.degree(v) == 4 for v in range(6))


def test_complement_involution():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert complement(complement(g)).adj == g.adj


def test_complement_edge_count():
    g = cycle(6)
    assert g.num_edges + complement(g).num_edges == 15


def test_complementary_prism_shape():
    # complement of C4 is a perfect matching: cycle side degree 3, bar side 2
    g = complementary_prism(cycle(4))
    assert g.n == 8
    assert [g.degree(v) for v in range(4)] == [3, 3, 3, 3]
    assert [g.degree(v) for v in range(4, 8)] == [2, 2, 2, 2]
    # restricting to each half recovers the factor and its complement
    assert [(u, v) for u, v in g.edges() if v < 4] == cycle(4).edges()
    assert [(u - 4, v - 4) for u, v in g.edges() if u >= 4] == \
        complement(cycle(4)).edges()
    crossing = [(u, v) for u, v in g.edges() if u < 4 <= v]
    assert crossing == [(i, i + 4) for i in range(4)]


def test_prism_labels():
    g = complementary_prism(cycle(4))
    assert g.label(0) == "1"
    assert g.label(4).startswith("1")
    assert g.label(4) != "1"


def test_corona_pendants():
    g = corona_k1(complete(3))
    assert g.n == 6
    assert sorted(g.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]


def test_k_join_default_assignment():
    g = k_join(cycle(4), complete(2), 1)
    assert g.n == 6
    # every cycle vertex gains exactly one edge into H's first vertex
    assert g.degree(4) == 1 + 4
    assert g.degree(5) == 1


@pytest.mark.parametrize("k", [0, -1, 3])
def test_k_join_rejects_k_outside_1_to_nh(k):
    with pytest.raises(ValueError, match=r"1 <= k <= n\(H\)"):
        k_join(path(2), complete(2), k)


def test_edge_list_roundtrip():
    g = complementary_prism(cycle(5))
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    h = read_edge_list(buf)
    assert h.adj == g.adj


def test_read_edge_list_comments_and_errors():
    g = read_edge_list(io.StringIO("# petersen-ish\n3 2\n0 1\n1 2\n"))
    assert g.n == 3 and g.num_edges == 2
    with pytest.raises(ValueError, match="promises"):
        read_edge_list(io.StringIO("3 2\n0 1\n"))


@pytest.mark.parametrize("text, message", [
    ("3 x\n0 1\n", "bad header line: '3 x'"),
    ("3\n", "bad header line: '3'"),
    ("3 1\n0 a\n", "bad edge line: '0 a'"),
    ("3 1\n0 1 2\n", "bad edge line: '0 1 2'"),
    ("3 2\n0 1\n1 0\n", "repeated edge line: '1 0'"),
])
def test_read_edge_list_names_bad_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_edge_list(io.StringIO(text))
    assert str(exc.value) == message
