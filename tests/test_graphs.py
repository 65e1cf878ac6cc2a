import io
import random
from collections import Counter

import pytest

from domlab.graphs import (BAR, Graph, build_graph, complement,
                           complementary_prism, complete, complete_bipartite,
                           complete_multipartite, corona_k1, cycle, k_join,
                           path, read_edge_list, write_edge_list)
from domlab.smallgraphs import all_graphs
from domlab.solver import (VARIANT_TOTAL, DominationQuery, domatic_exact,
                           gamma_exact, gamma_naive)
from domlab.verify import random_graph


def test_graph_stores_only_masks():
    # degrees, edges and the neighbour sets are computed from the masks
    assert Graph.__slots__ == ("masks", "labels", "n", "min_degree")
    g = cycle(5)
    assert g.adj == (frozenset({1, 4}), frozenset({0, 2}), frozenset({1, 3}),
                     frozenset({2, 4}), frozenset({0, 3}))


def test_graph_from_masks_alone_agrees_in_every_solver():
    g = Graph((0b110, 0b101, 0b011))
    assert g.n == 3
    assert g == complete(3) and hash(g) == hash(complete(3))
    q = DominationQuery(g, 1, VARIANT_TOTAL)
    assert gamma_exact(q).value == gamma_naive(q).value == 2
    dres = domatic_exact(g, 1)
    assert dres.value == 1 and dres.certificate == (frozenset({0, 1, 2}),)


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        build_graph(3, [(0, 1), (2, 2)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("build, args, message", [
    (build_graph, (-1, []), "vertex count must be nonnegative, got -1"),
    (complete, (0,), "complete(n) needs n >= 1"),
    (path, (0,), "path(n) needs n >= 1"),
    (complete_bipartite, (0, 2), "complete_bipartite needs both sides >= 1"),
])
def test_builders_reject_an_empty_order(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


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
    assert h.masks == g.masks


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
    ("# a comment\n\n  # another\n", "empty edge-list input"),
])
def test_read_edge_list_names_bad_line(text, message):
    with pytest.raises(ValueError) as exc:
        read_edge_list(io.StringIO(text))
    assert str(exc.value) == message


# ------------------------------------------------ mask builders vs edge lists

def assert_same_graph(g, n, edges, labels=None):
    """g is the graph build_graph makes from the edge list, with labels, and
    its degrees and edges are the edge list's."""
    ref = build_graph(n, edges)
    assert (g.n, g.masks, g.adj, g.labels) == (n, ref.masks, ref.adj, labels)
    ordered = sorted({(min(u, v), max(u, v)) for u, v in edges})
    ends = Counter(v for e in ordered for v in e)
    degrees = [ends[v] for v in range(n)]
    assert g.edges() == ordered and g.num_edges == len(ordered)
    assert [g.degree(v) for v in range(n)] == degrees
    assert (g.min_degree, g.max_degree) == \
        (min(degrees, default=0), max(degrees, default=0))


def pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def prism_labels(n):
    return tuple(str(i + 1) for i in range(n)) + \
        tuple(str(i + 1) + BAR for i in range(n))


# the second factor of every k_join below
JOINED = random_graph(random.Random(3), 9, 0.5)
FACTORS = [*all_graphs(4), *all_graphs(5)[::7], JOINED,
           random_graph(random.Random(4), 13, 0.3), complete_bipartite(4, 6)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 17])
def test_families_match_edge_lists(n):
    assert_same_graph(complete(n), n, pairs(n))
    assert_same_graph(path(n), n, [(i, i + 1) for i in range(n - 1)])
    if n >= 3:
        assert_same_graph(cycle(n), n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("parts", [[1], [3], [1, 1], [2, 3], [1, 2, 3],
                                   [2, 2, 2, 3], [5, 6]])
def test_complete_multipartite_matches_edge_list(parts):
    part_of = [i for i, p in enumerate(parts) for _ in range(p)]
    n = len(part_of)
    assert_same_graph(complete_multipartite(parts), n,
                      [(u, v) for u, v in pairs(n) if part_of[u] != part_of[v]])


@pytest.mark.parametrize("g", FACTORS)
def test_derived_graphs_match_edge_lists(g):
    n, edges = g.n, g.edges()
    non_edges = [(u, v) for u, v in pairs(n) if v not in g.adj[u]]
    assert_same_graph(complement(g), n, non_edges)
    labelled = complementary_prism(g)
    assert_same_graph(complement(labelled), 2 * n,
                      [(u, v) for u, v in pairs(2 * n)
                       if v not in labelled.adj[u]], prism_labels(n))
    matching = [(i, n + i) for i in range(n)]
    assert_same_graph(labelled, 2 * n,
                      edges + [(n + u, n + v) for u, v in non_edges] + matching,
                      prism_labels(n))
    assert_same_graph(corona_k1(g), 2 * n, edges + matching)
    h = JOINED
    for k in (1, h.n // 2, h.n):
        assert_same_graph(k_join(g, h, k), n + h.n,
                          edges + [(n + u, n + v) for u, v in h.edges()]
                          + [(i, n + j) for i in range(n) for j in range(k)])


@pytest.mark.parametrize("seed", [0, 1, 7, 20230417])
def test_random_graph_matches_edge_list_draws(seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(4, 13):
        for p in (0.3, 0.5, 0.7):
            edges = [(u, v) for u, v in pairs(n) if theirs.random() < p]
            assert_same_graph(random_graph(ours, n, p), n, edges)
    # the same number of draws, so later draws line up too
    assert ours.getstate() == theirs.getstate()
