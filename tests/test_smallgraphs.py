from itertools import combinations

import pytest

from domlab.graphs import (build_graph, complement, complementary_prism,
                           complete, corona_k1, cycle)
from domlab.smallgraphs import all_graphs, canonical_code

# number of non-isomorphic simple graphs on 1..7 vertices
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)


@pytest.mark.parametrize("n", range(1, 8))
def test_nonisomorphic_counts(n):
    assert len(all_graphs(n)) == GRAPH_COUNTS[n - 1]


def test_canonical_code_invariant_under_relabeling():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    perm = [3, 0, 4, 1, 2]
    h = build_graph(5, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_code(g) == canonical_code(h)


def test_canonical_code_separates():
    assert canonical_code(cycle(6)) != canonical_code(complete(4))


def kneser_5_2():
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[a], idx[b]) for a in pairs for b in pairs
             if idx[a] < idx[b] and not (set(a) & set(b))]
    return build_graph(10, edges)


def test_prism_of_c5_is_petersen():
    assert canonical_code(complementary_prism(cycle(5))) == \
        canonical_code(kneser_5_2())


def test_prism_of_k3_is_corona():
    assert canonical_code(complementary_prism(complete(3))) == \
        canonical_code(corona_k1(complete(3)))


def test_c5_self_complementary():
    assert canonical_code(complement(cycle(5))) == canonical_code(cycle(5))


def test_not_isomorphic_same_degree_sequence():
    # C6 vs two triangles: both 2-regular on 6 vertices
    two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0),
                                    (3, 4), (4, 5), (5, 3)])
    assert canonical_code(cycle(6)) != canonical_code(two_triangles)


def test_all_graphs_pairwise_distinct_codes():
    codes = [canonical_code(g) for g in all_graphs(5)]
    assert len(set(codes)) == len(codes)
