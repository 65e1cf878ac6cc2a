import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import domlab
from domlab.graphs import (Graph, build_graph, complement, complementary_prism,
                           complete, corona_k1, cycle)
from domlab.smallgraphs import GRAPHS, all_graphs

# number of non-isomorphic simple graphs on 1..7 vertices
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)


def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighbor-color refinement; returns a stable color per vertex."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in g.adj[v])))
                for v in range(g.n)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_code(g: Graph) -> tuple:
    """Canonical form: lexicographically minimal adjacency rows over all
    color-respecting vertex orderings, with prefix pruning. Two graphs are
    isomorphic iff their codes are equal."""
    if g.n == 0:
        return (0,)
    colors = _refine_colors(g)
    n = g.n
    masks = g.masks
    # vertices must be placed in nondecreasing color order
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors[v], []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    slot_cell = []
    for ci, cell in enumerate(cells):
        slot_cell.extend([ci] * len(cell))

    best: list[int] | None = None

    def rec(pos: int, placed: list[int], used: set[int], rows: list[int]):
        nonlocal best
        if pos == n:
            if best is None or rows < best:
                best = list(rows)
            return
        for v in cells[slot_cell[pos]]:
            if v in used:
                continue
            row = 0
            for j, w in enumerate(placed):
                if (masks[v] >> w) & 1:
                    row |= 1 << j
            rows.append(row)
            prefix_ok = best is None or rows <= best[:pos + 1]
            if prefix_ok:
                placed.append(v)
                used.add(v)
                rec(pos + 1, placed, used, rows)
                used.remove(v)
                placed.pop()
            rows.pop()

    rec(0, [], set(), [])
    assert best is not None
    return (n, tuple(best))


def generate_graph_lists(max_n: int) -> list[tuple[Graph, ...]]:
    """The derivation of the shipped lists: the graphs on n vertices are the
    (n-1)-vertex ones extended by a vertex n-1 joined to every subset of the
    others, deduplicated by canonical code, first graph of a class kept."""
    lists = [(build_graph(1, []),)]
    for n in range(2, max_n + 1):
        seen: dict[tuple, Graph] = {}
        for base in lists[-1]:
            base_edges = base.edges()
            for nb in range(1 << (n - 1)):
                edges = base_edges + [(w, n - 1) for w in range(n - 1)
                                      if (nb >> w) & 1]
                g = build_graph(n, edges)
                seen.setdefault(canonical_code(g), g)
        lists.append(tuple(seen.values()))
    return lists


def encode(g: Graph) -> str:
    """One line of GRAPHS: n, then the row-major upper-triangle bits in hex."""
    bits = 0
    for i, (u, v) in enumerate(combinations(range(g.n), 2)):
        if v in g.adj[u]:
            bits |= 1 << i
    return f"{g.n} {bits:x}\n"


@pytest.mark.parametrize("n", range(1, 8))
def test_nonisomorphic_counts(n):
    assert len(all_graphs(n)) == GRAPH_COUNTS[n - 1]


@pytest.mark.parametrize("n", [0, 8])
def test_all_graphs_rejects_sizes_outside_the_lists(n):
    with pytest.raises(ValueError, match="1 <= n <= 7"):
        all_graphs(n)


def test_shipped_lists_regenerate_byte_for_byte():
    lists = generate_graph_lists(7)
    assert "".join(encode(g) for graphs in lists for g in graphs) == GRAPHS
    for n, graphs in enumerate(lists, start=1):
        assert all_graphs(n) == graphs


@pytest.mark.parametrize("n", range(1, 8))
def test_decoder_matches_build_graph_on_pair_lists(n):
    lines = [line.split() for line in GRAPHS.splitlines()]
    bits = [int(b, 16) for size, b in lines if int(size) == n]
    pairs = list(combinations(range(n), 2))
    for g, mask in zip(all_graphs(n), bits, strict=True):
        ref = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        assert (g.masks, g.adj, g.labels) == (ref.masks, ref.adj, None)


# bytes per decoded graph: about 164 when graphs hold only their masks,
# 296 when they also keep a tuple of shared neighbour sets, about 1,950 when
# each builds its own n frozensets
BYTES_PER_GRAPH = 220

# run in a fresh interpreter: small tuples that earlier tests freed are
# reused from the interpreter's free lists, which tracemalloc does not see
DECODE_HELD = """
import tracemalloc
from domlab.smallgraphs import all_graphs
tracemalloc.start()
lists = [all_graphs(n) for n in range(2, 8)]
print(tracemalloc.get_traced_memory()[0], sum(map(len, lists)))
"""


def test_decoded_lists_stay_small():
    src = str(Path(domlab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", DECODE_HELD], env=env,
                         capture_output=True, text=True, check=True).stdout
    held, count = map(int, out.split())
    assert count == sum(GRAPH_COUNTS[1:])
    assert held < BYTES_PER_GRAPH * count


def test_shipped_lists_match_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = Counter(canonical_code(build_graph(a.number_of_nodes(), a.edges()))
                    for a in nx.graph_atlas_g() if 1 <= a.number_of_nodes() <= 7)
    ours = Counter(canonical_code(g) for n in range(1, 8) for g in all_graphs(n))
    # one graph per isomorphism class on both sides, and the same classes
    assert set(atlas.values()) == {1} and set(ours.values()) == {1}
    assert ours == atlas


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
