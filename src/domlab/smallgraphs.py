"""Desk-scale isomorphism tools: canonical codes and exhaustive graph lists.

Brute-force permutation search with degree/refinement pruning; two graphs
are isomorphic iff their canonical codes are equal. all_graphs covers
n <= 7.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, build_graph


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
    color-respecting vertex orderings, with prefix pruning."""
    if g.n == 0:
        return (0,)
    colors = _refine_colors(g)
    n = g.n
    masks = g.neighbor_masks()
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


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All simple graphs on n vertices, one per isomorphism class.

    Built by extending the (n-1)-vertex list with every possible neighborhood
    for a new vertex and deduplicating by canonical code.
    """
    if n < 1 or n > 7:
        raise ValueError("exhaustive generation supports 1 <= n <= 7")
    if n == 1:
        return (build_graph(1, []),)
    seen: dict[tuple, Graph] = {}
    for base in all_graphs(n - 1):
        base_edges = base.edges()
        for nb in range(1 << (n - 1)):
            edges = list(base_edges)
            for w in range(n - 1):
                if (nb >> w) & 1:
                    edges.append((w, n - 1))
            g = build_graph(n, edges)
            seen.setdefault(canonical_code(g), g)
    return tuple(seen.values())
