"""Immutable simple graphs: standard families, complements, prisms, coronas, joins.

Vertices are labeled 0..n-1 internally; 1-based labels appear only in I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

BAR = "̄"  # combining macron, renders "3" + BAR as the complement-copy label


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph with per-vertex neighbor sets.

    Invariants: no self-loops, symmetric adjacency. Instances are immutable
    and safe to share across threads. The adjacency bitmasks and min_degree
    are computed once, with the graph, because every solver call reads them;
    slots keep the extra fields from growing each instance.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] | None = None
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    min_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = []
        for a in self.adj:
            m = 0
            for w in a:
                m |= 1 << w
            masks.append(m)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "min_degree",
                           min(map(len, self.adj), default=0))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v + 1)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as integer bitmasks, one per vertex."""
        return self._masks


def _assemble(n: int, edge_set: set[tuple[int, int]],
              labels: tuple[str, ...] | None = None) -> Graph:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_set:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(map(frozenset, adj)), labels)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises ValueError naming the offending pair on self-loops or
    out-of-range endpoints.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edge_set: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range 0..{n - 1}: ({u}, {v})")
        edge_set.add((u, v) if u < v else (v, u))
    return _assemble(n, edge_set)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    return _assemble(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def cycle(n: int) -> Graph:
    """C_n on vertices 1..n (stored 0-based): path edges plus the edge {1, n}."""
    if n < 3:
        raise ValueError(f"cycle(n) needs n >= 3, got {n}")
    return _assemble(n, {(i, (i + 1) % n) if i + 1 < n else (0, n - 1)
                         for i in range(n)})


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    return _assemble(n, {(i, i + 1) for i in range(n - 1)})


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both sides >= 1")
    return complete_multipartite([a, b])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """K_{n1,...,np}: vertices grouped by part in order, edges across parts.

    The last few builds are kept and shared, since a Graph is immutable:
    callers such as t0_exact ask for the same parts several times in a row.
    """
    return _complete_multipartite(tuple(parts))


@lru_cache(maxsize=16)
def _complete_multipartite(parts: tuple[int, ...]) -> Graph:
    if len(parts) < 1 or any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {list(parts)}")
    n = sum(parts)
    part_of = []
    for i, p in enumerate(parts):
        part_of.extend([i] * p)
    edge_set = {(u, v) for u in range(n) for v in range(u + 1, n)
                if part_of[u] != part_of[v]}
    return _assemble(n, edge_set)


def complement(g: Graph) -> Graph:
    """Same vertex set and labels; uv an edge iff it is not one in g."""
    edge_set = {(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if v not in g.adj[u]}
    return _assemble(g.n, edge_set, g.labels)


def complementary_prism(g: Graph) -> Graph:
    """G joined to its complement by a perfect matching.

    Vertices 0..n-1 induce g, vertices n..2n-1 induce complement(g), and
    vertex i is matched to n+i. Labels follow the "i" / "i-bar" convention.
    """
    n = g.n
    edge_set = set(g.edges())
    edge_set |= {(n + u, n + v) for u, v in complement(g).edges()}
    for i in range(n):
        edge_set.add((i, n + i))
    labels = tuple(str(i + 1) for i in range(n)) + \
        tuple(str(i + 1) + BAR for i in range(n))
    return _assemble(2 * n, edge_set, labels)


def corona_k1(g: Graph) -> Graph:
    """G with one pendant vertex attached to each vertex."""
    n = g.n
    edge_set = set(g.edges())
    for i in range(n):
        edge_set.add((i, n + i))
    return _assemble(2 * n, edge_set)


def k_join(f: Graph, h: Graph, k: int) -> Graph:
    """Disjoint union of f and h plus an edge from every f-vertex to each of
    the h-vertices 0..k-1 (H vertices are shifted by n(f)).

    Raises ValueError unless 1 <= k <= n(H).
    """
    if not 1 <= k <= h.n:
        raise ValueError(f"k_join needs 1 <= k <= n(H), got n(H)={h.n}, k={k}")
    nf = f.n
    edge_set = set(f.edges())
    edge_set |= {(nf + u, nf + v) for u, v in h.edges()}
    edge_set |= {(i, nf + j) for i in range(nf) for j in range(k)}
    return _assemble(nf + h.n, edge_set)


def write_edge_list(g: Graph, fh) -> None:
    """Emit the text edge-list format: "n m" then one "u v" line per edge."""
    fh.write(f"{g.n} {g.num_edges}\n")
    for u, v in g.edges():
        fh.write(f"{u} {v}\n")


def _int_pair(line: str, kind: str) -> tuple[int, int]:
    toks = line.split()
    try:
        if len(toks) == 2:
            return int(toks[0]), int(toks[1])
    except ValueError:
        pass
    raise ValueError(f"bad {kind} line: {line!r}")


def read_edge_list(fh) -> Graph:
    """Parse the text edge-list format; '#' starts a comment line. An edge
    listed twice, in either orientation, is an error naming its line."""
    lines = [ln.strip() for ln in fh
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty edge-list input")
    n, m = _int_pair(lines[0], "header")
    edges = []
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        u, v = _int_pair(ln, "edge")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise ValueError(f"repeated edge line: {ln!r}")
        seen.add(pair)
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return build_graph(n, edges)
