"""Immutable simple graphs: standard families, complements, prisms, coronas, joins.

Vertices are labeled 0..n-1 internally; 1-based labels appear only in I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

BAR = "̄"  # combining macron, renders "3" + BAR as the complement-copy label


def bit_indices(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertices whose bits are set in mask."""
    return frozenset(bit_indices(mask))


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph, stored as one adjacency bitmask per vertex.

    Bit w of masks[v] is set iff vw is an edge; the masks are the only
    stored adjacency. Callers that construct a Graph directly keep the
    invariants: no self-loops (bit v of masks[v] clear), symmetric masks
    and no bit at or above len(masks); build_graph checks an edge list from
    outside the program. Equality and hashing use masks and labels. The
    order n = len(masks) and min_degree are derived once, with the graph;
    degrees, edges and adj are computed from the masks on each access.
    Instances are immutable and safe to share across threads.
    """

    masks: tuple[int, ...]
    labels: tuple[str, ...] | None = None
    n: int = field(init=False, repr=False, compare=False)
    min_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.masks))
        object.__setattr__(self, "min_degree",
                           min(map(int.bit_count, self.masks), default=0))

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        """The neighbour set of each vertex, built from the masks."""
        return tuple(map(mask_vertices, self.masks))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    @property
    def max_degree(self) -> int:
        return max(map(int.bit_count, self.masks), default=0)

    @property
    def num_edges(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, in ascending order."""
        # m & -(2 << u) keeps the neighbours of u above u
        return [(u, v) for u, m in enumerate(self.masks)
                for v in bit_indices(m & -(2 << u))]

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return str(v + 1)


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises ValueError naming the offending pair on self-loops or
    out-of-range endpoints.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    masks = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop rejected: ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"endpoint out of range 0..{n - 1}: ({u}, {v})")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(tuple(masks))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    full = (1 << n) - 1
    return Graph(tuple(full ^ 1 << v for v in range(n)))


def cycle(n: int) -> Graph:
    """C_n on vertices 1..n (stored 0-based): path edges plus the edge {1, n}."""
    if n < 3:
        raise ValueError(f"cycle(n) needs n >= 3, got {n}")
    return Graph(tuple(1 << (v - 1) % n | 1 << (v + 1) % n
                       for v in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    full = (1 << n) - 1
    return Graph(tuple(((1 << v) >> 1 | 1 << v + 1) & full
                       for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both sides >= 1")
    return complete_multipartite([a, b])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """K_{n1,...,np}: vertices grouped by part in order, edges across parts."""
    if len(parts) < 1 or any(p < 1 for p in parts):
        raise ValueError(f"part sizes must be positive, got {list(parts)}")
    n = sum(parts)
    full = (1 << n) - 1
    masks = []
    for p in parts:
        masks += [full ^ ((1 << p) - 1) << len(masks)] * p
    return Graph(tuple(masks))


def _complement_masks(g: Graph) -> tuple[int, ...]:
    full = (1 << g.n) - 1
    return tuple(full ^ m ^ 1 << v for v, m in enumerate(g.masks))


def complement(g: Graph) -> Graph:
    """Same vertex set and labels; uv an edge iff it is not one in g."""
    return Graph(_complement_masks(g), g.labels)


def complementary_prism(g: Graph) -> Graph:
    """G joined to its complement by a perfect matching.

    Vertices 0..n-1 induce g, vertices n..2n-1 induce complement(g), and
    vertex i is matched to n+i. Labels follow the "i" / "i-bar" convention.
    """
    n = g.n
    masks = tuple(m | 1 << n + v for v, m in enumerate(g.masks)) + \
        tuple(m << n | 1 << v for v, m in enumerate(_complement_masks(g)))
    labels = tuple(str(i + 1) for i in range(n)) + \
        tuple(str(i + 1) + BAR for i in range(n))
    return Graph(masks, labels)


def corona_k1(g: Graph) -> Graph:
    """G with one pendant vertex attached to each vertex."""
    n = g.n
    masks = tuple(m | 1 << n + v for v, m in enumerate(g.masks)) + \
        tuple(1 << v for v in range(n))
    return Graph(masks)


def k_join(f: Graph, h: Graph, k: int) -> Graph:
    """Disjoint union of f and h plus an edge from every f-vertex to each of
    the h-vertices 0..k-1 (H vertices are shifted by n(f)).

    Raises ValueError unless 1 <= k <= n(H).
    """
    if not 1 <= k <= h.n:
        raise ValueError(f"k_join needs 1 <= k <= n(H), got n(H)={h.n}, k={k}")
    nf = f.n
    to_f = (1 << nf) - 1
    to_h = ((1 << k) - 1) << nf
    masks = tuple(m | to_h for m in f.masks) + \
        tuple(m << nf | (to_f if j < k else 0) for j, m in enumerate(h.masks))
    return Graph(masks)


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
