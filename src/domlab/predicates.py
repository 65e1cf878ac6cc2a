"""Set predicates for k-tuple total (restrained) domination.

All predicates are pure. They take plain vertex collections, except
mask_is_ktds, which takes bitmasks for the solvers' inner loops. They are the
single source of truth that the solvers and witness validation defer to.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph


def _as_set(g: Graph, s: Iterable[int]) -> frozenset[int]:
    out = frozenset(s)
    bad = [v for v in out if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertices outside 0..{g.n - 1}: {sorted(bad)}")
    return out


def is_ktds(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff every vertex of g (inside or outside s) has >= k neighbors in s."""
    return not ktds_failures(g, s, k)


def is_ktrds(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff s is a kTDS and every vertex outside s has >= k neighbors outside s."""
    return not ktrds_failures(g, s, k)


def mask_is_ktds(masks: Sequence[int], smask: int, k: int,
                 restrained: bool) -> bool:
    """Bitmask form of is_ktds (is_ktrds when restrained).

    masks[v] is the neighbor mask of vertex v and smask the mask of S. The
    set forms (ktds_failures, ktrds_failures) stay the readable reference.
    """
    for nb in masks:
        if (nb & smask).bit_count() < k:
            return False
    if restrained:
        outside = ~smask
        for v, nb in enumerate(masks):
            if not (smask >> v) & 1 and (nb & outside).bit_count() < k:
                return False
    return True


def _is_partition_of(g: Graph, partition: Sequence[Iterable[int]], k: int,
                     pred) -> bool:
    parts = [_as_set(g, p) for p in partition]
    if not parts:
        return g.n == 0
    if sum(len(p) for p in parts) != g.n:
        return False
    if frozenset().union(*parts) != frozenset(range(g.n)):
        return False
    return all(pred(g, p, k) for p in parts)


def is_ktrdp(g: Graph, partition: Sequence[Iterable[int]], k: int) -> bool:
    """True iff the sets are pairwise disjoint, cover V(g), and each is a kTRDS."""
    return _is_partition_of(g, partition, k, is_ktrds)


def is_ktdp(g: Graph, partition: Sequence[Iterable[int]], k: int) -> bool:
    """Domatic-partition predicate for the non-restrained (total) variant."""
    return _is_partition_of(g, partition, k, is_ktds)


def ktds_failures(g: Graph, s: Iterable[int], k: int) -> list[str]:
    """Human-readable reasons a set fails the kTDS condition."""
    sset = _as_set(g, s)
    out = []
    for v in range(g.n):
        have = len(g.adj[v] & sset)
        if have < k:
            out.append(f"vertex {g.label(v)} has {have} neighbors in S, needs {k}")
    return out


def ktrds_failures(g: Graph, s: Iterable[int], k: int) -> list[str]:
    """Human-readable reasons a set fails the kTRDS condition."""
    sset = _as_set(g, s)
    out = ktds_failures(g, sset, k)
    for v in range(g.n):
        if v in sset:
            continue
        have = len(g.adj[v] - sset)
        if have < k:
            out.append(f"vertex {g.label(v)} outside S has {have} neighbors "
                       f"outside S, needs {k}")
    return out
