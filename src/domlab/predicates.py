"""Set predicates for k-tuple total (restrained) domination.

All predicates are pure. They take plain vertex collections, except
ktds_batch, which tests a whole batch of sets at once for the exhaustive
scans: each vertex's column is a bitmask over the sets of the batch. They are
the single source of truth that the solvers and witness validation defer to.
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


def ktds_batch(adj: Sequence[Iterable[int]], cols: Sequence[int], full: int,
               k: int, lo: int,
               restrained: bool) -> tuple[list[int], list[int]]:
    """Column form of is_ktds and is_ktrds over a batch of sets, for every
    k' from lo to k at once.

    adj[v] holds the neighbours of vertex v, bit i of cols[u] is set iff
    vertex u is in set i, and full has one bit per set. Returns (total,
    restr): total[k' - lo] masks the sets that are k'-tuple total dominating
    sets, and restr[k' - lo], when restrained, the ones that are also
    restrained (restr is empty otherwise). For each vertex v, k saturating
    bit-sliced counters add the columns of v's neighbours: bit i of plane j
    is set iff v has more than j neighbours in set i, so plane k' - 1 marks
    the sets where v has k'. Restrained, the same counters over the
    complements count the neighbours outside each set, which only the sets
    without v need, and only over the survivors, the sets that pass for lo.
    Every mask lies inside the one for lo, so each pass stops once that
    mask is empty. The set forms (ktds_failures, ktrds_failures) stay the
    readable reference.
    """
    # the counter loop is written out in both passes: a call per vertex
    # would cost more than the loop itself on the sweep's small batches.
    # ok is the mask for lo; more[j] the one for lo + 1 + j, which is
    # narrowed first, so that it lies inside ok whenever the pass stops
    top = k - 1
    ok = full
    more = [full] * (k - lo)
    for nbrs in adj:
        planes = [0] * k
        for u in nbrs:
            x = cols[u]
            j = top
            while j:
                planes[j] |= planes[j - 1] & x
                j -= 1
            planes[0] |= x
        for j in range(k - lo):
            more[j] &= planes[lo + j]
        ok &= planes[lo - 1]
        if not ok:
            break
    total = [ok, *more]
    if not restrained:
        return total, []
    # the restrained pass narrows the same masks further
    if ok:
        outs = [ok & ~c for c in cols]
        for v, nbrs in enumerate(adj):
            planes = [0] * k
            for u in nbrs:
                x = outs[u]
                j = top
                while j:
                    planes[j] |= planes[j - 1] & x
                    j -= 1
                planes[0] |= x
            cv = cols[v]
            for j in range(k - lo):
                more[j] &= cv | planes[lo + j]
            ok &= cv | planes[lo - 1]
            if not ok:
                break
    return total, [ok, *more]


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
