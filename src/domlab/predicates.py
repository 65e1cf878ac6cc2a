"""Set predicates for k-tuple total (restrained) domination.

All predicates are pure and read a graph's adjacency bitmasks, counting each
vertex's neighbours inside and outside a set. The set form, failures, takes
a vertex collection and lists why it fails, in one pass over the vertices:
a kTRDS is a kTDS whose outside vertices also have k neighbours outside it,
so the restrained check is the total one plus a second count per vertex.
ktds_batch tests a whole batch of sets at once for the exhaustive scans:
each vertex's column is a bitmask over the sets of the batch. They are the
single source of truth that the solvers and witness validation defer to.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Sequence

from .graphs import Graph, bit_indices


def _mask(g: Graph, s: Iterable[int]) -> int:
    """The bitmask of the vertex set s; a vertex outside g raises ValueError."""
    out = frozenset(s)
    bad = [v for v in out if not 0 <= v < g.n]
    if bad:
        raise ValueError(f"vertices outside 0..{g.n - 1}: {sorted(bad)}")
    return sum(1 << v for v in out)


def failures(g: Graph, s: Iterable[int], k: int,
             restrained: bool) -> list[str]:
    """Human-readable reasons s fails the kTDS condition, or the kTRDS
    condition when restrained: every vertex with fewer than k neighbours in
    s, then every vertex outside s with fewer than k neighbours outside s."""
    s_mask = _mask(g, s)
    few_in, few_out = [], []
    for v, nb in enumerate(g.masks):
        have = (nb & s_mask).bit_count()
        if have < k:
            few_in.append(f"vertex {g.label(v)} has {have} neighbors in S, "
                          f"needs {k}")
        if restrained and not s_mask >> v & 1:
            have = (nb & ~s_mask).bit_count()
            if have < k:
                few_out.append(f"vertex {g.label(v)} outside S has {have} "
                               f"neighbors outside S, needs {k}")
    return few_in + few_out


def is_ktds(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff every vertex of g (inside or outside s) has >= k neighbors in s."""
    return not failures(g, s, k, False)


def is_ktrds(g: Graph, s: Iterable[int], k: int) -> bool:
    """True iff s is a kTDS and every vertex outside s has >= k neighbors outside s."""
    return not failures(g, s, k, True)


def ktds_batch(masks: Sequence[int], cols: Sequence[int], full: int,
               k: int, lo: int,
               restrained: bool) -> tuple[list[int], list[int]]:
    """Column form of is_ktds and is_ktrds over a batch of sets, for every
    k' from lo to k at once.

    masks[v] is the adjacency bitmask of vertex v, bit i of cols[u] is set
    iff vertex u is in set i, and full has one bit per set. Returns (total,
    restr): total[k' - lo] masks the sets that are k'-tuple total dominating
    sets, and restr[k' - lo], when restrained, the ones that are also
    restrained (restr is empty otherwise). For each vertex v, k saturating
    bit-sliced counters add the columns of v's neighbours: bit i of plane j
    is set iff v has more than j neighbours in set i, so plane k' - 1 marks
    the sets where v has k'. Restrained, a second pass runs the same
    counters over the complements to count the neighbours outside each set,
    which only the sets without v need, and only over the survivors, the
    sets that pass for lo. Each pass lets v pass on a skip column, the sets
    where v needs no count: none (0) in the first pass, cols[v] in the
    second. Every mask lies inside the one for lo, so each pass stops
    once that mask is empty. The set form (failures) stays the readable
    reference.
    """
    # the counter loop is inlined: a call per vertex would cost more than
    # the loop itself on the sweep's small batches.
    # ok is the mask for lo; more[j] the one for lo + 1 + j, which is
    # narrowed first, so that it lies inside ok whenever the pass stops
    nbrs = [bit_indices(m) for m in masks]
    top = k - 1
    ok = full
    more = [full] * (k - lo)
    counted, skips = cols, [0] * len(cols)
    out = []
    for _ in range(1 + restrained):
        for us, skip in zip(nbrs, skips):
            planes = [0] * k
            for u in us:
                x = counted[u]
                j = top
                while j:
                    planes[j] |= planes[j - 1] & x
                    j -= 1
                planes[0] |= x
            for j in range(k - lo):
                more[j] &= skip | planes[lo + j]
            ok &= skip | planes[lo - 1]
            if not ok:
                break
        out.append([ok, *more])
        # the restrained pass narrows the same masks further
        counted, skips = [ok & ~c for c in cols], cols
    return out[0], out[1] if restrained else []


def is_ktrdp(g: Graph, partition: Sequence[Iterable[int]], k: int) -> bool:
    """True iff the sets are disjoint, cover V(g), and each is a kTRDS.
    Each class is tested as a kTDS, which suffices here: a vertex outside
    one class lies in another, which holds k of its neighbours."""
    masks = [_mask(g, p) for p in partition]
    # the classes cover V, and their sizes add up to n only if disjoint
    if (sum(m.bit_count() for m in masks) != g.n
            or reduce(or_, masks, 0) != (1 << g.n) - 1):
        return False
    return not any(failures(g, bit_indices(m), k, False) for m in masks)
