"""Exact solvers: domination numbers, domatic numbers, multipartite t0.

gamma_exact runs the branch-and-bound kernel _gamma_search. gamma_naive is the
independent oracle: an unpruned scan of subset_masks with
predicates.mask_is_ktds that shares nothing with the kernel except the
predicates module. subset_masks is the one exhaustive subset loop; it also
drives enumerate_optimal_sets and the sweep's property suite. t0_exact tests
one set per vector of part counts, with the same predicate. domatic_exact and
enumerate_domatic_partitions share one class-assignment search for both
variants and re-check each partition it returns with is_ktrdp or is_ktdp.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from typing import Iterator, Sequence

from .graphs import Graph, complete_multipartite
from .predicates import is_ktdp, is_ktds, is_ktrdp, is_ktrds, mask_is_ktds

VARIANT_TOTAL = "total"
VARIANT_RESTRAINED = "total-restrained"


def active_backend() -> str:
    """Name of the kernel gamma_exact uses."""
    return "pure-python"


def normalize_variant(variant: str) -> str:
    if variant in (VARIANT_TOTAL,):
        return VARIANT_TOTAL
    if variant in (VARIANT_RESTRAINED, "restrained"):
        return VARIANT_RESTRAINED
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class DominationQuery:
    graph: Graph
    k: int
    variant: str = VARIANT_RESTRAINED

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        object.__setattr__(self, "variant", normalize_variant(self.variant))

    @property
    def restrained(self) -> bool:
        return self.variant == VARIANT_RESTRAINED


@dataclass(frozen=True)
class SolveResult:
    """feasible=False marks instances with no valid set (min degree < k)."""

    feasible: bool
    value: int | None
    certificate: object  # frozenset, tuple of frozensets, or None
    nodes_explored: int = 0


@dataclass(frozen=True)
class MultipartiteAnalysis:
    t0: int
    gamma_value: int


@dataclass(frozen=True)
class Guards:
    """Instance-size caps, one per search; desk scale varies by machine, so
    these are config. gamma_n caps the kernel (gamma_exact), naive_n every
    exhaustive scan (gamma_naive, enumerate_optimal_sets, t0_exact) and
    domatic_n the domatic search (domatic_exact,
    enumerate_domatic_partitions)."""

    naive_n: int = 24
    gamma_n: int = 20
    domatic_n: int = 14

    @classmethod
    def from_env(cls) -> "Guards":
        override = os.environ.get("DOMLAB_GUARD_N")
        if not override:
            return cls()
        try:
            v = int(override)
        except ValueError:
            v = 0
        if v < 1:
            raise ValueError("DOMLAB_GUARD_N must be an integer >= 1, got "
                             f"{override!r}")
        return cls(naive_n=v, gamma_n=v, domatic_n=v)


DEFAULT_GUARDS = Guards()


class GuardExceeded(ValueError):
    pass


def _guard(n: int, guards: Guards, field: str, what: str) -> None:
    limit = getattr(guards, field)
    if n > limit:
        raise GuardExceeded(
            f"{what} guard: n={n} exceeds {field}={limit} (library callers "
            f"pass Guards({field}=...); the CLI reads DOMLAB_GUARD_N)")


def subset_masks(n: int) -> Iterator[int]:
    """Every subset of range(n) as a bitmask, by increasing size and, within
    a size, in the lexicographic order of combinations(range(n), size)."""
    bits = [1 << v for v in range(n)]
    for size in range(n + 1):
        for combo in combinations(bits, size):
            yield sum(combo)


def _vertices(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def gamma_exact(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Minimum kTDS/kTRDS size via the pruned search (_gamma_search)."""
    g = q.graph
    _guard(g.n, guards, "gamma_n", "gamma_exact")
    if g.min_degree < q.k:
        return SolveResult(False, None, None)
    value, cert_mask, nodes = _gamma_search(g.neighbor_masks(), q.k,
                                            q.restrained)
    return SolveResult(True, value, _vertices(cert_mask), nodes)


def gamma_naive(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Independent oracle: unpruned subset scan in increasing cardinality.

    The first set that passes is re-checked with the set-form predicate.
    With minimum degree at least k the scan stops by V at the latest: V is
    then a kTDS, and a kTRDS because no vertex lies outside it.
    """
    g = q.graph
    _guard(g.n, guards, "naive_n", "gamma_naive")
    if g.min_degree < q.k:
        return SolveResult(False, None, None)
    masks = g.neighbor_masks()
    k, restrained = q.k, q.restrained
    for checked, smask in enumerate(subset_masks(g.n), 1):
        if mask_is_ktds(masks, smask, k, restrained):
            break
    cert = _vertices(smask)
    if not (is_ktrds if restrained else is_ktds)(g, cert, k):
        raise RuntimeError(f"gamma_naive: {sorted(cert)} passes the bitmask "
                           "predicate but not the set form")
    return SolveResult(True, len(cert), cert, checked)


def enumerate_optimal_sets(q: DominationQuery,
                           guards: Guards = DEFAULT_GUARDS) -> list[frozenset[int]]:
    """All minimum-cardinality sets for the variant (empty if infeasible)."""
    g = q.graph
    _guard(g.n, guards, "naive_n", "enumerate_optimal_sets")
    if g.min_degree < q.k:
        return []
    masks = g.neighbor_masks()
    k, restrained = q.k, q.restrained
    hits: list[int] = []
    for smask in subset_masks(g.n):
        if hits and smask.bit_count() > hits[0].bit_count():
            break
        if mask_is_ktds(masks, smask, k, restrained):
            hits.append(smask)
    return [_vertices(m) for m in hits]


def t0_exact(parts: Sequence[int], k: int,
             guards: Guards = DEFAULT_GUARDS) -> MultipartiteAnalysis:
    """Scan every kTRDS of the complete multipartite graph K_parts.

    Vertices of one part are twins, so whether S is a kTRDS depends only on
    the counts c_i = |S ∩ part i|. The scan tests one set per count vector,
    the first c_i vertices of each part, with mask_is_ktds. t(S) counts parts
    not fully inside S; t0 is its minimum over proper kTRDS (the full vertex
    set always has t = 0, so t0 = 0 exactly when no proper kTRDS exists, i.e.
    gamma equals n).
    """
    _guard(sum(parts), guards, "naive_n", "t0_exact")
    g = complete_multipartite(parts)
    if g.min_degree < k:
        raise ValueError(f"K_{tuple(parts)} has min degree {g.min_degree} "
                         f"< k={k}")
    masks = g.neighbor_masks()
    starts = [sum(parts[:i]) for i in range(len(parts))]
    gamma = g.n
    t0 = 0
    for counts in product(*(range(p + 1) for p in parts)):
        smask = sum(((1 << c) - 1) << a for c, a in zip(counts, starts))
        if not mask_is_ktds(masks, smask, k, True):
            continue
        gamma = min(gamma, sum(counts))
        t = sum(c < p for c, p in zip(counts, parts))
        if t and (not t0 or t < t0):
            t0 = t
    return MultipartiteAnalysis(t0, gamma)


def domatic_exact(q: DominationQuery,
                  guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Maximum kTRDP/kTDP class count via backtracking class assignment.

    Both variants run the same search (see _domatic_search). Class counts
    are tried descending from min(n // (k+1), min_degree // k); vertex 0 is
    pinned to class 0 and classes appear in first-use order, so the
    certificate is deterministic. It is re-checked with is_ktrdp or is_ktdp.
    """
    g = q.graph
    _guard(g.n, guards, "domatic_n", "domatic_exact")
    if g.min_degree < q.k:
        return SolveResult(False, 0, None)
    masks = g.neighbor_masks()
    cap = min(g.n // (q.k + 1), g.min_degree // q.k)
    nodes = 0
    for d in range(cap, 1, -1):
        found, searched = _domatic_search(masks, q.k, d, first_only=True)
        nodes += searched
        if found:
            return SolveResult(True, d, _partition(q, found[0]), nodes)
    return SolveResult(True, 1, _partition(q, ((1 << g.n) - 1,)), nodes)


def enumerate_domatic_partitions(q: DominationQuery, d: int,
                                 guards: Guards = DEFAULT_GUARDS
                                 ) -> list[tuple[frozenset[int], ...]]:
    """All d-class partitions whose classes satisfy the variant predicate
    (classes in first-use order, so label permutations are deduplicated)."""
    g = q.graph
    _guard(g.n, guards, "domatic_n", "enumerate_domatic_partitions")
    if g.min_degree < q.k:
        return []
    found, _ = _domatic_search(g.neighbor_masks(), q.k, d, first_only=False)
    return [_partition(q, classes) for classes in found]


def _partition(q: DominationQuery,
               class_masks: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Class masks as vertex sets, re-checked with the set-form predicate."""
    g = q.graph
    part = tuple(_vertices(m) for m in class_masks)
    if not (is_ktrdp if q.restrained else is_ktdp)(g, part, q.k):
        raise RuntimeError(f"domatic search: {[sorted(c) for c in part]} is "
                           f"not a {'kTRDP' if q.restrained else 'kTDP'}")
    return part


def _gamma_search(masks: Sequence[int], k: int,
                  restrained: bool) -> tuple[int, int, int]:
    """Minimum size of a kTDS (kTRDS when restrained) over the adjacency
    bitmasks; returns (value, certificate mask, nodes), the certificate being
    the first minimum set in enumerate_optimal_sets' order. The caller
    ensures n >= 1 and minimum degree >= k.

    Iterative deepening over the size s. A node (a call of search) holds S,
    the excluded set X, the budget b = s - |S| and bit-sliced counters cov:
    plane j, at bit j*n, masks the vertices with more than j neighbours in
    S. The deficit D, the sum of max(0, k - |N(v) & S|), is k*n minus the
    set bits of cov.

    Branching: the deficient vertex v with the fewest neighbours outside X
    (least slack; ties to the lowest index) branches over its undecided
    neighbours u1, u2, ... in index order: include u1; exclude u1, include
    u2; ... while v can still be covered. With b = 1 the one vertex left
    must be adjacent to every deficient vertex, so such nodes close at once.

    Forcing (restrained): vertices of degree <= 2k-1 start in S. A vertex
    outside S left with fewer than k neighbours outside S is forced in if
    undecided and ends the branch if excluded; after including u only u's
    neighbours with k neighbours in S and degree below s + k are tested.

    Pruning: s starts at k + 1 and at the smallest s whose s largest degrees
    sum to k*n; restrained, s in (n-k-1, n) is skipped, since a proper
    kTRDS leaves at least k + 1 vertices outside. A branch dies when a vertex
    lacks more than b (plane k-1-b of cov is not full) or has fewer than k
    neighbours outside X. Once X is not empty and D > b, it dies when
    deficient vertices with pairwise disjoint undecided neighbourhoods need
    more than b inclusions (packing).

    Certificate: at s = gamma, with the witness w found, vertices are
    decided in index order. The first undecided vertex below w's last one
    and not in w is tried by one search, with w's vertices below it
    included: on a hit it joins S and the hit becomes w, else it is
    excluded. So each decision keeps the first optimal set consistent with
    the ones before, and the final w is the first optimal set. gamma_naive
    is the independent oracle this search is tested against.
    """
    n = len(masks)
    full = (1 << n) - 1
    kn = k * n
    deg = [nb.bit_count() for nb in masks]
    s = max(bisect_left(list(accumulate(sorted(deg, reverse=True))), kn) + 1,
            k + 1)
    dmin = min(deg)
    forced = 0
    if restrained:
        if s > n - k - 1:
            return (n, full, 0)
        if dmin < 2 * k:
            forced = sum(1 << v for v, d in enumerate(deg) if d < 2 * k)
    # bit j*n of planes is set for each j < k, so nb * planes copies the
    # mask nb into every plane of cov
    planes = ((1 << kn) - 1) // full
    top = (k - 1) * n
    nodes = 0
    # the vertices an inclusion can starve at the current level
    risky = full

    def include(S, X, b, cov, todo):
        """Include the vertices of todo and the restrained closure; the new
        (S, b, cov), or None when that breaks a prune."""
        while todo:
            low = todo & -todo
            todo ^= low
            if not b:
                return None
            nb = masks[low.bit_length() - 1]
            cov |= ((cov << n) | nb) & nb * planes
            S |= low
            b -= 1
            if restrained:
                ws = nb & (cov >> top) & risky & ~(S | todo)
                out = ~S
                while ws:
                    w = ws & -ws
                    ws ^= w
                    if (masks[w.bit_length() - 1] & out).bit_count() < k:
                        if X & w:
                            return None
                        todo |= w
        if b < k and (cov >> (k - 1 - b) * n) & full != full:
            return None
        return S, b, cov

    def search(S, X, b, cov):
        """A solution extending S and avoiding X, or -1."""
        nonlocal nodes
        nodes += 1
        short = full & ~(cov >> top)
        if not short:
            return S
        U = full & ~(S | X)
        if b == 1:
            cand = U
            vs = short
            while vs:
                low = vs & -vs
                vs ^= low
                cand &= masks[low.bit_length() - 1]
            while cand:
                low = cand & -cand
                cand ^= low
                if include(S, X, 1, cov, low):
                    return S | low
            return -1
        notX = ~X
        lo = max(k, dmin - X.bit_count())
        best = n
        vs = short
        while vs:
            low = vs & -vs
            vs ^= low
            nb = masks[low.bit_length() - 1]
            a = (nb & notX).bit_count()
            if a < best:
                best, vnb = a, nb
                if a <= lo:
                    break
        D = kn - cov.bit_count()
        if X and D > b:
            used = packed = 0
            vs = short
            while vs:
                low = vs & -vs
                vs ^= low
                nu = masks[low.bit_length() - 1] & U
                if not nu & used:
                    used |= nu
                    packed |= low
            if (k * packed.bit_count()
                    - (cov & packed * planes).bit_count() > b):
                return -1
        cand = vnb & U
        for _ in range(best - k + 1):
            low = cand & -cand
            cand ^= low
            st = include(S, X, b, cov, low)
            if st:
                r = search(st[0], X, st[1], st[2])
                if r >= 0:
                    return r
            X |= low
        return -1

    S0, _, cov0 = include(0, 0, n, 0, forced)
    m0 = S0.bit_count()
    s = max(s, m0)
    while True:
        if restrained and s > n - k - 1:
            s = n
        if s == n:
            return (n, full, nodes)
        if restrained:
            risky = sum(1 << v for v, d in enumerate(deg) if d < s + k)
        b = s - m0
        if b >= k or (cov0 >> (k - 1 - b) * n) & full == full:
            w = search(S0, 0, b, cov0)
            if w >= 0:
                break
        s += 1

    # w is a witness; the vertices below a gap are decided, so the first
    # gap (a vertex outside w below w's last vertex) is tried with a search
    S, X, b, cov = S0, 0, s - m0, cov0
    while gaps := ((1 << w.bit_length()) - 1) & ~(w | X):
        bit = gaps & -gaps
        if w & (bit - 1) & ~S:
            S, b, cov = include(S, X, b, cov, w & (bit - 1) & ~S)
        st = include(S, X, b, cov, bit)
        r = search(st[0], X, st[1], st[2]) if st else -1
        if r < 0:
            X |= bit
        else:
            w = r
            S, b, cov = st
    return (s, w, nodes)


def _domatic_search(masks: Sequence[int], k: int, d: int,
                    first_only: bool) -> tuple[list[tuple[int, ...]], int]:
    """Assign vertices 0..n-1 to d classes so that every vertex has k
    neighbours in every class; returns (class-mask tuples, nodes).

    A branch dies once some vertex's deficit, the sum over classes of
    max(0, k - |N(v) ∩ C|), exceeds its unassigned neighbours. At a leaf
    every deficit is 0, so every class is a kTDS. Every class is then a
    kTRDS as well: a vertex outside one class lies in another and has k
    neighbours there. So one search serves both variants.
    """
    n = len(masks)
    classes = [0] * d
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def feasible(i: int) -> bool:
        for nb in masks:
            need = 0
            for cm in classes:
                in_c = (nb & cm).bit_count()
                if in_c < k:
                    need += k - in_c
            if need > (nb >> i).bit_count():
                return False
        return True

    def rec(i: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if d - used > n - i:
            return False
        if i == n:
            solutions.append(tuple(classes))
            return first_only
        bit = 1 << i
        for c in range(min(used + 1, d)):
            classes[c] |= bit
            if feasible(i + 1) and rec(i + 1, max(used, c + 1)):
                return True
            classes[c] &= ~bit
        return False

    rec(0, 0)
    return (solutions, nodes)
