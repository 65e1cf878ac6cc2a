"""Exact solvers: domination numbers, domatic numbers, multipartite t0.

gamma_exact runs the branch-and-bound kernel _gamma_search. gamma_naive is the
independent oracle: an unpruned scan of every subset that shares nothing with
the kernel except the predicates module. gamma_naive_all runs the same scan
once for every k up to a bound and both variants of one graph, and
gamma_naive is its one-pair case. subset_levels is the one exhaustive subset
loop. It yields the subsets by increasing size in batches of columns, whole
sizes joined until a batch holds BATCH_SETS sets, which
predicates.ktds_batch tests at once for every k it is asked for; it also
drives the sweep's property suite; t0_exact tests one set per vector of
part counts, likewise. Each enumerator is the rest of its solver's search:
enumerate_optimal_sets lists the hits of gamma_naive's size in the batch
where its scan stopped, and enumerate_domatic_partitions every partition of
the class-assignment search whose first one domatic_exact takes; neither
takes a variant, as the two domatic numbers are one (see domatic_exact).
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, takewhile
from math import comb, prod
from operator import neg
from typing import Iterator, Sequence

from .graphs import Graph, bit_indices, complete_multipartite, mask_vertices
from .predicates import is_ktds, is_ktrdp, is_ktrds, ktds_batch

VARIANT_TOTAL = "total"
VARIANT_RESTRAINED = "total-restrained"

# the fewest sets a subset batch holds, the last batch aside. ktds_batch
# pays a fixed interpreter cost per vertex and neighbour whatever the batch
# width, and below a few thousand sets that cost outweighs the bit operations,
# so small sizes are joined (every n <= 12 is one batch). A batch ends at the
# first size that takes it to this many sets, so on a large n every size past
# the first few is a batch of its own, and a scan builds and tests little
# past the size where it stops.
BATCH_SETS = 4096


def active_backend() -> str:
    """Name of the kernel gamma_exact uses."""
    return "pure-python"


@dataclass(frozen=True)
class DominationQuery:
    graph: Graph
    k: int
    variant: str = VARIANT_RESTRAINED

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.variant not in (VARIANT_TOTAL, VARIANT_RESTRAINED):
            raise ValueError(f"unknown variant {self.variant!r}")

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


def _timed(fn, *args, **kw):
    """fn's result and the milliseconds it took; a SolveResult carries no
    time, so callers that report one time the call."""
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, (time.perf_counter() - t0) * 1000.0


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


def subset_levels(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every subset of range(n), by increasing size, as batches (count, cols).

    Bit i of cols[u] is set iff vertex u is in set i of the batch. The sets
    of each size run in the order of combinations(range(n), size), and
    consecutive sizes are joined into one batch until it holds at least
    BATCH_SETS sets (so every n <= 12 is one batch). Batches are built when
    first asked for and kept in a bounded cache.
    """
    size = 0
    while size <= n:
        count, cols, size = _batch(n, size)
        yield count, cols


@lru_cache(maxsize=128)
def _batch(n: int, size: int) -> tuple[int, tuple[int, ...], int]:
    """The batch that starts with the size-subsets of range(n), as
    (count, cols, the size the next batch starts with); it ends at the first
    size that takes it to BATCH_SETS sets.

    All its sizes come from one Pascal recursion on the first vertex: the
    sets containing it come first, then the ones without it, each part over
    the remaining vertices in the same order. row[t] holds the t-subsets of
    the last m vertices, for the t that can still reach a size of the batch.
    """
    count, end = 0, size
    while end <= n and count < BATCH_SETS:
        count += comb(n, end)
        end += 1
    row = {0: (1, ())}
    for m in range(1, n + 1):
        none = (0, (0,) * (m - 1))
        new = {}
        for t in range(max(0, size - n + m), min(end - 1, m) + 1):
            a, inc = row.get(t - 1, none)
            b, exc = row.get(t, none)
            new[t] = (a + b, ((1 << a) - 1,
                              *(x | y << a for x, y in zip(inc, exc))))
        row = new
    count, cols = row[size]
    for t in range(size + 1, end):
        more, level = row[t]
        cols = tuple(x | y << count for x, y in zip(cols, level))
        count += more
    return count, cols, end


def _column_set(cols: Sequence[int], i: int) -> frozenset[int]:
    """Set i of a batch of columns, as vertices."""
    return frozenset(u for u, c in enumerate(cols) if c >> i & 1)


# (masks, k, value, certificate mask) of gamma_exact's last total solve
_last_total: tuple = (None, 0, 0, 0)


def gamma_exact(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Minimum kTDS/kTRDS size via the pruned search (_gamma_search).

    The certificate is the minimum set the search finds. gamma_naive gives
    the first one in subset order, which enumerate_optimal_sets lists first.

    Every kTRDS is a kTDS, so γ_t <= γ^r. A total solve keeps (masks, k,
    γ_t, its certificate's mask) in _last_total. A restrained solve whose
    graph has the same masks tuple (by identity: the slot holds it, so its
    id is not reused) and the same k first tests that set with is_ktrds: a
    kTRDS of γ_t vertices proves γ^r = γ_t, so the solve returns it with
    no search (nodes_explored = 0). Otherwise it starts its search at γ_t.
    So a restrained solve's node count depends on the call before it:
    prism:cycle:16 at k = 1 takes 211 nodes alone and none right after its
    total. Its value does not, and its certificate is an optimal kTRDS
    either way. The slot is one tuple, read once and replaced whole, so a
    thread sees either its own total or another (masks, k, γ_t, set),
    which is only used when it is the same graph and k and so holds the
    same γ_t and a kTDS of that size.
    """
    global _last_total
    g = q.graph
    _guard(g.n, guards, "gamma_n", "gamma_exact")
    if g.min_degree < q.k:
        return SolveResult(False, None, None)
    masks = g.masks
    if q.restrained:
        seen, k, floor, cert_mask = _last_total
        if seen is masks and k == q.k:
            cert = mask_vertices(cert_mask)
            if is_ktrds(g, cert, q.k):
                return SolveResult(True, floor, cert, 0)
        else:
            floor = 0
        value, cert_mask, nodes = _gamma_search(masks, q.k, True, floor)
    else:
        value, cert_mask, nodes = _gamma_search(masks, q.k, False)
        _last_total = (masks, q.k, value, cert_mask)
    return SolveResult(True, value, mask_vertices(cert_mask), nodes)


def gamma_naive(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Independent oracle: unpruned subset scan in increasing cardinality.

    The certificate is the first set of the variant in subset_levels'
    order, found by the scan gamma_naive_all runs for many pairs at once
    (_naive_scan); nodes_explored is its 1-based rank in that order.
    """
    return _naive_scan(q.graph, (q.k,), (q.variant,),
                       guards)[q.k, q.variant][0]


def gamma_naive_all(g: Graph, kmax: int, guards: Guards = DEFAULT_GUARDS
                    ) -> dict[tuple[int, str], SolveResult]:
    """gamma_naive's result for every k <= kmax and both variants of g,
    keyed by (k, variant), from one scan of the subsets."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    found = _naive_scan(g, range(1, kmax + 1),
                        (VARIANT_TOTAL, VARIANT_RESTRAINED), guards)
    return {pair: res for pair, (res, _, _) in found.items()}


def _naive_scan(g: Graph, ks: Sequence[int], variants: Sequence[str],
                guards: Guards) -> dict[tuple[int, str], tuple]:
    """The first set of each (k, variant) pair in one scan of
    subset_levels(g.n), as (result, cols, hits): the batch where the scan
    found it and the pair's hit mask there (() and 0 when infeasible).

    Each batch is tested with one ktds_batch call for every k still open,
    from the least to the greatest. A pair's first set is the lowest bit of
    its mask in the first batch where that is not empty; it is re-checked
    with the set-form predicate, and its rank is the count of sets in the
    batches before plus the bit's index plus 1. The scan ends once every
    pair has its set. With minimum degree at least k that happens by V at
    the latest: V is then a kTDS, and a kTRDS because no vertex lies outside
    it. Pairs with minimum degree below k are infeasible and never open.
    """
    _guard(g.n, guards, "naive_n", "gamma_naive")
    infeasible = (SolveResult(False, None, None), (), 0)
    out = {(k, v): infeasible for k in ks for v in variants}
    todo = [(k, v) for k, v in out if k <= g.min_degree]
    if not todo:
        return out
    checked = 0
    for count, cols in subset_levels(g.n):
        lo = min(k for k, _ in todo)
        total, restr = ktds_batch(
            g.masks, cols, (1 << count) - 1, max(k for k, _ in todo), lo,
            any(v == VARIANT_RESTRAINED for _, v in todo))
        left = []
        for k, v in todo:
            restrained = v == VARIANT_RESTRAINED
            hits = (restr if restrained else total)[k - lo]
            if not hits:
                left.append((k, v))
                continue
            first = (hits & -hits).bit_length() - 1
            cert = _column_set(cols, first)
            if not (is_ktrds if restrained else is_ktds)(g, cert, k):
                raise RuntimeError(f"gamma_naive: {sorted(cert)} passes the "
                                   "column predicate but not the set form")
            out[k, v] = (SolveResult(True, len(cert), cert,
                                     checked + first + 1), cols, hits)
        todo = left
        if not todo:
            break
        checked += count
    return out


def enumerate_optimal_sets(q: DominationQuery,
                           guards: Guards = DEFAULT_GUARDS) -> list[frozenset[int]]:
    """All minimum-cardinality sets for the variant in subset order (empty
    if infeasible): the hits of gamma_naive's size in the batch where its
    scan found the first one. A batch holds whole sizes in order, so they
    all lie there, ahead of the larger sets, and the listing stops at the
    first hit of another size."""
    res, cols, hits = _naive_scan(q.graph, (q.k,), (q.variant,),
                                  guards)[q.k, q.variant]
    sets = (_column_set(cols, i) for i in bit_indices(hits))
    return list(takewhile(lambda s: len(s) == res.value, sets))


def t0_exact(parts: Sequence[int], k: int,
             guards: Guards = DEFAULT_GUARDS) -> MultipartiteAnalysis:
    """Scan every kTRDS of the complete multipartite graph K_parts.

    Vertices of one part are twins, so whether S is a kTRDS depends only on
    the counts c_t = |S ∩ part t|. The scan tests one batch with a set per
    count vector, in product order, holding the first c_t vertices of each
    part. Vertex j of part t is in the sets whose c_t exceeds j: within each
    block of vectors that share the counts of the parts before t, those
    sets are one run of bits, so the column is that run repeated per block.
    t(S) counts parts not fully inside S; t0 is its minimum over proper
    kTRDS (the full vertex set always has t = 0, so t0 = 0 exactly when no
    proper kTRDS exists, i.e. gamma equals n).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _guard(sum(parts), guards, "naive_n", "t0_exact")
    g = complete_multipartite(parts)
    if g.min_degree < k:
        raise ValueError(f"K_{tuple(parts)} has min degree {g.min_degree} "
                         f"< k={k}")
    total = prod(p + 1 for p in parts)
    full = (1 << total) - 1
    cols = []
    block = total
    for p in parts:
        run = block // (p + 1)
        repunit = full // ((1 << block) - 1)
        cols.extend((((1 << (p - j) * run) - 1) << (j + 1) * run) * repunit
                    for j in range(p))
        block = run
    hits = ktds_batch(g.masks, cols, full, k, k, True)[1][0]
    # only the last vector fills every part, and a part is not full where
    # its last vertex is missing
    proper = hits & full >> 1
    t0 = 0
    if proper:
        t0 = _least_count([full ^ cols[end - 1] for end in accumulate(parts)],
                          proper)
    return MultipartiteAnalysis(t0, _least_count(cols, hits))


def _least_count(columns: Sequence[int], among: int) -> int:
    """The least number of columns with bit i set, over the set bits i of
    among (not 0). The columns are summed into bit-sliced counters, plane p
    holding bit p of every count, which are read from the top plane down."""
    planes: list[int] = []
    for x in columns:
        for p, plane in enumerate(planes):
            planes[p], x = plane ^ x, plane & x
        if x:
            planes.append(x)
    least = 0
    for p in reversed(range(len(planes))):
        if among & ~planes[p]:
            among &= ~planes[p]
        else:
            least |= 1 << p
    return least


def domatic_exact(g: Graph, k: int,
                  guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Maximum class count of a kTRDP of g via backtracking class assignment.

    It is that of a kTDP too: a vertex outside one class of a kTDP lies in
    another and has k neighbours there. Class counts are tried descending
    from _class_cap; vertex 0 is pinned to class 0 and classes appear in
    first-use order, so the certificate is deterministic. It is re-checked
    with is_ktrdp.
    """
    cap = _class_cap(g, k, guards, "domatic_exact")
    if g.min_degree < k:
        return SolveResult(False, 0, None)
    nodes = 0
    for d in range(cap, 1, -1):
        found, searched = next(_domatic_search(g.masks, k, d))
        nodes += searched
        if found:
            return SolveResult(True, d, _partition(g, k, found), nodes)
    return SolveResult(True, 1, _partition(g, k, ((1 << g.n) - 1,)), nodes)


def enumerate_domatic_partitions(g: Graph, k: int, d: int,
                                 guards: Guards = DEFAULT_GUARDS
                                 ) -> list[tuple[frozenset[int], ...]]:
    """Every d-class kTRDP of g once, classes in first-use order."""
    cap = _class_cap(g, k, guards, "enumerate_domatic_partitions")
    if not 1 <= d <= cap:
        return []
    return [_partition(g, k, classes)
            for classes, _ in _domatic_search(g.masks, k, d) if classes]


def _class_cap(g: Graph, k: int, guards: Guards, what: str) -> int:
    """The most classes of a kTDP of g (each has k + 1 vertices or more, and
    each vertex k neighbours in each), after the k and domatic_n checks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _guard(g.n, guards, "domatic_n", what)
    return min(g.n // (k + 1), g.min_degree // k)


def _partition(g: Graph, k: int,
               class_masks: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Class masks as vertex sets, re-checked with the set-form predicate."""
    part = tuple(mask_vertices(m) for m in class_masks)
    if not is_ktrdp(g, part, k):
        raise RuntimeError(f"domatic search: {[sorted(c) for c in part]} is "
                           "not a kTRDP")
    return part


def _gamma_search(masks: Sequence[int], k: int, restrained: bool,
                  floor: int = 0) -> tuple[int, int, int]:
    """Minimum size of a kTDS (kTRDS when restrained) over the adjacency
    bitmasks; returns (value, certificate mask, nodes), the certificate being
    the minimum set the search finds at s = value (gamma_naive gives the
    first one in subset order, enumerate_optimal_sets all of them). The
    caller ensures n >= 1 and minimum degree >= k.

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

    Pruning: s starts at the smallest s whose s largest degrees sum to k*n
    (past k, as no degree exceeds n - 1), or at floor or |S0| when larger.
    gamma_exact passes a restrained solve the γ_t of the same masks and k
    as floor when its last total solve was of them (γ_t <= γ^r, as every
    kTRDS is a kTDS), and 0 otherwise. Its last level is n - 1, restrained
    n - k - 1 (a proper kTRDS leaves at least k + 1 vertices outside); past
    it the answer is V, so a floor past it gives V at once. Once the first
    level fails, the next is the demand bound of the low-degree vertices
    when higher (_next_level, built only then: it costs about a small
    level). Each level's search depends only on s, S0 and cov0, and nothing
    but the node count passes between levels, so a start at most the
    minimum size only skips levels that fail and changes no value or
    certificate.
    A branch dies when a vertex lacks more than b (plane k-1-b of cov is
    not full) or has fewer than k neighbours outside X. Once X is not empty
    and D > b, it dies when deficient vertices with pairwise disjoint
    undecided neighbourhoods need more than b inclusions (packing).
    gamma_naive is the independent oracle this search is tested against.
    """
    n = len(masks)
    full = (1 << n) - 1
    kn = k * n
    deg = list(map(int.bit_count, masks))
    ranked = sorted(deg, reverse=True)
    reach = list(accumulate(ranked))
    start = bisect_left(reach, kn) + 1
    if start < floor:
        start = floor
    last = n - k - 1 if restrained else n - 1
    if start > last:
        # the loop below would answer n too, but after the forced closure
        return (n, full, 0)
    dmin = ranked[-1]
    forced = 0
    if restrained and dmin < 2 * k:
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
    s = start = max(start, m0)
    while s <= last:
        if restrained:
            # every vertex once s + k exceeds the largest degree
            risky = (full if ranked[0] < s + k else
                     sum(1 << v for v, d in enumerate(deg) if d < s + k))
        b = s - m0
        if b >= k or (cov0 >> (k - 1 - b) * n) & full == full:
            w = search(S0, 0, b, cov0)
            if w >= 0:
                return (s, w, nodes)
        s = (_next_level(masks, deg, ranked, reach, k, s) if s == start
             else s + 1)
    return (n, full, nodes)


def _next_level(masks: Sequence[int], deg: Sequence[int],
                ranked: Sequence[int], reach: Sequence[int], k: int,
                s: int) -> int:
    """The size _gamma_search tries after its first level s failed: s + 1,
    or the demand bound of L when that is higher. L is the vertices of
    degree at most the minimum degree plus k; ranked is the degrees in
    descending order and reach their running sums.

    Each vertex of L has k neighbours in a kTDS S, so the counts |N(u) & L|
    over u in S sum to at least k|L|, and |S| is at least the number of the
    largest counts it takes to reach k|L|. The bound is built only when it
    can exceed s + 1. It cannot when k|L| <= s + 1: k neighbours of each
    vertex of L reach k|L|. Nor can it when the s + 1 vertices of largest
    degree reach k|L| with counts that follow from the degrees alone: with
    H the vertices above L, u has at least deg(u) - |H| neighbours in L,
    and one more when u is in H, since u is not its own neighbour.
    """
    n = len(ranked)
    t = ranked[-1] + k
    # ranked is descending, so this counts the vertices of degree above t
    high = bisect_left(ranked, -t, key=neg)
    need = k * (n - high)
    if (need <= s + 1
            or reach[s] - (s + 1) * high + min(high, s + 1) >= need):
        return s + 1
    low = sum([1 << v for v, d in enumerate(deg) if d <= t])
    counts = sorted([(nb & low).bit_count() for nb in masks], reverse=True)
    return max(s + 1, bisect_left(list(accumulate(counts)), need) + 1)


def _domatic_search(masks: Sequence[int], k: int, d: int
                    ) -> Iterator[tuple[tuple[int, ...] | None, int]]:
    """Assign vertices 0..n-1 to d classes so that every vertex has k
    neighbours in every class. Yields (class masks, nodes so far) for each
    partition, in search order, then (None, nodes) once the search is done.

    A branch dies once some vertex's deficit, the sum over classes of
    max(0, k - |N(v) ∩ C|), exceeds its unassigned neighbours. The caller
    ensures 1 <= d <= _class_cap, so no vertex fails at the root, and
    placing vertex i changes only its neighbours' counts, so only they are
    re-tested. At a leaf every deficit is 0, so every class is a kTDS. Every
    class is then a kTRDS as well: a vertex outside one class lies in
    another and has k neighbours there. So one search serves both variants.
    """
    n = len(masks)
    classes = [0] * d
    nodes = 0
    # the neighbourhoods of each vertex's neighbours
    around = [[masks[v] for v in bit_indices(nb)] for nb in masks]

    def feasible(i: int) -> bool:
        for nb in around[i - 1]:
            need = 0
            for cm in classes:
                in_c = (nb & cm).bit_count()
                if in_c < k:
                    need += k - in_c
            if need > (nb >> i).bit_count():
                return False
        return True

    def rec(i: int, used: int) -> Iterator[tuple[tuple[int, ...], int]]:
        nonlocal nodes
        nodes += 1
        if i == n:
            yield tuple(classes), nodes
            return
        bit = 1 << i
        for c in range(min(used + 1, d)):
            classes[c] |= bit
            if feasible(i + 1):
                yield from rec(i + 1, max(used, c + 1))
            classes[c] &= ~bit

    yield from rec(0, 0)
    yield None, nodes
