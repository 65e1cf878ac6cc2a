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


def _vertices(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


def gamma_exact(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Minimum kTDS/kTRDS size via the pruned search (_gamma_search)."""
    g = q.graph
    _guard(g.n, guards, "gamma_n", "gamma_exact")
    if g.min_degree < q.k:
        return SolveResult(False, None, None)
    value, cert_mask, nodes = _gamma_search(g.neighbor_masks(), q.k,
                                            q.restrained)
    return SolveResult(True, value, _vertices(cert_mask, g.n), nodes)


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
    cert = _vertices(smask, g.n)
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
    return [_vertices(m, g.n) for m in hits]


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
    part = tuple(_vertices(m, g.n) for m in class_masks)
    if not (is_ktrdp if q.restrained else is_ktdp)(g, part, q.k):
        raise RuntimeError(f"domatic search: {[sorted(c) for c in part]} is "
                           f"not a {'kTRDP' if q.restrained else 'kTDP'}")
    return part


def _gamma_search(masks: list[int], k: int,
                  restrained: bool) -> tuple[int, int, int]:
    """Minimum size of a kTDS (kTRDS when restrained) over the adjacency
    bitmasks; returns (value, certificate mask, nodes). The caller ensures
    n >= 1 and minimum degree >= k.

    Iterative deepening over the target cardinality s with depth-first in/out
    branching in fixed vertex order (include-first, so the first hit is the
    lexicographically smallest optimal set). A node is a call of dfs; each
    prune below cuts only subtrees that hold no solution.

    State carried down the recursion, so that no node rescans all n
    vertices: bit-sliced coverage counters cov[j], the mask of vertices with
    more than j neighbours in S (j = 0..k-1; including vertex i sets
    cov[j] |= cov[j-1] & N(i)), packed into one int, plane j at bit j·n; and
    deficit = sum over v of max(0, k - |N(v) ∩ S|). The local tests look at
    the branched vertex and its neighbours only; the deficit-cover bound
    looks at the undecided vertices. Pruning:

      * start: s is at least k + 1, and at least the smallest s whose s
        largest degrees sum to k·n (the degrees of S sum to
        Σ_v |N(v) ∩ S| >= k·n);
      * low-degree necessity: in the restrained variant a vertex of degree
        <= 2k-1 belongs to every solution and is preseeded;
      * max deficit, after an inclusion: some vertex lacks more than the
        remaining budget, i.e. cov[k-1-budget] is not every vertex;
      * availability, after excluding i: a neighbour of i keeps fewer than
        k neighbours in S or undecided;
      * restrained, after excluding i: i keeps fewer than k neighbours
        outside S; after including i: so does an excluded neighbour of i;
      * deficit cover, after an exclusion: the budget undecided vertices
        with the most deficient neighbours cover less than the deficit. The
        deepening start stands in for it at the root; evaluated after
        inclusions as well, it saves nodes but costs small solves more time
        than they save.

    The availability, restrained and max-deficit tests are monotone along a
    branch, so testing them only where their inputs change prunes exactly
    what a full rescan at every node would. Leaves are checked with
    predicates.mask_is_ktds. gamma_naive is the independent oracle this
    search is tested against.
    """
    n = len(masks)
    full = (1 << n) - 1
    deg = [nb.bit_count() for nb in masks]

    forced = 0
    if restrained:
        for v in range(n):
            if deg[v] <= 2 * k - 1:
                forced |= 1 << v

    # plane j of cov is (cov >> j·n) & full; nb * planes copies the mask nb
    # into every plane, so one expression updates all k counters
    planes = sum(1 << (j * n) for j in range(k))
    top = (k - 1) * n
    nodes = 0

    def starved(vs: int, pool: int) -> bool:
        """Whether a vertex of the mask vs has fewer than k neighbours in
        the mask pool."""
        while vs:
            low = vs & -vs
            if (masks[low.bit_length() - 1] & pool).bit_count() < k:
                return True
            vs ^= low
        return False

    def dfs(i: int, in_mask: int, out_mask: int, budget: int,
            cov: int, deficit: int) -> int:
        nonlocal nodes
        nodes += 1
        if budget == 0:
            return in_mask if mask_is_ktds(masks, in_mask, k, restrained) else -1
        if budget == n - i:
            cand = full & ~out_mask
            return cand if mask_is_ktds(masks, cand, k, restrained) else -1
        bit = 1 << i
        nb = masks[i]

        # include i
        inc = in_mask | bit
        b = budget - 1
        c = cov | (((cov << n) | nb) & nb * planes)
        if ((b >= k or (c >> (k - 1 - b) * n) & full == full)
                and not (restrained and starved(nb & out_mask, ~inc))):
            r = dfs(i + 1, inc, out_mask, b, c,
                    deficit - (nb & ~(cov >> top)).bit_count())
            if r >= 0:
                return r
        if forced & bit:
            return -1

        # exclude i
        out_mask |= bit
        short = full & ~(cov >> top)
        if starved(nb & short, ~out_mask):
            return -1
        if restrained and (nb & ~in_mask).bit_count() < k:
            return -1
        gains = [(mu & short).bit_count() for mu in masks[i + 1:]]
        gains.sort(reverse=True)
        if sum(gains[:budget]) < deficit:
            return -1
        return dfs(i + 1, in_mask, out_mask, budget, cov, deficit)

    # the s largest degrees must sum to k·n; s = n always hits: with min
    # degree >= k, V is a kTDS and a kTRDS
    degsum = list(accumulate(sorted(deg, reverse=True)))
    s = max(bisect_left(degsum, k * n) + 1, k + 1, forced.bit_count())
    while (r := dfs(0, 0, 0, s, 0, k * n)) < 0:
        s += 1
    return (s, r, nodes)


def _domatic_search(masks: list[int], k: int, d: int,
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
