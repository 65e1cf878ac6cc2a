"""Exact solvers: domination numbers, domatic numbers, multipartite t0.

gamma_exact runs the branch-and-bound kernel in _gamma_py. gamma_naive is the
independent oracle: a plain subset scan in increasing cardinality that shares
nothing with the kernel except the predicates module.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from . import _gamma_py
from .graphs import Graph, complete_multipartite, multipartite_part_of
from .predicates import is_ktds, is_ktrds, mask_is_ktds

VARIANT_TOTAL = "total"
VARIANT_RESTRAINED = "total-restrained"


def active_backend() -> str:
    """Name of the kernel gamma_exact uses."""
    return _gamma_py.BACKEND_NAME


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
    elapsed: float = 0.0


@dataclass(frozen=True)
class MultipartiteAnalysis:
    parts: tuple[int, ...]
    k: int
    t0: int
    gamma_value: int


@dataclass(frozen=True)
class Guards:
    """Instance-size caps; desk scale varies by machine, so these are config."""

    naive_n: int = 24
    gamma_n: int = 20
    enumerate_n: int = 16
    domatic_n: int = 14
    t0_total: int = 14

    @classmethod
    def from_env(cls) -> "Guards":
        override = os.environ.get("DOMLAB_GUARD_N")
        if override:
            v = int(override)
            return cls(naive_n=v, gamma_n=v, enumerate_n=v, domatic_n=v,
                       t0_total=v)
        return cls()


DEFAULT_GUARDS = Guards()


class GuardExceeded(ValueError):
    pass


def _guard(n: int, guards: Guards, field: str, what: str) -> None:
    limit = getattr(guards, field)
    if n > limit:
        raise GuardExceeded(
            f"{what} guard: n={n} exceeds {field}={limit} (library callers "
            f"pass Guards({field}=...); the CLI reads DOMLAB_GUARD_N)")


def gamma_exact(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Minimum kTDS/kTRDS size via the pruned search kernel."""
    g = q.graph
    _guard(g.n, guards, "gamma_n", "gamma_exact")
    t0 = time.perf_counter()
    value, cert_mask, nodes = _gamma_py.solve_gamma(g.n, q.k, q.restrained,
                                                    g.neighbor_masks())
    elapsed = time.perf_counter() - t0
    if value < 0:
        return SolveResult(False, None, None, nodes, elapsed)
    cert = frozenset(v for v in range(g.n) if (cert_mask >> v) & 1)
    return SolveResult(True, value, cert, nodes, elapsed)


def gamma_naive(q: DominationQuery,
                guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Independent oracle: unpruned subset scan in increasing cardinality."""
    g = q.graph
    _guard(g.n, guards, "naive_n", "gamma_naive")
    if g.n == 0 or g.min_degree < q.k:
        return SolveResult(False, None, None, 0, 0.0)
    pred = is_ktrds if q.restrained else is_ktds
    t0 = time.perf_counter()
    checked = 0
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            checked += 1
            if pred(g, combo, q.k):
                return SolveResult(True, size, frozenset(combo), checked,
                                   time.perf_counter() - t0)
    return SolveResult(False, None, None, checked, time.perf_counter() - t0)


def enumerate_optimal_sets(q: DominationQuery,
                           guards: Guards = DEFAULT_GUARDS) -> list[frozenset[int]]:
    """All minimum-cardinality sets for the variant (empty if infeasible)."""
    g = q.graph
    _guard(g.n, guards, "enumerate_n", "enumerate_optimal_sets")
    if g.n == 0 or g.min_degree < q.k:
        return []
    masks = g.neighbor_masks()
    for size in range(g.n + 1):
        hits = [combo for combo in combinations(range(g.n), size)
                if mask_is_ktds(masks, _to_mask(combo), q.k, q.restrained)]
        if hits:
            return [frozenset(c) for c in hits]
    return []


def _to_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def t0_exact(parts: Sequence[int], k: int,
             guards: Guards = DEFAULT_GUARDS) -> MultipartiteAnalysis:
    """Enumerate every kTRDS of the complete multipartite graph.

    t(S) counts parts not fully inside S; t0 is its minimum over proper
    kTRDS (the full vertex set always has t = 0, so t0 = 0 exactly when no
    proper kTRDS exists, i.e. gamma equals n).
    """
    n = sum(parts)
    _guard(n, guards, "t0_total", "t0_exact")
    g = complete_multipartite(parts)
    if g.min_degree < k:
        raise ValueError(f"K_{tuple(parts)} has min degree {g.min_degree} < k={k}")
    part_of = multipartite_part_of(parts)
    part_masks = [0] * len(parts)
    for v, p in enumerate(part_of):
        part_masks[p] |= 1 << v
    masks = g.neighbor_masks()
    full = (1 << n) - 1
    gamma = n
    t0 = 0
    best_t: int | None = None
    for smask in range(1, 1 << n):
        if not mask_is_ktds(masks, smask, k, True):
            continue
        size = smask.bit_count()
        if size < gamma:
            gamma = size
        if smask != full:
            t = sum(1 for pm in part_masks if pm & ~smask)
            if best_t is None or t < best_t:
                best_t = t
    if best_t is not None:
        t0 = best_t
    return MultipartiteAnalysis(tuple(parts), k, t0, gamma)


def domatic_exact(q: DominationQuery,
                  guards: Guards = DEFAULT_GUARDS) -> SolveResult:
    """Maximum kTRDP/kTDP class count via backtracking class assignment.

    Tries class counts descending from min(n // (k+1), min_degree // k);
    vertex 0 is pinned to class 0 and classes appear in first-use order, so
    the certificate is deterministic.
    """
    g = q.graph
    _guard(g.n, guards, "domatic_n", "domatic_exact")
    t_start = time.perf_counter()
    if g.n == 0 or g.min_degree < q.k:
        return SolveResult(False, 0, None, 0, time.perf_counter() - t_start)
    masks = g.neighbor_masks()
    cap = min(g.n // (q.k + 1), g.min_degree // q.k)
    nodes = 0
    for d in range(cap, 1, -1):
        found = _domatic_search(g, masks, q.k, q.restrained, d,
                                first_only=True)
        nodes += found[1]
        if found[0]:
            cert = tuple(frozenset(c) for c in found[0][0])
            return SolveResult(True, d, cert, nodes,
                               time.perf_counter() - t_start)
    cert = (frozenset(range(g.n)),)
    return SolveResult(True, 1, cert, nodes, time.perf_counter() - t_start)


def enumerate_domatic_partitions(q: DominationQuery, d: int,
                                 guards: Guards = DEFAULT_GUARDS
                                 ) -> list[tuple[frozenset[int], ...]]:
    """All d-class partitions whose classes satisfy the variant predicate
    (classes in first-use order, so label permutations are deduplicated)."""
    g = q.graph
    _guard(g.n, guards, "domatic_n", "enumerate_domatic_partitions")
    if g.n == 0 or g.min_degree < q.k or d < 1:
        return []
    if d == 1:
        return [(frozenset(range(g.n)),)]
    found = _domatic_search(g, g.neighbor_masks(), q.k, q.restrained, d,
                            first_only=False)
    return [tuple(frozenset(c) for c in sol) for sol in found[0]]


def _domatic_search(g: Graph, masks: list[int], k: int, restrained: bool,
                    d: int, first_only: bool):
    """Assign vertices 0..n-1 to d classes; returns (solutions, nodes)."""
    n = g.n
    deg = [masks[v].bit_count() for v in range(n)]
    class_masks = [0] * d
    assign = [-1] * n
    solutions: list[list[list[int]]] = []
    nodes = 0

    def prune(i: int) -> bool:
        unassigned_masks = [masks[v] >> i << i for v in range(n)]
        for v in range(n):
            nb = masks[v]
            need = 0
            bad = 0
            for c in range(d):
                in_c = (nb & class_masks[c]).bit_count()
                if in_c < k:
                    need += k - in_c
                if restrained and in_c > deg[v] - k:
                    if assign[v] == c:
                        continue
                    bad += 1
            if need > unassigned_masks[v].bit_count():
                return False
            if bad and (assign[v] >= 0 or bad >= 2):
                return False
        return True

    def rec(i: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if d - used > n - i:
            return False
        if i == n:
            if used < d:
                return False
            sol = [[v for v in range(n) if assign[v] == c] for c in range(d)]
            # final authoritative check against the predicates module
            pred = is_ktrds if restrained else is_ktds
            if all(pred(g, cls, k) for cls in sol):
                solutions.append(sol)
                return first_only
            return False
        limit = min(used + 1, d)
        for c in range(limit):
            assign[i] = c
            class_masks[c] |= 1 << i
            if prune(i + 1) and rec(i + 1, max(used, c + 1)):
                return True
            class_masks[c] &= ~(1 << i)
            assign[i] = -1
        return False

    rec(0, 0)
    return (solutions, nodes)
