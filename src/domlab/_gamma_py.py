"""Pure-Python search kernel for minimum k-tuple total (restrained) sets.

Iterative deepening over the target cardinality with depth-first in/out
branching in fixed vertex order (include-first, so the first hit is the
lexicographically smallest optimal set). Pruning:

  * low-degree necessity: in the restrained variant a vertex of degree
    <= 2k-1 belongs to every solution and is preseeded;
  * per-vertex deficiency vs. remaining budget and undecided neighbors;
  * decided-out vertices must retain k potential outside neighbors.

Leaves are checked with predicates.mask_is_ktds. This is the only gamma
kernel; gamma_naive in solver is the independent oracle it is tested against.
"""

from __future__ import annotations

from .predicates import mask_is_ktds

BACKEND_NAME = "pure-python"


def solve_gamma(n: int, k: int, restrained: bool,
                masks: list[int]) -> tuple[int, int, int]:
    """Minimum size of a kTDS (or kTRDS) over the adjacency bitmasks.

    Returns (value, certificate_mask, nodes_explored); value -1 marks an
    infeasible instance (some vertex has degree < k).
    """
    full = (1 << n) - 1
    deg = [masks[v].bit_count() for v in range(n)]
    if n == 0 or min(deg) < k:
        return (-1, 0, 0)

    forced = 0
    if restrained:
        for v in range(n):
            if deg[v] <= 2 * k - 1:
                forced |= 1 << v

    nodes = 0

    def dfs(i: int, in_mask: int, out_mask: int, cnt_in: int, s: int) -> int:
        nonlocal nodes
        nodes += 1
        budget = s - cnt_in
        rest = n - i
        if budget == 0:
            return in_mask if mask_is_ktds(masks, in_mask, k, restrained) else -1
        undecided = full & ~((1 << i) - 1)
        if budget == rest:
            cand = in_mask | undecided
            return cand if mask_is_ktds(masks, cand, k, restrained) else -1
        for v in range(n):
            nb = masks[v]
            in_nb = (nb & in_mask).bit_count()
            if in_nb < k:
                if in_nb + (nb & undecided).bit_count() < k:
                    return -1
                if k - in_nb > budget:
                    return -1
            if restrained and (out_mask >> v) & 1 and deg[v] - in_nb < k:
                return -1
        bit = 1 << i
        r = dfs(i + 1, in_mask | bit, out_mask, cnt_in + 1, s)
        if r >= 0:
            return r
        if forced & bit:
            return -1
        return dfs(i + 1, in_mask, out_mask | bit, cnt_in, s)

    # s = n always hits: with min degree >= k, V is a kTDS and a kTRDS
    s = max(k + 1, forced.bit_count())
    while (r := dfs(0, 0, 0, 0, s)) < 0:
        s += 1
    return (s, r, nodes)
