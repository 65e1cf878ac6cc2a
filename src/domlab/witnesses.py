"""Explicit witness sets extracted from proof constructions.

Each builder returns the exact sets a proof exhibits for the matching
parameter case, as a tuple of one or two frozensets (0-based; a prism's
i-bar is vertex n+i-1). Validation never asserts: discrepancies come back
as data so the report layer can flag them.
"""

from __future__ import annotations

import math

from .graphs import Graph
from .predicates import failures


def _one_based(vertices) -> frozenset[int]:
    return frozenset(v - 1 for v in vertices)


def _bars(n: int, vertices) -> frozenset[int]:
    """Map 1-based bar labels i-bar onto prism vertices n+i-1."""
    return frozenset(n + v - 1 for v in vertices)


def witness_cycle_trds(n: int) -> tuple[frozenset[int]]:
    """Total restrained dominating set of C_n, by residue of n mod 4."""
    if n < 4:
        raise ValueError("witness_cycle_trds needs n >= 4")
    s0 = {2 + 4 * i for i in range(n // 4)} | {3 + 4 * i for i in range(n // 4)}
    r = n % 4
    if r == 0:
        s = s0
    elif r == 1:
        s = s0 | {n - 1}
    elif r == 2:
        s = s0 | {1, n - 2}
    else:
        s = s0 | {1, n - 3, n}
    return (_one_based(s),)


def witness_complement_cycle(n: int, k: int) -> tuple[frozenset[int]]:
    """kTRDS of the complement of C_n, by the three cardinality cases."""
    if not (n >= k + 3 >= 4):
        raise ValueError("witness_complement_cycle needs n >= k+3 >= 4")
    if n >= 3 * k + 3:
        s = {3 * i + 1 for i in range(k + 1)}
    elif n >= 2 * k + 3:
        s = {2 * i + 1 for i in range(k + 2)}
    else:
        s = set(range(1, n + 1))
    return (_one_based(s),)


def witness_complement_path(n: int, k: int) -> tuple[frozenset[int]]:
    """kTRDS of the complement of P_n.

    For k = 1 the value-2 case uses the endpoint pair {1, n} (at n = 5 the
    middle vertex's only non-neighbors are 1 and 5, so {1, 4} instead); the
    k >= 3 middle case borrows the complement-of-cycle set, which survives in
    the edge-richer complement of the path.
    """
    if not (n >= k + 3 >= 4):
        raise ValueError("witness_complement_path needs n >= k+3 >= 4")
    if k == 1:
        if n == 4:
            s = {1, 2, 3, 4}
        elif n == 5:
            s = {1, 4}
        else:
            s = {1, n}
    elif n >= 3 * k + 1:
        s = {3 * i + 1 for i in range(k)} | {n}
    elif n >= 2 * k + 3:
        s = {2 * i + 1 for i in range(k + 2)}
    else:
        s = set(range(1, n + 1))
    return (_one_based(s),)


def witness_prism_cycle_domatic_pair(
        n: int) -> tuple[frozenset[int], frozenset[int]]:
    """Two disjoint total dominating sets of the prism of C_n, by residue.

    The construction is validated, not trusted; the report layer allowlists
    its one failure, at n = 5.
    """
    if n < 4:
        raise ValueError("witness_prism_cycle_domatic_pair needs n >= 4")
    r = n % 4
    blocks = lambda start, count: {start + 4 * i for i in range(count)} | \
        {start + 1 + 4 * i for i in range(count)}
    if r == 0:
        plain_s, bar_s = {1, 2}, {1, 2}
        plain_t, bar_t = {3, 4}, {3, 4}
        if n > 4:
            plain_s |= blocks(5, math.ceil(n / 4) - 1)
            plain_t |= blocks(7, math.ceil(n / 4) - 1)
    elif r == 1:
        if n == 5:
            plain_s, bar_s = {1, 4}, {1, 4}
            plain_t, bar_t = {2, 5}, {2, 5}
        elif n == 9:
            plain_s, bar_s = {1, 4, 7}, {1, 4, 7}
            plain_t, bar_t = {2, 5, 8}, {2, 5, 8}
        else:
            plain_s, bar_s = {1, 4, 7}, {1, 4, 7}
            plain_t, bar_t = {3, 6, 9}, {3, 6, 9}
            plain_s |= blocks(10, math.ceil(n / 4) - 3)
            plain_t |= blocks(12, math.ceil(n / 4) - 3)
    elif r == 2:
        if n == 6:
            plain_s, bar_s = {1, 4}, {1, 4}
            plain_t, bar_t = {2, 5}, {2, 5}
        else:
            plain_s, bar_s = {1, 4}, {1, 4}
            plain_t, bar_t = {3, 6}, {3, 6}
            plain_s |= blocks(7, math.ceil(n / 4) - 2)
            plain_t |= blocks(9, math.ceil(n / 4) - 2)
    else:
        if n == 7:
            plain_s, bar_s = {1, 4}, {1, 4, 6}
            plain_t, bar_t = {2, 5}, {2, 5, 7}
        else:
            plain_s, bar_s = {1, 4}, {1, 4, n - 1}
            plain_t, bar_t = {2, 3, 6}, {3, 6}
            plain_s |= blocks(7, math.ceil(n / 4) - 2)
            plain_t |= blocks(9, math.ceil(n / 4) - 2)
    first = _one_based(plain_s) | _bars(n, bar_s)
    second = _one_based(plain_t) | _bars(n, bar_t)
    return (first, second)


def witness_prism_path_trds(n: int) -> tuple[frozenset[int]]:
    """Total restrained dominating set of the prism of P_n, by residue.

    The n = 0 (mod 4) construction starts at n = 8; there is no stated set
    for n = 4.
    """
    if n < 5:
        raise ValueError("witness_prism_path_trds needs n >= 5")
    r = n % 4
    run = lambda count: {3 + 4 * i for i in range(count)} | \
        {4 + 4 * i for i in range(count)}
    if r == 0:
        if n == 8:
            plain, bar = {3, 4, 5, 6}, {1, 8}
        else:
            plain = {n - 3, n - 2} | run(n // 4 - 2)
            bar = {1, n - 6, n - 5, n}
    elif r == 1:
        plain = {n - 2} | run(n // 4 - 1)
        bar = {1, n - 2, n}
    elif r == 2:
        plain = run(n // 4)
        bar = {1, n}
    else:
        plain = run(n // 4)
        bar = {1, n - 1, n}
    s = _one_based(plain) | _bars(n, bar)
    return (s,)


def validate_witness(g: Graph, w: tuple[frozenset[int], ...],
                     k: int) -> list[str]:
    """Failures of a witness against its predicate; never raises.

    A single set is checked as a kTRDS, a pair as two disjoint kTDS (the
    domatic-pair shape); another shape or a vertex outside g fails alone.
    """
    if len(w) not in (1, 2):
        return [f"a witness is one or two sets, got {len(w)}"]
    outside = sorted(frozenset().union(*w) - frozenset(range(g.n)))
    if outside:
        return [f"vertices outside 0..{g.n - 1}: {outside}"]
    if len(w) == 1:
        return failures(g, w[0], k, True)
    a, b = w
    out = []
    if a & b:
        shared = ", ".join(map(g.label, sorted(a & b)))
        out.append(f"sets overlap on [{shared}]")
    for tag, s in (("S", a), ("S'", b)):
        out.extend(f"{tag}: {msg}" for msg in failures(g, s, k, False))
    return out
