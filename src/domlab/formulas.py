"""Closed-form values and bounds for the named graph families.

Every operation returns a FormulaVerdict: the stated exact value, or lower
and/or upper bounds, or NA outside its stated range instead of a guess.
Each bound is an integer: a fractional bound on a set size or a class count
is rounded inward (a lower bound up, an upper bound down) where it is stated.
Each stated formula is written once: the four k = 1 prism statements (cycle
and path, total and total-restrained) share f_prism_k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FormulaVerdict:
    """An exact value, or integer bounds (rounded inward); with none of the
    three set it is n/a."""

    value: int | None = None
    lower: int | None = None
    upper: int | None = None

    def __post_init__(self):
        if self.lower is not None and self.upper is not None \
                and self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower},{self.upper}]")

    @property
    def applicable(self) -> bool:
        return (self.value, self.lower, self.upper) != (None, None, None)

    def brackets(self, v: int) -> bool:
        """Whether an observed value is consistent with this verdict (every
        value is, when it is n/a)."""
        if self.value is not None:
            return v == self.value
        return ((self.lower is None or v >= self.lower)
                and (self.upper is None or v <= self.upper))

    def render(self) -> str:
        if not self.applicable:
            return "n/a"
        if self.value is not None:
            return str(self.value)
        if self.upper is None:
            return f">={self.lower}"
        if self.lower is None:
            return f"<={self.upper}"
        return f"[{self.lower},{self.upper}]"


NA = FormulaVerdict()


def f_complete(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of K_n."""
    if not 1 <= k < n:
        return NA
    if n <= 2 * k + 1:
        return FormulaVerdict(n)
    return FormulaVerdict(k + 1)


def f_complement_cycle(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of the complement of C_n."""
    if not n >= k + 3 >= 4:
        return NA
    if n <= 2 * k + 2:
        return FormulaVerdict(n)
    if n <= 3 * k + 2:
        return FormulaVerdict(k + 2)
    return FormulaVerdict(k + 1)


def f_complement_path(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of the complement of P_n."""
    if not n >= k + 3 >= 4:
        return NA
    if k == 1:
        if n >= 5:
            return FormulaVerdict(2)
        return FormulaVerdict(n)
    if n <= 2 * k + 2:
        return FormulaVerdict(n)
    if n <= 3 * k:
        return FormulaVerdict(k + 2)
    return FormulaVerdict(k + 1)


def f_cycle(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of C_n (k = 1 by residue; k = 2 gives n).

    k >= 3 is n/a: the cycle's minimum degree 2 < k leaves no valid set.
    """
    if n < 4:
        return NA
    if k == 2:
        return FormulaVerdict(n)
    if k != 1:
        return NA
    base = 2 * math.ceil(n / 4)
    r = n % 4
    if r == 1:
        return FormulaVerdict(base - 1)
    if r == 3:
        return FormulaVerdict(base + 1)
    return FormulaVerdict(base)


def f_complete_bipartite(n: int, m: int, k: int) -> FormulaVerdict:
    """Restrained domination number of K_{n,m}."""
    n, m = max(n, m), min(n, m)
    if not n >= m >= k >= 1:
        return NA
    if m >= 2 * k:
        return FormulaVerdict(2 * k)
    return FormulaVerdict(n + m)


def f_multipartite_bounds(parts: Sequence[int], k: int,
                          t0: int) -> FormulaVerdict:
    """Interval ceil(kp/(p-1)) <= value <= n - k - ceil(k/(t0-1)) for
    K_{n1..np}, stated where the value is below n. t0 decides that: t0 = 0
    exactly when the value is n (t0 = 1 never occurs), so t0 < 2 is n/a;
    without t0 the interval would exclude n there, or be empty."""
    p = len(parts)
    if p < 3 or t0 < 2:
        return NA
    # -(-a // b) is ceil(a/b)
    return FormulaVerdict(lower=-(-k * p // (p - 1)),
                          upper=sum(parts) - k - -(-k // (t0 - 1)))


def f_lower_edges(n: int, m: int, k: int) -> FormulaVerdict:
    """Edge-count lower bound 3n/2 - m/k = (3nk - 2m)/(2k), rounded up
    (k = 1 recovers the classic 3n/2 - m).

    Assumes minimum degree >= k; the caller checks it.
    """
    if k < 1:
        return NA
    return FormulaVerdict(lower=-((2 * m - 3 * n * k) // (2 * k)))


def f_domatic_complete(n: int, k: int) -> FormulaVerdict:
    """Restrained domatic number of K_n."""
    if not 1 <= k < n:
        return NA
    return FormulaVerdict(n // (k + 1))


def f_domatic_caps(n: int, k: int, bipartite: bool = False) -> FormulaVerdict:
    """Upper bound n/(k+1), improved to n/(2k) for bipartite graphs, rounded
    down."""
    if k < 1:
        return NA
    return FormulaVerdict(upper=n // (2 * k if bipartite else k + 1))


def f_prism_k1(n: int) -> FormulaVerdict:
    """k = 1 value stated for the prism of C_n and of P_n, in both the total
    and the total-restrained variant (all four statements coincide)."""
    if n < 4:
        return NA
    base = 2 * math.ceil(n / 4)
    r = n % 4
    if r == 0:
        return FormulaVerdict(base + 2)
    if r == 3:
        return FormulaVerdict(base + 1)
    return FormulaVerdict(base)


def f_prism_cycle_k2(n: int) -> FormulaVerdict:
    """Restrained domination number (k = 2) of the prism of C_n; for n = 4
    and 5 it is the whole vertex set."""
    if n < 4:
        return NA
    if n <= 5:
        return FormulaVerdict(2 * n)
    return FormulaVerdict(n + 2)


def f_prism_cycle_k2_total(n: int) -> FormulaVerdict:
    """Cited 2-tuple total domination number of the prism of C_n."""
    if n < 5:
        return NA
    return FormulaVerdict(n + 2)


def f_prism_regular_lb(n: int, ell: int, k: int) -> FormulaVerdict:
    """Prism of an ell-regular graph: lower bound n+k inside the degree
    window, sharpening to the exact value 2n for small n."""
    if not 1 <= k - 1 <= ell <= 2 * k - 2:
        return NA
    if n <= ell + 2 * k - 1:
        return FormulaVerdict(2 * n)
    return FormulaVerdict(lower=n + k)


def f_prism_sandwich(g_lo: int, g_lo_bar: int, g_hi: int, g_hi_bar: int,
                     k: int) -> FormulaVerdict:
    """Prism value sandwiched between the (k-1)- and k-level sums of the two
    halves; the lower half needs k >= 2."""
    if k < 1:
        return NA
    upper = g_hi + g_hi_bar
    if k == 1:
        return FormulaVerdict(upper=upper)
    return FormulaVerdict(lower=g_lo + g_lo_bar, upper=upper)


def f_kjoin_gamma(m: int, k: int) -> FormulaVerdict:
    """Value m for graphs assembled as a k-join onto an m-clique spanning
    subgraph with m minimal (m = k+1 is the canonical generator)."""
    if m < k + 1:
        return NA
    return FormulaVerdict(m)
