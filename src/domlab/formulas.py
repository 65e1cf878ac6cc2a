"""Closed-form values and bounds for the named graph families.

Every operation returns a FormulaVerdict: the stated exact value, or lower
and/or upper bounds, or NA outside its stated range instead of a guess.
Fractional bounds stay exact rationals; callers compare through ceil/floor.
Each stated formula is written once: the four k = 1 prism statements (cycle
and path, total and total-restrained) share f_prism_k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class FormulaVerdict:
    """An exact value, or bounds; with none of the three set it is n/a."""

    value: int | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            assert self.lower <= self.upper

    @property
    def applicable(self) -> bool:
        return (self.value, self.lower, self.upper) != (None, None, None)

    @property
    def lower_int(self) -> int | None:
        """Tightest integer lower bound."""
        if self.value is not None:
            return self.value
        return math.ceil(self.lower) if self.lower is not None else None

    @property
    def upper_int(self) -> int | None:
        """Tightest integer upper bound."""
        if self.value is not None:
            return self.value
        return math.floor(self.upper) if self.upper is not None else None

    def brackets(self, v: int) -> bool:
        """Whether an observed value is consistent with this verdict (every
        value is, when it is n/a)."""
        lo = self.lower_int
        hi = self.upper_int
        return (lo is None or v >= lo) and (hi is None or v <= hi)

    def render(self) -> str:
        if not self.applicable:
            return "n/a"
        if self.value is not None:
            return str(self.value)
        lo = self.lower_int
        hi = self.upper_int
        if hi is None:
            return f">={lo}"
        if lo is None:
            return f"<={hi}"
        return f"[{lo},{hi}]"


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
                          t0: int | None = None,
                          gamma_value: int | None = None) -> FormulaVerdict:
    """Interval for K_{n1..np} when the value is below n; refined upper bound
    when t0 is supplied. t0 < 2 forces the value n, so it is n/a."""
    p = len(parts)
    n = sum(parts)
    if p < 3:
        return NA
    if gamma_value is not None and gamma_value >= n:
        return NA
    lower = Fraction(k * p, p - 1)
    upper = Fraction(n - k)
    if t0 is not None:
        if t0 < 2:
            return NA
        upper = Fraction(n - k - math.ceil(Fraction(k, t0 - 1)))
    return FormulaVerdict(lower=lower, upper=upper)


def f_lower_edges(n: int, m: int, k: int) -> FormulaVerdict:
    """Edge-count lower bound 3n/2 - m/k (k = 1 recovers the classic 3n/2 - m).

    Assumes minimum degree >= k; the caller checks it.
    """
    if k < 1:
        return NA
    return FormulaVerdict(lower=Fraction(3 * n, 2) - Fraction(m, k))


def f_domatic_complete(n: int, k: int) -> FormulaVerdict:
    """Restrained domatic number of K_n."""
    if not 1 <= k < n:
        return NA
    return FormulaVerdict(n // (k + 1))


def f_domatic_caps(n: int, k: int, bipartite: bool = False) -> FormulaVerdict:
    """Upper bound n/(k+1), improved to n/(2k) for bipartite graphs."""
    if k < 1:
        return NA
    return FormulaVerdict(upper=Fraction(n, 2 * k if bipartite else k + 1))


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
    return FormulaVerdict(lower=Fraction(n + k))


def f_prism_sandwich(g_lo: int, g_lo_bar: int, g_hi: int, g_hi_bar: int,
                     k: int) -> FormulaVerdict:
    """Prism value sandwiched between the (k-1)- and k-level sums of the two
    halves; the lower half needs k >= 2."""
    if k < 1:
        return NA
    upper = Fraction(g_hi + g_hi_bar)
    if k == 1:
        return FormulaVerdict(upper=upper)
    return FormulaVerdict(lower=Fraction(g_lo + g_lo_bar), upper=upper)


def f_kjoin_gamma(m: int, k: int) -> FormulaVerdict:
    """Value m for graphs assembled as a k-join onto an m-clique spanning
    subgraph with m minimal (m = k+1 is the canonical generator)."""
    if m < k + 1:
        return NA
    return FormulaVerdict(m)
