"""Closed-form values and bounds for the named graph families.

Every operation returns a FormulaVerdict carrying an applicability flag and
the matching case, instead of guessing outside its stated range. Fractional
bounds stay exact rationals; callers compare through ceil/floor. Each
stated formula is written once: the four k = 1 prism statements (cycle and
path, total and total-restrained) share f_prism_k1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

EXACT = "exact"
LOWER = "lower-bound"
UPPER = "upper-bound"
INTERVAL = "interval"


@dataclass(frozen=True)
class FormulaVerdict:
    kind: str
    applicable: bool
    reason: str
    value: int | None = None
    lower: Fraction | None = None
    upper: Fraction | None = None

    def __post_init__(self):
        if self.kind == INTERVAL and self.applicable:
            assert self.lower is not None and self.upper is not None
            assert self.lower <= self.upper

    @property
    def lower_int(self) -> int | None:
        """Tightest integer lower bound."""
        if self.kind == EXACT:
            return self.value
        return math.ceil(self.lower) if self.lower is not None else None

    @property
    def upper_int(self) -> int | None:
        """Tightest integer upper bound."""
        if self.kind == EXACT:
            return self.value
        return math.floor(self.upper) if self.upper is not None else None

    def brackets(self, v: int) -> bool:
        """Whether an observed value is consistent with this verdict."""
        if not self.applicable:
            return True
        if self.kind == EXACT:
            return v == self.value
        lo = self.lower_int
        hi = self.upper_int
        return (lo is None or v >= lo) and (hi is None or v <= hi)

    def render(self) -> str:
        if not self.applicable:
            return "n/a"
        if self.kind == EXACT:
            return str(self.value)
        lo = self.lower_int
        hi = self.upper_int
        if self.kind == LOWER:
            return f">={lo}"
        if self.kind == UPPER:
            return f"<={hi}"
        return f"[{lo},{hi}]"


def _exact(value: int, reason: str) -> FormulaVerdict:
    return FormulaVerdict(EXACT, True, reason, value=value)


def _na(kind: str, reason: str) -> FormulaVerdict:
    return FormulaVerdict(kind, False, reason)


def f_complete(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of K_n."""
    if not 1 <= k < n:
        return _na(EXACT, f"needs 1 <= k < n, got k={k}, n={n}")
    if n <= 2 * k + 1:
        return _exact(n, f"n={n} <= 2k+1")
    return _exact(k + 1, f"n={n} >= 2k+2")


def f_complement_cycle(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of the complement of C_n."""
    if not n >= k + 3 >= 4:
        return _na(EXACT, f"needs n >= k+3 >= 4, got n={n}, k={k}")
    if n <= 2 * k + 2:
        return _exact(n, f"n={n} <= 2k+2")
    if n <= 3 * k + 2:
        return _exact(k + 2, f"2k+3 <= n={n} <= 3k+2")
    return _exact(k + 1, f"n={n} >= 3k+3")


def f_complement_path(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of the complement of P_n."""
    if not n >= k + 3 >= 4:
        return _na(EXACT, f"needs n >= k+3 >= 4, got n={n}, k={k}")
    if k == 1:
        if n >= 5:
            return _exact(2, "k=1, n >= 5")
        return _exact(n, "k=1, n=4")
    if n <= 2 * k + 2:
        return _exact(n, f"n={n} <= 2k+2")
    if n <= 3 * k:
        return _exact(k + 2, f"2k+3 <= n={n} <= 3k")
    return _exact(k + 1, f"n={n} >= 3k+1")


def f_cycle(n: int, k: int) -> FormulaVerdict:
    """Restrained domination number of C_n (k = 1 by residue; k = 2 gives n)."""
    if n < 4:
        return _na(EXACT, f"needs n >= 4, got n={n}")
    if k == 2:
        return _exact(n, "k=2: whole vertex set")
    if k != 1:
        return _na(EXACT, f"cycle has min degree 2 < k={k}; no valid set exists")
    base = 2 * math.ceil(n / 4)
    r = n % 4
    if r == 1:
        return _exact(base - 1, "n = 1 (mod 4)")
    if r == 3:
        return _exact(base + 1, "n = 3 (mod 4)")
    return _exact(base, "n = 0 or 2 (mod 4)")


def f_complete_bipartite(n: int, m: int, k: int) -> FormulaVerdict:
    """Restrained domination number of K_{n,m}."""
    n, m = max(n, m), min(n, m)
    if not n >= m >= k >= 1:
        return _na(EXACT, f"needs n >= m >= k >= 1, got n={n}, m={m}, k={k}")
    if m >= 2 * k:
        return _exact(2 * k, f"n >= m={m} >= 2k")
    return _exact(n + m, f"m={m} < 2k")


def f_multipartite_bounds(parts: Sequence[int], k: int,
                          t0: int | None = None,
                          gamma_value: int | None = None) -> FormulaVerdict:
    """Interval for K_{n1..np} when the value is below n; refined upper bound
    when t0 is supplied."""
    p = len(parts)
    n = sum(parts)
    if p < 3:
        return _na(INTERVAL, f"needs p >= 3 parts, got p={p}")
    if gamma_value is not None and gamma_value >= n:
        return _na(INTERVAL, "value equals n; bounds only apply below n")
    lower = Fraction(k * p, p - 1)
    upper = Fraction(n - k)
    reason = "value < n case"
    if t0 is not None:
        if t0 < 2:
            return _na(INTERVAL, f"t0={t0} < 2 implies value n; bounds vacuous")
        upper = Fraction(n - k - math.ceil(Fraction(k, t0 - 1)))
        reason = f"value < n case, refined with t0={t0}"
    return FormulaVerdict(INTERVAL, True, reason, lower=lower, upper=upper)


def f_lower_edges(n: int, m: int, k: int) -> FormulaVerdict:
    """Edge-count lower bound 3n/2 - m/k (k = 1 recovers the classic 3n/2 - m)."""
    if k < 1:
        return _na(LOWER, f"needs k >= 1, got {k}")
    return FormulaVerdict(LOWER, True, "min degree >= k assumed by caller",
                          lower=Fraction(3 * n, 2) - Fraction(m, k))


def f_domatic_complete(n: int, k: int) -> FormulaVerdict:
    """Restrained domatic number of K_n."""
    if not 1 <= k < n:
        return _na(EXACT, f"needs 1 <= k < n, got k={k}, n={n}")
    return _exact(n // (k + 1), "complete graph")


def f_domatic_caps(n: int, k: int, bipartite: bool = False) -> FormulaVerdict:
    """Upper bound n/(k+1), improved to n/(2k) for bipartite graphs."""
    if k < 1:
        return _na(UPPER, f"needs k >= 1, got {k}")
    if bipartite:
        return FormulaVerdict(UPPER, True, "bipartite cap n/2k",
                              upper=Fraction(n, 2 * k))
    return FormulaVerdict(UPPER, True, "general cap n/(k+1)",
                          upper=Fraction(n, k + 1))


def f_prism_k1(n: int) -> FormulaVerdict:
    """k = 1 value stated for the prism of C_n and of P_n, in both the total
    and the total-restrained variant (all four statements coincide)."""
    if n < 4:
        return _na(EXACT, f"needs n >= 4, got n={n}")
    base = 2 * math.ceil(n / 4)
    r = n % 4
    if r == 0:
        return _exact(base + 2, "n = 0 (mod 4)")
    if r == 3:
        return _exact(base + 1, "n = 3 (mod 4)")
    return _exact(base, "n = 1 or 2 (mod 4)")


def f_prism_cycle_k2(n: int) -> FormulaVerdict:
    """Restrained domination number (k = 2) of the prism of C_n."""
    if n < 4:
        return _na(EXACT, f"needs n >= 4, got n={n}")
    if n <= 5:
        return _exact(2 * n, "n = 4 or 5: whole vertex set")
    return _exact(n + 2, "n >= 6")


def f_prism_cycle_k2_total(n: int) -> FormulaVerdict:
    """Cited 2-tuple total domination number of the prism of C_n."""
    if n < 5:
        return _na(EXACT, f"needs n >= 5, got n={n}")
    return _exact(n + 2, "n >= 5")


def f_prism_regular_lb(n: int, ell: int, k: int) -> FormulaVerdict:
    """Prism of an ell-regular graph: lower bound n+k inside the degree
    window, sharpening to the exact value 2n for small n."""
    if not 1 <= k - 1 <= ell <= 2 * k - 2:
        return _na(LOWER,
                   f"window 1 <= k-1 <= ell <= 2k-2 fails for ell={ell}, k={k}")
    if n <= ell + 2 * k - 1:
        return _exact(2 * n, f"n={n} <= ell+2k-1: whole vertex set")
    return FormulaVerdict(LOWER, True, f"ell-regular window, n={n} >= ell+2k",
                          lower=Fraction(n + k))


def f_prism_sandwich(g_lo: int, g_lo_bar: int, g_hi: int, g_hi_bar: int,
                     k: int) -> FormulaVerdict:
    """Prism value sandwiched between the (k-1)- and k-level sums of the two
    halves; the lower half needs k >= 2."""
    if k < 1:
        return _na(INTERVAL, f"needs k >= 1, got {k}")
    upper = Fraction(g_hi + g_hi_bar)
    if k == 1:
        return FormulaVerdict(UPPER, True, "k=1: only the upper half applies",
                              upper=upper)
    return FormulaVerdict(INTERVAL, True, "k >= 2: both halves apply",
                          lower=Fraction(g_lo + g_lo_bar), upper=upper)


def f_kjoin_gamma(m: int, k: int) -> FormulaVerdict:
    """Value m for graphs assembled as a k-join onto an m-clique spanning
    subgraph with m minimal (m = k+1 is the canonical generator)."""
    if m < k + 1:
        return _na(EXACT, f"needs m >= k+1, got m={m}, k={k}")
    return _exact(m, "k-join construction with minimal clique order")
