"""Divisor sums, partition counts, and their generating series.

Conventions: the partition series P carries constant term p(0) = 1, forced by
the product form prod_{m>=1} (1-q^m)^{-1}; the divisor-sum series G carries
constant term 0 since sigma(0) is undefined.  Every power of P, exact or mod m,
comes from Euler's pentagonal P^-1 by one recipe, QFormCatalog.power, whose
docstring states it.  G comes from an independent divisor sieve, never from P:
smallest prime factors, then sigma by multiplicativity.  G mod m is reduced
straight from the sieve's table, so a residue sweep holds no exact G.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .series import ResidueSeries, TruncatedSeries, _checked_modulus

__all__ = ["sigma", "partition_series", "p_alpha", "g_series", "QFormCatalog", "catalog_for"]


def sigma(k: int) -> int:
    """Sum of the positive divisors of a plain int k >= 1, by trial division up
    to sqrt(k), independent of the sieve behind G."""
    if type(k) is not int:
        raise TypeError(f"divisor sum requires an int, got {type(k).__name__}")
    if k < 1:
        raise ValueError("divisor sum requires a positive argument")
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += d
            if d * d != k:
                total += k // d
        d += 1
    return total


def _sigma_table(order: int) -> list[int]:
    # Smallest prime factors by slices, largest d first, so that the smallest
    # prime writes each entry last (a composite d is overwritten by its own
    # smallest prime, which comes later).  Then sigma by multiplicativity: for
    # k = p m with p the smallest prime of k, sigma(k) = (p + 1) sigma(m), less
    # p sigma(m / p) when p also divides m.
    spf = list(range(order + 1))
    for d in range(isqrt(order), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, order + 1, d))
    table = [0, 1] + [0] * (order - 1)
    for k in range(2, order + 1):
        p = spf[k]
        m = k // p
        table[k] = (p + 1) * table[m] - (p * table[m // p] if m % p == 0 else 0)
    return table[:order + 1]


class QFormCatalog:
    """Lazily built, per-order cache of P, G, the integer powers of P, exact and
    mod m, and the series composed from them.

    All series share the catalog's truncation order, so formulas composed from
    catalog members never silently truncate shorter than expected.  Each member,
    and each composed series another module stores here, is built once per
    catalog, by derived(), so every check at one order reads one object; a series
    composed without derived() is rebuilt on each call.  A shared series is one
    input; each check still compares two sources built different ways.
    """

    def __init__(self, order: int):
        if type(order) is not int:
            raise TypeError(f"truncation order must be an int, got {type(order).__name__}")
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self._order = order
        self._series: dict = {}

    def derived(self, key, build):
        """build(), called at most once per catalog; later calls with key return its result."""
        if key not in self._series:
            self._series[key] = build()
        return self._series[key]

    @property
    def partition(self) -> TruncatedSeries:
        """P, the partition generating series, as the inverse of Euler's P^-1."""
        return self.power(1)

    @property
    def divisor_sum(self) -> TruncatedSeries:
        """G, the divisor-sum generating series (constant term 0)."""
        return self.derived("divisor_sum", lambda: TruncatedSeries(_sigma_table(self._order)))

    def power(self, alpha: int, modulus: int | None = None) -> TruncatedSeries | ResidueSeries:
        """P^alpha at the catalog order, exact or mod m, cached per (exponent, modulus).

        One recipe serves both domains.  It starts from Euler's pentagonal P^-1,
        written straight into the domain asked for, so a residue power builds no
        exact series:

        * P is the inverse() of P^-1;
        * a positive multiple 3k of 3 is ((P^-1)^3).inverse() ** k: P^3 is the
          inverse of Euler's series cubed, never of Jacobi's formula, and
          P^12 = (P^3)^4 takes two squares and no P.  P^-3 and P^3 are locals
          of that build, never catalog entries;
        * any other positive power is a power of P, and a negative one a power
          of P^-1.

        Both series inverted are lacunary: P^-1 has O(sqrt N) nonzero
        coefficients, all +-1, by Euler's theorem, and (P^-1)^3 =
        sum_k (-1)^k (2k+1) q^(k(k+1)/2) has O(sqrt N) by Jacobi's identity, so
        exact forward substitution inverts each in O(N^1.5), and a residue
        series inverts by Newton's iteration (the series module says why the two
        domains invert differently).  P mod m is never built from Frobenius,
        (P mod 5)^5 = P(q^5), which is how the support lemma is proved.
        An exponent or a modulus that is not a plain int, or a modulus that does
        not divide 10, raises before the cache is read: 2.0 == 2 and True == 1
        would otherwise find P^2 and P.
        """
        if type(alpha) is not int:
            raise TypeError(f"exponent must be an int, got {type(alpha).__name__}")
        if modulus is not None:
            _checked_modulus(modulus)
        if alpha == -1:
            build = lambda: self._pentagonal(modulus)
        elif alpha == 1:
            build = lambda: self.power(-1, modulus).inverse()
        elif alpha > 0 and alpha % 3 == 0:
            build = lambda: (self.power(-1, modulus) ** 3).inverse() ** (alpha // 3)
        else:
            build = lambda: self.power(1 if alpha > 0 else -1, modulus) ** abs(alpha)
        return self.derived((alpha, modulus), build)

    def _pentagonal(self, modulus: int | None) -> TruncatedSeries | ResidueSeries:
        # prod (1-q^m) = sum_{j in Z} (-1)^j q^{j(3j-1)/2}.
        coeffs = [0] * (self._order + 1)
        for j in range(-isqrt(self._order), isqrt(self._order) + 1):
            if (g := j * (3 * j - 1) // 2) <= self._order:
                coeffs[g] = -1 if j % 2 else 1
        return TruncatedSeries(coeffs) if modulus is None else ResidueSeries(coeffs, modulus)


@lru_cache(maxsize=2, typed=True)      # typed: True never aliases order 1
def catalog_for(order: int) -> QFormCatalog:
    """Shared catalog per truncation order; repeated formula evaluation reuses it.

    Only the two most recently used orders are kept, because one run_all reads
    exactly two depths, its order and the support lemma's.  An older order is
    dropped with everything built on it and rebuilt on its next use, so a
    process that sweeps many orders holds two catalogs, not one per order.
    """
    return QFormCatalog(order)


def partition_series(order: int) -> TruncatedSeries:
    """Coefficient k is p(k), the number of partitions of k; p(0) = 1."""
    return catalog_for(order).partition


def p_alpha(alpha: int, order: int, modulus: int | None = None) -> TruncatedSeries | ResidueSeries:
    """P^alpha for any integer alpha, exact, or mod m built in Z/m with no exact series."""
    return catalog_for(order).power(alpha, modulus)


def g_series(order: int, modulus: int | None = None) -> TruncatedSeries | ResidueSeries:
    """Coefficient k is sigma(k) for k >= 1; coefficient 0 is 0.  Exact, from the
    catalog, or mod m, reduced from a fresh sieve table that is then dropped."""
    catalog = catalog_for(order)        # validates the order
    if modulus is None:
        return catalog.divisor_sum
    _checked_modulus(modulus)           # before the sieve, the costly part
    return ResidueSeries(_sigma_table(order), modulus)
