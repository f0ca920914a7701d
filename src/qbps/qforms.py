"""Divisor sums, partition counts, and their generating series.

Conventions: the partition series P carries constant term p(0) = 1, forced by
the product form prod_{m>=1} (1-q^m)^{-1}; the divisor-sum series G carries
constant term 0 since sigma(0) is undefined.  Every downstream identity
(inversion round-trips, logarithmic derivatives, the twelfth-power tables)
relies on exactly this normalization.
"""

from __future__ import annotations

from functools import lru_cache

from .series import TruncatedSeries

__all__ = ["sigma", "partition_series", "p_alpha", "g_series", "QFormCatalog", "catalog_for"]


def sigma(k: int) -> int:
    """Sum of the positive divisors of k, by trial division up to sqrt(k)."""
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
    # Sieve: each divisor d contributes itself to every multiple. O(N log N).
    table = [0] * (order + 1)
    for d in range(1, order + 1):
        for k in range(d, order + 1, d):
            table[k] += d
    return table


class QFormCatalog:
    """Lazily built, per-order cache of P, G, and integer powers of P.

    All series share the catalog's truncation order, so formulas composed from
    catalog members never silently truncate shorter than expected.
    """

    def __init__(self, order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self._order = order
        self._partition = None
        self._divisor = None
        self._powers: dict[int, TruncatedSeries] = {}

    @property
    def order(self) -> int:
        return self._order

    @property
    def partition(self) -> TruncatedSeries:
        """P, the partition generating series."""
        if self._partition is None:
            n = self._order
            # Evaluate prod (1-q^m)^{-1} factor by factor: multiplying an
            # in-place table by 1/(1-q^m) is the ascending update c[k] += c[k-m].
            coeffs = [0] * (n + 1)
            coeffs[0] = 1
            for m in range(1, n + 1):
                for k in range(m, n + 1):
                    coeffs[k] += coeffs[k - m]
            self._partition = TruncatedSeries(coeffs)
        return self._partition

    @property
    def divisor_sum(self) -> TruncatedSeries:
        """G, the divisor-sum generating series (constant term 0)."""
        if self._divisor is None:
            self._divisor = TruncatedSeries(_sigma_table(self._order))
        return self._divisor

    def power(self, alpha: int) -> TruncatedSeries:
        """P^alpha at the catalog order, cached per exponent.

        Every negative power is a power of the one cached P^-1, so P is
        inverted at most once per catalog.
        """
        if alpha not in self._powers:
            if alpha < -1:
                self._powers[alpha] = self.power(-1) ** -alpha
            else:
                self._powers[alpha] = self.partition ** alpha
        return self._powers[alpha]


@lru_cache(maxsize=None)
def catalog_for(order: int) -> QFormCatalog:
    """Shared catalog per truncation order; repeated formula evaluation reuses it."""
    return QFormCatalog(order)


def partition_series(order: int) -> TruncatedSeries:
    """Coefficient k is p(k), the number of partitions of k; p(0) = 1."""
    return catalog_for(order).partition


def p_alpha(alpha: int, order: int) -> TruncatedSeries:
    """The alpha-th power of the partition series, any integer alpha."""
    return catalog_for(order).power(alpha)


def g_series(order: int) -> TruncatedSeries:
    """Coefficient k is sigma(k) for k >= 1; coefficient 0 is 0."""
    return catalog_for(order).divisor_sum
