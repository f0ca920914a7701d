"""Shared brute-force oracles, deliberately written unlike the library code.

The library builds its series by product/recurrence tricks; these helpers
count and enumerate directly, so agreement between the two is evidence rather
than tautology.
"""

from fractions import Fraction
from functools import cache

import pytest


@cache
def _partitions_bounded(k: int, largest: int) -> int:
    # partitions of k into parts of size at most largest
    if k == 0:
        return 1
    if largest == 0:
        return 0
    count = _partitions_bounded(k, largest - 1)
    if k >= largest:
        count += _partitions_bounded(k - largest, largest)
    return count


def partition_count(k: int) -> int:
    """Number of partitions of k, by bounded-part recursion."""
    return _partitions_bounded(k, k)


def divisor_sum_naive(k: int) -> int:
    """Sum of divisors by scanning every candidate up to k."""
    return sum(d for d in range(1, k + 1) if k % d == 0)


def convolve(a, b):
    """Plain double-loop Cauchy product of two coefficient lists (min length)."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def invert(f):
    """Coefficients of 1/f through the length of f: solve f * g = 1 one coefficient
    at a time, g_k = ([k == 0] - f_1 g_(k-1) - ... - f_k g_0) / f_0, every term of the
    dense double loop written out, zeros included.  An integral g_k is kept as an int."""
    g = []
    for k in range(len(f)):
        rest = int(k == 0)
        for j in range(1, k + 1):
            rest -= f[j] * g[k - j]
        quotient = Fraction(rest) / f[0]
        g.append(quotient.numerator if quotient.denominator == 1 else quotient)
    return g


def invert_mod(f, m):
    """Coefficients of 1/f in Z/m through the length of f, by the same dense double
    loop as invert, with one modular inverse of f_0: every term written out, zeros
    included, and each g_k reduced into [0, m)."""
    lead = pow(f[0], -1, m)
    g = []
    for k in range(len(f)):
        rest = int(k == 0)
        for j in range(1, k + 1):
            rest -= f[j] * g[k - j]
        g.append(rest * lead % m)
    return g


def pentagonal(n: int) -> list[int]:
    """Coefficients through q^n of prod (1 - q^m), by Euler's pentagonal number
    theorem: (-1)^j at the generalized pentagonal numbers j(3j -+ 1)/2, else 0."""
    coeffs = [0] * (n + 1)
    j = 0
    while j * (3 * j - 1) // 2 <= n:
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k <= n:
                coeffs[k] = (-1) ** j
        j += 1
    return coeffs


@pytest.fixture
def oracle():
    class Oracle:
        partition_count = staticmethod(partition_count)
        divisor_sum = staticmethod(divisor_sum_naive)
        convolve = staticmethod(convolve)
        invert = staticmethod(invert)
        invert_mod = staticmethod(invert_mod)
        pentagonal = staticmethod(pentagonal)

    return Oracle


@pytest.fixture
def products(monkeypatch):
    """The operand length of every exact series product made while the test runs."""
    from qbps.series import TruncatedSeries

    lengths = []
    product = TruncatedSeries._product

    def counted(a, b):
        lengths.append(len(a))
        return product(a, b)

    monkeypatch.setattr(TruncatedSeries, "_product", staticmethod(counted))
    return lengths
