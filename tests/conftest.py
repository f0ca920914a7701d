"""Shared brute-force oracles, deliberately written unlike the library code.

The library builds its series by product/recurrence tricks; these helpers
count and enumerate directly, so agreement between the two is evidence rather
than tautology.  b_general multiplies the splitting sum of b out one pair at a
time, where bps.b_direct_series factors it by bilinearity; the two share only
the final combination, bps._b_value.
"""

from fractions import Fraction
from functools import cache

import pytest

from qbps import bps
from qbps.bps import ClassData, _b_value, _binomial
from qbps.gw import n1_fiber
from qbps.series import TruncatedSeries


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


def b_general(data: ClassData, chi: int, terms):
    """b(beta) from its three-part formula over explicit decomposition terms.

    (1/2880)(12g^2 + gc - 24g) N0  +  (1/240) chi N1
      + (1/240) sum C(c-1, c') (beta'.beta'') (beta''.beta'') N1(beta') N0(beta'')

    Each term is a tuple (c', beta'.beta'', beta''.beta'', N1(beta'), N0(beta'')), and
    each is multiplied out in full: this is the explicit per-pair reference.
    """
    tail = sum(_binomial(data.c - 1, c_prime) * dot_prime_dprime * dot_dprime_dprime
               * n1_prime * n0_dprime
               for c_prime, dot_prime_dprime, dot_dprime_dprime, n1_prime, n0_dprime in terms)
    return _b_value(data, chi, tail)


def decompositions_for(n: int, n0: TruncatedSeries) -> list[tuple]:
    """All splittings of beta_n with a genus-1 part: beta' = (n-k)F, beta'' = beta_k.

    One tuple (c', beta'.beta'', beta''.beta'', N1(beta'), N0(beta'')) per k = 0..n-1,
    from NINE_POINT_BLOWUP: on the nine-point blow-up c' = 0, beta'.beta'' = n-k and
    beta''.beta'' = 2k-1.  The n0 series must extend at least to order n-1.
    """
    if n < 0:
        raise ValueError("class index must be non-negative")
    # Read at call time, so a test that patches the geometry sees it change.
    surface = bps.NINE_POINT_BLOWUP
    terms = []
    for k in range(n):
        fiber, beta = surface.fiber(n - k), surface.beta(k)
        terms.append((surface.degree(fiber), surface.intersect(fiber, beta),
                      surface.intersect(beta, beta), n1_fiber(n - k), n0.coefficient(k)))
    return terms


@pytest.fixture
def oracle():
    class Oracle:
        partition_count = staticmethod(partition_count)
        divisor_sum = staticmethod(divisor_sum_naive)
        convolve = staticmethod(convolve)
        invert = staticmethod(invert)
        invert_mod = staticmethod(invert_mod)
        pentagonal = staticmethod(pentagonal)
        b_general = staticmethod(b_general)
        decompositions_for = staticmethod(decompositions_for)

    return Oracle


@pytest.fixture
def products(monkeypatch):
    """The operand length of every exact series product made while the test runs."""
    lengths = []
    product = TruncatedSeries._product

    def counted(a, b):
        lengths.append(len(a))
        return product(a, b)

    monkeypatch.setattr(TruncatedSeries, "_product", staticmethod(counted))
    return lengths
