"""BPS-style invariants a(beta) and b(beta), evaluated several independent ways.

Two routes to the same numbers, kept deliberately separate so their agreement
is a real check and not a tautology:

  * the direct route, the general formulas evaluated for each class beta_n
    (a_direct_series, b_direct_series), with a_general and b_general over
    decompositions_for's explicit per-pair tuples as the reference;
  * the closed forms in the partition and divisor-sum series (a_closed_series,
    b_closed_series, and the brace 7G^2 - G + DG of brace_series);

plus a third, intermediate rewrite of b (b_intermediate_series) that pins the
index-shift step of the derivation connecting the general formula to the
closed form.  Each function's docstring gives its formula.

The integrality of every coefficient is the conjectural content; the
a_integrality and b_integrality checks of congruence test it, never assume it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .series import ResidueSeries, TruncatedSeries, qd, _checked_modulus, _normalize
from .qforms import catalog_for, g_series, p_alpha
from .gw import NINE_POINT_BLOWUP, n0_series, n1_series, n1_fiber

__all__ = [
    "ClassData", "a_general", "b_general", "decompositions_for",
    "a_direct_series", "b_direct_series",
    "a_closed_series", "b_closed_series", "b_intermediate_series",
    "brace_series",
]


class ClassData(namedtuple("ClassData", "c g n0 n1")):
    """Per-class inputs: degree c(beta) > 0, genus, and the two curve counts.

    a(beta) reads n0 only, so a_direct_series leaves n1 as None.  Every
    construction path checks c > 0, _make, _replace and unpickling included.
    """

    __slots__ = ()

    def __new__(cls, c, g, n0, n1):
        if c <= 0:
            raise ValueError(f"degree c(beta) must be positive, got {c}")
        return tuple.__new__(cls, (c, g, n0, n1))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _binomial(a: int, b: int) -> int:
    # Zero outside 0 <= b <= a; the classes at hand only ever exercise C(0,0)=1
    # but the zero-extension is the standard combinatorial reading.
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def a_general(data: ClassData):
    """a(beta) = -(1/12) g(beta) N0(beta), exact."""
    return _normalize(Fraction(-data.g, 12) * data.n0)


def _b_value(data: ClassData, chi: int, tail):
    """b(beta) = (1/2880)((12g^2 + gc - 24g) N0 + 12 chi N1 + 12 tail), exact.

    The counts and the tail may be ints or Fractions; the sum is divided once.
    """
    g, c = data.g, data.c
    numerator = (12 * g * g + g * c - 24 * g) * data.n0 + 12 * chi * data.n1 + 12 * tail
    return _normalize(Fraction(numerator, 2880))


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
    surface = NINE_POINT_BLOWUP
    terms = []
    for k in range(n):
        fiber, beta = surface.fiber(n - k), surface.beta(k)
        terms.append((surface.degree(fiber), surface.intersect(fiber, beta),
                      surface.intersect(beta, beta), n1_fiber(n - k), n0.coefficient(k)))
    return terms


def _class_data(n: int, n0: TruncatedSeries, n1: TruncatedSeries | None = None) -> ClassData:
    """The inputs of beta_n: c and g from NINE_POINT_BLOWUP, the counts from n0, n1."""
    surface = NINE_POINT_BLOWUP
    beta = surface.beta(n)
    return ClassData(c=surface.degree(beta), g=surface.genus(beta), n0=n0.coefficient(n),
                     n1=None if n1 is None else n1.coefficient(n))


def a_direct_series(order: int) -> TruncatedSeries:
    """Coefficient n is a_general of beta_n, straight from the genus-0 count table."""
    n0 = n0_series(order)
    return TruncatedSeries([a_general(_class_data(n, n0)) for n in range(order + 1)])


def b_direct_series(order: int) -> TruncatedSeries:
    """Coefficient n is b(beta_n), its splitting sum one integer dot product per class.

    c, g and chi come from NINE_POINT_BLOWUP.  The intersection form is bilinear,
    so (lF).beta_k = l (F.beta_k), and the term of beta_n = lF + beta_k (l = n-k)
    is u_l v_k with
      u_l = C(c-1, c(lF)) l N1(lF)               (the fiber row, one per class degree c),
      v_k = (F.beta_k) (beta_k.beta_k) N0(beta_k)   (the section row).
    Both rows are read once per order, and the sum over the n pairs of beta_n is
    one dot product of u_n..u_1 with v_0..v_{n-1}.  Every term is still summed;
    nothing is simplified algebraically, so this path stays independent of the
    closed form.
    """
    n0, n1 = n0_series(order), n1_series(order)
    surface = NINE_POINT_BLOWUP
    chi = surface.euler_characteristic
    f = surface.fiber()
    # Listed l = order..1, so the pairs of beta_n are the last n entries of a fiber row.
    fibers = [(l, surface.degree(surface.fiber(l)), n1_fiber(l)) for l in range(order, 0, -1)]
    sections = [surface.intersect(f, beta) * surface.intersect(beta, beta) * n0.coefficient(k)
                for k, beta in enumerate(map(surface.beta, range(order)))]
    rows = {}
    coefficients = []
    for n in range(order + 1):
        data = _class_data(n, n0, n1)
        if data.c not in rows:
            rows[data.c] = [_normalize(_binomial(data.c - 1, c_prime) * l * n1_prime)
                            for l, c_prime, n1_prime in fibers]
        tail = sum(map(mul, rows[data.c][order - n:], sections))
        coefficients.append(_b_value(data, chi, tail))
    return TruncatedSeries(coefficients)


# The brace and the closed forms are built once per order, on the order's
# catalog: several checks scan each of them.
def brace_series(order: int, modulus: int | None = None) -> TruncatedSeries | ResidueSeries:
    """7G^2 - G + DG, the factor whose coefficients are all divisible by 10.

    Exact, or built in Z/m from G mod m, so that no exact product is made, and
    cached per modulus.  A modulus that is not a plain int raises TypeError before
    the cache is read: 10.0 == 10 would otherwise find the brace mod 10 there.
    """
    if modulus is not None:
        _checked_modulus(modulus)

    def build():
        g = g_series(order, modulus)
        return 7 * (g * g) - g + qd(g)
    return catalog_for(order).derived(("brace", modulus), build)


def a_closed_series(order: int) -> TruncatedSeries:
    """Closed form -P12 * G."""
    return catalog_for(order).derived(
        "a_closed", lambda: -(p_alpha(12, order) * g_series(order)))


def b_closed_series(order: int) -> TruncatedSeries:
    """Closed form (1/10) P12 (7G^2 - G + DG)."""
    return catalog_for(order).derived(
        "b_closed", lambda: Fraction(1, 10) * (p_alpha(12, order) * brace_series(order)))


def b_intermediate_series(order: int) -> TruncatedSeries:
    """The half-simplified form of b, between the direct sum and the closed form.

    (1/240) D^2 P12 - (23/2880) D P12 + (1/20) P12 DG + (1/240) G (2 D P12 - P12)

    formed as integer numerators over 2880 and divided once.  The last summand
    is where the splitting sum turns into a convolution after reindexing;
    evaluating it separately pins that step.  P12 DG is n1_series, the product
    b_direct_series also reads: b_routes checks that route against the closed
    form, so sharing N1 leaves b_intermediate two independent sources.
    """
    p12 = p_alpha(12, order)
    dp12 = qd(p12)
    numerators = (12 * qd(dp12) - 23 * dp12 + 144 * n1_series(order)
                  + 12 * (g_series(order) * (2 * dp12 - p12)))
    return Fraction(1, 2880) * numerators
