"""BPS-style invariants a(beta) and b(beta), evaluated several independent ways.

Two routes to the same numbers, kept deliberately separate so their agreement
is a real check and not a tautology:

  * the direct route: the general formulas (a_general, b_general) evaluated
    literally, term by term, for each class beta_n, with c, g and chi read
    from NINE_POINT_BLOWUP and the splitting sum from decompositions_for
    (a_direct_series, b_direct_series),
  * closed forms in the partition and divisor-sum series
    (a_closed_series = -P12*G and b_closed_series = (1/10)P12*(7G^2 - G + DG)),

plus a third, intermediate rewrite of b that pins the index-shift step of the
derivation connecting the general formula to the closed form.

The integrality of every coefficient is the conjectural content; it is audited,
never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import TruncatedSeries, qd, _normalize
from .qforms import g_series, p_alpha
from .gw import NINE_POINT_BLOWUP, n0_series, n1_series, n1_fiber

__all__ = [
    "ClassData", "DecompositionTerm", "BPSTable",
    "a_general", "b_general", "decompositions_for",
    "a_direct_series", "b_direct_series",
    "a_closed_series", "b_closed_series", "b_intermediate_series",
    "brace_series", "integrality_audit", "bps_table",
]


@dataclass(frozen=True)
class ClassData:
    """Per-class inputs: degree c(beta) > 0, genus, and the two curve counts."""

    c: int
    g: int
    n0: object
    n1: object

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"degree c(beta) must be positive, got {self.c}")


@dataclass(frozen=True)
class DecompositionTerm:
    """One summand of the splitting sum over beta' + beta'' = beta."""

    c_prime: int
    dot_prime_dprime: int
    dot_dprime_dprime: int
    n1_prime: object
    n0_dprime: object


def _binomial(a: int, b: int) -> int:
    # Zero outside 0 <= b <= a; the classes at hand only ever exercise C(0,0)=1
    # but the zero-extension is the standard combinatorial reading.
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def a_general(data: ClassData):
    """a(beta) = -(1/12) g(beta) N0(beta), exact."""
    return _normalize(Fraction(-data.g, 12) * data.n0)


def b_general(data: ClassData, chi: int, terms):
    """b(beta) from its three-part formula over explicit decomposition terms.

    (1/2880)(12g^2 + gc - 24g) N0  +  (1/240) chi N1
      + (1/240) sum C(c-1, c') (beta'.beta'') (beta''.beta'') N1(beta') N0(beta'')
    """
    g, c = data.g, data.c
    head = Fraction(12 * g * g + g * c - 24 * g, 2880) * data.n0
    middle = Fraction(chi, 240) * data.n1
    # The fiber factors go first: C(c-1, c') (beta'.beta'') N1(beta') is exact
    # and uncancelled, and on the section classes it is an int, so the long
    # products with N0 stay in integer arithmetic.
    tail = sum(
        (_normalize(_binomial(c - 1, t.c_prime) * t.dot_prime_dprime * t.n1_prime)
         * t.dot_dprime_dprime * t.n0_dprime)
        for t in terms
    )
    return _normalize(head + middle + Fraction(1, 240) * tail)


def decompositions_for(n: int, n0: TruncatedSeries) -> list[DecompositionTerm]:
    """All splittings of beta_n with a genus-1 part: beta' = (n-k)F, beta'' = beta_k.

    c(beta') = 0, beta'.beta'' = n-k and beta''.beta'' = 2k-1 (k = 0..n-1) come from
    NINE_POINT_BLOWUP.  The n0 series must extend at least to order n-1.
    """
    if n < 0:
        raise ValueError("class index must be non-negative")
    surface = NINE_POINT_BLOWUP
    return [
        DecompositionTerm(
            c_prime=surface.degree(surface.fiber(n - k)),
            dot_prime_dprime=surface.intersect(surface.fiber(n - k), surface.beta(k)),
            dot_dprime_dprime=surface.intersect(surface.beta(k), surface.beta(k)),
            n1_prime=n1_fiber(n - k),
            n0_dprime=n0.coefficient(k),
        )
        for k in range(n)
    ]


def _class_data(n: int, n0: TruncatedSeries, n1: TruncatedSeries) -> ClassData:
    """The inputs of beta_n: c and g from NINE_POINT_BLOWUP, the counts from n0, n1."""
    surface = NINE_POINT_BLOWUP
    beta = surface.beta(n)
    return ClassData(c=surface.degree(beta), g=surface.genus(beta),
                     n0=n0.coefficient(n), n1=n1.coefficient(n))


def a_direct_series(order: int) -> TruncatedSeries:
    """Coefficient n is a_general of beta_n, straight from the count tables."""
    n0, n1 = n0_series(order), n1_series(order)
    return TruncatedSeries([a_general(_class_data(n, n0, n1)) for n in range(order + 1)])


def b_direct_series(order: int) -> TruncatedSeries:
    """Coefficient n is b_general of beta_n, evaluated literally term by term.

    c, g and chi come from NINE_POINT_BLOWUP and the splitting sum from
    decompositions_for; nothing is simplified algebraically, so this path stays
    independent of the closed form.
    """
    n0, n1 = n0_series(order), n1_series(order)
    chi = NINE_POINT_BLOWUP.euler_characteristic
    return TruncatedSeries([b_general(_class_data(n, n0, n1), chi, decompositions_for(n, n0))
                            for n in range(order + 1)])


def brace_series(order: int) -> TruncatedSeries:
    """7G^2 - G + DG, the factor whose coefficients are all divisible by 10."""
    g = g_series(order)
    return 7 * (g * g) - g + qd(g)


def a_closed_series(order: int) -> TruncatedSeries:
    """Closed form -P12 * G."""
    return -(p_alpha(12, order) * g_series(order))


def b_closed_series(order: int) -> TruncatedSeries:
    """Closed form (1/10) P12 (7G^2 - G + DG)."""
    return Fraction(1, 10) * (p_alpha(12, order) * brace_series(order))


def b_intermediate_series(order: int) -> TruncatedSeries:
    """The half-simplified form of b, between the direct sum and the closed form.

    (1/240) D^2 P12 - (23/2880) D P12 + (1/20) P12 DG + (1/240) G (2 D P12 - P12)

    The last summand is where the splitting sum turns into a convolution after
    reindexing; evaluating it separately pins that step.
    """
    p12 = p_alpha(12, order)
    g = g_series(order)
    dp12 = qd(p12)
    return (Fraction(1, 240) * qd(dp12)
            - Fraction(23, 2880) * dp12
            + Fraction(1, 20) * (p12 * qd(g))
            + Fraction(1, 240) * (g * (2 * dp12 - p12)))


def integrality_audit(f: TruncatedSeries) -> list[int]:
    """Indices whose coefficient is not an integer.  Empty means the claim holds."""
    return [k for k, c in enumerate(f.coefficients) if c.denominator != 1]


@dataclass(frozen=True)
class BPSTable:
    """Coefficient n of a_series / b_series is a(beta_n) / b(beta_n)."""

    a_series: TruncatedSeries
    b_series: TruncatedSeries
    order: int


def bps_table(order: int) -> BPSTable:
    return BPSTable(a_series=a_closed_series(order),
                    b_series=b_closed_series(order),
                    order=order)
