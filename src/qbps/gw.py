"""Genus-0 and genus-1 curve-count input data on the nine-point blow-up of the plane.

The surface is rational elliptic: S is the section class, F the anticanonical
fiber class, and the classes of interest are beta_n = S + nF.  The counts
themselves (n0_series, n1_series, n1_fiber) are taken as known input rather
than derived from geometry.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .series import TruncatedSeries, qd, _normalize
from .qforms import catalog_for, g_series, p_alpha, sigma

__all__ = [
    "SurfaceContext", "NINE_POINT_BLOWUP", "GWTable",
    "n0_series", "n1_series", "n1_fiber", "gw_table",
]

# A divisor class a*S + b*F is carried around as the coefficient pair (a, b).
DivisorClass = tuple[int, int]


class SurfaceContext(namedtuple(
        "SurfaceContext", "euler_characteristic s_self_intersection f_self_intersection s_dot_f",
        defaults=(12, -1, 0, 1))):
    """Intersection data of the surface, enough to recover degree and genus.

    The canonical class is -F, so the degree pairing c(beta) = -beta.K counts
    intersections with the fiber.  The defaults are the nine-point blow-up's:
    chi = 12, S.S = -1, F.F = 0, S.F = 1.
    """

    __slots__ = ()

    @property
    def canonical_class(self) -> DivisorClass:
        return (0, -1)

    def beta(self, n: int) -> DivisorClass:
        """The section-plus-n-fibers class S + nF."""
        return (1, n)

    def fiber(self, l: int = 1) -> DivisorClass:
        return (0, l)

    def intersect(self, left: DivisorClass, right: DivisorClass) -> int:
        a1, b1 = left
        a2, b2 = right
        return (a1 * a2 * self.s_self_intersection
                + (a1 * b2 + a2 * b1) * self.s_dot_f
                + b1 * b2 * self.f_self_intersection)

    def degree(self, cls: DivisorClass) -> int:
        """c(beta) = -beta.K, the number of point constraints at genus 0 plus one."""
        return -self.intersect(cls, self.canonical_class)

    def genus(self, cls: DivisorClass) -> int:
        """Arithmetic genus from the adjunction relation 2g - 2 = beta.(K + beta)."""
        k = self.canonical_class
        shifted = (cls[0] + k[0], cls[1] + k[1])
        pairing = self.intersect(cls, shifted)
        if pairing % 2:
            raise ValueError(f"class {cls} has odd adjunction pairing {pairing}")
        return (pairing + 2) // 2


NINE_POINT_BLOWUP = SurfaceContext()


class GWTable(namedtuple("GWTable", "n0 n1 order")):
    """Coefficient n of n0 counts genus-0 curves in beta_n; n1 counts genus-1.

    n0 and n1 are TruncatedSeries to the int order.
    """

    __slots__ = ()


def n0_series(order: int) -> TruncatedSeries:
    """Genus-0 counts: coefficient n is the n-th coefficient of P^12."""
    return p_alpha(12, order)


def n1_series(order: int) -> TruncatedSeries:
    """Genus-1 counts: P^12 times DG, built once per order.  Coefficient 0 vanishes."""
    return catalog_for(order).derived("n1", lambda: p_alpha(12, order) * qd(g_series(order)))


def n1_fiber(l: int):
    """Genus-1 count of the l-fold fiber class lF: sigma(l)/l, exact.

    Not an integer in general (l = 2 gives 3/2); integrality is a statement
    about the combined invariants downstream, not about these inputs.
    """
    if l < 1:
        raise ValueError("fiber multiplicity must be positive")
    return _normalize(Fraction(sigma(l), l))


def gw_table(order: int) -> GWTable:
    """Both count series at one order, validated to be non-negative integers."""
    n0 = n0_series(order)
    n1 = n1_series(order)
    for name, series in (("n0", n0), ("n1", n1)):
        for k, c in enumerate(series.coefficients):
            if c.denominator != 1 or c < 0:
                raise ValueError(f"{name} coefficient at q^{k} is not a non-negative integer: {c}")
    if n1.coefficient(0) != 0:
        raise ValueError("genus-1 series must vanish at n = 0")
    return GWTable(n0=n0, n1=n1, order=order)
