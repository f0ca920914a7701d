"""Curve-count input data: table values, fiber counts, intersection bookkeeping."""

from fractions import Fraction

import pytest

from qbps.series import TruncatedSeries, qd
from qbps.qforms import g_series
from qbps.gw import (
    SurfaceContext, NINE_POINT_BLOWUP,
    n0_series, n1_series, n1_fiber, gw_table,
)


class TestGenusZeroSeries:
    def test_head(self):
        s = n0_series(2)
        assert s.coefficient(0) == 1
        assert s.coefficient(1) == 12
        assert s.coefficient(2) == 90


class TestGenusOneSeries:
    def test_no_constant_term(self):
        assert n1_series(0).coefficient(0) == 0

    def test_first_two(self):
        s = n1_series(2)
        assert s.coefficient(1) == 1
        assert s.coefficient(2) == 18  # 12*1*sigma(1) + 1*2*sigma(2)

    def test_product_structure_is_genuine(self):
        # stated identity, not construction artifact: n1 = n0 * DG
        order = 80
        assert n1_series(order) == n0_series(order) * qd(g_series(order))


class TestFiberCounts:
    def test_single_fiber(self):
        assert n1_fiber(1) == 1

    def test_double_fiber_is_not_integral(self):
        assert n1_fiber(2) == Fraction(3, 2)

    def test_quadruple_fiber(self):
        assert n1_fiber(4) == Fraction(7, 4)

    def test_perfect_case_demotes_to_int(self):
        assert isinstance(n1_fiber(1), int)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            n1_fiber(0)


class TestTable:
    def test_coefficients_are_nonnegative_integers(self):
        table = gw_table(100)
        for series in (table.n0, table.n1):
            for c in series.coefficients:
                assert c.denominator == 1
                assert c >= 0

    def test_genus_one_vanishes_at_zero(self):
        assert gw_table(5).n1.coefficient(0) == 0

    def test_order_recorded(self):
        table = gw_table(7)
        assert table.n0.order == table.n1.order == 7

    @pytest.mark.parametrize("bad", [-1, Fraction(1, 2)], ids=["negative", "fractional"])
    def test_count_that_is_not_a_nonnegative_integer_rejected(self, monkeypatch, bad):
        monkeypatch.setattr("qbps.gw.n0_series", lambda order: TruncatedSeries([1, 12, bad]))
        with pytest.raises(ValueError, match=r"n0 coefficient at q\^2 is not a non-negative "
                                             r"integer: " + str(bad)):
            gw_table(2)

    def test_genus_one_constant_term_rejected(self, monkeypatch):
        monkeypatch.setattr("qbps.gw.n1_series", lambda order: TruncatedSeries([1, 1, 18]))
        with pytest.raises(ValueError, match="genus-1 series must vanish at n = 0"):
            gw_table(2)


class TestSurfaceContext:
    def test_defaults_are_the_nine_point_blowup(self):
        ctx = SurfaceContext()
        assert ctx == (12, -1, 0, 1)
        assert (ctx.euler_characteristic, ctx.s_self_intersection,
                ctx.f_self_intersection, ctx.s_dot_f) == (12, -1, 0, 1)
        assert SurfaceContext(euler_characteristic=24) == (24, -1, 0, 1)
        assert repr(ctx) == ("SurfaceContext(euler_characteristic=12, s_self_intersection=-1, "
                             "f_self_intersection=0, s_dot_f=1)")

    def test_intersection_constants(self):
        ctx = NINE_POINT_BLOWUP
        s, f = (1, 0), (0, 1)
        assert ctx.intersect(s, s) == -1
        assert ctx.intersect(f, f) == 0
        assert ctx.intersect(s, f) == 1
        assert ctx.euler_characteristic == 12

    def test_canonical_class_is_minus_fiber(self):
        assert NINE_POINT_BLOWUP.canonical_class == (0, -1)

    def test_section_classes_have_degree_one(self):
        ctx = NINE_POINT_BLOWUP
        for n in range(30):
            assert ctx.degree(ctx.beta(n)) == 1

    def test_section_classes_have_genus_n(self):
        ctx = NINE_POINT_BLOWUP
        for n in range(30):
            assert ctx.genus(ctx.beta(n)) == n

    def test_fiber_class_degree_and_genus(self):
        ctx = NINE_POINT_BLOWUP
        assert ctx.degree(ctx.fiber()) == 0
        assert ctx.genus(ctx.fiber()) == 1  # the anticanonical fiber is elliptic

    def test_odd_adjunction_pairing_rejected(self):
        # With S.S = -2, beta_2.(K + beta_2) = -2 + 3 = 1, so no integer genus.
        with pytest.raises(ValueError, match=r"class \(1, 2\) has odd adjunction pairing 1"):
            SurfaceContext(s_self_intersection=-2).genus((1, 2))

    def test_intersection_is_symmetric(self):
        ctx = SurfaceContext()
        for left in [(1, 0), (0, 1), (2, -3), (1, 4)]:
            for right in [(1, 1), (-1, 2), (0, 5)]:
                assert ctx.intersect(left, right) == ctx.intersect(right, left)
