"""The invariants a and b: general evaluators, series routes, integrality."""

import pickle
from fractions import Fraction
from functools import partial

import pytest

from qbps.series import ResidueSeries, TruncatedSeries, qd
from qbps.qforms import catalog_for
from qbps.gw import NINE_POINT_BLOWUP, SurfaceContext, n0_series, n1_series
from qbps.bps import (
    ClassData, _class_data,
    a_general, b_general, decompositions_for,
    a_direct_series, b_direct_series,
    a_closed_series, b_closed_series, b_intermediate_series,
    brace_series,
)
from qbps.congruence import run_all

# first values, computed independently by hand/script before freezing
A_HEAD = (0, -1, -15, -130, -845, -4545, -21307, -89810, -347490)
B_HEAD = (0, 0, 1, 17, 164, 1167, 6798, 34219, 153846)


class TestClassData:
    def test_nonpositive_degree_rejected(self):
        # Every construction path: positional, keyword, _make, _replace.
        builds = [
            lambda: ClassData(0, 1, 1, 0),
            lambda: ClassData(c=-2, g=1, n0=1, n1=0),
            lambda: ClassData._make((0, 1, 1, 0)),
            lambda: ClassData(1, 1, 1, 0)._replace(c=0),
        ]
        for build in builds:
            with pytest.raises(ValueError, match=r"degree c\(beta\) must be positive"):
                build()

    def test_named_tuple_behaviour(self):
        data = ClassData(c=1, g=2, n0=90, n1=None)
        c, g, n0, n1 = data
        assert (c, g, n0, n1) == (data.c, data.g, data.n0, data.n1) == (1, 2, 90, None)
        assert data == (1, 2, 90, None)
        assert data._replace(n1=18) == (1, 2, 90, 18)
        with pytest.raises(AttributeError):
            data.c = 2

    def test_pickle_round_trip(self):
        data = ClassData(c=1, g=3, n0=Fraction(1, 2), n1=None)
        copy = pickle.loads(pickle.dumps(data))
        assert copy == data
        assert type(copy) is ClassData


class TestAGeneral:
    def test_genus_zero_vanishes(self):
        assert a_general(ClassData(c=1, g=0, n0=1, n1=0)) == 0

    def test_genus_one(self):
        assert a_general(ClassData(c=1, g=1, n0=12, n1=1)) == -1

    def test_genus_two(self):
        assert a_general(ClassData(c=1, g=2, n0=90, n1=18)) == -15

    def test_stays_exact_when_not_integral(self):
        assert a_general(ClassData(c=1, g=1, n0=1, n1=0)) == Fraction(-1, 12)


class TestBGeneral:
    def test_first_section_class(self):
        data = ClassData(c=1, g=1, n0=12, n1=1)
        # (c', beta'.beta'', beta''.beta'', N1(beta'), N0(beta''))
        term = (0, 1, -1, 1, 1)
        assert b_general(data, chi=12, terms=[term]) == 0

    def test_empty_sum_with_trivial_class(self):
        assert b_general(ClassData(c=1, g=0, n0=5, n1=0), chi=12, terms=[]) == 0

    def test_second_section_class(self):
        data = ClassData(c=1, g=2, n0=90, n1=18)
        assert b_general(data, chi=12, terms=decompositions_for(2, n0_series(2))) == 1

    def test_out_of_range_binomial_kills_term(self):
        # c - 1 = 0, so any term with c' = 1 contributes nothing
        data = ClassData(c=1, g=0, n0=0, n1=0)
        term = (1, 100, 100, 100, 100)
        assert b_general(data, chi=12, terms=[term]) == 0

    def test_binomial_follows_each_terms_degree(self):
        # c - 1 = 4: C(4, c') over c' = 0, 2, 2, 4, 5, 1 is 1 + 6 + 6 + 1 + 0 + 4
        data = ClassData(c=5, g=0, n0=0, n1=0)
        terms = [(c_prime, 1, 1, 1, 240) for c_prime in (0, 2, 2, 4, 5, 1)]
        assert b_general(data, chi=12, terms=terms) == 18


class TestDecompositions:
    def test_single_splitting(self):
        terms = decompositions_for(1, n0_series(1))
        assert terms == [(0, 1, -1, 1, 1)]

    def test_two_splittings(self):
        terms = decompositions_for(2, n0_series(2))
        assert terms == [(0, 2, -1, Fraction(3, 2), 1), (0, 1, 1, 1, 12)]

    def test_empty_at_zero(self):
        assert decompositions_for(0, n0_series(0)) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompositions_for(-1, n0_series(0))

    def test_short_n0_rejected(self):
        # N0 is read up to beta_{n-1}; a short series must not shorten the sum.
        with pytest.raises(IndexError):
            decompositions_for(5, n0_series(3))

    def test_reads_the_geometry(self, monkeypatch):
        # With S.S = -2, beta_k.beta_k = 2k - 2; the per-order tables must
        # follow the surface, and follow it back.
        monkeypatch.setattr("qbps.bps.NINE_POINT_BLOWUP", SurfaceContext(s_self_intersection=-2))
        assert decompositions_for(2, n0_series(2)) == [(0, 2, -2, Fraction(3, 2), 1),
                                                       (0, 1, 0, 1, 12)]
        monkeypatch.undo()
        assert decompositions_for(2, n0_series(2)) == [(0, 2, -1, Fraction(3, 2), 1),
                                                       (0, 1, 1, 1, 12)]


class TestSeriesRoutes:
    def test_a_direct_head(self):
        assert a_direct_series(8).coefficients == A_HEAD

    def test_a_closed_head(self):
        assert a_closed_series(8).coefficients == A_HEAD

    def test_b_direct_head(self):
        assert b_direct_series(8).coefficients == B_HEAD

    def test_b_closed_head(self):
        assert b_closed_series(8).coefficients == B_HEAD

    def test_b_intermediate_head(self):
        assert b_intermediate_series(8).coefficients == B_HEAD

    def test_routes_agree_deeper(self):
        order = 1000
        assert a_direct_series(order).coefficients == a_closed_series(order).coefficients
        b_direct = b_direct_series(order).coefficients
        assert b_direct == b_closed_series(order).coefficients
        assert b_direct == b_intermediate_series(order).coefficients

    def test_a_direct_reads_no_genus_one_counts(self, monkeypatch):
        # a(beta) needs N0 only, so the direct route builds no N1 = P^12 * DG.
        def refuse(order):
            raise AssertionError("a_direct_series built n1_series")
        monkeypatch.setattr("qbps.bps.n1_series", refuse)
        assert a_direct_series(8).coefficients == A_HEAD

    def test_a_direct_is_scaled_derivative_of_counts(self):
        order = 60
        assert a_direct_series(order) == Fraction(-1, 12) * qd(n0_series(order))

    def test_general_evaluator_matches_closed_series(self):
        order = 25
        n0 = n0_series(order)
        n1 = n1_series(order)
        b_closed = b_closed_series(order)
        surface = NINE_POINT_BLOWUP
        for n in range(1, order + 1):
            beta = surface.beta(n)
            data = ClassData(c=surface.degree(beta), g=surface.genus(beta),
                             n0=n0.coefficient(n), n1=n1.coefficient(n))
            value = b_general(data, chi=surface.euler_characteristic,
                              terms=decompositions_for(n, n0))
            assert value == b_closed.coefficient(n)

    @staticmethod
    def _per_pair(order):
        # b_general over the explicit splitting tuples, one class at a time.
        n0, n1 = n0_series(order), n1_series(order)
        chi = NINE_POINT_BLOWUP.euler_characteristic
        return [b_general(_class_data(n, n0, n1), chi, decompositions_for(n, n0))
                for n in range(order + 1)]

    @staticmethod
    def _same_values_and_types(left, right):
        assert list(left) == list(right)
        assert [type(c) for c in left] == [type(c) for c in right]

    def test_direct_route_is_the_explicit_per_pair_sum(self):
        order = 300
        self._same_values_and_types(b_direct_series(order).coefficients, self._per_pair(order))

    def test_direct_route_is_the_per_pair_sum_on_another_surface(self, monkeypatch):
        # c(beta_n) = 2n + 2 and c(lF) = 2l: binomials other than C(0, 0), one fiber
        # row per class and Fraction coefficients all occur.
        monkeypatch.setattr("qbps.bps.NINE_POINT_BLOWUP", SurfaceContext(
            s_self_intersection=-2, s_dot_f=2, f_self_intersection=2))
        order = 60
        direct = b_direct_series(order).coefficients
        self._same_values_and_types(direct, self._per_pair(order))
        assert any(isinstance(c, Fraction) for c in direct)

    def test_direct_route_reads_the_geometry(self, monkeypatch):
        # chi enters b only through (chi/240) N1, so doubling it adds (1/20) N1.
        monkeypatch.setattr("qbps.bps.NINE_POINT_BLOWUP", SurfaceContext(euler_characteristic=24))
        order = 20
        assert b_direct_series(order) == b_closed_series(order) + Fraction(1, 20) * n1_series(order)


class TestSharing:
    @pytest.mark.parametrize("build", [a_closed_series, b_closed_series, brace_series,
                                       n1_series, partial(brace_series, modulus=10)])
    def test_built_once_per_order(self, build):
        assert build(40) is build(40)
        assert build(40).order == 40

    def test_b_intermediate_reads_the_genus_one_product(self, products):
        # With N1 = P^12 DG built, b_intermediate's one product is G (2 D P12 - P12).
        order = 41
        n1_series(order)
        products.clear()
        assert b_intermediate_series(order).coefficients[:9] == B_HEAD
        assert products == [order + 1]


class TestBrace:
    def test_head(self):
        assert brace_series(5).coefficients == (0, 0, 10, 50, 140, 290)

    def test_q2_value_exact(self):
        assert brace_series(2).coefficient(2) == 10

    @pytest.mark.parametrize("order", [0, 1, 2, 60, 500])
    def test_exact_brace_is_plain_ints(self, order, oracle):
        # 7 sum sigma(i) sigma(k - i) - sigma(k) + k sigma(k), from the naive divisor sum.
        sigma = [0] + [oracle.divisor_sum(k) for k in range(1, order + 1)]
        square = oracle.convolve(sigma, sigma)
        brace = brace_series(order)
        assert type(brace) is TruncatedSeries
        assert brace.coefficients == tuple(7 * square[k] - sigma[k] + k * sigma[k]
                                           for k in range(order + 1))
        assert {int}.issuperset(map(type, brace.coefficients))

    @pytest.mark.parametrize("order", [0, 1, 2, 60, 500])
    @pytest.mark.parametrize("modulus", [2, 3, 5, 7, 10])
    def test_residue_brace_is_the_exact_brace_reduced(self, order, modulus):
        if 10 % modulus:
            # Residues exist only mod a divisor of 10: there is no brace mod 3 or 7.
            with pytest.raises(ValueError, match=f"divide 10, got {modulus}"):
                brace_series(order, modulus)
            return
        brace = brace_series(order, modulus)
        assert type(brace) is ResidueSeries
        assert (brace.order, brace.modulus) == (order, modulus)
        assert brace == brace_series(order).reduce_mod(modulus)

    @pytest.mark.parametrize("modulus, error, message", [
        (10.0, TypeError, "modulus must be an int, got float"),
        (True, TypeError, "modulus must be an int, got bool"),
        (0, ValueError, "modulus must be at least 2"),
        (1, ValueError, "modulus must be at least 2"),
    ], ids=["float", "bool", "modulus_0", "modulus_1"])
    def test_non_int_modulus_rejected_before_the_cache(self, modulus, error, message):
        catalog_for.cache_clear()
        with pytest.raises(error, match=message):
            brace_series(5, modulus)        # cold catalog
        brace_series(5, 10)
        with pytest.raises(error, match=message):
            brace_series(5, modulus)        # warm


class TestIntegrality:
    def test_both_invariants_integral(self):
        results = run_all(order=120, names=["a_integrality", "b_integrality"])
        assert [(r.name, r.order, r.passed) for r in results] == [
            ("a_integrality", 120, True), ("b_integrality", 120, True)]
