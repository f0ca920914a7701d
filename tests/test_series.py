"""Truncated-series arithmetic: examples pinned by hand, then randomized laws."""

import decimal
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from conftest import convolve, invert, invert_mod, pentagonal
from qbps.bps import brace_series
from qbps.qforms import p_alpha, partition_series
from qbps.series import TruncatedSeries, ResidueSeries, qd


def S(*coeffs):
    return TruncatedSeries(coeffs)


class TestConstruction:
    def test_constant_series(self):
        s = TruncatedSeries([1])
        assert s.order == 0
        assert s.coefficient(0) == 1

    def test_the_series_q(self):
        s = TruncatedSeries([0, 1])
        assert s.coefficients == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries([1.0, 2.0])

    def test_integral_fractions_demote_to_int(self):
        s = TruncatedSeries([Fraction(4, 2), Fraction(1, 3)])
        assert s.coefficient(0) == 2
        assert isinstance(s.coefficient(0), int)
        assert s.coefficient(1) == Fraction(1, 3)

    def test_bools_demote_to_plain_int(self):
        s = TruncatedSeries([True, 2, False])
        assert s.coefficients == (1, 2, 0)
        assert [type(c) for c in s.coefficients] == [int, int, int]

    @pytest.mark.parametrize("series, text", [
        (TruncatedSeries([1, Fraction(1, 2)]), "TruncatedSeries([1, 1/2] + O(q^2))"),
        (TruncatedSeries(range(7)), "TruncatedSeries([0, 1, 2, 3, 4, 5, ...] + O(q^7))"),
        (ResidueSeries([1, 7], 5), "ResidueSeries([1, 2] + O(q^2), modulus=5)"),
        (ResidueSeries(range(9), 10),
         "ResidueSeries([0, 1, 2, 3, 4, 5, 6, 7, ...] + O(q^9), modulus=10)"),
    ], ids=["exact-short", "exact-truncated", "residue-short", "residue-truncated"])
    def test_repr_states_the_order_as_an_error_term(self, series, text):
        assert repr(series) == text


class TestAddSub:
    def test_cancellation(self):
        assert S(1, 1) + S(1, -1) == 2

    def test_additive_identity(self):
        f = S(3, Fraction(1, 2), -7)
        assert f + S(0, 0, 0) == f

    def test_self_cancellation(self):
        f = S(5, -2, 9)
        assert f + (-f) == S(0, 0, 0)

    def test_mixed_order_truncates_to_min(self):
        total = S(1, 2, 3, 4) + S(1, 1)
        assert total.order == 1
        assert total.coefficients == (2, 3)

    def test_scalar_add_and_rsub(self):
        assert (S(1, 2) + 5).coefficients == (6, 2)
        assert (3 - S(1, 2)).coefficients == (2, -2)

    def test_rsub_names_minus_for_a_foreign_operand(self):
        with pytest.raises(TypeError, match="for -"):
            1.5 - S(1, 2)
        with pytest.raises(TypeError, match="for -"):
            Fraction(1, 2) - ResidueSeries([1, 2], 5)


class TestMul:
    def test_difference_of_squares(self):
        product = S(1, 1, 0) * S(1, -1, 0)
        assert product.coefficients == (1, 0, -1)

    def test_multiplicative_identity(self):
        f = S(2, Fraction(1, 3), -4, 0, 8)
        assert f * S(1, 0, 0, 0, 0) == f

    def test_divisor_series_square(self):
        g = S(0, 1, 3)  # 0, sigma(1), sigma(2)
        assert (g * g).coefficient(2) == 1

    def test_scalar_mul(self):
        assert (S(1, -2) * Fraction(1, 2)).coefficients == (Fraction(1, 2), -1)
        assert (3 * S(1, -2)).coefficients == (3, -6)

    @pytest.mark.parametrize("scalar", [Fraction(3, 10), Fraction(-1, 2)])
    def test_fraction_scaling_matches_the_fraction_products(self, scalar):
        # Some coefficients are divisible by 10 or 2 and some are not; the second
        # series already holds a Fraction, which takes the same divmod path.
        ints = [0, 1, -1, 2, -2, 5, 10, -10, 7, 30, -33, 10 ** 40 + 5, -(10 ** 40)]
        for coeffs in (ints, ints[:4] + [Fraction(5, 3)] + ints[4:]):
            want = [c.numerator if c.denominator == 1 else c
                    for c in map(mul, coeffs, repeat(scalar))]
            for scaled in (TruncatedSeries(coeffs) * scalar, scalar * TruncatedSeries(coeffs)):
                assert list(scaled.coefficients) == want
                assert list(map(type, scaled.coefficients)) == list(map(type, want))

    def test_matches_naive_convolution(self, oracle):
        big = 2 ** 200
        cases = [
            ([3, -1, 4, 1, -5, 9, 2], [2, 7, -1, 8, 2, -8, 1]),
            # rational operands, one of them integral
            ([Fraction(1, 3), -2, Fraction(5, 7), 0, Fraction(-9, 4)],
             [Fraction(2, 5), 1, Fraction(-1, 6), 3, Fraction(7, 2)]),
            ([Fraction(1, 3), Fraction(-5, 6), 4], [1, -2, 3]),
            # signed ints near +-2^200
            ([big - 1, -big, big + 1, -(big - 1)], [-big, big - 1, 1, -(big + 1)]),
            ([-(big - 1)] * 9, [big - 1] * 9),
            # 255 * 15 * 15 needs 16 bits: the slot needs a third byte for the sign
            ([-15] * 255, [15] * 255),
            ([15] * 255, [15] * 255),
            # negatives whose bytes borrow across slot boundaries
            ([-255, 256, -256, 255, -1, 128, -128, -129], [-1, 255, -256, 1, -128, 127, 0, -255]),
            ([0, 0, 0, 0], [5, -6, 7, Fraction(-8, 3)]),
            ([Fraction(-3, 4)], [Fraction(8, 9)]),
            ([0], [-7]),
        ]
        for a, b in cases:
            assert (TruncatedSeries(a) * TruncatedSeries(b)).coefficients == tuple(
                oracle.convolve(a, b))


class TestKernel:
    """The product kernel packs digits into one libmpdec multiply; these pin its edges."""

    def test_slots_past_the_int_str_digit_limit(self, oracle):
        # 7^6000 has 5071 digits, so each slot is wider than the default
        # 4300-digit int/str conversion limit.
        limit = sys.get_int_max_str_digits()
        big = 7 ** 6000
        a = [(-1) ** k * big + k for k in range(40)]
        b = [(-1) ** (k // 3) * big - 2 * k for k in range(40)]
        f = TruncatedSeries(a)
        assert (f * TruncatedSeries(b)).coefficients == tuple(oracle.convolve(a, b))
        assert (f * f).coefficients == tuple(oracle.convolve(a, a))
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("limit", [640, 4300, 0], ids=lambda n: f"limit-{n}")
    @pytest.mark.parametrize("magnitude, width", [
        (10 ** 318, 639), (3 * 10 ** 318, 640), (10 ** 320, 643)],
        ids=["width-639", "width-640", "width-643"])
    def test_slots_across_the_int_str_digit_limit(self, oracle, limit, magnitude, width):
        # 640 is the smallest limit CPython accepts, 0 means no limit.  Slots
        # of 639, 640 and 643 digits land below, at and above the smallest.
        a = [(-1) ** k * magnitude + k for k in range(12)]
        b = [(-1) ** (k // 3) * magnitude - 2 * k for k in range(12)]
        # The kernel's slot width, so each case stays where it is meant to land.
        reach = list(accumulate(map(abs, b), max))
        bound = sum(map(mul, map(abs, a), reversed(reach)))
        assert bound.bit_length() * 30103 // 100000 + 2 == width
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for x, y in [(a, b), (b, a), (a, a), (b, b)]:
                f = TruncatedSeries(x)
                product = f * f if x is y else f * TruncatedSeries(y)
                assert product.coefficients == tuple(oracle.convolve(x, y))
                assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 64, 65])
    def test_signed_products_at_each_length(self, oracle, length):
        # The slot offsets are built by doubling along the binary expansion of
        # the length: these lengths sit on either side of its powers of two.
        a = [(-1) ** k * 3 ** (k % 7 + 20) - k for k in range(length)]
        b = [(-1) ** (k // 2) * 7 ** (k % 5 + 9) + 2 * k for k in range(length)]
        f = TruncatedSeries(a)
        assert (f * TruncatedSeries(b)).coefficients == tuple(oracle.convolve(a, b))
        assert (f * f).coefficients == tuple(oracle.convolve(a, a))

    def test_ignores_the_callers_decimal_context(self, oracle):
        a = [3 ** 40 * k - 7 for k in range(-15, 15)]
        b = [(-1) ** k * 11 ** 30 for k in range(30)]
        with decimal.localcontext(decimal.Context(prec=5, traps=[])) as ctx:
            before = repr(ctx)
            product = TruncatedSeries(a) * TruncatedSeries(b)
            assert repr(decimal.getcontext()) == before
        assert product.coefficients == tuple(oracle.convolve(a, b))

    def test_negative_full_product(self, oracle):
        # The top coefficients of a and b have opposite signs, so the packed
        # product, high slots included, is negative.
        a = [5, -3, 8, 0, 2, -9]
        b = [-4, 7, 1, -6, 3, 9]
        cases = [(a, b), (b, a), ([-1, -1], [1, 1]), ([0, 2 ** 90], [0, -(2 ** 90)])]
        for x, y in cases:
            assert (TruncatedSeries(x) * TruncatedSeries(y)).coefficients == tuple(
                oracle.convolve(x, y))

    def test_slot_bound_edges(self, oracle):
        # The slot is sized from max(sum_i |a_i| max_(j<=len-1-i) |b_j|, max|a|, max|b|).
        zero, huge = [0] * 6, [10 ** 80, -(10 ** 75), 3, 0, -(10 ** 90), 1]
        # |b| peaks early and then falls, so its prefix maximum is not its last
        # value, and the high slots of the full product exceed the low ones.
        mixed_a = [7, -(10 ** 40), 2, -3, 10 ** 41, -1, 5, 0, -8, 1]
        mixed_b = [-2, 10 ** 50, -(10 ** 49), 6, -1, 0, 1, -4, 1, 1]
        cases = [
            # every product is 0, but the slot must still hold the huge operand
            (zero, huge), (huge, zero),
            # the only nonzero products land past the low slots: the bound is an operand
            ([0, 0, 0, 10 ** 60], [0, 0, 0, 1]), ([0, 0, 0, 1], [0, 0, 0, -(10 ** 60)]),
            ([0, 0, 10 ** 60, -(10 ** 60)], [0, 0, 1, 1]),
            (mixed_a, mixed_b), (mixed_b, mixed_a), (mixed_b, mixed_b),
        ]
        for a, b in cases:
            assert (TruncatedSeries(a) * TruncatedSeries(b)).coefficients == tuple(
                oracle.convolve(a, b))

    def test_p8_times_p4_at_order_2000(self, oracle):
        # Nondecreasing operands: the bound is the largest coefficient of P^12 itself.
        p8, p4 = p_alpha(8, 2000), p_alpha(4, 2000)
        assert (p8 * p4).coefficients == tuple(oracle.convolve(p8.coefficients, p4.coefficients))

    def test_residue_square_mod_10(self, oracle):
        r = [(k * k + 7 * k + 9) % 10 for k in range(500)]
        f = ResidueSeries(r, 10)
        assert tuple((f * f).coefficients) == tuple(c % 10 for c in oracle.convolve(r, r))


class TestInverse:
    def test_geometric_series(self):
        inv = S(1, -1, 0, 0).inverse()
        assert inv.coefficients == (1, 1, 1, 1)

    def test_inverse_of_one(self):
        one = S(1, 0, 0, 0, 0, 0)
        assert one.inverse() == one

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError, match="series with zero constant term has no inverse"):
            S(0, 1).inverse()

    def test_round_trip_with_fraction_lead(self):
        f = S(Fraction(2, 3), 5, -1, Fraction(7, 11))
        assert f * f.inverse() == 1

    def test_sparse_series_with_non_unit_lead(self):
        # 1 / (2 - q^3) = (1/2) sum_j (q^3 / 2)^j, exact in Fractions.
        inv = S(2, 0, 0, -1, 0, 0, 0).inverse()
        assert inv.coefficients == (Fraction(1, 2), 0, 0, Fraction(1, 4), 0, 0, Fraction(1, 8))
        assert [type(c) for c in inv.coefficients] == [Fraction, int, int] * 2 + [Fraction]

    # The one dot product per coefficient against the dense oracle, for each kind of
    # scaled value c = -f_i / f_0: only +-1 (Euler's P^-1); none +-1 ((P^-1)^3, whose
    # terms are (-1)^k (2k+1) by Jacobi's identity); both; under a lead of -1; and under
    # a Fraction lead, where c is Fraction(1), Fraction(-1), an integral Fraction
    # (Fraction(-3)), a proper Fraction or an int.
    @pytest.mark.parametrize("f", [
        TruncatedSeries(pentagonal(300)),
        TruncatedSeries(pentagonal(300)) ** 3,
        S(1, -1, 2, -1, 0, 3, 0, 0, -1, 0, 0, 0, 7),
        S(-1, 1, 0, -3, -1, 0, 1, 2, 0, 0, -1),
        S(Fraction(1, 2), Fraction(-1, 2), 0, Fraction(3, 2), Fraction(1, 2), 0,
          Fraction(1, 3), -1, Fraction(-1, 2), Fraction(3, 2), 0, 5),
    ], ids=["unit_terms", "non_unit_terms", "mixed_terms", "lead_minus_one", "fraction_lead"])
    def test_each_kind_of_term(self, f):
        inv = f.inverse()
        assert f * inv == 1
        assert inv.coefficients == tuple(invert(f.coefficients))

    def test_partition_inverse_is_pentagonal(self, oracle):
        assert partition_series(600).inverse().coefficients == tuple(oracle.pentagonal(600))
        assert p_alpha(-1, 600).coefficients == tuple(oracle.pentagonal(600))

    def test_p_10000_is_the_published_value(self):
        assert partition_series(10000).coefficient(10000) == int(
            "36167251325636293988820471890953695495016030339315650422081868605887"
            "952568754066420592310556052906916435144")


class TestPow:
    def test_zeroth_power(self):
        assert S(4, 7, -2) ** 0 == S(1, 0, 0)

    def test_negative_power_is_geometric(self):
        assert (S(1, -1, 0) ** -1).coefficients == (1, 1, 1)

    def test_negative_power_needs_unit(self):
        with pytest.raises(ZeroDivisionError):
            S(0, 1) ** -2

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            S(1, 1) ** Fraction(1, 2)

    def test_bool_exponent_rejected(self):
        with pytest.raises(TypeError, match="must be an int, got bool"):
            S(1, 1) ** True
        with pytest.raises(TypeError, match="must be an int, got bool"):
            ResidueSeries([1, 1], 5) ** False


class TestQDerivative:
    def test_kills_constants(self):
        assert qd(S(9, 0, 0)) == S(0, 0, 0)

    def test_scales_by_exponent(self):
        assert qd(S(0, 0, 0, 5)).coefficients == (0, 0, 0, 15)

    def test_keeps_order(self):
        assert qd(S(1, 2, 3)).order == 2


class TestReduceMod:
    def test_multiple_of_modulus_vanishes(self):
        r = S(0, 0, 10).reduce_mod(10)
        assert tuple(r.coefficients) == (0, 0, 0)

    def test_fraction_uses_modular_inverse(self):
        r = S(Fraction(1, 2)).reduce_mod(5)
        assert tuple(r.coefficients) == (3,)

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError):
            S(Fraction(1, 2)).reduce_mod(2)
        # The first offending coefficient is named: 1/3 is invertible mod 10, 1/2 is not.
        with pytest.raises(ValueError, match=r"coefficient 1/2 of q\^2 has denominator "
                                             r"not invertible mod 10"):
            S(1, Fraction(1, 3), Fraction(1, 2)).reduce_mod(10)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            S(1).reduce_mod(1)

    def test_negative_coefficients_normalize(self):
        assert tuple(S(-1, -7).reduce_mod(5).coefficients) == (4, 3)


class TestCoefficientAccess:
    def test_basic(self):
        assert S(1, 2).coefficient(1) == 2
        assert S(1, 2)[1] == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            S(1, 2).coefficient(5)
        with pytest.raises(IndexError):
            S(1, 2)[-1]

    def test_with_coefficient(self):
        f = S(1, 2, 3)
        g = f.with_coefficient(1, Fraction(1, 2))
        assert g.coefficients == (1, Fraction(1, 2), 3)
        assert f.coefficients == (1, 2, 3)  # original untouched


class TestEquality:
    def test_prefix_equality(self):
        assert S(1, 2, 3) == S(1, 2)
        assert S(1, 2, 3) != S(1, 5)

    def test_scalar_equality(self):
        assert S(7, 0, 0) == 7
        assert S(7, 1) != 7

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(S(1))


# ---------------------------------------------------------------------------
# randomized algebraic laws

COEFFS = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)

SERIES = st.lists(COEFFS, min_size=1, max_size=31).map(TruncatedSeries)

UNITS = st.tuples(
    COEFFS.filter(lambda c: c != 0),
    st.lists(COEFFS, max_size=14),
).map(lambda pair: TruncatedSeries([pair[0], *pair[1]]))

WIDE_SERIES = st.lists(st.one_of(COEFFS, st.integers(min_value=-2 ** 80, max_value=2 ** 80)),
                       min_size=1, max_size=31).map(TruncatedSeries)

INT_SERIES = st.lists(st.integers(min_value=-50, max_value=50),
                      min_size=1, max_size=31).map(TruncatedSeries)


@settings(max_examples=100, deadline=None)
@given(f=SERIES, g=SERIES, h=SERIES)
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100, deadline=None)
@given(f=SERIES, g=SERIES)
def test_leibniz_rule(f, g):
    assert qd(f * g) == qd(f) * g + f * qd(g)


@settings(max_examples=100, deadline=None)
@given(f=WIDE_SERIES, g=WIDE_SERIES)
def test_product_matches_naive_convolution(f, g):
    assert (f * g).coefficients == tuple(convolve(f.coefficients, g.coefficients))


@settings(max_examples=100, deadline=None)
@given(f=UNITS)
def test_inversion_round_trip(f):
    assert f * f.inverse() == 1


@st.composite
def inverse_inputs(draw):
    """An invertible series, dense or sparse, whose lead is +-1, 2, -3 or a Fraction.

    Sparse support indices are drawn anywhere, or just below, at and just above
    each multiple of isqrt(order + 1), so they are spread over the whole range.
    Sparse supports reach order 300; dense ones stop at 100, where a non-unit lead
    already gives coefficients of a hundred digits.  A sparse support sometimes
    shares one value other than 0 and +-1, an int or a Fraction, so that several
    terms of the inverter's dot product share one value.
    """
    dense = draw(st.booleans())
    order = draw(st.one_of(st.integers(0, 3), st.integers(4, 100 if dense else 300)))
    step = isqrt(order + 1)
    if dense:
        values = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9))
        indices = range(1, order + 1)
    else:
        values = st.one_of(st.sampled_from([1, -1]), st.integers(-10 ** 6, 10 ** 6),
                           st.fractions(min_value=-5, max_value=5, max_denominator=7))
        if draw(st.booleans()):
            values = st.just(draw(values.filter(lambda c: c not in (0, 1, -1))))
        edges = sorted({j for m in range(1, order // step + 2) for j in (m * step - 1,
                        m * step, m * step + 1) if 1 <= j <= order})
        indices = draw(st.sets(st.one_of(st.sampled_from(edges), st.integers(1, order)),
                               max_size=25)) if order else ()
    coeffs = [0] * (order + 1)
    coeffs[0] = draw(st.one_of(st.sampled_from([1, -1, 2, -3]),
                               st.fractions(min_value=-4, max_value=4, max_denominator=5)
                               .filter(lambda c: c != 0)))
    for i in indices:
        coeffs[i] = draw(values)
    return TruncatedSeries(coeffs)


@settings(max_examples=100, deadline=None)
@given(f=inverse_inputs())
def test_inverse_matches_the_dense_oracle(f):
    inv = f.inverse().coefficients
    assert inv == tuple(invert(f.coefficients))
    assert [type(c) for c in inv] == [int if Fraction(c).denominator == 1 else Fraction
                                      for c in inv]


@settings(max_examples=100, deadline=None)
@given(f=UNITS, a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_pow_additivity(f, a, b):
    assert f ** (a + b) == (f ** a) * (f ** b)


@settings(max_examples=100, deadline=None)
@given(f=INT_SERIES, g=INT_SERIES, m=st.sampled_from([2, 5, 10]))
def test_reduction_is_ring_morphism(f, g, m):
    assert (f * g).reduce_mod(m) == f.reduce_mod(m) * g.reduce_mod(m)
    assert (f + g).reduce_mod(m) == f.reduce_mod(m) + g.reduce_mod(m)
    assert (f - g).reduce_mod(m) == f.reduce_mod(m) - g.reduce_mod(m)
    assert qd(f).reduce_mod(m) == qd(f.reduce_mod(m))


# ---------------------------------------------------------------------------
# residue series

class TestResidueSeries:
    def test_normalizes_into_range(self):
        r = ResidueSeries([-1, 7, 12], 5)
        assert tuple(r.coefficients) == (4, 2, 2)

    def test_inexact_coefficients_rejected(self):
        with pytest.raises(TypeError):
            ResidueSeries([2.7, Fraction(7, 2)], 5)
        with pytest.raises(TypeError):
            ResidueSeries([1, Fraction(7, 2)], 5)
        with pytest.raises(TypeError):
            ResidueSeries([1, 2], 5).with_coefficient(0, 0.5)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            ResidueSeries([1], 1)

    @pytest.mark.parametrize("modulus", [5.0, True], ids=["float", "bool"])
    def test_non_int_modulus_is_a_type_error(self, modulus):
        message = f"modulus must be an int, got {type(modulus).__name__}"
        with pytest.raises(TypeError, match=message):
            ResidueSeries([1, 2], modulus)
        with pytest.raises(TypeError, match=message):
            S(1, 2).reduce_mod(modulus)
        with pytest.raises(TypeError, match=message):
            S(Fraction(1, 3), 2).reduce_mod(modulus)

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError, match="modulus mismatch: 5 vs 2"):
            ResidueSeries([1], 5) + ResidueSeries([1], 2)

    def test_values_in_range_are_kept(self):
        values = bytes((0, 9, 3, 0))
        assert ResidueSeries(values, 10).coefficients is values

    def test_coefficients_are_bytes(self):
        for r in (ResidueSeries([3, 8, 1], 10), S(1, -2).reduce_mod(5),
                  ResidueSeries([1, 1, 0], 2) * ResidueSeries([1, 1, 1], 2),
                  ResidueSeries([1, 4], 5).inverse(), qd(ResidueSeries([1, 4], 5))):
            assert type(r.coefficients) is bytes

    @pytest.mark.parametrize("m, want", [(2, (1, 0, 1)), (5, (0, 0, 4)), (10, (5, 0, 9))])
    def test_bytes_at_or_past_the_modulus_are_reduced(self, m, want):
        assert tuple(ResidueSeries(bytes([255, 10, 9]), m).coefficients) == want

    def test_bools_and_negative_ints_accepted(self):
        assert tuple(ResidueSeries([True, -1, False, -13], 10).coefficients) == (1, 9, 0, 7)
        assert tuple(ResidueSeries([-2 ** 70 - 1, True], 5).coefficients) == (
            (-2 ** 70 - 1) % 5, 1)

    def test_mul_matches_naive_convolution(self, oracle):
        cases = [
            ([3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8], 10),
            ([9] * 9, [8] * 9, 10),
            ([0, 0, 0, 0], [1, 2, 3, 4], 2),
            ([4], [3], 5),
        ]
        for a, b, m in cases:
            want = [c % m for c in oracle.convolve(a, b)]
            got = ResidueSeries(a, m) * ResidueSeries(b, m)
            assert list(got.coefficients) == want

    def test_mul_truncates_to_min_order(self):
        a = ResidueSeries([1, 1, 1, 1], 5)
        b = ResidueSeries([1, 1], 5)
        assert (a * b).order == 1

    def test_scalar_ops(self):
        r = ResidueSeries([1, 2, 3], 5)
        assert tuple((3 * r).coefficients) == (3, 1, 4)
        assert tuple((r - r).coefficients) == (0, 0, 0)
        assert tuple((r + 4).coefficients) == (0, 2, 3)
        assert tuple((3 - r).coefficients) == (2, 3, 2)

    def test_pow(self):
        r = ResidueSeries([1, 1, 0, 0], 5)
        assert tuple((r ** 3).coefficients) == (1, 3, 3, 1)
        assert tuple((r ** 0).coefficients) == (1, 0, 0, 0)
        assert tuple((r ** -1).coefficients) == (1, 4, 1, 4)
        assert tuple((r ** -2).coefficients) == (1, 3, 3, 1)
        with pytest.raises(TypeError):
            r ** Fraction(1, 2)

    def test_non_unit_lead_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError, match="constant term 2 is not a unit mod 10"):
            ResidueSeries([2, 1, 1], 10).inverse()
        with pytest.raises(ZeroDivisionError, match="mod 5"):
            ResidueSeries([5, 1], 5) ** -3

    def test_bools_demote_to_plain_int(self):
        r = ResidueSeries([True, 3, False], 2)
        assert [type(c) for c in r.coefficients] == [int] * 3
        assert tuple(r.coefficients) == (1, 1, 0)

    def test_q_derivative(self):
        r = ResidueSeries([4, 1, 1, 1], 5)
        assert tuple(qd(r).coefficients) == (0, 1, 2, 3)
        # Past the modulus, k c_k wraps with k: k^2 mod 10.
        squares = qd(ResidueSeries(range(13), 10))
        assert tuple(squares.coefficients) == (0, 1, 4, 9, 6, 5, 6, 9, 4, 1, 0, 1, 4)

    def test_with_coefficient(self):
        r = ResidueSeries([1, 2, 3], 10)
        assert tuple(r.with_coefficient(1, -1).coefficients) == (1, 9, 3)

    def test_scalar_equality(self):
        assert ResidueSeries([5, 10], 5) == 0
        assert ResidueSeries([6, 0], 5) == 1
        assert ResidueSeries([6, 0], 5) != 2
        assert ResidueSeries([1, 1], 5) != 1

    def test_equality_requires_same_modulus(self):
        assert ResidueSeries([1, 2], 5) != ResidueSeries([1, 2], 10)
        assert ResidueSeries([1, 2, 3], 5) == ResidueSeries([1, 2], 5)


class TestResidueReduceMod:
    def test_divisor(self):
        r = ResidueSeries([3, 7, 9, 0, 5], 10)
        assert r.reduce_mod(5) == ResidueSeries([3, 2, 4, 0, 0], 5)
        assert r.reduce_mod(2) == ResidueSeries([1, 1, 1, 0, 1], 2)
        assert r.reduce_mod(10) == r
        assert r.reduce_mod(5).modulus == 5

    def test_commutes_with_products(self):
        f, g = ResidueSeries([1, 9, 4, 7], 10), ResidueSeries([6, 3, 8, 5], 10)
        for k in (2, 5):
            assert (f * g).reduce_mod(k) == f.reduce_mod(k) * g.reduce_mod(k)

    @pytest.mark.parametrize("modulus", [3, 4, 20])
    def test_non_divisor_rejected(self, modulus):
        with pytest.raises(ValueError, match=f"must be at least 2 and divide 10, got {modulus}"):
            ResidueSeries([1, 2], 10).reduce_mod(modulus)

    @pytest.mark.parametrize("modulus, k", [(5, 2), (2, 5), (2, 10), (5, 10)])
    def test_divisor_of_ten_but_not_of_the_modulus_rejected(self, modulus, k):
        with pytest.raises(ValueError, match=f"{k} does not divide the modulus {modulus}"):
            ResidueSeries([1, 2], modulus).reduce_mod(k)

    @pytest.mark.parametrize("modulus", [5.0, True, Fraction(5)], ids=["float", "bool", "fraction"])
    def test_non_int_rejected(self, modulus):
        with pytest.raises(TypeError, match="modulus must be an int"):
            ResidueSeries([1, 2], 10).reduce_mod(modulus)


@pytest.mark.parametrize("m", [3, 4, 7, 20, 256])
def test_modulus_that_does_not_divide_ten_rejected(m):
    message = f"modulus must be at least 2 and divide 10, got {m}"
    with pytest.raises(ValueError, match=message):
        ResidueSeries([1, 2], m)
    with pytest.raises(ValueError, match=message):
        S(1, 2).reduce_mod(m)
    with pytest.raises(ValueError, match=message):
        p_alpha(2, 20, m)
    with pytest.raises(ValueError, match=message):
        brace_series(20, m)


@settings(max_examples=200, deadline=None)
@given(m=st.sampled_from([2, 5, 10]), data=st.data())
def test_residue_operations_match_the_exact_series_reduced(m, data):
    # Every residue operation against the same operation on the exact series,
    # reduced afterwards: reduction is a ring morphism onto Z/m.
    ints = st.lists(st.one_of(st.integers(-30, 30), st.sampled_from([0, 1, m - 1, m])),
                    min_size=1, max_size=40)
    a, b = data.draw(ints), data.draw(ints)
    scalar, exponent = data.draw(st.integers(-25, 25)), data.draw(st.integers(0, 5))
    k = data.draw(st.integers(0, len(a) - 1))
    f, g, fr, gr = S(*a), S(*b), ResidueSeries(a, m), ResidueSeries(b, m)

    def same(residues, exact):
        reduced = exact.reduce_mod(m)
        return residues.modulus == m and residues.coefficients == reduced.coefficients

    assert same(fr + gr, f + g) and same(fr - gr, f - g) and same(-fr, -f)
    assert same(fr + scalar, f + scalar) and same(scalar - fr, scalar - f)
    assert same(fr * scalar, f * scalar) and same(scalar * fr, scalar * f)
    assert same(fr * gr, f * g) and same(fr * fr, f * f) and same(fr ** exponent, f ** exponent)
    assert same(qd(fr), qd(f))
    assert same(fr.with_coefficient(k, scalar), f.with_coefficient(k, scalar))
    for divisor in (2, 5, 10):
        if m % divisor == 0:
            assert fr.reduce_mod(divisor).coefficients == f.reduce_mod(divisor).coefficients
    assert (fr == scalar) == ((a[0] - scalar) % m == 0 and all(c % m == 0 for c in a[1:]))
    if gcd(a[0], m) == 1:
        assert same(fr.inverse(), f.inverse()) and same(fr ** -exponent, f ** -exponent)
    else:
        with pytest.raises(ZeroDivisionError):
            fr.inverse()


@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(st.integers(0, 99), min_size=1, max_size=40),
    b=st.lists(st.integers(0, 99), min_size=1, max_size=40),
    m=st.sampled_from([2, 5, 10]),
)
def test_packed_convolution_matches_schoolbook(a, b, m):
    n = min(len(a), len(b))
    want = [sum(a[i] * b[k - i] for i in range(k + 1)) % m for k in range(n)]
    got = ResidueSeries(a, m) * ResidueSeries(b, m)
    assert list(got.coefficients) == want


def _operand(kind, length, m, seed):
    if kind == "zero":
        return [0] * length
    if kind == "top":
        return [m - 1] * length
    return [(seed * 7919 + 104729 * k * k) % m for k in range(length)]


@pytest.mark.parametrize("m", [2, 5, 10])
@pytest.mark.parametrize("length", [1, 2, 71, 72])
@pytest.mark.parametrize("kinds", [("zero", "zero"), ("zero", "top"), ("top", "top"),
                                   ("top", "mixed"), ("mixed", "mixed")])
def test_low_digit_product_matches_the_exact_product(m, length, kinds):
    # All-(m-1) operands fill the widest slot: the top low coefficient is
    # length (m-1)^2, the whole bound.  A square takes the packed-once path.
    a, b = (_operand(kind, length, m, seed) for seed, kind in enumerate(kinds))
    got = ResidueSeries(a, m) * ResidueSeries(b, m)
    assert got == (TruncatedSeries(a) * TruncatedSeries(b)).reduce_mod(m) and got.modulus == m
    for x in (a, b):
        f = ResidueSeries(x, m)
        assert f * f == (TruncatedSeries(x) ** 2).reduce_mod(m)


@settings(max_examples=100, deadline=None)
@given(m=st.sampled_from([2, 5, 10]), data=st.data())
def test_low_digit_product_matches_on_random_operands(m, data):
    length = data.draw(st.sampled_from([1, 2, 71, 72]))
    residues = st.lists(st.integers(0, m - 1), min_size=length, max_size=length)
    a, b = data.draw(residues), data.draw(residues)
    got = ResidueSeries(a, m) * ResidueSeries(b, m)
    assert got == (TruncatedSeries(a) * TruncatedSeries(b)).reduce_mod(m)


@st.composite
def residue_inverse_inputs(draw):
    """A series over Z/m of any length up to 300, or of length k B - 1, k B or
    k B + 1 for a spacing B up to 17, so Newton's last doubling step is sometimes
    whole (length 16) and sometimes cut short.  A sparse support is drawn
    anywhere, or next to each multiple of isqrt(len).  Values include 1, m - 1,
    m/2 and m/2 + 1.  The constant term is any residue, a non-unit included.
    """
    m = draw(st.sampled_from([2, 5, 10]))
    block = draw(st.integers(1, 17))
    length = draw(st.one_of(st.integers(1, 300), st.builds(
        lambda k, d: max(1, k * block + d), st.integers(block, block + 2), st.integers(-1, 1))))
    step = isqrt(length)
    values = st.one_of(st.sampled_from([1, m - 1, m // 2, m // 2 + 1]), st.integers(0, m - 1))
    if draw(st.booleans()):
        indices = range(1, length)
    else:
        edges = [j for k in range(1, length // step + 2) for j in (k * step - 1, k * step,
                 k * step + 1) if 1 <= j < length]
        indices = draw(st.sets(st.one_of(st.sampled_from(edges), st.integers(1, length - 1)),
                               max_size=25)) if length > 1 else ()
    coeffs = [0] * length
    coeffs[0] = draw(st.one_of(st.sampled_from([1, m - 1]), st.integers(0, m - 1)))
    for i in indices:
        coeffs[i] = draw(values)
    return ResidueSeries(coeffs, m)


@settings(max_examples=100, deadline=None)
@given(f=residue_inverse_inputs())
def test_residue_inverse_matches_the_dense_oracle(f):
    m = f.modulus
    if gcd(f[0], m) != 1:
        with pytest.raises(ZeroDivisionError):
            f.inverse()
        return
    inv = f.inverse()
    assert inv.modulus == m
    assert list(inv.coefficients) == invert_mod(list(f.coefficients), m)


@pytest.mark.parametrize("m", [2, 3, 5, 10, 256, 2 ** 64 + 13])
@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 64, 65, 500])
def test_residue_inverse_at_the_doubling_edges(m, length):
    # Newton's iteration knows 1, 2, 4, 8, ... coefficients after each step, so a
    # length at a power of two ends on a full step and one past it on a step of one.
    f = [(104729 * k * k + 7919 * k + 3) % m for k in range(length)]
    if 10 % m:
        # Residues exist only mod a divisor of 10, so there is no series to invert.
        with pytest.raises(ValueError, match=f"must be at least 2 and divide 10, got {m}"):
            ResidueSeries(f, m)
        return
    f[0] = m - 1
    assert list(ResidueSeries(f, m).inverse().coefficients) == invert_mod(f, m)
    f[0] = 0
    with pytest.raises(ZeroDivisionError,
                       match=f"constant term 0 is not a unit mod {m}, so the series has no inverse"):
        ResidueSeries(f, m).inverse()
