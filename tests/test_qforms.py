"""Divisor sums, partition series, powers: values against brute-force counting."""

import hashlib
from fractions import Fraction
from functools import reduce

import pytest

from qbps.bps import brace_series
from qbps.series import TruncatedSeries, qd
from qbps.qforms import (
    sigma, partition_series, p_alpha, g_series, QFormCatalog, catalog_for,
)


def digest(residues):
    """sha256 of a residue series: its modulus and its coefficients."""
    return hashlib.sha256(repr((residues.modulus, residues.coefficients)).encode()).hexdigest()


class TestSigma:
    def test_one(self):
        assert sigma(1) == 1

    def test_six(self):
        assert sigma(6) == 12

    def test_twelve(self):
        assert sigma(12) == 28

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma(0)

    @pytest.mark.parametrize("k", [6.0, 6.5, "6", True],
                             ids=["float", "non_integral_float", "str", "bool"])
    def test_non_int_rejected(self, k):
        # A float would otherwise divide silently to a wrong sum: 6.5 to 0.
        with pytest.raises(TypeError, match=f"requires an int, got {type(k).__name__}"):
            sigma(k)

    def test_matches_divisor_enumeration(self, oracle):
        for k in range(1, 300):
            assert sigma(k) == oracle.divisor_sum(k)


class TestPartitionSeries:
    def test_small_values(self):
        assert partition_series(5).coefficients == (1, 1, 2, 3, 5, 7)

    def test_constant_term(self):
        assert partition_series(0).coefficient(0) == 1

    def test_p_of_ten(self):
        assert partition_series(10).coefficient(10) == 42

    def test_matches_brute_force_counter(self, oracle):
        p = partition_series(40)
        for k in range(41):
            assert p.coefficient(k) == oracle.partition_count(k)

    def test_coefficients_are_plain_ints(self):
        assert all(isinstance(c, int) for c in partition_series(30).coefficients)

    def test_deep_values_match_published_counts(self):
        # Past the brute-force counter's reach; published values of p(n).
        p = partition_series(1000)
        assert p.coefficient(100) == 190569292
        assert p.coefficient(200) == 3972999029388
        assert p.coefficient(1000) == 24061467864032622473692149727991


class TestPAlpha:
    def test_first_power_is_partition_series(self):
        assert p_alpha(1, 20) == partition_series(20)

    def test_twelfth_power_head(self):
        assert p_alpha(12, 3).coefficients == (1, 12, 90, 520)

    def test_square_head(self):
        assert p_alpha(2, 5).coefficients == (1, 2, 5, 10, 20, 36)

    def test_twelfth_power_matches_iterated_convolution(self, oracle):
        coeffs = list(partition_series(40).coefficients)
        iterated = reduce(oracle.convolve, [coeffs] * 12)
        assert list(p_alpha(12, 40).coefficients) == iterated

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 60, 300])
    def test_cube_and_twelfth_power_are_powers_of_p(self, order):
        # P^3 is the inverse of Euler's cube and P^12 its fourth power; P ** alpha
        # is the same power built from P.
        p = partition_series(order)
        assert p_alpha(3, order).coefficients == (p ** 3).coefficients
        assert p_alpha(12, order).coefficients == (p ** 12).coefficients

    def test_power_pairs_cancel(self):
        for alpha in (1, 2, 3, 12):
            assert p_alpha(alpha, 40) * p_alpha(-alpha, 40) == 1

    def test_zeroth_power(self):
        assert p_alpha(0, 10) == 1


class TestGSeries:
    def test_constant_term_is_zero(self):
        assert g_series(4).coefficient(0) == 0

    def test_head(self):
        assert g_series(4).coefficients[1:] == (1, 3, 4, 7)

    def test_nine(self):
        assert g_series(9).coefficient(9) == 13

    def test_matches_scalar_sigma(self):
        g = g_series(200)
        for k in range(1, 201):
            assert g.coefficient(k) == sigma(k)

    def test_sieve_matches_scalar_sigma_deeper(self):
        # Deep enough for prime powers up to 2^11 and 3^7; then the shortest tables.
        assert g_series(3000).coefficients == (0, *map(sigma, range(1, 3001)))
        assert [g_series(n).coefficients for n in range(3)] == [(0,), (0, 1), (0, 1, 3)]

    @pytest.mark.parametrize("order", [0, 1, 2, 300])
    @pytest.mark.parametrize("m", [2, 5, 10])
    def test_residues_are_the_exact_series_reduced(self, order, m):
        g = g_series(order, m)
        assert (g.order, g.modulus) == (order, m)
        assert g.coefficients == g_series(order).reduce_mod(m).coefficients

    def test_residues_hold_no_exact_series(self, monkeypatch):
        # G mod m comes from its own sieve table, not from the cached exact G.
        def refused(catalog):
            raise AssertionError("exact G built")

        catalog_for.cache_clear()
        monkeypatch.setattr(QFormCatalog, "divisor_sum", property(refused))
        assert tuple(g_series(6, 10).coefficients) == (0, 1, 3, 4, 7, 6, 2)


@pytest.mark.parametrize("modulus, error", [(3, ValueError), (10.0, TypeError),
                                            ("10", TypeError)], ids=["3", "float", "str"])
@pytest.mark.parametrize("build", [lambda m: p_alpha(2, 30, m), lambda m: g_series(30, m),
                                   lambda m: brace_series(30, m)],
                         ids=["p_alpha", "g_series", "brace_series"])
def test_bad_modulus_refused_before_any_build(monkeypatch, build, modulus, error):
    def unbuilt(*args):
        raise AssertionError("a series was built before the modulus was checked")

    catalog_for.cache_clear()
    monkeypatch.setattr("qbps.qforms._sigma_table", unbuilt)
    monkeypatch.setattr(QFormCatalog, "_pentagonal", unbuilt)
    with pytest.raises(error, match="modulus must be"):
        build(modulus)


class TestIdentities:
    def test_divisor_series_is_logarithmic_derivative(self):
        # G = P^{-1} * DP at full order
        order = 120
        p = partition_series(order)
        assert g_series(order) == p_alpha(-1, order) * qd(p)

    def test_twelfth_power_logarithmic_derivative(self):
        # D(P^12) = 12 * P^12 * G
        order = 120
        p12 = p_alpha(12, order)
        assert qd(p12) == 12 * (p12 * g_series(order))

    def test_partition_inverse_round_trip(self):
        p = partition_series(50)
        assert p * p.inverse() == 1


class TestCatalog:
    def test_shared_instance_per_order(self):
        assert catalog_for(17) is catalog_for(17)

    def test_series_share_the_catalog_order(self):
        cat = QFormCatalog(9)
        assert cat.partition.order == 9
        assert cat.divisor_sum.order == 9
        assert cat.power(-2).order == 9

    def test_power_cache_returns_same_object(self):
        cat = QFormCatalog(6)
        assert cat.power(12) is cat.power(12)

    def test_derived_series_built_once(self):
        cat = QFormCatalog(6)
        builds = []

        def build():
            builds.append(None)
            return cat.partition * cat.divisor_sum

        assert cat.derived("pg", build) is cat.derived("pg", build)
        assert len(builds) == 1

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            QFormCatalog(-1)

    @pytest.mark.parametrize("order", [2.5, 3.0, True])
    def test_non_int_order_rejected(self, order):
        with pytest.raises(TypeError, match=f"order must be an int, got {type(order).__name__}"):
            QFormCatalog(order)

    def test_float_order_rejected_by_the_builders(self):
        with pytest.raises(TypeError, match="order must be an int, got float"):
            partition_series(3.0)

    def test_bool_order_does_not_alias_order_one(self):
        catalog_for(1)
        with pytest.raises(TypeError, match="order must be an int, got bool"):
            catalog_for(True)

    @pytest.mark.parametrize("bad, good, error, message", [
        ((2.0, 10), (2, 10), TypeError, "must be an int, got float"),
        ((True, 10), (1, 10), TypeError, "must be an int, got bool"),
        ((Fraction(2), 10), (2, 10), TypeError, "must be an int, got Fraction"),
        ((1, 10, 5.0), (1, 10, 5), TypeError, "must be an int, got float"),
        ((1, 10, True), (1, 10, 5), TypeError, "must be an int, got bool"),
        ((-1, 10, 2.0), (-1, 10, 2), TypeError, "must be an int, got float"),
        ((2, 5, 0), (2, 5, 10), ValueError, "modulus must be at least 2"),
        ((2, 5, 1), (2, 5, 10), ValueError, "modulus must be at least 2"),
    ], ids=["float", "bool", "fraction", "float_modulus", "bool_modulus", "float_modulus_2",
            "modulus_0", "modulus_1"])
    def test_non_int_exponent_or_modulus_rejected(self, bad, good, error, message):
        catalog_for.cache_clear()
        with pytest.raises(error, match=message):
            p_alpha(*bad)           # cold catalog
        p_alpha(*good)
        with pytest.raises(error, match=message):
            p_alpha(*bad)           # warm: an equal key may be cached

    def test_partition_is_the_first_power(self):
        cat = QFormCatalog(30)
        assert cat.partition is cat.power(1)

    def test_inversion_takes_no_product(self, monkeypatch):
        def no_product(a, b):
            raise AssertionError("inversion multiplied two series")

        cat = QFormCatalog(300)
        f = TruncatedSeries([Fraction(2, 3), 5, -1, Fraction(7, 11)])
        p_inv3 = cat.power(-3)
        with monkeypatch.context() as patch:
            patch.setattr("qbps.series._convolution", no_product)
            p, p3, f_inv = cat.partition, p_inv3.inverse(), f.inverse()
        p_inv = cat.power(-1)
        assert f * f_inv == 1
        assert p3 * p_inv3 == 1
        assert cat.power(3) == p3
        assert cat.power(-2) == p_inv * p_inv
        assert cat.power(12).order == 300
        assert p * p_inv == 1

    def test_twelfth_power_builds_no_partition_series(self):
        # P^-3 and P^3 are locals of the P^12 build: the catalog keeps only what
        # is read.
        cat = QFormCatalog(300)
        cat.power(12)
        assert set(cat._series) == {(-1, None), (12, None)}


class TestPowerMod:
    @pytest.mark.parametrize("order", [*range(11), 300, 2000, 10000])
    def test_equals_the_exact_power_reduced(self, order):
        for alpha in (-2, -1, 1, 2, 3) + ((12,) if order <= 300 else ()):
            for m in (2, 5, 10):
                assert digest(p_alpha(alpha, order, m)) == digest(
                    p_alpha(alpha, order).reduce_mod(m)), (alpha, m)

    def test_cached_per_exponent_and_modulus(self):
        cat = QFormCatalog(40)
        assert cat.power(2, 5) is cat.power(2, 5)
        assert cat.power(2, 5) is not cat.power(2, 10)
        assert cat.power(-3, 2) == cat.power(-1, 2) ** 3
        assert cat.power(0, 5) == 1
