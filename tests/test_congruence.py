"""Residue checks: pass sweeps, proof-step witnesses, exact failure reporting."""

import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qbps
from qbps import bps, congruence, gw, qforms, series
from qbps.series import ResidueSeries, TruncatedSeries, qd
from qbps.qforms import catalog_for, g_series, p_alpha, partition_series
from qbps.congruence import (
    CongruenceCheck, CHECK_NAMES, check,
    run_all, DEFAULT_COMPOSITE_ORDER, DEFAULT_SUPPORT_ORDER,
)


class TestCheckByName:
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_matches_run_all(self, name):
        assert check(name, 40) == run_all(order=40, names=[name])[0]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check name.*known: mod10"):
            check("bogus", 10)

    def test_perturbing_exact_check_rejected(self):
        with pytest.raises(ValueError, match="only applies to congruence checks, not: a_routes"):
            check("a_routes", 10, (1, 1))

    @pytest.mark.parametrize("call", [
        lambda: check(5, 10),
        lambda: run_all(order=5, names=[5]),
        lambda: run_all(order=5, perturbations={5: (1, 1)}),
    ], ids=["check", "run_all-names", "run_all-perturbations"])
    def test_non_string_name_is_named(self, call):
        with pytest.raises(ValueError, match=r": 5\b"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: run_all(order=5, names=5),
        lambda: run_all(order=5, names=[["mod10"]]),
        lambda: check(["mod10"], 5),
    ], ids=["run_all-int", "run_all-nested-list", "check-list"])
    def test_names_that_are_not_a_collection_of_names_are_named(self, call):
        with pytest.raises(TypeError, match="names must be a collection of check names, got "):
            call()

    @pytest.mark.parametrize("module", [qbps, series, qforms, gw, bps, congruence],
                             ids=lambda module: module.__name__)
    def test_every_exported_name_resolves(self, module):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []

    def test_package_exports_each_module_list_once(self):
        modules = [series, qforms, gw, bps, congruence]
        expected = [name for module in modules for name in module.__all__] + ["__version__"]
        assert qbps.__all__ == expected
        assert len(set(expected)) == len(expected)
        namespace = {}
        exec("from qbps import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(expected)
        for module in modules:
            for name in module.__all__:
                assert namespace[name] is getattr(module, name), name


class TestResultType:
    def test_fields(self):
        r = check("mod10", 10)
        assert r.name == "mod10"
        assert r.modulus == 10
        assert r.order == 10
        assert r.passed
        assert r.first_failure is None

    def test_passed_follows_first_failure_on_every_construction_path(self):
        # Positional, keyword, defaulted, _make, _replace and unpickling.
        failed, clean = CongruenceCheck("x", 5, 10, (3, 1)), CongruenceCheck("x", 5, 10)
        records = [
            failed, clean, CongruenceCheck("x", 5, 10, None),
            CongruenceCheck(name="x", modulus=5, order=10, first_failure=(3, 1)),
            CongruenceCheck(name="x", modulus=5, order=10),
            CongruenceCheck._make(("x", 5, 10, (3, 1))), CongruenceCheck._make(("x", 5, 10, None)),
            clean._replace(first_failure=(3, 1)), failed._replace(first_failure=None),
            pickle.loads(pickle.dumps(failed)), pickle.loads(pickle.dumps(clean)),
        ]
        assert [r.passed for r in records] == [r.first_failure is None for r in records]
        assert [r.passed for r in records] == [False, True, True, False, True, False, True,
                                               False, True, False, True]
        # passed is no field, so no path can set it apart from first_failure.
        with pytest.raises(TypeError):
            CongruenceCheck("x", 5, 10, True, None)
        with pytest.raises(TypeError):
            CongruenceCheck("x", 5, 10, passed=True)
        with pytest.raises(ValueError):
            failed._replace(passed=True)

    def test_repr_matches_the_dataclass_form(self):
        assert repr(check("mod10", 20)) == (
            "CongruenceCheck(name='mod10', modulus=10, order=20, first_failure=None)")

    def test_named_tuple_behaviour(self):
        r = CongruenceCheck("x", 5, 10, (3, 1))
        name, modulus, order, first_failure = r
        assert (name, modulus, order, first_failure) == ("x", 5, 10, (3, 1))
        assert r == ("x", 5, 10, (3, 1))
        assert r._replace(first_failure=None) == ("x", 5, 10, None)
        with pytest.raises(AttributeError):
            r.passed = True

    @pytest.mark.parametrize("record", [
        CongruenceCheck("x", 5, 10, (3, Fraction(1, 2))),
        CongruenceCheck("y", None, 7),
    ], ids=["failed", "passed"])
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is CongruenceCheck


class TestColdImport:
    def test_import_loads_no_dataclasses_or_inspect(self):
        # A fresh interpreter: the suite itself has long since imported both.
        code = ("import sys; before = set(sys.modules); import qbps; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestMod10:
    def test_passes_at_depth(self):
        assert check("mod10", 300).passed

    def test_passes_at_order_zero(self):
        assert check("mod10", 0).passed

    def test_doubled_derivative_term_breaks_it(self):
        # 7G^2 - G + 2DG: the q^1 coefficient is -sigma(1) + 2*sigma(1) = 1,
        # so the first failure is index 1 with residue 1; index 2 then carries
        # 7 - 3 + 12 = 16, residue 6.
        g = g_series(30).reduce_mod(10)
        mutated = 7 * (g * g) - g + 2 * qd(g)
        assert tuple(mutated.coefficients[:3]) == (0, 1, 6)


class TestMod5Reduction:
    def test_passes_at_depth(self):
        assert check("mod5_reduction", 200).passed

    def test_passes_at_order_zero(self):
        assert check("mod5_reduction", 0).passed

    def test_right_side_vanishes_so_scaling_it_cannot_fail(self):
        # P_{-2} (D^2 - D) P_2 is itself 0 mod 5 (the support lemma forces the
        # middle factor to vanish), so the identity is insensitive to the
        # leading constant: replacing 3 by 2 still passes, and there is no
        # index where the right side is nonzero.
        order = 200
        p2 = partition_series(order).reduce_mod(5) ** 2
        pm2 = p_alpha(-2, order).reduce_mod(5)
        rhs = pm2 * (qd(qd(p2)) - qd(p2))
        assert not any(rhs.coefficients)
        g = g_series(order).reduce_mod(5)
        brace = 7 * (g * g) - g + qd(g)
        assert not any((brace - 2 * rhs).coefficients)


class TestSupportLemma:
    def test_passes_at_depth(self):
        assert check("support_lemma", 500).passed

    def test_forbidden_indices_vanish(self):
        p2 = p_alpha(2, 30)
        assert p2.coefficient(2) == 5
        assert p2.coefficient(4) == 20
        for k in range(31):
            if k % 5 not in (0, 1):
                assert p2.coefficient(k) % 5 == 0

    def test_permitted_indices_are_unconstrained(self):
        # p_2(5) = 36 is 1 mod 5 and index 5 is permitted; not a failure
        assert p_alpha(2, 5).coefficient(5) == 36
        assert check("support_lemma", 5).passed


class TestSupportConsequence:
    def test_passes_at_depth(self):
        assert check("support_consequence", 200).passed

    def test_single_index_witnesses(self):
        p2 = p_alpha(2, 10)
        # k=1: first and second derivative coefficients agree outright
        assert 1 * p2.coefficient(1) == 1 * 1 * p2.coefficient(1) == 2
        # k=7: (49 - 7) * p_2(7) = 42 * 110, divisible by 5
        assert (49 - 7) * p2.coefficient(7) == 42 * 110
        assert (42 * 110) % 5 == 0


class TestMod2Reduction:
    def test_passes_at_depth(self):
        assert check("mod2_reduction", 200).passed

    def test_passes_at_order_zero(self):
        assert check("mod2_reduction", 0).passed


class TestParityFactor:
    def test_passes_at_depth(self):
        assert check("parity_factor", 300).passed

    def test_coefficient_formula_witnesses(self):
        p = partition_series(5)
        w = qd(qd(p)) + qd(p)
        assert w.coefficient(0) == 0
        assert w.coefficient(3) == 3 * 4 * 3 == 36
        assert w.coefficient(5) == 5 * 6 * 7 == 210


class TestFailureReporting:
    def test_zero_scan_checks_point_at_damaged_index(self):
        cases = [
            ("mod10", 10, 41, 3),
            ("mod5_reduction", 5, 88, 2),
            ("support_consequence", 5, 61, 4),
            ("mod2_reduction", 2, 45, 1),
            # A delta of modulus + 1 shows as 1 once check reduces the row; 67 is
            # 2 mod 5, an index the support lemma scans.
            ("mod10", 10, 29, 11),
            ("mod5_reduction", 5, 29, 6),
            ("support_lemma", 5, 67, 6),
            ("support_consequence", 5, 29, 6),
            ("mod2_reduction", 2, 29, 3),
            ("parity_factor", 2, 29, 3),
        ]
        for name, modulus, index, delta in cases:
            result = check(name, 100, perturbation=(index, delta))
            assert not result.passed
            assert result.first_failure == (index, delta % modulus), result

    def test_support_lemma_damaged_at_forbidden_index(self):
        for index in (92, 93, 94):  # 2, 3 and 4 mod 5
            result = check("support_lemma", 100, perturbation=(index, 1))
            assert not result.passed
            assert result.first_failure == (index, 1)

    def test_support_lemma_damage_at_permitted_index_is_invisible(self):
        for index in (95, 96):  # 0 and 1 mod 5
            assert check("support_lemma", 100, perturbation=(index, 2)).passed

    def test_parity_factor_reports_odd_delta_as_residue_one(self):
        # The row scans mod 2: an odd delta shows as 1, and an even one vanishes,
        # as a delta at a permitted index does for support_lemma.
        result = check("parity_factor", 40, perturbation=(33, 5))
        assert result.first_failure == (33, 1)
        assert check("parity_factor", 40, perturbation=(33, 2)).passed

    def test_exact_rows_report_the_fractional_coefficient(self, monkeypatch):
        # The direct a and the closed b, the series the integrality rows scan, off
        # by 1/2 at q^3 are fractional there, and so are their route differences.
        order = 30

        def off_by_half(route):
            return lambda n: route(n).with_coefficient(3, route(n)[3] + Fraction(1, 2))

        monkeypatch.setattr("qbps.congruence.a_direct_series", off_by_half(bps.a_direct_series))
        monkeypatch.setattr("qbps.congruence.b_closed_series", off_by_half(bps.b_closed_series))
        a3 = bps.a_direct_series(order)[3] + Fraction(1, 2)
        b3 = bps.b_closed_series(order)[3] + Fraction(1, 2)
        results = run_all(order=order, names=["a_routes", "b_routes",
                                              "a_integrality", "b_integrality"])
        assert {r.name: r.first_failure for r in results} == {
            "a_routes": (3, Fraction(1, 2)), "b_routes": (3, Fraction(-1, 2)),
            "a_integrality": (3, a3), "b_integrality": (3, b3)}

    def test_a_integrality_scans_the_direct_route(self, monkeypatch):
        # The 1/12 sits in the direct route: a(beta_1) = -(1/12) N0_1, and an N0_1
        # of 13 leaves it fractional, where A = -P^12 G is integral by construction.
        catalog_for.cache_clear()
        monkeypatch.setattr("qbps.bps.n0_series",
                            lambda order: gw.n0_series(order).with_coefficient(1, 13))
        try:
            assert check("a_integrality", 30).first_failure == (1, Fraction(-13, 12))
        finally:
            catalog_for.cache_clear()

    @pytest.mark.parametrize("perturbation", [(1,), (1, 1, 1), 5, ("1", 1), (True, 1),
                                              (1, True), (1, 1.5)],
                             ids=["short", "long", "int", "str", "bool-index", "bool-delta",
                                  "float-delta"])
    def test_malformed_perturbation_is_named(self, perturbation):
        with pytest.raises(TypeError, match=r"perturbation of mod5_reduction must be a pair "
                                            r"of ints \(index, delta\), got "):
            check("mod5_reduction", 20, perturbation)

    def test_malformed_perturbation_rejected_before_any_row_is_built(self, monkeypatch):
        def unbuilt(order, modulus=None):
            raise AssertionError("a row was built")

        monkeypatch.setattr("qbps.congruence.brace_series", unbuilt)
        with pytest.raises(TypeError, match="perturbation of parity_factor must be a pair"):
            run_all(perturbations={"parity_factor": (3,)})
        with pytest.raises(TypeError, match="perturbation of parity_factor must be a pair"):
            run_all(order=5, names=["g_identity"], perturbations={"parity_factor": (3,)})

    @pytest.mark.parametrize("perturbations", [5, "ab", [("mod10", 1, 1)]],
                             ids=["int", "str", "triples"])
    def test_perturbations_that_are_not_a_mapping_are_named(self, perturbations):
        with pytest.raises(TypeError, match=r"perturbations must map check names to "
                                            r"\(index, delta\) pairs, got "):
            run_all(order=20, perturbations=perturbations)

    def test_perturbations_as_a_list_of_pairs(self):
        (result,) = run_all(order=20, names=["mod10"], perturbations=[("mod10", (7, 3))])
        assert result.first_failure == (7, 3)

    def test_perturbation_past_its_rows_order_rejected_before_any_row_is_built(self,
                                                                               monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a row was built")

        # mod10 is built first, from the brace, and every residue power reads p_alpha.
        monkeypatch.setattr("qbps.congruence.brace_series", unbuilt)
        monkeypatch.setattr("qbps.congruence.p_alpha", unbuilt)
        with pytest.raises(IndexError, match="outside stored range 0..1000$"):
            run_all(perturbations={"mod2_reduction": (1001, 1)})
        # support_lemma is checked against the support order, the others against order.
        with pytest.raises(IndexError, match="outside stored range 0..10000$"):
            run_all(perturbations={"support_lemma": (10001, 1)})
        with pytest.raises(IndexError, match="outside stored range 0..40$"):
            run_all(order=20, support_order=40, perturbations={"support_lemma": (41, 1)})
        with pytest.raises(IndexError, match="outside stored range 0..20$"):
            run_all(order=20, support_order=40, names=["support_lemma"],
                    perturbations={"mod10": (21, 1), "support_lemma": (30, 1)})
        with pytest.raises(IndexError, match="index -1 outside"):
            run_all(order=20, names=["g_identity"], perturbations={"parity_factor": (-1, 1)})

    def test_perturbation_of_an_unselected_check_rejected_before_any_row_is_built(
            self, monkeypatch):
        def unbuilt(*args, **kwargs):
            raise AssertionError("a row was built")

        # a_routes is built from the two a routes, mod10 from the brace.
        for name in ("a_direct_series", "a_closed_series", "brace_series"):
            monkeypatch.setattr(f"qbps.congruence.{name}", unbuilt)
        with pytest.raises(ValueError, match="not selected: mod10$"):
            run_all(order=5, names=["a_routes"], perturbations={"mod10": (1, 1)})
        with pytest.raises(ValueError, match="not selected: mod2_reduction, mod5_reduction$"):
            run_all(order=5, names=["a_routes", "mod10"],
                    perturbations={"mod10": (1, 1), "mod5_reduction": (1, 1),
                                   "mod2_reduction": (1, 1)})

    def test_perturbation_within_the_support_order_accepted(self):
        (result,) = run_all(order=20, support_order=40, names=["support_lemma"],
                            perturbations={"support_lemma": (33, 1)})
        assert result.first_failure == (33, 1)

    def test_perturbation_outside_the_order_rejected(self):
        with pytest.raises(IndexError, match="outside stored range 0..20"):
            check("mod10", 20, (21, 1))

    def test_unperturbed_prefix_stays_clean(self):
        # damage deep, scan reports nothing earlier
        result = check("mod10", 200, perturbation=(199, 9))
        assert result.first_failure == (199, 9)


class TestMonotonicity:
    def test_mod10_passes_at_every_smaller_order(self):
        for order in (0, 1, 10, 25, 40):
            assert check("mod10", order).passed


class TestCrtMeta:
    def test_component_passes_force_composite_pass(self):
        order = 150
        assert check("mod5_reduction", order).passed
        assert check("support_consequence", order).passed
        assert check("mod2_reduction", order).passed
        assert check("mod10", order).passed

    def test_residues_reconstruct_mod_ten(self):
        order = 150
        g10 = g_series(order).reduce_mod(10)
        brace10 = 7 * (g10 * g10) - g10 + qd(g10)
        g5 = g_series(order).reduce_mod(5)
        brace5 = 7 * (g5 * g5) - g5 + qd(g5)
        g2 = g_series(order).reduce_mod(2)
        brace2 = 7 * (g2 * g2) - g2 + qd(g2)
        for k in range(order + 1):
            assert brace10.coefficient(k) % 5 == brace5.coefficient(k)
            assert brace10.coefficient(k) % 2 == brace2.coefficient(k)


def _output(bump):
    """A fault that damages what the original returns."""
    return lambda original: lambda *args: bump(original(*args))


class TestRunAll:
    def test_all_pass_in_fixed_order(self):
        results = run_all(order=80)
        assert [r.name for r in results] == list(CHECK_NAMES)
        assert all(r.passed for r in results)

    def test_all_pass_at_order_zero(self):
        assert all(r.passed for r in run_all(order=0))

    def test_subset_selection_preserves_registry_order(self):
        results = run_all(order=30, names=["parity_factor", "mod10"])
        assert [r.name for r in results] == ["mod10", "parity_factor"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            run_all(order=10, names=["mod10", "bogus"])

    def test_bare_string_of_names_rejected(self):
        with pytest.raises(TypeError):
            run_all(order=10, names="mod10")

    def test_perturbing_exact_check_rejected(self):
        with pytest.raises(ValueError):
            run_all(order=10, perturbations={"a_routes": (1, 1)})

    @pytest.mark.parametrize("target", ["mod10", "mod5_reduction", "support_lemma",
                                        "support_consequence", "mod2_reduction", "parity_factor"])
    def test_mutation_hook_hits_only_its_target(self, target):
        # Index 13 is 3 mod 5, forbidden for the support lemma.
        results = run_all(order=60, perturbations={target: (13, 7)})
        assert [r.name for r in results if not r.passed] == [target]
        (failed,) = (r for r in results if not r.passed)
        assert failed.first_failure[0] == 13

    def test_support_order_can_differ(self):
        results = run_all(order=50, support_order=120)
        by_name = {r.name: r for r in results}
        assert by_name["support_lemma"].order == 120
        assert by_name["mod10"].order == 50
        assert by_name["a_routes"].order == 50

    def test_support_depth_follows_explicit_order(self):
        by_name = {r.name: r for r in run_all(order=40)}
        assert by_name["support_lemma"].order == 40

    @pytest.mark.parametrize("name, built, sweep", [
        ("mod10", bps.brace_series, lambda: run_all(order=50, names=["mod10"])),
        ("mod10", bps.brace_series, lambda: check("mod10", 50)),
        # Perturbed at index order, which a short sweep does not store.
        ("mod10", bps.brace_series, lambda: check("mod10", 50, (50, 1))),
        ("support_lemma", p_alpha, lambda: check("support_lemma", 50)),
        ("parity_factor", p_alpha, lambda: check("parity_factor", 50)),
        ("mod5_reduction", p_alpha, lambda: check("mod5_reduction", 50)),
        ("support_consequence", p_alpha, lambda: check("support_consequence", 50)),
        ("mod2_reduction", p_alpha, lambda: check("mod2_reduction", 50)),
        ("g_identity", partition_series, lambda: run_all(order=50, names=["g_identity"])),
    ], ids=["run_all", "check-mod10", "check-mod10-perturbed", "check-support_lemma",
            "check-parity_factor", "check-mod5_reduction", "check-support_consequence",
            "check-mod2_reduction", "g_identity"])
    def test_short_sweep_rejected(self, monkeypatch, name, built, sweep):
        if built is p_alpha:        # the residue rows ask for (alpha, order, modulus)
            short = lambda alpha, order, modulus=None: built(alpha, order - 1, modulus)
        elif built is bps.brace_series:     # the brace rows ask for (order, modulus)
            short = lambda order, modulus=None: built(order - 1, modulus)
        else:
            short = lambda order: built(order - 1)
        monkeypatch.setattr(f"qbps.congruence.{built.__name__}", short)
        with pytest.raises(RuntimeError, match=f"{name} swept order 49"):
            sweep()

    def test_one_run_takes_ten_products(self, products):
        # P^12 (4), then one each: G*G and P^12 times the brace for B, P^12*G for A
        # (p12_identity reads it too), P^12*DG for N1, G*(2DP12 - P12) in
        # b_intermediate, and P^-1*DP in g_identity.  P^-2 is a residue square.
        catalog_for.cache_clear()
        assert all(r.passed for r in run_all(order=50))
        assert len(products) == 10

    def test_congruence_rows_take_no_exact_product(self, products):
        # The brace rows read the brace built in Z/10, and every residue power,
        # P mod 10 for parity_factor too, is built in Z/10.
        catalog_for.cache_clear()
        rows = ["mod10", "mod5_reduction", "support_lemma", "support_consequence",
                "mod2_reduction", "parity_factor"]
        assert all(r.passed for r in run_all(order=50, names=rows))
        assert products == []

    @pytest.mark.parametrize("order", [2.5, True], ids=["float", "bool"])
    def test_non_int_order_rejected(self, order):
        with pytest.raises(TypeError, match=f"order must be an int, got {type(order).__name__}"):
            run_all(order=order)
        # A perturbation is range-checked only against an int order.
        with pytest.raises(TypeError, match="order must be an int, got str"):
            run_all(order="20", names=["mod10"], perturbations={"mod10": (1, 1)})

    def test_residue_rows_take_one_residue_inverse(self, monkeypatch):
        # P mod 10, reduced to 5 and 2 at the end, serves every residue row.
        inverses = []
        inverse = ResidueSeries.inverse

        def counted(self):
            inverses.append(self.modulus)
            return inverse(self)

        catalog_for.cache_clear()
        monkeypatch.setattr(ResidueSeries, "inverse", counted)
        rows = ["mod10", "mod5_reduction", "support_lemma", "support_consequence",
                "mod2_reduction", "parity_factor"]
        assert all(r.passed for r in run_all(order=300, names=rows))
        assert inverses == [10]

    def test_residue_rows_build_no_exact_series(self, monkeypatch):
        # Euler's P^-1 is written straight into Z/10 and G mod 10 is reduced from
        # the sieve's table, so no exact series of any kind is built.
        def refused(self, coeffs):
            raise AssertionError("exact series built")

        catalog_for.cache_clear()
        monkeypatch.setattr(TruncatedSeries, "__init__", refused)
        rows = ["mod10", "mod5_reduction", "support_lemma", "support_consequence",
                "mod2_reduction", "parity_factor"]
        assert all(r.passed for r in run_all(order=300, names=rows))

    def test_congruence_rows_add_no_catalog_key_of_their_own(self, monkeypatch):
        # Every catalog entry the six rows read is stored by qforms or bps.
        writers = []
        derived = qforms.QFormCatalog.derived

        def recorded(catalog, key, build):
            writers.append(build.__module__)
            return derived(catalog, key, build)

        catalog_for.cache_clear()
        monkeypatch.setattr(qforms.QFormCatalog, "derived", recorded)
        rows = ["mod10", "mod5_reduction", "support_lemma", "support_consequence",
                "mod2_reduction", "parity_factor"]
        assert all(r.passed for r in run_all(order=60, names=rows))
        assert writers and set(writers) <= {"qbps.qforms", "qbps.bps"}

    def test_catalog_keeps_the_two_latest_orders(self):
        catalog_for.cache_clear()
        first = run_all(order=30)
        run_all(order=40)
        run_all(order=50)
        assert catalog_for.cache_info().currsize == 2
        assert run_all(order=30) == first

    def test_support_lemma_builds_no_exact_inverse(self, monkeypatch):
        def refused(self):
            raise AssertionError("exact inverse built")

        catalog_for.cache_clear()
        monkeypatch.setattr(TruncatedSeries, "inverse", refused)
        assert check("support_lemma", 300).passed

    @pytest.mark.parametrize("owner, attr, fault, failing", [
        (TruncatedSeries, "inverse", _output(lambda p: p.with_coefficient(9, p[9] + 1)),
         {"a_routes", "b_routes", "b_intermediate", "g_identity", "p12_identity"}),
        (ResidueSeries, "inverse", _output(lambda p: p.with_coefficient(9, p[9] + 1)),
         {"mod5_reduction", "support_lemma", "support_consequence"}),
        (qforms.QFormCatalog, "_pentagonal", _output(lambda p: p.with_coefficient(12, p[12] + 1)),
         {"mod5_reduction", "support_lemma", "support_consequence", "a_routes", "b_routes",
          "b_intermediate", "g_identity", "p12_identity"}),
        (qforms, "_sigma_table", _output(lambda t: t[:7] + [t[7] + 1] + t[8:]),
         {"mod10", "mod5_reduction", "mod2_reduction", "a_routes", "b_routes",
          "b_intermediate", "b_integrality", "g_identity", "p12_identity"}),
        # The brace rows read the brace built in Z/10, so no exact product reaches them.
        (TruncatedSeries, "_product", _output(lambda c: c[:11] + [c[11] + 1] + c[12:]),
         {"a_routes", "b_routes", "b_intermediate", "a_integrality", "b_integrality",
          "g_identity", "p12_identity"}),
        # Only products of at least 12 coefficients: Newton's first products are
        # shorter.  The residue inverse is built from residue products, so P mod 10
        # and the support rows that read it fail too.  mod2_reduction passes: the +1
        # reaches its brace as +7 (through 7 G G) and its right side as +1, and the
        # two cancel mod 2.
        (ResidueSeries, "_product",
         _output(lambda c: c[:11] + bytes([c[11] + 1]) + c[12:] if len(c) > 11 else c),
         {"mod10", "mod5_reduction", "support_lemma", "support_consequence"}),
        # D reaches the exact rows through DP, DG and D(P^12).
        (TruncatedSeries, "_weighted", _output(lambda c: [x + (k == 7) for k, x in enumerate(c)]),
         {"b_integrality", "b_intermediate", "b_routes", "g_identity", "p12_identity"}),
        # A fault in residue q d/dq, the only kind parity_factor can catch.  D
        # reaches the residue rows through DG in the brace, (D^2 - D) P_2 and
        # (D^2 + D) P.
        (ResidueSeries, "_weighted", lambda weighted: lambda self, a: bytes(
            (x + (k == 7)) % self.modulus for k, x in enumerate(weighted(self, a))),
         {"mod10", "mod2_reduction", "mod5_reduction", "support_consequence",
          "parity_factor"}),
        # The trial-division sigma that n1_fiber reads, not the sieve behind G.
        (gw, "sigma", lambda sigma: lambda k: sigma(k) + (k == 7), {"b_routes"}),
        (gw.SurfaceContext, "genus",
         lambda genus: lambda surface, cls: genus(surface, cls) + (cls == (1, 5)),
         {"a_routes", "b_routes"}),
        (bps, "NINE_POINT_BLOWUP", lambda _: gw.SurfaceContext(euler_characteristic=13),
         {"b_routes"}),
    ], ids=["exact_inverse", "residue_inverse", "pentagonal", "sigma_table",
            "exact_product", "residue_product", "exact_qd", "residue_qd", "n1_fiber_sigma",
            "genus", "chi"])
    def test_fault_fails_exactly_the_rows_that_depend_on_it(self, monkeypatch, owner, attr,
                                                            fault, failing):
        # One damaged value in one building block: the rows built from it fail,
        # and every row built independently of it still passes.
        faulty = fault(getattr(owner, attr))
        if isinstance(inspect.getattr_static(owner, attr), staticmethod):
            faulty = staticmethod(faulty)       # TruncatedSeries._product takes no self
        monkeypatch.setattr(owner, attr, faulty)
        catalog_for.cache_clear()
        try:
            assert {r.name for r in run_all(order=60) if not r.passed} == failing
        finally:
            catalog_for.cache_clear()

    def test_default_depth_constants(self):
        assert DEFAULT_COMPOSITE_ORDER == 1000
        assert DEFAULT_SUPPORT_ORDER == 10000
