"""Acceptance gate: eight criteria, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines live
(plain pytest captures them and replays on failure).
"""

import random
import time
from fractions import Fraction
from functools import reduce

from qbps.series import TruncatedSeries, qd
from qbps.qforms import g_series, p_alpha, partition_series
from qbps.gw import NINE_POINT_BLOWUP, n0_series, n1_series
from qbps.bps import (
    ClassData, a_closed_series, a_direct_series,
    b_closed_series, b_direct_series, b_general,
    brace_series, decompositions_for,
)
from qbps.congruence import (
    run_all, check,
)


def _verdict(label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {label}")
    assert not failures, f"{label}: " + "; ".join(failures)


def test_criterion_1_route_equality_to_order_200():
    failures = []
    order = 200
    if a_direct_series(order).coefficients != a_closed_series(order).coefficients:
        failures.append("a routes disagree")
    if b_direct_series(order).coefficients != b_closed_series(order).coefficients:
        failures.append("b routes disagree")
    _verdict("criterion 1: direct and closed series agree to order 200", failures)


def test_criterion_2_integrality_and_spot_values():
    failures = []
    order = 200
    a = a_closed_series(order)
    b = b_closed_series(order)
    for result in run_all(order=order, names=["a_integrality", "b_integrality"]):
        if not result.passed:
            failures.append(f"{result.name}: fractional coefficient at {result.first_failure}")
    for series, index, expected in ((a, 1, -1), (a, 2, -15), (b, 1, 0), (b, 2, 1)):
        got = series.coefficient(index)
        if got != expected:
            failures.append(f"coefficient {index}: got {got}, want {expected}")
    _verdict("criterion 2: integrality to order 200 plus spot values", failures)


def test_criterion_3_mod10_sweep_to_order_1000():
    failures = []
    result = check("mod10", 1000)
    if not result.passed:
        failures.append(f"mod-10 sweep failed at {result.first_failure}")
    if brace_series(2).coefficient(2) != 10:
        failures.append("q^2 coefficient of the brace is not exactly 10")
    _verdict("criterion 3: 7G^2-G+DG vanishes mod 10 to order 1000", failures)


def test_criterion_4_proof_step_checks():
    failures = []
    started = time.monotonic()
    step_results = [
        check("mod5_reduction", 500),
        check("support_consequence", 500),
        check("mod2_reduction", 500),
        check("parity_factor", 500),
        check("support_lemma", 5000),
    ]
    elapsed = time.monotonic() - started
    for result in step_results:
        if not result.passed:
            failures.append(f"{result.name} failed at {result.first_failure}")
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds one minute")
    _verdict("criterion 4: proof-step checks at order 500 (support lemma 5000)", failures)


def test_criterion_5_input_identities_to_order_200():
    failures = []
    order = 200
    p = partition_series(order)
    if g_series(order) != p_alpha(-1, order) * qd(p):
        failures.append("G is not the logarithmic derivative of P")
    p12 = p_alpha(12, order)
    if qd(p12) != 12 * (p12 * g_series(order)):
        failures.append("D(P^12) differs from 12 P^12 G")
    _verdict("criterion 5: logarithmic-derivative identities to order 200", failures)


def test_criterion_6_oracle_equivalence(oracle):
    failures = []
    p = partition_series(40)
    for k in range(41):
        if p.coefficient(k) != oracle.partition_count(k):
            failures.append(f"partition count differs at {k}")
            break
    iterated = reduce(oracle.convolve, [list(p.coefficients)] * 12)
    if list(p_alpha(12, 40).coefficients) != iterated:
        failures.append("12th power differs from iterated convolution")
    order = 50
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
        if value != b_closed.coefficient(n):
            failures.append(f"general b disagrees with closed series at n={n}")
            break
    _verdict("criterion 6: brute-force and general-formula oracles agree", failures)


def _random_series(rng, max_order=20):
    order = rng.randint(0, max_order)
    return TruncatedSeries([
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order + 1)
    ])


def _random_unit(rng, max_order=12):
    series = _random_series(rng, max_order)
    lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
    return series.with_coefficient(0, lead)


def test_criterion_7_property_suites_and_crt():
    failures = []
    rng = random.Random(20260819)
    for trial in range(100):
        f, g, h = (_random_series(rng) for _ in range(3))
        if f * (g + h) != f * g + f * h or f * g != g * f or (f * g) * h != f * (g * h):
            failures.append(f"ring axioms broke on trial {trial}")
            break
    for trial in range(100):
        f, g = _random_series(rng), _random_series(rng)
        if qd(f * g) != qd(f) * g + f * qd(g):
            failures.append(f"Leibniz rule broke on trial {trial}")
            break
    for trial in range(100):
        f = _random_unit(rng)
        if f * f.inverse() != 1:
            failures.append(f"inversion round-trip broke on trial {trial}")
            break
    for trial in range(100):
        f = _random_unit(rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if f ** (a + b) != (f ** a) * (f ** b):
            failures.append(f"pow additivity broke on trial {trial}")
            break
    order = 500
    components = [check("mod5_reduction", order), check("support_consequence", order),
                  check("mod2_reduction", order)]
    if all(r.passed for r in components):
        if not check("mod10", order).passed:
            failures.append("components pass mod 5 and mod 2 but composite mod 10 fails")
    else:
        failures.append("a component check failed, CRT meta-test vacuous")
    _verdict("criterion 7: randomized algebra suites and CRT meta-test", failures)


def test_criterion_8_mutation_sensitivity():
    failures = []
    cases = [
        ("mod10", 10, 137, 3),
        ("mod5_reduction", 5, 88, 2),
        ("support_lemma", 5, 92, 1),       # 92 = 2 mod 5: a forbidden index
        ("support_consequence", 5, 61, 4),
        ("mod2_reduction", 2, 45, 1),
        ("parity_factor", 2, 33, 5),
    ]
    for name, modulus, index, delta in cases:
        result = check(name, 200, perturbation=(index, delta))
        if result.passed or result.first_failure != (index, delta % modulus):
            failures.append(f"{name}: expected failure at "
                            f"({index}, {delta % modulus}), got {result.first_failure}")
    _verdict("criterion 8: perturbed checks fail at exactly the damaged index", failures)
