"""Machine checks of the mod-10 divisibility of 7G^2 - G + DG and its proof steps.

Each check reduces integer-coefficient series before multiplying (reduction is
a ring morphism, so nothing is lost) and scans for the first offending index.
The composite claim factors through independent mod-5 and mod-2 routes:

  mod 5: the brace reduces to 3 P_{-2} (D^2 - D) P_2, and (D^2 - D) P_2
         vanishes because the coefficients of P_2 are supported on indices
         congruent to 0 or 1 mod 5 (where k^2 = k holds mod 5);
  mod 2: the brace reduces to P_{-1} (D^2 + D) P, whose k-th coefficient
         k(k+1)p(k) is even as a product of consecutive integers.

Alongside the residue checks, run_all replays the exact-arithmetic facts the
proof leans on: route equalities for a and b, their integrality, and the
logarithmic-derivative identities feeding the closed forms.

Every congruence check accepts an optional single-coefficient perturbation so
tests can confirm that failure reporting points at exactly the damaged index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import ResidueSeries, TruncatedSeries, qd
from .qforms import g_series, p_alpha, partition_series
from .bps import (
    a_closed_series, a_direct_series,
    b_closed_series, b_direct_series, b_intermediate_series,
    integrality_audit,
)

__all__ = [
    "CongruenceCheck", "CHECK_NAMES",
    "check_mod10", "check_mod5_reduction", "check_support_lemma",
    "check_support_consequence", "check_mod2_reduction", "check_parity_factor",
    "run_all", "DEFAULT_COMPOSITE_ORDER", "DEFAULT_SUPPORT_ORDER",
]

# Recommended sweep depths for a bare run_all(), which then takes seconds,
# mostly in b_routes' exact products.  Callers (and the CLI) can pass anything.
DEFAULT_COMPOSITE_ORDER = 1000
DEFAULT_SUPPORT_ORDER = 10000

# (index, additive delta) applied to the scanned series before scanning.
Perturbation = tuple[int, int]


@dataclass(frozen=True)
class CongruenceCheck:
    """Outcome of one check.  modulus None marks an exact-arithmetic identity.

    first_failure is (index, offending value): the nonzero residue for modular
    checks, the offending exact coefficient for identity checks.
    """

    name: str
    modulus: int | None
    order: int
    passed: bool
    first_failure: tuple | None = None

    def __post_init__(self):
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must mirror the absence of a first failure")


def _perturbed(series, perturbation: Perturbation | None):
    if perturbation is None:
        return series
    index, delta = perturbation
    return series.with_coefficient(index, series.coefficient(index) + delta)


def _result(name: str, modulus: int | None, scanned, order: int, failure) -> CongruenceCheck:
    # Mixed-order arithmetic truncates silently, so a short series would still
    # pass; refuse any scan that does not reach the requested depth.
    if scanned.order != order:
        raise RuntimeError(f"check {name} swept order {scanned.order}, not the requested {order}")
    return CongruenceCheck(name, modulus, order, failure is None, failure)


def _zero_scan(name: str, series: ResidueSeries, order: int) -> CongruenceCheck:
    return _result(name, series.modulus, series, order, series.first_nonzero())


def _exact_zero_scan(name: str, difference: TruncatedSeries, order: int) -> CongruenceCheck:
    failure = next(((k, c) for k, c in enumerate(difference.coefficients) if c), None)
    return _result(name, None, difference, order, failure)


def _brace_mod(order: int, modulus: int) -> ResidueSeries:
    g = g_series(order).reduce_mod(modulus)
    return 7 * (g * g) - g + qd(g)


def check_mod10(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """7G^2 - G + DG vanishes identically mod 10."""
    return _zero_scan("mod10", _perturbed(_brace_mod(order, 10), perturbation), order)


def check_mod5_reduction(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Mod 5 the brace equals 3 P_{-2} (D^2 - D) P_2."""
    lhs = _brace_mod(order, 5)
    p2 = partition_series(order).reduce_mod(5) ** 2
    pm2 = p_alpha(-2, order).reduce_mod(5)
    rhs = 3 * (pm2 * (qd(qd(p2)) - qd(p2)))
    return _zero_scan("mod5_reduction", _perturbed(lhs - rhs, perturbation), order)


def check_support_lemma(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Coefficients of P_2 are divisible by 5 except at indices 0 or 1 mod 5.

    One-directional: residues at permitted indices are unconstrained.
    """
    p2 = _perturbed(partition_series(order).reduce_mod(5) ** 2, perturbation)
    failure = next(((k, r) for k, r in enumerate(p2.coefficients) if r and k % 5 not in (0, 1)),
                   None)
    return _result("support_lemma", 5, p2, order, failure)


def check_support_consequence(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """(D^2 - D) P_2 vanishes mod 5: on the support, the index satisfies k^2 = k."""
    p2 = partition_series(order).reduce_mod(5) ** 2
    value = qd(qd(p2)) - qd(p2)
    return _zero_scan("support_consequence", _perturbed(value, perturbation), order)


def check_mod2_reduction(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Mod 2 the brace equals P_{-1} (D^2 + D) P."""
    lhs = _brace_mod(order, 2)
    p = partition_series(order).reduce_mod(2)
    pm1 = p_alpha(-1, order).reduce_mod(2)
    rhs = pm1 * (qd(qd(p)) + qd(p))
    return _zero_scan("mod2_reduction", _perturbed(lhs - rhs, perturbation), order)


def check_parity_factor(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """The k-th coefficient of (D^2 + D) P is exactly k(k+1)p(k), and is even.

    Checked over the integers, not residues: the identity half pins the
    coefficient value, the parity half is what the mod-2 route consumes.
    On failure the payload carries the exact coefficient (identity half) or
    its parity (evenness half).
    """
    p = partition_series(order)
    value = _perturbed(qd(qd(p)) + qd(p), perturbation)
    failure = None
    for k, (actual, count) in enumerate(zip(value.coefficients, p.coefficients)):
        if actual != k * (k + 1) * count:
            failure = (k, actual)
            break
        if actual % 2:
            failure = (k, actual % 2)
            break
    return _result("parity_factor", 2, value, order, failure)


def _check_a_routes(order: int) -> CongruenceCheck:
    return _exact_zero_scan("a_routes", a_direct_series(order) - a_closed_series(order), order)


def _check_b_routes(order: int) -> CongruenceCheck:
    return _exact_zero_scan("b_routes", b_direct_series(order) - b_closed_series(order), order)


def _check_b_intermediate(order: int) -> CongruenceCheck:
    return _exact_zero_scan("b_intermediate",
                            b_intermediate_series(order) - b_closed_series(order), order)


def _integrality(name: str, series: TruncatedSeries, order: int) -> CongruenceCheck:
    bad = integrality_audit(series)
    failure = (bad[0], series.coefficient(bad[0])) if bad else None
    return _result(name, None, series, order, failure)


def _check_a_integrality(order: int) -> CongruenceCheck:
    return _integrality("a_integrality", a_closed_series(order), order)


def _check_b_integrality(order: int) -> CongruenceCheck:
    return _integrality("b_integrality", b_closed_series(order), order)


def _check_g_identity(order: int) -> CongruenceCheck:
    p = partition_series(order)
    value = g_series(order) - p_alpha(-1, order) * qd(p)
    return _exact_zero_scan("g_identity", value, order)


def _check_p12_identity(order: int) -> CongruenceCheck:
    p12 = p_alpha(12, order)
    value = qd(p12) - 12 * (p12 * g_series(order))
    return _exact_zero_scan("p12_identity", value, order)


_CONGRUENCE_RUNNERS = {
    "mod10": check_mod10,
    "mod5_reduction": check_mod5_reduction,
    "support_lemma": check_support_lemma,
    "support_consequence": check_support_consequence,
    "mod2_reduction": check_mod2_reduction,
    "parity_factor": check_parity_factor,
}

_EXACT_RUNNERS = {
    "a_routes": _check_a_routes,
    "b_routes": _check_b_routes,
    "b_intermediate": _check_b_intermediate,
    "a_integrality": _check_a_integrality,
    "b_integrality": _check_b_integrality,
    "g_identity": _check_g_identity,
    "p12_identity": _check_p12_identity,
}

CHECK_NAMES = tuple(_CONGRUENCE_RUNNERS) + tuple(_EXACT_RUNNERS)


def run_all(order: int | None = None, support_order: int | None = None,
            names=None, perturbations=None) -> list[CongruenceCheck]:
    """Run the selected checks (all by default) in a fixed deterministic order.

    With no explicit order, congruence sweeps run at DEFAULT_COMPOSITE_ORDER
    and the support lemma at DEFAULT_SUPPORT_ORDER; with an explicit order,
    everything runs there unless support_order overrides the lemma's depth.
    perturbations maps a congruence check's name to a (index, delta) injection,
    for failure-reporting tests.  A check whose scanned series falls short of
    its requested depth raises instead of passing.
    """
    if order is None:
        order = DEFAULT_COMPOSITE_ORDER
        if support_order is None:
            support_order = DEFAULT_SUPPORT_ORDER
    if support_order is None:
        support_order = order
    selected = set(CHECK_NAMES) if names is None else set(names)
    unknown = sorted(selected - set(CHECK_NAMES))
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}")
    perturbations = dict(perturbations or {})
    not_perturbable = sorted(set(perturbations) - set(_CONGRUENCE_RUNNERS))
    if not_perturbable:
        raise ValueError(
            f"perturbation only applies to congruence checks, not: {', '.join(not_perturbable)}")

    results = []
    for name in CHECK_NAMES:
        if name not in selected:
            continue
        depth = support_order if name == "support_lemma" else order
        if name in _CONGRUENCE_RUNNERS:
            results.append(_CONGRUENCE_RUNNERS[name](depth, perturbation=perturbations.get(name)))
        else:
            results.append(_EXACT_RUNNERS[name](depth))
    return results
