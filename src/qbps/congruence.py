"""Machine checks of the mod-10 divisibility of 7G^2 - G + DG and its proof steps.

Each check scans a series for its first offending index; reduction mod m is a
ring morphism, so reducing the exact brace or building P^alpha in Z/m loses
nothing.  The composite claim factors through independent mod-5 and mod-2 routes:

  mod 5: the brace reduces to 3 P_{-2} (D^2 - D) P_2, and (D^2 - D) P_2
         vanishes because the coefficients of P_2 are supported on indices
         congruent to 0 or 1 mod 5 (where k^2 = k holds mod 5);
  mod 2: the brace reduces to P_{-1} (D^2 + D) P, whose k-th coefficient
         k(k+1)p(k) is even as a product of consecutive integers.

The brace rows (mod10 and the left sides of mod5_reduction and mod2_reduction)
reduce the exact brace_series, built once per order from the sieve G.  The
right sides read P^alpha mod m from the catalog, p_alpha(alpha, order, m),
built in Z/m: Euler's pentagonal P^-1 reduced mod m, its residue inverse for P,
and powers of those two.  No residue row builds exact P, and none builds P mod 5
from Frobenius, (P mod 5)^5 = P(q^5), the support lemma's own proof mechanism.
parity_factor alone keeps exact P, since it pins the exact value k(k+1)p(k).

Alongside the residue checks, run_all replays the exact-arithmetic facts the
proof leans on: route equalities for a and b, their integrality, and the
logarithmic-derivative identities feeding the closed forms.

All 13 checks are rows of one table, name -> (modulus, build).  build(order)
returns the series to scan and its failure rule: rule(k, c) is None for a good
coefficient c of q^k, else the value to report.  Most rows scan a series that
must vanish; the support lemma objects only at forbidden indices, the
integrality rows only at fractions.  One scanner, _run, turns any row into its
CongruenceCheck.  A row with a modulus is a congruence check and accepts an
optional single-coefficient perturbation, so tests can confirm that failure
reporting points at exactly the damaged index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import qd
from .qforms import g_series, p_alpha, partition_series
from .bps import (
    a_closed_series, a_direct_series, b_closed_series, b_direct_series,
    b_intermediate_series, brace_series,
)

__all__ = [
    "CongruenceCheck", "CHECK_NAMES",
    "check_mod10", "check_mod5_reduction", "check_support_lemma",
    "check_support_consequence", "check_mod2_reduction", "check_parity_factor",
    "run_all", "DEFAULT_COMPOSITE_ORDER", "DEFAULT_SUPPORT_ORDER",
]

# Recommended sweep depths for a bare run_all(), which then takes well under a
# second, mostly in b_direct_series' dot products.  The support lemma at order
# 10^4 reads P^2 mod 5 built in Z/m, about 0.07 s; it needs no exact P.
# Callers (and the CLI) can pass anything.
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


# Failure rules: (index, coefficient) -> None, or the value to report.
def _nonzero(k, c):
    return c or None


def _off_support(k, r):
    # One-directional: residues at indices 0 or 1 mod 5 are unconstrained.
    return r if r and k % 5 not in (0, 1) else None


def _fractional(k, c):
    return c if c.denominator != 1 else None


def _p2_mod5_operator(order: int):
    """(D^2 - D) P_2 mod 5."""
    p2 = p_alpha(2, order, 5)
    return qd(qd(p2)) - qd(p2)


def _mod5_reduction(order: int):
    # The left side comes from G, the right side from P and P^-2 alone.
    lhs = brace_series(order).reduce_mod(5)
    return lhs - 3 * (p_alpha(-2, order, 5) * _p2_mod5_operator(order)), _nonzero


def _mod2_reduction(order: int):
    lhs = brace_series(order).reduce_mod(2)
    p = p_alpha(1, order, 2)
    return lhs - p_alpha(-1, order, 2) * (qd(qd(p)) + qd(p)), _nonzero


def _parity_factor(order: int):
    p = partition_series(order)

    def rule(k, actual):
        if actual != k * (k + 1) * p[k]:
            return actual
        return actual % 2 or None
    return qd(qd(p)) + qd(p), rule


def _g_identity(order: int):
    return g_series(order) - p_alpha(-1, order) * qd(partition_series(order)), _nonzero


def _p12_identity(order: int):
    # D(P^12) - 12 P^12 G, with the product P^12 G read from A = -P^12 G.
    # P^12 itself comes from repeated squaring of P, never from this
    # recurrence, and a_routes checks A against the direct route.
    return qd(p_alpha(12, order)) + 12 * a_closed_series(order), _nonzero


# name -> (modulus, build), run in this order.  modulus None marks an exact
# identity; the other rows are the congruence checks.
_CHECKS = {
    "mod10": (10, lambda order: (brace_series(order).reduce_mod(10), _nonzero)),
    "mod5_reduction": (5, _mod5_reduction),
    "support_lemma": (5, lambda order: (p_alpha(2, order, 5), _off_support)),
    "support_consequence": (5, lambda order: (_p2_mod5_operator(order), _nonzero)),
    "mod2_reduction": (2, _mod2_reduction),
    "parity_factor": (2, _parity_factor),
    "a_routes": (None, lambda order: (a_direct_series(order) - a_closed_series(order), _nonzero)),
    "b_routes": (None, lambda order: (b_direct_series(order) - b_closed_series(order), _nonzero)),
    "b_intermediate": (None, lambda order: (
        b_intermediate_series(order) - b_closed_series(order), _nonzero)),
    "a_integrality": (None, lambda order: (a_closed_series(order), _fractional)),
    "b_integrality": (None, lambda order: (b_closed_series(order), _fractional)),
    "g_identity": (None, _g_identity),
    "p12_identity": (None, _p12_identity),
}

CHECK_NAMES = tuple(_CHECKS)


def _run(name: str, order: int, perturbation: Perturbation | None) -> CongruenceCheck:
    """Build the row's series, perturb it, and report its first offending index."""
    modulus, build = _CHECKS[name]
    series, rule = build(order)
    if perturbation is not None:
        index, delta = perturbation
        series = series.with_coefficient(index, series[index] + delta)
    # Mixed-order arithmetic truncates silently, so a short series would still
    # pass; refuse any scan that does not reach the requested depth.
    if series.order != order:
        raise RuntimeError(f"check {name} swept order {series.order}, not the requested {order}")
    failure = next(((k, value) for k, c in enumerate(series.coefficients)
                    if (value := rule(k, c)) is not None), None)
    return CongruenceCheck(name, modulus, order, failure is None, failure)


def check_mod10(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """7G^2 - G + DG vanishes identically mod 10."""
    return _run("mod10", order, perturbation)


def check_mod5_reduction(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Mod 5 the brace equals 3 P_{-2} (D^2 - D) P_2."""
    return _run("mod5_reduction", order, perturbation)


def check_support_lemma(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Coefficients of P_2 are divisible by 5 except at indices 0 or 1 mod 5.

    One-directional: residues at permitted indices are unconstrained.
    """
    return _run("support_lemma", order, perturbation)


def check_support_consequence(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """(D^2 - D) P_2 vanishes mod 5: on the support, the index satisfies k^2 = k."""
    return _run("support_consequence", order, perturbation)


def check_mod2_reduction(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Mod 2 the brace equals P_{-1} (D^2 + D) P."""
    return _run("mod2_reduction", order, perturbation)


def check_parity_factor(order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """The k-th coefficient of (D^2 + D) P is exactly k(k+1)p(k), and is even.

    Checked over the integers, not residues: the identity half pins the
    coefficient value, the parity half is what the mod-2 route consumes.
    On failure the payload carries the exact coefficient (identity half) or
    its parity (evenness half).
    """
    return _run("parity_factor", order, perturbation)


def _selected_names(names) -> set[str]:
    """The checks to run: all for None, else a collection of known check names."""
    if names is None:
        return set(CHECK_NAMES)
    if isinstance(names, str):
        raise TypeError(f"check names must be a collection of names, not the string {names!r}")
    selected = set(names)
    unknown = sorted(selected.difference(CHECK_NAMES))
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}; "
                         f"known: {', '.join(CHECK_NAMES)}")
    return selected


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
    selected = _selected_names(names)
    perturbations = dict(perturbations or {})
    not_perturbable = sorted(set(perturbations) - {n for n, (m, _) in _CHECKS.items() if m})
    if not_perturbable:
        raise ValueError(
            f"perturbation only applies to congruence checks, not: {', '.join(not_perturbable)}")
    return [_run(name, support_order if name == "support_lemma" else order, perturbations.get(name))
            for name in CHECK_NAMES if name in selected]
