"""Machine checks of the mod-10 divisibility of 7G^2 - G + DG and its proof steps.

Reduction mod m is a ring morphism, so building the brace 7G^2 - G + DG or
P^alpha in Z/m loses nothing.  The composite claim factors through
independent mod-5 and mod-2 routes: mod 5 the brace is 3 P_{-2} (D^2 - D) P_2,
which vanishes because P_2 lives on indices 0 or 1 mod 5, where k^2 = k; mod 2
it is P_{-1} (D^2 + D) P, whose k-th coefficient k(k+1)p(k) is even.  The exact
rows replay what the proof leans on: route equalities for a and b, their
integrality, and the logarithmic-derivative identities behind the closed forms.

The six residue rows are built in Z/10 = Z/2 x Z/5, and check alone reduces
each to its modulus, 10, 5 or 2.  They read brace_series(order, 10) and
p_alpha(alpha, order, 10), which build no exact series; QFormCatalog.power
gives the recipe, and says why P mod 5 is never built from Frobenius.

All 13 checks are rows of one table, name -> (modulus, failure rule, build), in
this order; build(order) returns the series to scan:

  mod10                10     7G^2 - G + DG vanishes identically mod 10
  mod5_reduction       5      mod 5 the brace equals 3 P_{-2} (D^2 - D) P_2
  support_lemma        5      P_2 mod 5 vanishes at the indices 2, 3 and 4 mod 5
  support_consequence  5      (D^2 - D) P_2 vanishes mod 5: on the support, k^2 = k
  mod2_reduction       2      mod 2 the brace equals P_{-1} (D^2 + D) P
  parity_factor        2      (D^2 + D) P vanishes mod 2: k(k+1) is even
  a_routes             exact  the direct a(beta_n) equal A = -P^12 G
  b_routes             exact  the direct b(beta_n) equal B = (1/10) P^12 (7G^2 - G + DG)
  b_intermediate       exact  the half-simplified b, which pins the reindexing, equals B
  a_integrality        exact  every direct a(beta_n) = -(1/12) g N0 is an integer
  b_integrality        exact  every coefficient of B is an integer
  g_identity           exact  Euler's logarithmic derivative, G = P^-1 DP
  p12_identity         exact  D(P^12) = 12 P^12 G, scanned as D(P^12) + 12A

Some rows catch less than they state:

  * support_lemma is one-directional: residues at indices 0 or 1 mod 5 are free.
  * mod2_reduction and parity_factor: (D^2 + D) P is 0 mod 2 for every integer
    series P, as k(k+1)p(k) is even, so mod2_reduction scans the brace mod 2,
    and no fault in P shows in either row; only a fault in residue q d/dq can
    fail them.
  * p12_identity: on this surface a_direct_n = -(n/12) N0_n with N0 = P^12, so
    D(P^12) = -12 a_direct: the row scans exactly -12 times the series a_routes
    scans, and passes exactly when a_routes does.

check scans one row and run_all runs a selection.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, count, cycle, repeat
from operator import attrgetter, mul, ne

from .series import qd
from .qforms import g_series, p_alpha, partition_series
from .bps import (
    a_closed_series, a_direct_series, b_closed_series, b_direct_series,
    b_intermediate_series, brace_series,
)

__all__ = [
    "CongruenceCheck", "CHECK_NAMES", "check", "run_all",
    "DEFAULT_COMPOSITE_ORDER", "DEFAULT_SUPPORT_ORDER",
]

# Recommended sweep depths for a bare run_all().  The support lemma reads only
# P^2 mod 10 and builds no exact series, so it can sweep deeper than the rows
# that make exact products.  Callers (and the CLI) can pass anything.
DEFAULT_COMPOSITE_ORDER = 1000
DEFAULT_SUPPORT_ORDER = 10000

# (index, additive delta) applied to the scanned series before scanning.
Perturbation = tuple[int, int]


class CongruenceCheck(namedtuple(
        "CongruenceCheck", "name modulus order first_failure", defaults=(None,))):
    """Outcome of one check.  modulus None marks an exact-arithmetic identity.

    first_failure is (index, offending value): the nonzero residue for modular
    checks, the offending exact coefficient for identity checks; it defaults to
    None, and passed is derived from it, so no record can both pass and fail.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.first_failure is None


# Failure rules: the scanned coefficients -> one flag per coefficient, true
# where that coefficient fails, built from map and itertools so it runs in C.
def _nonzero(cs):
    return cs


def _off_support(cs):
    # One-directional: residues at indices 0 or 1 mod 5 are unconstrained.
    return map(mul, cs, cycle((0, 0, 1, 1, 1)))


def _fractional(cs):
    return map(ne, map(attrgetter("denominator"), cs), repeat(1))


def _p2_operator(order: int):
    """(D^2 - D) P_2 mod 10, which mod5_reduction and support_consequence both read."""
    dp2 = qd(p_alpha(2, order, 10))
    return qd(dp2) - dp2


def _p_operator(order: int):
    """(D^2 + D) P mod 10, which mod2_reduction and parity_factor both read."""
    dp = qd(p_alpha(1, order, 10))
    return qd(dp) + dp


def _p12_identity(order: int):
    # D(P^12) - 12 P^12 G, with the product P^12 G read from A = -P^12 G.  P^12 is
    # never built from this recurrence (QFormCatalog.power builds it), and
    # a_routes checks A against the direct route.
    return qd(p_alpha(12, order)) + 12 * a_closed_series(order)


# The module docstring's table, run in this order.  A row with a modulus is a
# congruence check.  Each build looks up the q-forms and routes it reads in this
# module's globals when called, so rebinding one of them reaches every row.
_CHECKS = {
    "mod10": (10, _nonzero, lambda order: brace_series(order, 10)),
    # The left side comes from G, the right side from P and P^-2 alone.
    "mod5_reduction": (5, _nonzero, lambda order: (
        brace_series(order, 10) - 3 * (p_alpha(-2, order, 10) * _p2_operator(order)))),
    "support_lemma": (5, _off_support, lambda order: p_alpha(2, order, 10)),
    "support_consequence": (5, _nonzero, _p2_operator),
    "mod2_reduction": (2, _nonzero, lambda order: (
        brace_series(order, 10) - p_alpha(-1, order, 10) * _p_operator(order))),
    "parity_factor": (2, _nonzero, _p_operator),
    "a_routes": (None, _nonzero, lambda order: a_direct_series(order) - a_closed_series(order)),
    "b_routes": (None, _nonzero, lambda order: b_direct_series(order) - b_closed_series(order)),
    "b_intermediate": (None, _nonzero, lambda order: (
        b_intermediate_series(order) - b_closed_series(order))),
    "a_integrality": (None, _fractional, lambda order: a_direct_series(order)),
    "b_integrality": (None, _fractional, lambda order: b_closed_series(order)),
    "g_identity": (None, _nonzero, lambda order: (
        g_series(order) - p_alpha(-1, order) * qd(partition_series(order)))),
    "p12_identity": (None, _nonzero, _p12_identity),
}

CHECK_NAMES = tuple(_CHECKS)


def _selected_names(names) -> set[str]:
    """The checks to run: all for None, else a collection of known check names."""
    if names is None:
        return set(CHECK_NAMES)
    try:
        if isinstance(names, str):
            raise TypeError
        selected = set(names)
    except TypeError:
        raise TypeError(f"names must be a collection of check names, got {names!r}") from None
    unknown = sorted(map(str, selected.difference(CHECK_NAMES)))
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}; "
                         f"known: {', '.join(CHECK_NAMES)}")
    return selected


def _perturbable(perturbations: dict, depths: dict) -> None:
    """Refuse a perturbation of anything but a congruence check, not a pair of ints,
    or at an index outside 0..depths[name], its row's order."""
    refused = sorted(map(str, set(perturbations) - {n for n, (m, *_) in _CHECKS.items() if m}))
    if refused:
        raise ValueError(
            f"perturbation only applies to congruence checks, not: {', '.join(refused)}")
    for name, perturbation in perturbations.items():
        if not (isinstance(perturbation, (tuple, list)) and len(perturbation) == 2
                and {int}.issuperset(map(type, perturbation))):
            raise TypeError(f"perturbation of {name} must be a pair of ints (index, delta), "
                            f"got {perturbation!r}")
        # An order that is not an int is left to its catalog, which names the type.
        index, depth = perturbation[0], depths[name]
        if type(depth) is int and not 0 <= index <= depth:
            raise IndexError(f"coefficient index {index} outside stored range 0..{depth}")


def check(name: str, order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Run one check by name, in five steps: build its series, check that the
    series reaches order, reduce it to the row's modulus if it has one, perturb
    it, and scan it to order.

    The scan reports the first index the row's failure rule flags, with that
    coefficient; a perturbation lets tests confirm that a failure is reported at
    exactly the damaged index.  An unknown name, or a perturbation of an exact
    check, raises ValueError; an unhashable name, or a perturbation that is not
    a pair of ints, raises TypeError; a perturbation index outside 0..order
    raises IndexError.  Mixed-order arithmetic truncates silently, so a series
    built short of order raises RuntimeError, before it is perturbed.
    """
    _selected_names([name])
    if perturbation is not None:
        _perturbable({name: perturbation}, {name: order})
    modulus, rule, build = _CHECKS[name]
    series = build(order)
    if series.order != order:
        raise RuntimeError(f"check {name} swept order {series.order}, not the requested {order}")
    if modulus:
        series = series.reduce_mod(modulus)
    if perturbation is not None:
        index, delta = perturbation
        series = series.with_coefficient(index, series[index] + delta)
    coeffs = series.coefficients
    k = next(compress(count(), rule(coeffs)), None)
    return CongruenceCheck(name, modulus, order, None if k is None else (k, coeffs[k]))


def run_all(order: int | None = None, support_order: int | None = None,
            names=None, perturbations=None) -> list[CongruenceCheck]:
    """Run the selected checks (all by default) through check, in a fixed order.

    With no explicit order, every row but the support lemma runs at
    DEFAULT_COMPOSITE_ORDER and the lemma at DEFAULT_SUPPORT_ORDER; with an
    explicit order, every row runs there unless support_order sets the lemma's.
    perturbations maps a selected congruence check's name to its (index, delta)
    pair; all of them are validated before any row is built, and one of a check
    not selected raises ValueError rather than being dropped.
    """
    if order is None:
        order = DEFAULT_COMPOSITE_ORDER
        if support_order is None:
            support_order = DEFAULT_SUPPORT_ORDER
    if support_order is None:
        support_order = order
    depths = {name: support_order if name == "support_lemma" else order for name in CHECK_NAMES}
    selected = _selected_names(names)
    try:
        perturbations = dict(perturbations or {})
    except (TypeError, ValueError):
        raise TypeError("perturbations must map check names to (index, delta) pairs, "
                        f"got {perturbations!r}") from None
    _perturbable(perturbations, depths)
    unselected = sorted(set(perturbations) - selected)
    if unselected:
        raise ValueError(f"perturbation of a check that is not selected: {', '.join(unselected)}")
    return [check(name, depths[name], perturbations.get(name))
            for name in CHECK_NAMES if name in selected]
