"""Machine checks of the mod-10 divisibility of 7G^2 - G + DG and its proof steps.

Reduction mod m is a ring morphism, so building the brace 7G^2 - G + DG or
P^alpha in Z/m loses nothing.  The composite claim factors through
independent mod-5 and mod-2 routes: mod 5 the brace is 3 P_{-2} (D^2 - D) P_2,
which vanishes because P_2 lives on indices 0 or 1 mod 5, where k^2 = k; mod 2
it is P_{-1} (D^2 + D) P, whose k-th coefficient k(k+1)p(k) is even.  The exact
rows replay what the proof leans on: route equalities for a and b, their
integrality, and the logarithmic-derivative identities behind the closed forms.

The residue rows compute in one ring, Z/10 = Z/2 x Z/5, and reduce to the
row's modulus, 5 or 2, only at the end; none of the six makes an exact product.
The brace rows (mod10 and the left sides of mod5_reduction and mod2_reduction)
read brace_series(order, 10), built once per order from the sieve G reduced
mod 10.  The right sides and the support rows read P^alpha mod 10 from
p_alpha(alpha, order, 10), built in Z/10 from Euler's pentagonal P^-1 written
straight into Z/10, its one residue inverse for P, and powers of those two.  No
residue row builds any exact series, and none builds P mod 5 from Frobenius,
(P mod 5)^5 = P(q^5), the support lemma's own proof mechanism.  parity_factor
alone keeps exact P, since it pins the exact value k(k+1)p(k).

All 13 checks are rows of one table, name -> (modulus, build), in this order:

  mod10                10     7G^2 - G + DG vanishes identically mod 10
  mod5_reduction       5      mod 5 the brace equals 3 P_{-2} (D^2 - D) P_2
  support_lemma        5      P_2 mod 5 vanishes at the indices 2, 3 and 4 mod 5
  support_consequence  5      (D^2 - D) P_2 vanishes mod 5: on the support, k^2 = k
  mod2_reduction       2      mod 2 the brace equals P_{-1} (D^2 + D) P
  parity_factor        2      coefficient k of (D^2 + D) P is exactly k(k+1)p(k), even as k(k+1) is
  a_routes             exact  the direct a(beta_n) equal A = -P^12 G
  b_routes             exact  the direct b(beta_n) equal B = (1/10) P^12 (7G^2 - G + DG)
  b_intermediate       exact  the half-simplified b, which pins the reindexing, equals B
  a_integrality        exact  every coefficient of A is an integer
  b_integrality        exact  every coefficient of B is an integer
  g_identity           exact  Euler's logarithmic derivative, G = P^-1 DP
  p12_identity         exact  D(P^12) = 12 P^12 G, scanned as D(P^12) + 12A

Some rows catch less than they state:

  * support_lemma is one-directional: residues at indices 0 or 1 mod 5 are free.
  * mod2_reduction: the right side is 0 mod 2 for every integer series P, as
    k(k+1)p(k) is even, so the row scans the brace mod 2 and no fault in P shows.
  * parity_factor compares P with itself, and k(k+1) is even, so no fault in P
    can make it fail; only a fault in qd can.
  * a_integrality: A is a product of two integer series, integral by
    construction, so no fault in P or G can make it fail.
  * p12_identity: on this surface a_direct_n = -(n/12) N0_n with N0 = P^12, so
    D(P^12) = -12 a_direct: the row scans exactly -12 times the series a_routes
    scans, and passes exactly when a_routes does.

build(order) returns the series to scan and its failure rule.  A rule maps the
coefficients to one flag per coefficient, true where that coefficient fails,
and builds the flag stream in C from map and itertools.  One scanner,
check(name, order), reports the first flagged index k and coefficient k, and so
turns any row into its CongruenceCheck; run_all runs a selection.  A row with a
modulus is a congruence check and accepts an optional single-coefficient
perturbation, so tests can confirm that failure reporting points at exactly the
damaged index.  run_all validates every perturbation, its type and its index
against its row's order, before it builds a row.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, count, cycle, repeat
from operator import attrgetter, mul, ne

from .series import qd
from .qforms import catalog_for, g_series, p_alpha, partition_series
from .bps import (
    a_closed_series, a_direct_series, b_closed_series, b_direct_series,
    b_intermediate_series, brace_series,
)

__all__ = [
    "CongruenceCheck", "CHECK_NAMES", "check", "run_all",
    "DEFAULT_COMPOSITE_ORDER", "DEFAULT_SUPPORT_ORDER",
]

# Recommended sweep depths for a bare run_all(), which then takes 0.15-0.23 s on 2
# shared vCPUs (median 0.16 s over 7 fresh processes), 0.06-0.08 s of it in exact
# products (P^12, N1, the brace, B) and 0.06-0.08 s in b_direct_series, its product
# N1 included.  The support lemma at order 10^4 reads P^2 mod 10 reduced to 5,
# 0.016-0.024 s; it builds no exact series.
# Callers (and the CLI) can pass anything.
DEFAULT_COMPOSITE_ORDER = 1000
DEFAULT_SUPPORT_ORDER = 10000

# (index, additive delta) applied to the scanned series before scanning.
Perturbation = tuple[int, int]


class CongruenceCheck(namedtuple(
        "CongruenceCheck", "name modulus order passed first_failure")):
    """Outcome of one check.  modulus None marks an exact-arithmetic identity.

    first_failure is (index, offending value): the nonzero residue for modular
    checks, the offending exact coefficient for identity checks; it defaults to
    None, and passed must mirror its absence.  Every construction path checks
    that, _make, _replace and unpickling included.

    An immutable named tuple, not a dataclass, so that importing qbps loads no
    dataclasses or inspect (about 1 MiB of peak RSS per process).  Fields read
    by name, the record unpacks, and it equals a tuple of the same fields.  A
    field that must stay out of equality, such as a check's elapsed time, goes
    last and __eq__ and __hash__ compare self[:5].
    """

    __slots__ = ()

    def __new__(cls, name, modulus, order, passed, first_failure=None):
        if passed != (first_failure is None):
            raise ValueError("passed must mirror the absence of a first failure")
        return tuple.__new__(cls, (name, modulus, order, passed, first_failure))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# Failure rules: the scanned coefficients -> one flag per coefficient, true
# where that coefficient fails.
def _nonzero(cs):
    return cs


def _off_support(cs):
    # One-directional: residues at indices 0 or 1 mod 5 are unconstrained.
    return map(mul, cs, cycle((0, 0, 1, 1, 1)))


def _fractional(cs):
    return map(ne, map(attrgetter("denominator"), cs), repeat(1))


def _p2_operator(order: int):
    """(D^2 - D) P_2 mod 10, which mod5_reduction and support_consequence both read.

    Kept on the catalog of the order P_2 reaches, not the order asked for, so a
    short P_2 never leaves a short operator under the requested order.
    """
    p2 = p_alpha(2, order, 10)

    def build():
        dp2 = qd(p2)
        return qd(dp2) - dp2
    return catalog_for(p2.order).derived("p2_operator", build)


def _mod5_reduction(order: int):
    # The left side comes from G, the right side from P and P^-2 alone.
    rhs = 3 * (p_alpha(-2, order, 10) * _p2_operator(order))
    return (brace_series(order, 10) - rhs).reduce_mod(5), _nonzero


def _mod2_reduction(order: int):
    dp = qd(p_alpha(1, order, 10))
    rhs = p_alpha(-1, order, 10) * (qd(dp) + dp)
    return (brace_series(order, 10) - rhs).reduce_mod(2), _nonzero


def _parity_factor(order: int):
    # (D^2 + D) P as D(DP + P), so at most three exact series are alive at once.
    # Checked over the integers: coefficient k must be exactly k(k+1)p(k),
    # built lazily so no second series of that length is held.
    p = partition_series(order)
    return qd(qd(p) + p), lambda cs: map(
        ne, cs, map(mul, map(mul, count(), count(1)), p.coefficients))


def _g_identity(order: int):
    return g_series(order) - p_alpha(-1, order) * qd(partition_series(order)), _nonzero


def _p12_identity(order: int):
    # D(P^12) - 12 P^12 G, with the product P^12 G read from A = -P^12 G.
    # P^12 itself is (P^3)^4, with P^3 the inverse of Euler's series cubed, never
    # built from this recurrence, and a_routes checks A against the direct route.
    return qd(p_alpha(12, order)) + 12 * a_closed_series(order), _nonzero


# name -> (modulus, build), run in this order.  modulus None marks an exact
# identity; the other rows are the congruence checks.
_CHECKS = {
    "mod10": (10, lambda order: (brace_series(order, 10), _nonzero)),
    "mod5_reduction": (5, _mod5_reduction),
    "support_lemma": (5, lambda order: (p_alpha(2, order, 10).reduce_mod(5), _off_support)),
    "support_consequence": (5, lambda order: (_p2_operator(order).reduce_mod(5), _nonzero)),
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


def _selected_names(names) -> set[str]:
    """The checks to run: all for None, else a collection of known check names."""
    if names is None:
        return set(CHECK_NAMES)
    if isinstance(names, str):
        raise TypeError(f"check names must be a collection of names, not the string {names!r}")
    selected = set(names)
    unknown = sorted(map(str, selected.difference(CHECK_NAMES)))
    if unknown:
        raise ValueError(f"unknown check name(s): {', '.join(unknown)}; "
                         f"known: {', '.join(CHECK_NAMES)}")
    return selected


def _perturbable(perturbations: dict, order: int, support_order: int) -> None:
    """Refuse a perturbation of anything but a congruence check, not a pair of ints,
    or at an index outside its row's order: support_order for support_lemma, else order."""
    refused = sorted(map(str, set(perturbations) - {n for n, (m, _) in _CHECKS.items() if m}))
    if refused:
        raise ValueError(
            f"perturbation only applies to congruence checks, not: {', '.join(refused)}")
    for name, perturbation in perturbations.items():
        if not (isinstance(perturbation, (tuple, list)) and len(perturbation) == 2
                and {int}.issuperset(map(type, perturbation))):
            raise TypeError(f"perturbation of {name} must be a pair of ints (index, delta), "
                            f"got {perturbation!r}")
        # An order that is not an int is left to its catalog, which names the type.
        index, depth = perturbation[0], support_order if name == "support_lemma" else order
        if type(depth) is int and not 0 <= index <= depth:
            raise IndexError(f"coefficient index {index} outside stored range 0..{depth}")


def check(name: str, order: int, perturbation: Perturbation | None = None) -> CongruenceCheck:
    """Run one check by name: build its series, perturb it, scan it to order.

    An unknown name, or a perturbation of an exact check, raises ValueError; a
    perturbation that is not a pair of ints raises TypeError, and one whose index
    lies outside 0..order raises IndexError.
    """
    _selected_names([name])
    if perturbation is not None:
        _perturbable({name: perturbation}, order, order)
    modulus, build = _CHECKS[name]
    series, rule = build(order)
    if perturbation is not None:
        index, delta = perturbation
        series = series.with_coefficient(index, series[index] + delta)
    # Mixed-order arithmetic truncates silently, so a short series would still
    # pass; refuse any scan that does not reach the requested depth.
    if series.order != order:
        raise RuntimeError(f"check {name} swept order {series.order}, not the requested {order}")
    coeffs = series.coefficients
    k = next(compress(count(), rule(coeffs)), None)
    return CongruenceCheck(name, modulus, order, k is None, None if k is None else (k, coeffs[k]))


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
    _perturbable(perturbations, order, support_order)
    return [check(name, support_order if name == "support_lemma" else order,
                  perturbations.get(name))
            for name in CHECK_NAMES if name in selected]
