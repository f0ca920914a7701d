"""Command-line front end: verification suite, count tables, raw series dumps.

All numeric output is exact.  Rationals render as "p/q" in lowest terms,
integers without a denominator; nothing is ever rounded.
"""

from __future__ import annotations

import csv
import json
import sys

import click

from .bps import a_closed_series, b_closed_series, brace_series
from .congruence import CHECK_NAMES, _selected_names, run_all
from .gw import gw_table, n1_fiber
from .qforms import g_series, p_alpha, partition_series

DEFAULT_TERMS = 100

_SERIES_BUILDERS = {
    "P": partition_series,
    "P12": lambda order: p_alpha(12, order),
    "G": g_series,
    "A": a_closed_series,
    "B": b_closed_series,
    "brace": brace_series,
}

# An order of sys.maxsize or more cannot size a list: refused as a usage error.
_terms_option = click.option(
    "--terms", type=click.IntRange(min=0, max=sys.maxsize - 1), default=DEFAULT_TERMS,
    show_default=True, help="Truncation order: coefficients of q^0 through q^terms.")


@click.group()
def main():
    """Exact q-series engine for BPS-style curve-count invariants.

    Computes the invariants a and b of the section classes on the nine-point
    blow-up of the plane two independent ways, audits their integrality, and
    verifies the mod-10 divisibility underlying b along with every step of
    its factor-wise proof.  Exit status reports verification outcomes, so the
    commands compose with scripts and CI.
    """


@main.command()
@_terms_option
@click.option("--checks", "checks_csv", metavar="LIST", default=None,
              help="Comma-separated subset to run.  Known checks: " + ", ".join(CHECK_NAMES) + ".")
def verify(terms, checks_csv):
    """Run verification checks; exit 0 only if every selected check passes."""
    names = None
    if checks_csv is not None:
        names = [piece.strip() for piece in checks_csv.split(",") if piece.strip()]
        if not names:
            raise click.UsageError("--checks got an empty list")
        try:
            _selected_names(names)
        except ValueError as error:
            raise click.UsageError(str(error)) from None
    results = run_all(order=terms, names=names)
    width = max(len(r.name) for r in results)
    for r in results:
        domain = "exact" if r.modulus is None else f"mod {r.modulus}"
        line = f"{r.name:<{width}}  {domain:<7}  {'pass' if r.passed else 'fail'}"
        if not r.passed:
            index, value = r.first_failure
            line += f"  first failure at q^{index}: {value}"
        click.echo(line)
    if not all(r.passed for r in results):
        sys.exit(1)


@main.command()
@click.option("--kind", type=click.Choice(["gw", "bps"]), required=True,
              help="gw: curve counts N0, N1, N1_fiber.  bps: invariants a, b.")
@_terms_option
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output encoding; values are identical either way.")
def table(kind, terms, fmt):
    """Emit one row per class index n = 0..terms."""
    if kind == "gw":
        counts = gw_table(terms)
        header = ["n", "N0", "N1", "N1_fiber"]
        # N1_fiber is undefined at n = 0 (no zero-fold fiber); the cell is empty.
        fibers = (n1_fiber(n) if n else "" for n in range(terms + 1))
        rows = zip(range(terms + 1), counts.n0.coefficients, counts.n1.coefficients, fibers)
    else:
        a, b = a_closed_series(terms), b_closed_series(terms)
        header = ["n", "a", "b"]
        rows = zip(range(terms + 1), a.coefficients, b.coefficients)
    # rows is lazy, so csv output streams, and csv stringifies each value itself.
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        click.echo(json.dumps([dict(zip(header, map(str, row))) for row in rows], indent=2))


@main.command()
@click.option("--name", "series_name", type=click.Choice(list(_SERIES_BUILDERS)),
              required=True, help="Which series to dump.")
@_terms_option
def series(series_name, terms):
    """Print index and exact coefficient, one line per power of q."""
    values = _SERIES_BUILDERS[series_name](terms)
    for k in range(terms + 1):
        click.echo(f"{k}\t{values.coefficient(k)}")
