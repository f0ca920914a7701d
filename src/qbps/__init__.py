"""Exact q-series engine for BPS-style curve-count invariants.

Computes the conjecturally integer invariants a(beta_n) and b(beta_n) of the
section classes beta_n = S + nF on the nine-point blow-up of the plane by
independent routes, audits their integrality, and machine-checks the mod-10
divisibility of 7G^2 - G + DG together with each step of its proof, all in
exact rational and residue arithmetic to a chosen truncation order.
"""

from .series import TruncatedSeries, ResidueSeries, qd
from .qforms import sigma, partition_series, p_alpha, g_series, QFormCatalog, catalog_for
from .gw import (SurfaceContext, NINE_POINT_BLOWUP, GWTable,
                 n0_series, n1_series, n1_fiber, gw_table)
from .bps import (ClassData, a_general, b_general, decompositions_for,
                  a_direct_series, b_direct_series,
                  a_closed_series, b_closed_series, b_intermediate_series,
                  brace_series)
from .congruence import (CongruenceCheck, CHECK_NAMES, check, run_all,
                         DEFAULT_COMPOSITE_ORDER, DEFAULT_SUPPORT_ORDER)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries", "ResidueSeries", "qd",
    "sigma", "partition_series", "p_alpha", "g_series", "QFormCatalog", "catalog_for",
    "SurfaceContext", "NINE_POINT_BLOWUP", "GWTable",
    "n0_series", "n1_series", "n1_fiber", "gw_table",
    "ClassData", "a_general", "b_general", "decompositions_for",
    "a_direct_series", "b_direct_series",
    "a_closed_series", "b_closed_series", "b_intermediate_series",
    "brace_series",
    "CongruenceCheck", "CHECK_NAMES", "check", "run_all",
    "DEFAULT_COMPOSITE_ORDER", "DEFAULT_SUPPORT_ORDER",
    "__version__",
]
