"""Exact q-series engine for BPS-style curve-count invariants.

Computes the conjecturally integer invariants a(beta_n) and b(beta_n) of the
section classes beta_n = S + nF on the nine-point blow-up of the plane by
independent routes, audits their integrality, and machine-checks the mod-10
divisibility of 7G^2 - G + DG together with each step of its proof, all in
exact rational and residue arithmetic to a chosen truncation order.
"""

from . import bps, congruence, gw, qforms, series
from .series import *
from .qforms import *
from .gw import *
from .bps import *
from .congruence import *

__version__ = "0.1.0"

__all__ = [*series.__all__, *qforms.__all__, *gw.__all__, *bps.__all__, *congruence.__all__,
           "__version__"]
