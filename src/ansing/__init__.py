"""Exact invariants of A_n surface singularities.

Computes the symmetric-differential obstruction counts hsum(n, m), their
cubic asymptotics, the localized cohomology h1(n, m) with the closed rate
h1_omega(n), the maximal pole-divisor on the exceptional chain, and the
cotangent-bundle bigness criterion, all in exact rational arithmetic with an
independent brute-force oracle for every combinatorial formula.
"""

from .asymptotics import h0_omega, h1_omega, pieces, upper_integral
from .exactmath import QuasiPolynomial, format_rational, parse_rational
from .extension import divisor_D, extends_holomorphically, pole_profile
from .invariants import chi_orb, h1, mu
from .latticesum import hsum, polygon
from .monoblocks import TripleIndex
from .oracle import hsum_oracle
from .quasifit import fit

__all__ = [
    "QuasiPolynomial",
    "TripleIndex",
    "chi_orb",
    "divisor_D",
    "extends_holomorphically",
    "fit",
    "format_rational",
    "h0_omega",
    "h1",
    "h1_omega",
    "hsum",
    "hsum_oracle",
    "mu",
    "parse_rational",
    "pieces",
    "pole_profile",
    "polygon",
    "upper_integral",
]
