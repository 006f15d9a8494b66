"""Pole bookkeeping along the exceptional chain and the extension criterion.

Differentials on the complement of the exceptional chain E_1 + ... + E_n
have at most logarithmic poles along E; the divisor D below measures exactly
how much milder the actual poles are.  Per component the coefficient is

    a_r = sum over j = 0..min(r-1, n-r) of ceil((m - 2j)/(n+1))

which is also the minimum, over the admissible block range, of the offset
(i+m)/2 + ((n+1)/2 - r)khat of a block (khat, i, m) on component r
(``pole_profile``); the tests recover the coefficients that way by brute
force.  A block extends
holomorphically iff every offset reaches m, which happens for all admissible
blocks once i >= n*m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import ceil_ratio
from .monoblocks import TripleIndex


@dataclass(frozen=True)
class DivisorCoeffs:
    """Coefficients a_1..a_n of the divisor on E_1..E_n."""

    n: int
    m: int
    a: tuple[int, ...]


@dataclass(frozen=True)
class PoleProfile:
    """Per-component pole offsets of one block relative to log poles."""

    triple: TripleIndex
    offsets: tuple[int, ...]


def divisor_D(n: int, m: int) -> DivisorCoeffs:
    """Closed-form divisor coefficients."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    coeffs = []
    for r in range(1, n + 1):
        coeffs.append(
            sum(ceil_ratio(m - 2 * j, n + 1) for j in range(min(r - 1, n - r) + 1))
        )
    return DivisorCoeffs(n, m, tuple(coeffs))


def _offset(n: int, khat: int, i: int, m: int, r: int) -> Fraction:
    return Fraction(i + m, 2) + (Fraction(n + 1, 2) - r) * khat


def pole_profile(t: TripleIndex) -> PoleProfile:
    """Offsets of one block on E_1..E_n.

    Negative offsets only occur for inadmissible khat; admissible blocks have
    all offsets >= 0, which is the at-most-logarithmic pole bound.
    """
    offsets = []
    for r in range(1, t.n + 1):
        value = _offset(t.n, t.khat, t.i, t.m, r)
        if value.denominator != 1:
            raise ArithmeticError(f"offset not integral for {t}, r={r}")
        offsets.append(value.numerator)
    return PoleProfile(t, tuple(offsets))


def extends_holomorphically(t: TripleIndex) -> bool:
    """True iff the block acquires no pole along any component.

    The componentwise condition is offset_r >= m for r = 1..n; it reduces to
    i >= m together with |khat| <= (i-m)/(n-1) for n >= 2, and to i >= m for
    n = 1, and holds for every admissible block once i >= n*m.
    """
    if not t.is_admissible():
        raise ValueError(f"triple outside the admissible block range: {t}")
    return all(
        _offset(t.n, t.khat, t.i, t.m, r) >= t.m for r in range(1, t.n + 1)
    )


def divisor_record(n: int, m: int) -> dict:
    """JSON-able record of the divisor coefficients."""
    return {"n": n, "m": m, "coefficients": list(divisor_D(n, m).a)}
