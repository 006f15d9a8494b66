"""Pole bookkeeping along the exceptional chain and the extension criterion.

Differentials on the complement of the exceptional chain E_1 + ... + E_n
have at most logarithmic poles along E; the divisor D below measures exactly
how much milder the actual poles are.  Per component the coefficient is

    a_r = sum over j = 0..min(r-1, n-r) of ceil((m - 2j)/(n+1))

which is also the minimum, over the admissible block range, of the offset
(i+m)/2 + ((n+1)/2 - r)khat of a block (khat, i, m) on component r; the
tests recover the coefficients that way by brute force.  The offset is
m + i1(r-1), with i1 the block's chart order (``monoblocks.chart_order``),
so ``pole_profile`` computes it in integers.  A block extends
holomorphically iff every offset reaches m, which happens for all admissible
blocks once i >= n*m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import ceil_ratio
from .monoblocks import TripleIndex, chart_order


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
    """Closed-form divisor coefficients: a_r = S(min(r-1, n-r)), where S(k)
    is the prefix sum of ceil((m - 2j)/(n+1)) over j = 0..k."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    prefix = []
    total = 0
    for j in range((n - 1) // 2 + 1):
        total += ceil_ratio(m - 2 * j, n + 1)
        prefix.append(total)
    return DivisorCoeffs(n, m, tuple(prefix[min(r - 1, n - r)] for r in range(1, n + 1)))


def pole_profile(t: TripleIndex) -> PoleProfile:
    """Offsets of one block on E_1..E_n: offset_r = m + chart_order(t, r-1).

    Negative offsets only occur for inadmissible khat; admissible blocks have
    all offsets >= 0, which is the at-most-logarithmic pole bound.
    """
    return PoleProfile(t, tuple(t.m + chart_order(t, r - 1) for r in range(1, t.n + 1)))


def extends_holomorphically(t: TripleIndex) -> bool:
    """True iff the block acquires no pole along any component.

    The componentwise condition is offset_r >= m for r = 1..n; it reduces to
    i >= m together with |khat| <= (i-m)/(n-1) for n >= 2, and to i >= m for
    n = 1, and holds for every admissible block once i >= n*m.
    """
    if not t.is_admissible():
        raise ValueError(f"triple outside the admissible block range: {t}")
    return all(offset >= t.m for offset in pole_profile(t).offsets)


def divisor_record(n: int, m: int) -> dict:
    """JSON-able record of the divisor coefficients."""
    return {"n": n, "m": m, "coefficients": list(divisor_D(n, m).a)}
