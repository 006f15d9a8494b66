"""Combinatorial block algebra for the A_n quotient model.

Invariant differential monomials of degree m on the smoothing plane group
into blocks of m+1 monomials.  A block is indexed by a triple (khat, i, m)
subject to the parity constraint (n+1)*khat == i+m (mod 2); the functions
here enumerate the admissible blocks (``admissible_triples``, the one block
loop of the package), convert between the two block indexings, produce the
chart exponents and pullback data of a block on each resolution chart r,
and count how many monomials of a block fail to be regular along the
exceptional curve meeting that chart.

Half-integer intermediates of the block degree and the chart exponents are
computed as exact rationals and asserted integral at the boundary, so the
defining formulas appear verbatim.  codim_reg, which the oracle calls once
per chart and block, works with twice its value in integers and checks the
parity instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class ParityError(ValueError):
    """Triple violates (n+1)*khat == i+m (mod 2)."""


def parity_holds(n: int, khat: int, i: int, m: int) -> bool:
    return ((n + 1) * khat - (i + m)) % 2 == 0


@dataclass(frozen=True)
class TripleIndex:
    """Graded-piece index (n, khat, i, m); parity is enforced at construction.

    ``i`` is the vanishing order at the origin, ``m`` the symmetric degree,
    ``khat`` the invariant block degree.  A triple indexes a nonempty regular
    block iff |khat| <= (i+m)/(n+1); inadmissible triples are legal inputs
    and simply carry zero-dimensional regular pieces.
    """

    n: int
    khat: int
    i: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.i < 0 or self.m < 0:
            raise ValueError("i and m must be >= 0")
        if not parity_holds(self.n, self.khat, self.i, self.m):
            raise ParityError(
                f"(n+1)*khat != i+m mod 2 for n={self.n}, khat={self.khat}, "
                f"i={self.i}, m={self.m}"
            )

    def is_admissible(self) -> bool:
        return (self.n + 1) * abs(self.khat) <= self.i + self.m


def admissible_triples(n: int, m: int, i_max: int | None = None) -> Iterator[TripleIndex]:
    """The admissible triples with 0 <= i <= i_max, by increasing i, then khat.

    The default i_max = (n+1)m + n scans a safe superset of the blocks with
    nonzero weight.
    """
    if i_max is None:
        i_max = (n + 1) * m + n
    for i in range(i_max + 1):
        bound = (i + m) // (n + 1)
        for khat in range(-bound, bound + 1):
            if parity_holds(n, khat, i, m):
                yield TripleIndex(n, khat, i, m)


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not integral: {value}")
    return value.numerator


def k_of_khat(t: TripleIndex) -> int:
    """Block degree k recovered from the invariant reindexing khat."""
    k = Fraction(t.i + t.m, 2) + Fraction(t.n + 1, 2) * t.khat
    return _as_int(k, "k(khat)")


def khat_of_k(n: int, k: int, i: int, m: int) -> int:
    """Inverse map: khat = (2k - i - m)/(n+1); must divide exactly."""
    num = 2 * k - i - m
    if num % (n + 1) != 0:
        raise ValueError(f"2k-i-m={num} is not a multiple of n+1={n + 1}")
    khat = num // (n + 1)
    if not parity_holds(n, khat, i, m):
        raise ParityError(f"recovered khat={khat} fails parity")
    return khat


@dataclass(frozen=True)
class ChartExponents:
    """Exponents (i1, i2) of the leading block monomial on chart r.

    Charts r = -1 and r = n+1 are first-class values: the boundary charts
    streamline the regularity bookkeeping and are indexed over directly by
    the dimension formulas below.
    """

    r: int
    i1: int
    i2: int


def chart_exponents(t: TripleIndex, r: int) -> ChartExponents:
    if not -1 <= r <= t.n + 1:
        raise ValueError(f"chart index r={r} outside -1..{t.n + 1}")
    i1 = Fraction(t.i - t.m, 2) + Fraction(t.n - 1 - 2 * r, 2) * t.khat
    i2 = i1 + t.m + t.khat
    return ChartExponents(r, _as_int(i1, "i1"), _as_int(i2, "i2"))


def pullback_exponents(
    i1: int, i2: int, m: int, q: int, r: int, n: int
) -> tuple[int, int]:
    """Monomial exponent pair (j1, j2) of the chart-r pullback."""
    if not 0 <= q <= m:
        raise ValueError("need 0 <= q <= m")
    j1 = (n + 1 - r) * i1 + (r - n) * i2 + (n - r) * m + (2 * r - 2 * n - 1) * q
    j2 = (-r) * i1 + (r + 1) * i2 + (-r) * m + (2 * r + 1) * q
    return j1, j2


def pullback_coeffs(m: int, q: int, r: int, n: int) -> list[int]:
    """Coefficients c_{q0}(r) ... c_{qm}(r) of the chart-r pullback.

    These expand [(n+1-r)X - rY]^(m-q) [(r-n)X + (r+1)Y]^q in the basis
    X^(m-l) Y^l by exact binomial convolution.
    """
    if not 0 <= q <= m:
        raise ValueError("need 0 <= q <= m")

    def binomial_power(cx: int, cy: int, e: int) -> list[int]:
        # coefficients of (cx*X + cy*Y)^e in X^(e-l) Y^l
        out = [0] * (e + 1)
        coeff = 1
        for l in range(e + 1):
            out[l] = coeff * cx ** (e - l) * cy**l
            coeff = coeff * (e - l) // (l + 1)
        return out

    first = binomial_power(n + 1 - r, -r, m - q)
    second = binomial_power(r - n, r + 1, q)
    out = [0] * (m + 1)
    for a, ca in enumerate(first):
        for b, cb in enumerate(second):
            out[a + b] += ca * cb
    return out


def codim_reg(t: TripleIndex, r: int) -> int:
    """Number of block monomials with a pole along the curve met by chart r.

    Equals max{0, (m-i)/2 + ((2r-n+1)/2) khat}, which is also -i1 clamped at
    zero; for admissible triples it never exceeds m.  The value is formed
    doubled, so an odd numerator raises ArithmeticError.
    """
    if not -1 <= r <= t.n:
        raise ValueError(f"chart index r={r} outside -1..{t.n}")
    twice = (t.m - t.i) + (2 * r - t.n + 1) * t.khat
    if twice % 2:
        raise ArithmeticError(f"codim is not integral: {twice}/2")
    return max(0, twice // 2)


def dim_vreg(t: TripleIndex) -> int:
    """Dimension of the regular part of the block: monomials with no pole
    along either boundary chart."""
    return max(0, t.m + 1 - codim_reg(t, -1) - codim_reg(t, t.n))
