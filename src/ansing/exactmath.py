"""Exact arithmetic kernel: rationals, cyclotomic field elements, quasi-polynomials.

Every value in this package is an exact rational.  Rationals are stdlib
``fractions.Fraction`` (always reduced, denominator positive, canonical zero
0/1); this module adds the "p/q" string codec, the ceiling of an integer
ratio, cyclotomic polynomials, field arithmetic modulo Phi_N, and
branch-evaluated quasi-polynomials.  The cyclotomic field Q(zeta_N) is on no
runtime path: it backs the test oracle that evaluates the group average mu
the long way.  Floating point never enters except through explicit
``float()`` escape hatches in limit checks elsewhere.

All containers here are immutable after construction and safe to share
between threads or processes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Sequence


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", as ``format_rational`` writes them, into an exact
    rational; a leading sign is allowed.

    Anything else raises ValueError before a number is built: decimal and
    exponent forms, which ``Fraction`` would take (and "1e3000000" would have
    it build a 3-million-digit integer), whitespace, and a zero denominator.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational 'p' or 'p/q': {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1; as the
    CLI's json ``default`` hook, any other type raises TypeError."""
    if isinstance(value, Fraction):
        return str(value)  # "p/q", or "p" at denominator 1
    if isinstance(value, int):
        return str(int(value))  # int() writes a bool as "1" or "0"
    raise TypeError(f"not a rational: {type(value).__name__}")


def format_ratio(numerator: int, denominator: int) -> str:
    """The rational numerator/denominator, denominator > 0, as
    ``format_rational`` writes it, from one gcd and no Fraction."""
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


def scale_to_integers(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """Rationals written over their least common denominator S, as the
    integer numerators and S: values[i] == numerators[i] / S."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def ceil_ratio(a: int, b: int) -> int:
    """ceil(a/b) toward plus infinity, for b of either sign; ceil(-5/4) == -1.
    ``//`` floors for either sign of b and raises ZeroDivisionError at 0."""
    return -(-a // b)


def euler_phi(n: int) -> int:
    """Euler totient, by trial factorization (n stays small here)."""
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    p, remaining = 2, n
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


# ---------------------------------------------------------------------------
# Dense univariate polynomials as coefficient lists, constant term first.
# ---------------------------------------------------------------------------


def _poly_trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Exact quotient and remainder over the rationals."""
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in num]
    _poly_trim(rem)
    lead = Fraction(den[-1])
    quot = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * Fraction(c)
        _poly_trim(rem)
    return _poly_trim(quot), rem


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, constant term first.

    Built by exact division: Phi_n = (x^n - 1) / prod of Phi_d over proper
    divisors d of n.  The quotient of the two integer polynomials is again
    integral, so the coefficients are returned as plain ints.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError(f"cyclotomic division left a remainder for n={n}")
    return tuple(int(c) for c in quot)


class NonInvertibleError(ArithmeticError):
    """Inversion requested for zero, or a Bezout step failed."""


@dataclass(frozen=True)
class CycloElement:
    """An element of Q(zeta_N) = Q[x] / Phi_N(x).

    ``coeffs`` has length phi(N) = deg Phi_N, constant term first; the class
    of x is a primitive N-th root of unity.  Working modulo the cyclotomic
    polynomial (rather than x^N - 1) keeps the quotient a field, so every
    nonzero element, in particular 1 - zeta^j, is invertible.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("cyclotomic order must be >= 2")
        expected = euler_phi(self.order)
        if len(self.coeffs) != expected:
            raise ValueError(
                f"need {expected} coefficients for order {self.order}, got {len(self.coeffs)}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_poly(cls, order: int, coeffs: list) -> "CycloElement":
        modulus = [Fraction(c) for c in cyclotomic_polynomial(order)]
        _, rem = _poly_divmod([Fraction(c) for c in coeffs], modulus)
        degree = euler_phi(order)
        padded = rem + [Fraction(0)] * (degree - len(rem))
        return cls(order, tuple(padded))

    @classmethod
    def from_rational(cls, order: int, value: Fraction | int) -> "CycloElement":
        return cls._from_poly(order, [Fraction(value)])

    @classmethod
    def zero(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CycloElement":
        return cls.from_rational(order, 1)

    @classmethod
    def zeta(cls, order: int) -> "CycloElement":
        """The class of x: a primitive ``order``-th root of unity."""
        return cls._from_poly(order, [0, 1])

    @classmethod
    def zeta_pow(cls, order: int, exponent: int) -> "CycloElement":
        """zeta^exponent, using zeta^order == 1."""
        exponent %= order
        return cls._from_poly(order, [0] * exponent + [1])

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "CycloElement":
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_rational(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycloElement":
        return (-self) + other

    def __mul__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        product = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CycloElement._from_poly(self.order, product)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycloElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __bool__(self) -> bool:
        return any(c != 0 for c in self.coeffs)

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse via the extended Euclidean algorithm.

        Runs Bezout against Phi_N; since Phi_N is irreducible the gcd of a
        nonzero element with it is a nonzero constant.  Anything else aborts
        loudly instead of returning garbage.
        """
        if not self:
            raise NonInvertibleError("zero has no inverse")
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r_prev, r_cur = modulus, _poly_trim(list(self.coeffs))
        s_prev: list = [Fraction(0)]
        s_cur: list = [Fraction(1)]
        while r_cur:
            quot, rem = _poly_divmod(r_prev, r_cur)
            r_prev, r_cur = r_cur, rem
            s_next = [Fraction(c) for c in s_prev]
            correction = _poly_mul(quot, s_cur)
            length = max(len(s_next), len(correction))
            s_next += [Fraction(0)] * (length - len(s_next))
            for i, c in enumerate(correction):
                s_next[i] -= c
            s_prev, s_cur = s_cur, _poly_trim(s_next)
        if len(r_prev) != 1 or r_prev[0] == 0:
            raise NonInvertibleError("Bezout step failed: gcd is not a unit")
        unit = r_prev[0]
        scaled = [c / unit for c in s_prev]
        return CycloElement._from_poly(self.order, scaled)

    # -- rational projection -------------------------------------------------

    def rational_part(self) -> Fraction:
        """The constant coordinate in the power basis 1, zeta, zeta^2, ..."""
        return self.coeffs[0]

    def is_rational(self) -> bool:
        """True iff every non-constant coordinate vanishes."""
        return all(c == 0 for c in self.coeffs[1:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(format_rational(c) for c in self.coeffs)
        return f"CycloElement(order={self.order}, coeffs=[{terms}])"


# ---------------------------------------------------------------------------
# Quasi-polynomials
# ---------------------------------------------------------------------------


def horner(coeffs: Sequence[int | Fraction], x: int) -> int | Fraction:
    """The polynomial with these coefficients, constant first, at x.

    It starts from the int 0, so integer coefficients give an int and
    rational ones a Fraction.
    """
    value = 0
    for coeff in reversed(coeffs):
        value = value * x + coeff
    return value


@dataclass(frozen=True)
class QuasiPolynomial:
    """A function m -> branch[m mod period](m) with exact coefficients.

    Each branch is a coefficient list, constant term first, and all branches
    share one length (degree + 1).
    """

    period: int
    branches: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        if len(self.branches) != self.period:
            raise ValueError("need one branch per residue class")
        lengths = {len(branch) for branch in self.branches}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("branches must share a positive length")

    @property
    def degree(self) -> int:
        return len(self.branches[0]) - 1

    def evaluate(self, m: int) -> Fraction:
        if m < 0:
            raise ValueError("quasi-polynomials are evaluated at m >= 0")
        return horner(self.branches[m % self.period], m)
