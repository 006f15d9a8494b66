"""Test oracle: the group average mu(n, m) evaluated inside Q(zeta_N).

``invariants.mu`` uses the closed Fourier-Dedekind form.  This module
evaluates the same average the long way, as an element of the cyclotomic
field Q(zeta_N) = Q[x] / Phi_N with N = n + 1, and returns every coordinate
in the power basis 1, zeta, ..., zeta^(phi(N) - 1), so a test can check both
the rational value and that the non-constant coordinates vanish.

The inverses of det(Id - g) = (1 - zeta^j)(1 - zeta^-j) come from
``CycloElement.inverse``.  Phi_N is monic with integer coefficients, so once
each inverse is scaled to integer coordinates over one common denominator,
the traces, products and reductions modulo Phi_N all stay in ``int``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from ansing.exactmath import CycloElement, _poly_mul, cyclotomic_polynomial


def reduce_mod(poly: list[int], modulus: tuple[int, ...]) -> list[int]:
    """poly mod the monic integer polynomial ``modulus``, padded to its degree."""
    degree = len(modulus) - 1
    poly = poly + [0] * max(0, degree - len(poly))
    for top in range(len(poly) - 1, degree - 1, -1):
        lead = poly[top]
        if lead:
            shift = top - degree
            for i in range(degree):
                poly[shift + i] -= lead * modulus[i]
    return poly[:degree]


def mul_mod(a: Sequence[int], b: Sequence[int], modulus: tuple[int, ...]) -> list[int]:
    return reduce_mod(_poly_mul(list(a), list(b)), modulus)


@functools.lru_cache(maxsize=None)
def scaled_inverses(order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows): rows[j - 1] / D are the coordinates of 1/det(Id - g_j).

    g_j = diag(zeta^j, zeta^-j) for j = 1..order-1; D is the least common
    denominator of all their coordinates.
    """
    one = CycloElement.one(order)
    inverses = [
        ((one - CycloElement.zeta_pow(order, j)) * (one - CycloElement.zeta_pow(order, -j))).inverse()
        for j in range(1, order)
    ]
    common = math.lcm(*(c.denominator for inv in inverses for c in inv.coeffs))
    rows = tuple(tuple(int(c * common) for c in inv.coeffs) for inv in inverses)
    return common, rows


def mu_coordinates(n: int, m: int) -> tuple[Fraction, ...]:
    """Coordinates of (1/N) sum_{g != 1} tr(Sym^m g) / det(Id - g) in Q(zeta_N).

    The trace of Sym^m diag(zeta^j, zeta^jn) is the sum over q = 0..m of
    zeta^(j(m - q) + jnq), accumulated as counts per exponent mod N.
    """
    order = n + 1
    modulus = cyclotomic_polynomial(order)
    common, rows = scaled_inverses(order)
    total = [0] * (len(modulus) - 1)
    for j in range(1, order):
        counts = [0] * order
        for q in range(m + 1):
            counts[(j * (m - q) + j * n * q) % order] += 1
        trace = reduce_mod(counts, modulus)
        for i, c in enumerate(mul_mod(trace, rows[j - 1], modulus)):
            total[i] += c
    return tuple(Fraction(c, order * common) for c in total)
