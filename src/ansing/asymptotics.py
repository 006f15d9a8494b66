"""Cubic asymptotics of the obstruction counts and exact polygon integration.

For fixed n the upper half of the weight polygon tiles into n+2 pieces on
which the weight is a single affine function of (x1, x2) and m.  Integrating
those affine weights exactly gives a degree-3 polynomial in m whose leading
coefficient is the closed-form cubic growth rate h0_omega(n); the lattice
sum deviates from the integral by at most O(m).

Integration is exact: each piece is fan-triangulated from its first vertex
and an affine integrand contributes signed_area * (mean of the three vertex
values) per triangle, which is an identity, not an approximation.  Pieces
that degenerate for tiny m (a vertex drifting into x1 < 0) are clipped to
x1 >= 0 first, which leaves them in the closed positive quadrant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator

from .exactmath import scale_to_integers

Point = tuple[Fraction, Fraction]
# (a, b, c, d): the affine weight a*x1 + b*x2 + c*m + d
Weight = tuple[Fraction, Fraction, Fraction, Fraction]


def _clip_halfplane(vertices: list[Point]) -> list[Point]:
    """Keep the part of the polygon with x1 >= 0 (Sutherland-Hodgman).

    Only x1 needs clipping: every raw piece vertex already has x2 >= 0.
    ``_vertex``'s x2 is 2(m+1)/(d1(d1+1)) with d1 <= -2, so it is positive,
    and every other vertex lies on x2 = 0 or on the x2-axis above it.  The
    points the clip adds sit between two such vertices.
    """
    if not vertices:
        return []
    out: list[Point] = []
    count = len(vertices)
    for idx in range(count):
        cur = vertices[idx]
        nxt = vertices[(idx + 1) % count]
        cur_in = cur[0] >= 0
        nxt_in = nxt[0] >= 0
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = cur[0] / (cur[0] - nxt[0])
            out.append((Fraction(0), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _vertex(n: int, m: int, j: int) -> Point:
    """Chain vertex v_j for j = 1..n+1; v_{n+1} lands on (n(m+1)-1, m+1)."""
    d1 = j - n - 3
    d2 = n + 2 - j
    x = Fraction(2 * j * (m + 1), d1) + Fraction(2 * (j - 1) * (m + 1), d2) + m
    y = Fraction(2 * (m + 1), d1 * (d1 + 1))
    return (x, y)


def pieces(n: int, m: int) -> list[tuple[tuple[Point, ...], Weight]]:
    """The n+2 affine pieces tiling the upper-half polygon, in x1, x2 >= 0,
    as (vertices, weight) pairs in label order 0..n+1."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    mf = Fraction(m)
    zero = Fraction(0)
    one = Fraction(1)
    half = Fraction(1, 2)
    v = {j: _vertex(n, m, j) for j in range(1, n + 2)}
    base_right = (Fraction(m * n - 2, n + 2), zero)

    raw: list[tuple[list[Point], Weight]] = [
        ([(zero, Fraction(m, n + 1)), v[1], base_right, (zero, zero)], (one, zero, zero, one))
    ]
    for j in range(1, n + 1):
        slope = Fraction(j - 1 - n, 2)
        if j == 1:
            verts = [v[1], v[2], (mf, zero), base_right]
        else:
            verts = [v[j], v[j + 1], (mf, zero)]
        raw.append((verts, (slope, -(j - 1) * slope, -slope, zero)))
    top = [(zero, Fraction(m + 2, n + 1))]
    top.extend(v[j] for j in range(n + 1, 0, -1))
    top.append((zero, Fraction(m, n + 1)))
    raw.append((top, (half, -Fraction(n + 1, 2), half, one)))
    return [(tuple(_clip_halfplane(verts)), w) for verts, w in raw]


def integrate_piece(vertices: tuple[Point, ...], weight: Weight, m: int) -> Fraction:
    """Exact integral of the affine weight at degree m over the polygon.

    Fan-triangulate from the first vertex; each triangle contributes
    signed_area * mean of the three vertex values, and the total sign is
    normalized by the polygon orientation.  Degenerate triangles contribute 0.
    The vertices are scaled to integers over their common denominator L and
    the weight over its common denominator W, so the sum is taken in ints
    and the one fraction formed is acc / (6 L^3 W).
    """
    if len(vertices) < 3:
        return Fraction(0)
    coords, scale = scale_to_integers(t for vertex in vertices for t in vertex)
    points = list(zip(coords[::2], coords[1::2]))
    (a, b, c, d), wscale = scale_to_integers(weight)
    offset = (c * m + d) * scale
    values = [a * x + b * y + offset for x, y in points]
    x0, y0 = points[0]
    doubled_area = 0
    accumulated = 0
    for idx in range(1, len(points) - 1):
        x1, y1 = points[idx]
        x2, y2 = points[idx + 1]
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        doubled_area += cross
        accumulated += cross * (values[0] + values[idx] + values[idx + 1])
    if doubled_area < 0:
        accumulated = -accumulated
    return Fraction(accumulated, 6 * scale**3 * wscale)


def upper_integral(n: int, m: int) -> Fraction:
    """Integral of the weight over the upper-half polygon, exactly."""
    return sum((integrate_piece(verts, w, m) for verts, w in pieces(n, m)), Fraction(0))


def _basel_sums(n_max: int) -> Iterator[tuple[int, int]]:
    """The partial sums 1, 1 + 1/4, ..., 1 + 1/4 + ... + 1/n_max^2, exactly,
    each as an integer pair (P, Q) with P/Q the sum and Q = lcm(1..n)^2.

    Step j scales the pair by j^2/gcd(Q, j^2), which takes Q to
    lcm(Q, j^2) = lcm(1..j)^2, and then adds Q/j^2 to P.  P/Q is not reduced:
    the one normalisation happens where a rate is formed.
    """
    num, den = 0, 1
    for j in range(1, n_max + 1):
        square = j * j
        scale = square // gcd(den, square)
        num *= scale
        den *= scale
        num += den // square
        yield num, den


def _basel(n: int) -> tuple[int, int]:
    """1 + 1/4 + ... + 1/n^2, exactly, as the pair (P, lcm(1..n)^2)."""
    pair = (0, 1)
    for pair in _basel_sums(n):
        pass
    return pair


def _basel_float(n: int) -> float:
    """1 + 1/4 + ... + 1/n^2 in float, smallest terms first."""
    total = 0.0
    for j in range(n, 0, -1):
        total += 1.0 / (j * j)
    return total


# Each cubic rate is sign * (4/3) * B(n) + num/den, B(n) = 1 + 1/4 + ... + 1/n^2,
# written down once as (sign, num, den), den > 0 and not reduced.  The exact
# value, the float shortcut and the growth test all read these terms.
def _h0_terms(n: int) -> tuple[int, int, int]:
    return 1, -(12 * n**4 + 65 * n**3 + 117 * n**2 + 72 * n), 6 * (n + 1) ** 2 * (n + 2) ** 2


def _h1_terms(n: int) -> tuple[int, int, int]:
    return -1, n**5 + 19 * n**4 + 83 * n**3 + 137 * n**2 + 80 * n, 6 * (n + 1) ** 2 * (n + 2) ** 2


def _rate(terms: tuple[int, int, int], basel: tuple[int, int]) -> Fraction:
    """sign * (4/3) * p/q + num/den for the Basel pair basel = (p, q), exactly,
    over the common denominator 3 q den and normalised once."""
    sign, num, den = terms
    p, q = basel
    return Fraction(4 * sign * p * den + 3 * num * q, 3 * q * den)


def _rate_float(terms: tuple[int, int, int], basel: float) -> float:
    """sign * (4/3) * basel + num/den in float, num/den correctly rounded."""
    sign, num, den = terms
    return sign * (4 / 3) * basel + num / den


# n up to which the limit reports test growth exactly.  A longer loop could not
# change the verdict: for either rate the step test's polynomial
# P(n) = 3n^2 (num(n) den(n-1) - num(n-1) den(n)) + 4 sign den(n) den(n-1)
# has P(2) > 0 and P(n + 2) has no negative coefficient, so every step from
# n = 2 on is positive (tests/test_asymptotics.py checks both in integers).
GROWTH_CHECK_CAP = 400


def _increasing_to(rate_terms, n_max: int) -> bool:
    """rate(n) > rate(n - 1) for every n = 2..n_max, tested in integers.

    With (sign, num, den) at n and (sign, num', den') at n - 1, the step is
    sign * 4/(3n^2) + num/den - num'/den'; times 3n^2 den den' > 0 it is
    positive iff 3n^2 (num den' - num' den) + 4 sign den den' > 0.  No Basel
    sum is formed.
    """
    _, prev_num, prev_den = rate_terms(1)
    for n in range(2, n_max + 1):
        sign, num, den = rate_terms(n)
        if 3 * n * n * (num * prev_den - prev_num * den) + 4 * sign * den * prev_den <= 0:
            return False
        prev_num, prev_den = num, den
    return True


def h0_omega(n: int) -> Fraction:
    """Cubic growth rate of the obstruction counts, in closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _rate(_h0_terms(n), _basel(n))


def h0_omega_float(n: int) -> float:
    """Float shortcut for limit checks only; the partial zeta sum dominates."""
    return _rate_float(_h0_terms(n), _basel_float(n))


def h0_omega_limit_float() -> float:
    from math import pi

    return 2 * pi * pi / 9 - 2


def h0_omega_limit_report(n_max: int) -> dict:
    """Monotonicity and boundedness of h0_omega up to n_max (float gap only).

    Growth is exact up to exact_cap = min(n_max, GROWTH_CHECK_CAP); once every
    step passes, h0_omega(exact_cap) is the largest value, and float() is
    monotone.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    limit = h0_omega_limit_float()
    exact_cap = min(n_max, GROWTH_CHECK_CAP)
    increasing = _increasing_to(_h0_terms, exact_cap)
    return {
        "n_max": n_max,
        "exact_monotonicity_checked_to": exact_cap,
        "strictly_increasing": increasing,
        "bounded_by_limit": increasing and float(h0_omega(exact_cap)) < limit,
        "limit_float": limit,
        "gap_at_n_max_float": limit - h0_omega_float(n_max),
    }
