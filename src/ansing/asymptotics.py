"""Cubic asymptotics of the obstruction counts and exact polygon integration.

For fixed n the upper half of the weight polygon tiles into n+2 pieces on
which the weight is a single affine function of (x1, x2) and m.  Integrating
those affine weights exactly gives a degree-3 polynomial in m whose leading
coefficient is the closed-form cubic growth rate h0_omega(n); the lattice
sum deviates from the integral by at most O(m).  Wherever n m >= 2 that
polynomial is h0_omega(n) (m+1)^3 - (m+1)/(2(n+1)), which ``upper_integral``
returns without building a piece (the proof is in its docstring).

The geometry is computed once, in integers: every vertex is a reduced triple
(X, Y, Q), Q > 0, standing for the point (X/Q, Y/Q), and every weight is an
integer form over W in {1, 2}.  Pieces that degenerate for tiny m (a vertex
drifting into x1 < 0, only at n m < 2) are clipped to x1 >= 0 on those
triples, which leaves them in the closed positive quadrant.  ``pieces``
turns the triples into Fractions; the piece sum ``upper_integral`` takes at
n m < 2 never does.

Integration is exact: each piece is fan-triangulated from its first vertex
and an affine integrand contributes signed_area * (mean of the three vertex
values) per triangle, which is an identity, not an approximation.  The sum is
taken over the piece's vertices scaled to integers, and the piece sum forms
one fraction from the n+2 integer results.  The same geometry and integral
in Fraction arithmetic are test oracles in tests/fraction_kernels.py.

Both cubic rates live here: h0_omega(n) of the obstruction counts and
h1_omega(n) of the localized cohomology h1(n, m), each sign * (4/3) * B(n) +
num/den over the Basel partial sum B(n), kept as an exact integer pair.  No
other module sees that pair: ``omega_rates`` gives both rates at one n,
``h1_omega_sum`` the bigness criterion's weighted sum of h1 rates, and the
two limit reports test growth and boundedness.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .exactmath import scale_to_integers

Point = tuple[Fraction, Fraction]
# (a, b, c, d): the affine weight a*x1 + b*x2 + c*m + d
Weight = tuple[Fraction, Fraction, Fraction, Fraction]
# (X, Y, Q): the point (X/Q, Y/Q), with Q > 0 and gcd(X, Y, Q) = 1
Triple = tuple[int, int, int]
# (vertices, (a, b, c, d), W): a piece whose weight is (a, b, c, d) / W
IntPiece = tuple[list[Triple], tuple[int, int, int, int], int]


def _reduced(x: int, y: int, q: int) -> Triple:
    """The triple (x, y, q), q > 0, divided by gcd(x, y, q)."""
    g = gcd(x, y, q)
    return x // g, y // g, q // g


def _clip_halfplane(vertices: list[Triple]) -> list[Triple]:
    """Keep the part of the polygon with x1 >= 0 (Sutherland-Hodgman).

    Only x1 needs clipping: every raw piece vertex already has x2 >= 0.
    ``_vertex``'s Y is 2(m+1)d2 > 0 over Q > 0, and every other vertex lies
    on x2 = 0 or on the x2-axis above it.  The points the clip adds sit
    between two such vertices: the segment (X1, Y1, Q1) -> (X2, Y2, Q2)
    meets x1 = 0 at X2*(X1, Y1, Q1) - X1*(X2, Y2, Q2) up to sign.
    """
    if min(vertices)[0] >= 0:  # tuples compare by X first: nothing to clip
        return vertices
    out: list[Triple] = []
    for idx, cur in enumerate(vertices):
        nxt = vertices[idx + 1 - len(vertices)]
        x1, y1, q1 = cur
        x2, y2, q2 = nxt
        if x1 >= 0:
            out.append(cur)
        if (x1 >= 0) != (x2 >= 0):
            y = x1 * y2 - x2 * y1
            q = x1 * q2 - x2 * q1
            if q < 0:
                y, q = -y, -q
            out.append(_reduced(0, y, q))
    return out


def _vertex(n: int, m: int, j: int) -> Triple:
    """Chain vertex v_j for j = 1..n+1; v_{n+1} lands on (n(m+1)-1, m+1).

    v_j = (2j(m+1)/d1 + 2(j-1)(m+1)/d2 + m, 2(m+1)/(d1(d1+1))) with
    d1 = j-n-3 <= -2 and d2 = n+2-j >= 1, over Q = d1 d2 (d1+1) > 0.
    """
    d1 = j - n - 3
    d2 = n + 2 - j
    q = d1 * d2 * (d1 + 1)
    x = 2 * (m + 1) * (d1 + 1) * (j * d2 + (j - 1) * d1) + m * q
    return _reduced(x, 2 * (m + 1) * d2, q)


def _int_pieces(n: int, m: int) -> list[IntPiece]:
    """The n+2 pieces in label order, as vertex triples clipped to x1 >= 0
    and integer weights over their denominator W."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    v = [None] + [_vertex(n, m, j) for j in range(1, n + 2)]
    left = _reduced(0, m, n + 1)
    base_right = _reduced(m * n - 2, 0, n + 2)
    corner = (m, 0, 1)

    raw: list[IntPiece] = [([left, v[1], base_right, (0, 0, 1)], (1, 0, 0, 1), 1)]
    for j in range(1, n + 1):
        slope = j - 1 - n  # over W = 2
        if j == 1:
            verts = [v[1], v[2], corner, base_right]
        else:
            verts = [v[j], v[j + 1], corner]
        raw.append((verts, (slope, -(j - 1) * slope, -slope, 0), 2))
    top = [_reduced(0, m + 2, n + 1), *v[n + 1 : 0 : -1], left]
    raw.append((top, (1, -(n + 1), 1, 2), 2))
    return [(_clip_halfplane(verts), w, wscale) for verts, w, wscale in raw]


def pieces(n: int, m: int) -> list[tuple[tuple[Point, ...], Weight]]:
    """The n+2 affine pieces tiling the upper-half polygon, in x1, x2 >= 0,
    as (vertices, weight) pairs in label order 0..n+1."""
    points: dict[Triple, Point] = {}
    out = []
    for verts, weight, wscale in _int_pieces(n, m):
        for t in verts:
            if t not in points:
                points[t] = (Fraction(t[0], t[2]), Fraction(t[1], t[2]))
        out.append((tuple([points[t] for t in verts]), tuple([Fraction(c, wscale) for c in weight])))
    return out


def _fan_integral(
    points: list[tuple[int, int]], scale: int, weight: tuple[int, ...], wscale: int, m: int
) -> tuple[int, int]:
    """The integral of the weight (a, b, c, d) / W at degree m over the
    polygon whose vertices are points / L, as the pair (acc, 6 L^3 W) of
    numerator and denominator, for L = scale and W = wscale.

    Fan-triangulate from the first vertex; each triangle contributes
    signed_area * mean of the three vertex values, and the total sign is
    normalized by the polygon orientation.  Degenerate triangles contribute 0.
    """
    if len(points) < 3:
        return 0, 1
    a, b, c, d = weight
    offset = (c * m + d) * scale
    (x0, y0), (x1, y1) = points[0], points[1]
    v0 = a * x0 + b * y0 + offset
    v1 = a * x1 + b * y1 + offset
    doubled_area = accumulated = 0
    for x2, y2 in points[2:]:
        v2 = a * x2 + b * y2 + offset
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        doubled_area += cross
        accumulated += cross * (v0 + v1 + v2)
        x1, y1, v1 = x2, y2, v2
    if doubled_area < 0:
        accumulated = -accumulated
    return accumulated, 6 * scale**3 * wscale


def integrate_piece(vertices: tuple[Point, ...], weight: Weight, m: int) -> Fraction:
    """Exact integral of the affine weight at degree m over the polygon.

    The vertices are scaled to integers over their common denominator L and
    the weight over its common denominator W, so the fan triangulation's sum
    is taken in ints and the one fraction formed is acc / (6 L^3 W).
    """
    coords, scale = scale_to_integers(t for vertex in vertices for t in vertex)
    weight_ints, wscale = scale_to_integers(weight)
    return Fraction(*_fan_integral(list(zip(coords[::2], coords[1::2])), scale, weight_ints, wscale, m))


def upper_integral(n: int, m: int) -> Fraction:
    """Integral of the weight over the upper-half polygon, exactly:
    h0_omega(n) (m+1)^3 - (m+1)/(2(n+1)) whenever n m >= 2.

    Write M = m + 1, y = x1 + 1 and a = x2, and take the weight
    w = max(0, min(cap, tot)) of ``latticesum``'s docstring with real halves.

    - cap and tot are homogeneous of degree 1 in (M, y, a), so the integral
      of w over the cone y >= 0, a >= 0 is M^3 I(n), with I(n) the integral
      of w at M = 1.
    - w vanishes off the polygon: beyond its edge x1 - (n-1)a = m every
      ramp of tot is negative, and beyond -x1 + (n+1)a = m + 2, cap < 0.  So the
      integral over the polygon is the one over x1 >= 0, which is the cone
      integral less the strip 0 <= y <= 1.
    - On the strip, cap = y while (n+1)a <= M - y, then falls linearly to 0
      at (n+1)a = M + y.  Pairing ramp r of tot with ramp n-1-r gives
      (u+v)+ + (u-v)+ >= 2u, so tot >= n(M - y)/2 >= cap once n m >= 2,
      and w = cap there.  The strip integral is
      int_0^1 [y(M - y) + y^2]/(n+1) dy = M/(2(n+1)).
    - The strip term is linear in M, so I(n) is the cubic coefficient of
      the piece integrals, the closed-form rate h0_omega(n) (tests/
      test_asymptotics.py fits it from the pieces for n <= 200).

    n m < 2, that is m = 0 or n = m = 1, is exactly where ``base_right`` =
    ((mn - 2)/(n+2), 0) has x1 < 0 and the clip acts; there the integral is
    the sum over the pieces.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if m * n < 2:
        return _pieces_integral(n, m)
    return h0_omega(n) * (m + 1) ** 3 - Fraction(m + 1, 2 * (n + 1))


def _pieces_integral(n: int, m: int) -> Fraction:
    """The sum of the n+2 piece integrals, exactly.

    Each piece's triples are scaled to integers over the lcm L of their Q,
    its integral taken as the integer pair (acc, 6 L^3 W), and the one
    fraction formed is the sum of the acc over the lcm of the denominators.
    """
    terms = []
    for verts, weight, wscale in _int_pieces(n, m):
        scale = lcm(*[q for _, _, q in verts])
        points = [(x * (scale // q), y * (scale // q)) for x, y, q in verts]
        terms.append(_fan_integral(points, scale, weight, wscale, m))
    common = lcm(*(den for _, den in terms))
    return Fraction(sum(acc * (common // den) for acc, den in terms), common)


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


def h1_omega(n: int) -> Fraction:
    """Cubic growth rate of h1(n, m), in closed form."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _rate(_h1_terms(n), _basel(n))


def omega_rates(n: int) -> tuple[Fraction, Fraction]:
    """(h0_omega(n), h1_omega(n)), both from one exact Basel pair."""
    if n < 1:
        raise ValueError("need n >= 1")
    basel = _basel(n)
    return _rate(_h0_terms(n), basel), _rate(_h1_terms(n), basel)


def h1_omega_sum(entries: Sequence[tuple[int, int]]) -> Fraction:
    """The sum of count * h1_omega(n) over the (n, count) pairs, exactly.

    One pass of the exact Basel partial sums up to the largest n serves
    every entry; an entry with n < 1 raises ValueError, as h1_omega does.
    """
    wanted = {n for n, _ in entries}
    if min(wanted, default=1) < 1:
        raise ValueError("need n >= 1")
    basel = {n: b for n, b in enumerate(_basel_sums(max(wanted, default=0)), start=1) if n in wanted}
    return sum((count * _rate(_h1_terms(n), basel[n]) for n, count in entries), Fraction(0))


def h0_omega_float(n: int) -> float:
    """Float shortcut for limit checks only; the partial zeta sum dominates."""
    return _rate_float(_h0_terms(n), _basel_float(n))


def h1_omega_float(n: int) -> float:
    return _rate_float(_h1_terms(n), _basel_float(n))


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


def h1_omega_limit_report(n_max: int, threshold: Fraction | int = 10) -> dict:
    """Strict growth of h1_omega up to n_max, plus the linear leading behavior.

    The closed formula grows like n/6, so h1_omega eventually exceeds any
    threshold; the report records where the given one is first passed and
    samples 6*h1_omega(n)/n at large n in float.  Growth is tested in
    integers, step by step; the exact Basel partial sum, whose denominators
    grow like lcm(1..n)^2, is carried only until the threshold is passed.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    first_exceeds = None
    for n, basel in enumerate(_basel_sums(n_max), start=1):
        if _rate(_h1_terms(n), basel) > threshold:
            first_exceeds = n
            break
    return {
        "n_max": n_max,
        "strictly_increasing": _increasing_to(_h1_terms, min(n_max, GROWTH_CHECK_CAP)),
        "threshold": Fraction(threshold),
        "first_n_exceeding_threshold": first_exceeds,
        "leading_ratio_samples": [
            {"n": n, "ratio": ratio} for n, ratio in _leading_ratios()
        ],
    }


@functools.cache
def _leading_ratios() -> tuple[tuple[int, float], ...]:
    """6*h1_omega(n)/n in float at n = 1000 and 10000; input-independent."""
    return tuple((n, 6 * h1_omega_float(n) / n) for n in (1000, 10000))
