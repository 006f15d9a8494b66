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

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .latticesum import hsum

Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class AffineWeight:
    """The form a*x1 + b*x2 + c*m + d with exact rational coefficients."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def value_at(self, x1: Fraction, x2: Fraction, m: int) -> Fraction:
        return self.a * x1 + self.b * x2 + self.c * m + self.d


@dataclass(frozen=True)
class PolygonPiece:
    """One affine piece of the upper-half weight polygon for fixed (n, m)."""

    label: int
    m: int
    vertices: tuple[Point, ...]
    weight: AffineWeight


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


def pieces(n: int, m: int) -> list[PolygonPiece]:
    """The n+2 affine pieces tiling the upper-half polygon, in x1, x2 >= 0."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    mf = Fraction(m)
    zero = Fraction(0)
    half = Fraction(1, 2)
    v = {j: _vertex(n, m, j) for j in range(1, n + 2)}
    base_right = (Fraction(m * n - 2, n + 2), zero)

    raw: list[tuple[int, list[Point], AffineWeight]] = []
    raw.append(
        (
            0,
            [(zero, Fraction(m, n + 1)), v[1], base_right, (zero, zero)],
            AffineWeight(Fraction(1), zero, zero, Fraction(1)),
        )
    )
    for j in range(1, n + 1):
        slope = Fraction(j - 1 - n, 2)
        w = AffineWeight(slope, -(j - 1) * slope, -slope, zero)
        if j == 1:
            verts = [v[1], v[2], (mf, zero), base_right]
        else:
            verts = [v[j], v[j + 1], (mf, zero)]
        raw.append((j, verts, w))
    top = [(zero, Fraction(m + 2, n + 1))]
    top.extend(v[j] for j in range(n + 1, 0, -1))
    top.append((zero, Fraction(m, n + 1)))
    raw.append((n + 1, top, AffineWeight(half, -Fraction(n + 1, 2), half, Fraction(1))))

    result = []
    for label, verts, w in raw:
        result.append(PolygonPiece(label, m, tuple(_clip_halfplane(verts)), w))
    return result


def integrate_piece(piece: PolygonPiece) -> Fraction:
    """Exact integral of the affine weight over the piece.

    Fan-triangulate from the first vertex; each triangle contributes
    signed_area * mean of the three vertex values, and the total sign is
    normalized by the polygon orientation.  Degenerate triangles contribute 0.
    """
    verts = piece.vertices
    if len(verts) < 3:
        return Fraction(0)
    values = [piece.weight.value_at(x, y, piece.m) for x, y in verts]
    x0, y0 = verts[0]
    doubled_area = Fraction(0)
    accumulated = Fraction(0)
    for idx in range(1, len(verts) - 1):
        x1, y1 = verts[idx]
        x2, y2 = verts[idx + 1]
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if cross == 0:
            continue
        doubled_area += cross
        accumulated += cross * (values[0] + values[idx] + values[idx + 1])
    integral = accumulated / 6
    return -integral if doubled_area < 0 else integral


def upper_integral(n: int, m: int) -> Fraction:
    """Integral of the weight over the upper-half polygon, exactly."""
    return sum((integrate_piece(p) for p in pieces(n, m)), Fraction(0))


def _basel_sums(n_max: int) -> Iterator[Fraction]:
    """The exact partial sums 1, 1 + 1/4, ..., 1 + 1/4 + ... + 1/n_max^2."""
    total = Fraction(0)
    for j in range(1, n_max + 1):
        total += Fraction(1, j * j)
        yield total


def _basel(n: int) -> Fraction:
    """1 + 1/4 + ... + 1/n^2, exactly."""
    total = Fraction(0)
    for total in _basel_sums(n):
        pass
    return total


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


def _rate(terms: tuple[int, int, int], basel: Fraction) -> Fraction:
    """sign * (4/3) * basel + num/den, exactly."""
    sign, num, den = terms
    return sign * Fraction(4, 3) * basel + Fraction(num, den)


def _rate_float(terms: tuple[int, int, int], basel: float) -> float:
    """sign * (4/3) * basel + num/den in float, num/den correctly rounded."""
    sign, num, den = terms
    return sign * (4 / 3) * basel + num / den


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


@functools.cache
def _h0_omega_as_float(n: int) -> float:
    """float(h0_omega(n)) for an exact cap n <= 400, at most once per n.

    Every report with n_max >= 400 reads n = 400, whose exact Basel sum is
    nearly all of the report's cost; the cache holds at most 399 floats.
    """
    return float(h0_omega(n))


def h0_omega_limit_report(n_max: int) -> dict:
    """Monotonicity and boundedness of h0_omega up to n_max (float gap only).

    Growth is exact up to exact_cap = min(n_max, 400); once every step passes,
    h0_omega(exact_cap) is the largest value, and float() is monotone.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    limit = h0_omega_limit_float()
    exact_cap = min(n_max, 400)
    increasing = _increasing_to(_h0_terms, exact_cap)
    return {
        "n_max": n_max,
        "exact_monotonicity_checked_to": exact_cap,
        "strictly_increasing": increasing,
        "bounded_by_limit": increasing and _h0_omega_as_float(exact_cap) < limit,
        "limit_float": limit,
        "gap_at_n_max_float": limit - h0_omega_float(n_max),
    }


def h0_asymptotic_check(n: int, m_list: list[int], fit_cutoff: int = 12) -> dict:
    """Residual report for hsum(n, m) - h0_omega(n) * (m^3 + 3 m^2).

    The residual is expected to grow at most linearly: the largest |residual|/m
    seen for m <= fit_cutoff must bound every sampled ratio.
    """
    if not m_list:
        raise ValueError("m_list must be nonempty")
    omega = h0_omega(n)
    samples = []
    fit_ratio = Fraction(0)
    max_ratio = Fraction(0)
    for m in sorted(set(m_list)):
        residual = hsum(n, m) - omega * (m**3 + 3 * m**2)
        entry = {"m": m, "residual": residual}
        if m >= 1:
            ratio = abs(residual) / m
            entry["ratio"] = ratio
            max_ratio = max(max_ratio, ratio)
            if m <= fit_cutoff:
                fit_ratio = max(fit_ratio, ratio)
        samples.append(entry)
    return {
        "n": n,
        "fit_cutoff": fit_cutoff,
        "fit_ratio": fit_ratio,
        "max_ratio": max_ratio,
        "bounded": max_ratio <= fit_ratio,
        "samples": samples,
    }


def integral_vs_sum_check(n: int, m: int) -> dict:
    """One comparison record: lattice sum vs exact upper-half integral."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    total = hsum(n, m)
    integral = upper_integral(n, m)
    return {
        "n": n,
        "m": m,
        "hsum": total,
        "integral": integral,
        "residual": total - integral,
    }


def integral_vs_sum_report(n: int, m_list: list[int]) -> dict:
    """Fit the linear deviation constant on the two smallest m, validate on the rest.

    Per residue class the deviation is affine in m, so the certificate from
    two samples is C = max(first ratio, slope of the absolute deviations):
    the first term covers a positive intercept, the second a negative one.
    """
    ms = sorted(set(m_list))
    if len(ms) < 3 or ms[0] < 1:
        raise ValueError("need at least three sampled m >= 1")
    records = [integral_vs_sum_check(n, m) for m in ms]
    (m1, r1), (m2, r2) = (
        (rec["m"], abs(rec["residual"])) for rec in records[:2]
    )
    constant = max(r1 / m1, (r2 - r1) / (m2 - m1))
    validated = all(abs(rec["residual"]) <= constant * rec["m"] for rec in records[2:])
    return {
        "n": n,
        "constant": constant,
        "validated": validated,
        "records": records,
    }
