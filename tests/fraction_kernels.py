"""Test oracles: the fitter, the polygon pieces and their integral computed
in Fractions.

``quasifit`` interpolates over integers with one common denominator, and
``asymptotics`` builds the polygon pieces from reduced integer vertex triples
and sums cross products of integer-scaled vertices.  The functions here are
the same algorithms written directly in ``Fraction`` arithmetic, one rational
operation at a time, so the tests can hold the integer kernels to them value
for value:

- ``interpolate_by_fractions`` builds each Lagrange basis polynomial by
  repeated multiplication with (x - x_j) and divides by its value at x_i;
- ``fit_by_fractions`` runs the same period search with those interpolants
  and checks the remaining samples by a Fraction Horner evaluation;
- ``pieces_by_fractions`` places each vertex by Fraction sums and clips the
  pieces to x1 >= 0 by Sutherland-Hodgman with a Fraction crossing point;
- ``integrate_piece_by_fractions`` fan-triangulates the polygon and sums
  signed_area * mean of the vertex values in Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from ansing.exactmath import QuasiPolynomial
from ansing.quasifit import InsufficientSamplesError, NoPeriodFitsError


def interpolate_by_fractions(points, degree: int) -> tuple[Fraction, ...]:
    """Lagrange interpolation through points, constant first, padded to degree+1."""
    coeffs = [Fraction(0)] * (degree + 1)
    for idx, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != idx} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for jdx, (xj, _) in enumerate(points):
            if jdx == idx:
                continue
            denom *= xi - xj
            shifted = [Fraction(0)] + basis
            for p in range(len(basis)):
                shifted[p] -= xj * basis[p]
            basis = shifted
        scale = yi / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    return tuple(coeffs)


def _evaluate(coeffs, x: int) -> Fraction:
    value = Fraction(0)
    for coeff in reversed(coeffs):
        value = value * x + coeff
    return value


def fit_by_fractions(values, degree: int, max_period: int) -> QuasiPolynomial:
    """``quasifit.fit``'s period search, with the same errors and messages."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if any(m < 0 for m, _ in values) or len({m for m, _ in values}) < len(values):
        raise ValueError("sample points must be distinct and >= 0")
    samples = sorted(values)
    needed = degree + 3
    for period in range(1, max_period + 1):
        classes = [[] for _ in range(period)]
        for m, v in samples:
            classes[m % period].append((m, v))
        if any(len(cls) < needed for cls in classes):
            raise InsufficientSamplesError(
                f"period {period} has a residue class with fewer than {needed} samples"
            )
        branches = []
        for cls in classes:
            coeffs = interpolate_by_fractions(cls[: degree + 1], degree)
            if all(_evaluate(coeffs, m) == v for m, v in cls[degree + 1 :]):
                branches.append(coeffs)
            else:
                break
        if len(branches) == period:
            return QuasiPolynomial(period, tuple(branches))
    raise NoPeriodFitsError(f"no period <= {max_period} fits the samples")


def _clip_halfplane(vertices):
    """Keep the part of the polygon with x1 >= 0 (Sutherland-Hodgman).

    Only x1 needs clipping: every raw piece vertex already has x2 >= 0.
    ``_vertex``'s x2 is 2(m+1)/(d1(d1+1)) with d1 <= -2, so it is positive,
    and every other vertex lies on x2 = 0 or on the x2-axis above it.  The
    points the clip adds sit between two such vertices.
    """
    if not vertices:
        return []
    out = []
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


def _vertex(n: int, m: int, j: int):
    """Chain vertex v_j for j = 1..n+1; v_{n+1} lands on (n(m+1)-1, m+1)."""
    d1 = j - n - 3
    d2 = n + 2 - j
    x = Fraction(2 * j * (m + 1), d1) + Fraction(2 * (j - 1) * (m + 1), d2) + m
    y = Fraction(2 * (m + 1), d1 * (d1 + 1))
    return (x, y)


def pieces_by_fractions(n: int, m: int):
    """``asymptotics.pieces``: the n+2 affine pieces tiling the upper-half
    polygon, clipped to x1 >= 0, as (vertices, weight) pairs in label order."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    mf = Fraction(m)
    zero = Fraction(0)
    one = Fraction(1)
    half = Fraction(1, 2)
    v = {j: _vertex(n, m, j) for j in range(1, n + 2)}
    base_right = (Fraction(m * n - 2, n + 2), zero)

    raw = [([(zero, Fraction(m, n + 1)), v[1], base_right, (zero, zero)], (one, zero, zero, one))]
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


def integrate_piece_by_fractions(vertices, weight, m: int) -> Fraction:
    """Integral of a*x1 + b*x2 + c*m + d over the polygon, in Fractions."""
    if len(vertices) < 3:
        return Fraction(0)
    a, b, c, d = weight
    offset = c * m + d
    values = [a * x + b * y + offset for x, y in vertices]
    x0, y0 = vertices[0]
    doubled_area = Fraction(0)
    accumulated = Fraction(0)
    for idx in range(1, len(vertices) - 1):
        x1, y1 = vertices[idx]
        x2, y2 = vertices[idx + 1]
        cross = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if cross == 0:
            continue
        doubled_area += cross
        accumulated += cross * (values[0] + values[idx] + values[idx + 1])
    integral = accumulated / 6
    return -integral if doubled_area < 0 else integral
