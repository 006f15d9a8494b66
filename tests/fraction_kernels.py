"""Test oracles: the fitter and the polygon integral computed in Fractions.

``quasifit`` interpolates over integers with one common denominator and
``asymptotics.integrate_piece`` sums cross products of integer-scaled
vertices.  The functions here are the same algorithms written directly in
``Fraction`` arithmetic, one rational operation at a time, so the tests can
hold the integer kernels to them value for value:

- ``interpolate_by_fractions`` builds each Lagrange basis polynomial by
  repeated multiplication with (x - x_j) and divides by its value at x_i;
- ``fit_by_fractions`` runs the same period search with those interpolants
  and checks the remaining samples by a Fraction Horner evaluation;
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
