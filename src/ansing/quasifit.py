"""Detect and fit quasi-polynomials from exact value sequences.

Values are exact rationals, so fitting is interpolation plus equality
verification, never least squares.  Candidate periods are tried in
increasing order; for a period to succeed, in every residue class the exact
Lagrange interpolant through the first degree+1 samples must reproduce all
remaining samples of the class.  The first success is therefore the minimal
period.  The search runs in integers: the values are scaled over their
common denominator, each interpolant is kept as integer coefficients over
one denominator, and fractions are formed only for the branches returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactmath import QuasiPolynomial, horner, scale_to_integers


class FitError(ValueError):
    """Base class for fit failures."""


class InsufficientSamplesError(FitError):
    """Some residue class of some candidate period lacks fit or check samples."""


class NoPeriodFitsError(FitError):
    """Every candidate period up to the bound fails verification."""


def _lagrange(nodes: list[int], values: list[int]) -> tuple[list[int], int]:
    """The interpolant through (nodes[i], values[i]) as integer coefficients,
    constant first, over one positive denominator C; the nodes are distinct.

    With M(x) = prod_j (x - x_j), the basis numerator M(x)/(x - x_i) comes
    from M by one synthetic division and its value at x_i is
    w_i = prod_{j != i} (x_i - x_j).  C = lcm |w_i|, and the coefficients are
    sum_i y_i (C / w_i) M(x)/(x - x_i), so no rational is formed.
    """
    master = [1]  # M(x), constant first
    for xj in nodes:
        master = [0] + master
        for p in range(len(master) - 1):
            master[p] -= xj * master[p + 1]
    weights = []
    for xi in nodes:
        w = 1
        for xj in nodes:
            if xj != xi:
                w *= xi - xj
        weights.append(w)
    denom = lcm(*weights)
    coeffs = [0] * len(nodes)
    for xi, yi, w in zip(nodes, values, weights):
        scale = yi * (denom // w)
        carry = 0  # M(x)/(x - xi), highest coefficient first
        for p in range(len(nodes), 0, -1):
            carry = master[p] + xi * carry
            coeffs[p - 1] += scale * carry
    return coeffs, denom


def _split_classes(samples: list[tuple[int, int]], period: int) -> list[list[tuple[int, int]]]:
    classes: list[list[tuple[int, int]]] = [[] for _ in range(period)]
    for sample in samples:
        classes[sample[0] % period].append(sample)
    return classes


def fit(
    values: tuple[tuple[int, Fraction], ...], degree: int, max_period: int
) -> QuasiPolynomial:
    """Smallest period <= max_period whose classwise interpolants of the
    given degree reproduce every sample (m, value); the m must be distinct
    and >= 0.

    Candidates are tried in increasing order and each must have degree+1 fit
    samples plus two verification samples in every residue class before it is
    tested; running out of samples before any candidate succeeds is reported
    separately from exhausting the candidates.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if any(m < 0 for m, _ in values) or len({m for m, _ in values}) < len(values):
        raise ValueError("sample points must be distinct and >= 0")
    ordered = sorted(values)
    ys, scale = scale_to_integers([v for _, v in ordered])
    samples = [(m, y) for (m, _), y in zip(ordered, ys)]
    needed = degree + 3  # degree+1 to fit, two more to verify
    for period in range(1, max_period + 1):
        classes = _split_classes(samples, period)
        if any(len(cls) < needed for cls in classes):
            raise InsufficientSamplesError(
                f"period {period} has a residue class with fewer than {needed} samples"
            )
        fitted = []
        for cls in classes:
            nodes = cls[: degree + 1]
            coeffs, denom = _lagrange([m for m, _ in nodes], [y for _, y in nodes])
            if all(horner(coeffs, m) == y * denom for m, y in cls[degree + 1 :]):
                fitted.append((coeffs, denom * scale))
            else:
                break
        if len(fitted) == period:
            branches = tuple(tuple(Fraction(c, denom) for c in coeffs) for coeffs, denom in fitted)
            return QuasiPolynomial(period, branches)
    raise NoPeriodFitsError(f"no period <= {max_period} fits the samples")
