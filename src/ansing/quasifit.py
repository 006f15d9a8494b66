"""Detect and fit quasi-polynomials from exact value sequences.

Values are exact rationals, so fitting is interpolation plus equality
verification, never least squares.  Candidate periods are tried in
increasing order; for a period to succeed, in every residue class the exact
Lagrange interpolant through the first degree+1 samples must reproduce all
remaining samples of the class.  The first success is therefore the minimal
period.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import QuasiPolynomial, horner


class FitError(ValueError):
    """Base class for fit failures."""


class InsufficientSamplesError(FitError):
    """Some residue class of some candidate period lacks fit or check samples."""


class NoPeriodFitsError(FitError):
    """Every candidate period up to the bound fails verification."""


def _interpolate(points: list[tuple[int, Fraction]], degree: int) -> tuple[Fraction, ...]:
    """Exact Lagrange interpolation, returned constant-first, padded to degree+1."""
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


def _split_classes(
    samples: list[tuple[int, Fraction]], period: int
) -> list[list[tuple[int, Fraction]]]:
    classes: list[list[tuple[int, Fraction]]] = [[] for _ in range(period)]
    for m, v in samples:
        classes[m % period].append((m, v))
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
    samples = sorted(values)
    needed = degree + 3  # degree+1 to fit, two more to verify
    for period in range(1, max_period + 1):
        classes = _split_classes(samples, period)
        if any(len(cls) < needed for cls in classes):
            raise InsufficientSamplesError(
                f"period {period} has a residue class with fewer than {needed} samples"
            )
        branches = []
        for cls in classes:
            coeffs = _interpolate(cls[: degree + 1], degree)
            if all(horner(coeffs, m) == v for m, v in cls[degree + 1 :]):
                branches.append(coeffs)
            else:
                break
        if len(branches) == period:
            return QuasiPolynomial(period, tuple(branches))
    raise NoPeriodFitsError(f"no period <= {max_period} fits the samples")

