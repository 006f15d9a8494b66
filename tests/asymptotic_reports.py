"""Residual reports on the cubic asymptotics, for the tests.

Each samples the package's lattice sum against its cubic model or its exact
polygon integral and decides whether the deviation stays linear in m.
"""

from fractions import Fraction

from ansing.asymptotics import h0_omega, upper_integral
from ansing.latticesum import hsum


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


def integral_vs_sum_report(n: int, m_list: list[int]) -> dict:
    """Fit the linear deviation constant on the two smallest m, validate on the rest.

    Per residue class the deviation is affine in m, so the certificate from
    two samples is C = max(first ratio, slope of the absolute deviations):
    the first term covers a positive intercept, the second a negative one.
    """
    ms = sorted(set(m_list))
    if len(ms) < 3 or ms[0] < 1:
        raise ValueError("need at least three sampled m >= 1")
    residuals = [abs(hsum(n, m) - upper_integral(n, m)) for m in ms]
    (m1, r1), (m2, r2) = zip(ms[:2], residuals[:2])
    constant = max(r1 / m1, (r2 - r1) / (m2 - m1))
    validated = all(r <= constant * m for m, r in zip(ms[2:], residuals[2:]))
    return {"n": n, "constant": constant, "validated": validated}
