from fractions import Fraction as F

import pytest

from ansing import cli
from ansing.asymptotics import h0_omega
from ansing.exactmath import CycloElement, cyclotomic_polynomial
from ansing.invariants import (
    MU_CACHE_SIZE,
    chern_local,
    chi_orb,
    h1,
    h1_omega,
    h1_omega_float,
    h1_omega_limit_report,
    invariant_record,
    mu,
)
from cyclo_oracle import mu_coordinates, mul_mod, reduce_mod, scaled_inverses

TABLE_H1_OMEGA = {
    1: F(4, 27),
    2: F(67, 216),
    3: F(1283, 2700),
    4: F(577, 900),
    5: F(106819, 132300),
    6: F(1030727, 1058400),
    7: F(5431459, 4762800),
}


def test_chern_local():
    ch = chern_local(1)
    assert ch.c1sq == 0 and ch.c2 == F(3, 2) and ch.s2 == F(-3, 2)
    ch = chern_local(2)
    assert ch.c2 == F(8, 3)
    assert ch.s2 == ch.c1sq - ch.c2


def test_chi_orb_examples():
    assert chi_orb(1, 0) == F(1, 8)
    assert chi_orb(1, 2) == F(-45, 8)
    assert chi_orb(2, 2) == -10


def test_mu_closed_form_for_n1():
    # order-2 group: mu(1, m) = (-1)^m (m+1)/8
    for m in range(0, 13):
        assert mu(1, m) == F((-1) ** m * (m + 1), 8)
    assert mu(1, 2) == F(3, 8)
    assert mu(1, 3) == F(-1, 2)
    assert mu(1, 0) == F(1, 8)


def test_mu_vanishing_case():
    assert mu(2, 2) == 0


def test_mu_is_rational_moderate_range():
    # the cyclotomic evaluation is rational and agrees with the closed form
    for n in range(1, 13):
        for m in range(0, 13):
            coords = mu_coordinates(n, m)
            assert not any(coords[1:])
            assert coords[0] == mu(n, m)


def test_fourier_dedekind_identity():
    # sum_j zeta^(jk) (1 - zeta^j)^-1 (1 - zeta^-j)^-1 == (N^2 - 1)/12 - k(N - k)/2
    # in Q(zeta_N), with the inverses from CycloElement.inverse
    for order in range(2, 32):
        modulus = cyclotomic_polynomial(order)
        degree = len(modulus) - 1
        common, rows = scaled_inverses(order)
        one = CycloElement.one(order)
        for j, row in enumerate(rows, start=1):
            det = (one - CycloElement.zeta_pow(order, j)) * (
                one - CycloElement.zeta_pow(order, -j)
            )
            assert all(c.denominator == 1 for c in det.coeffs)
            det_coords = [int(c) for c in det.coeffs]
            assert mul_mod(row, det_coords, modulus) == [common] + [0] * (degree - 1)
        for k in range(order):
            poly = [0] * (order + degree)
            for j, row in enumerate(rows, start=1):
                shift = j * k % order
                for i, c in enumerate(row):
                    poly[shift + i] += c
            coords = reduce_mod(poly, modulus)
            expected = F(order * order - 1, 12) - F(k * (order - k), 2)
            assert F(coords[0], common) == expected
            assert not any(coords[1:])


def test_mu_against_complex_float_average():
    # independent path: evaluate the group average numerically with complex
    # floats instead of cyclotomic field arithmetic
    import cmath

    for n in range(1, 7):
        order = n + 1
        for m in range(0, 11):
            total = 0j
            for j in range(1, order):
                eps = cmath.exp(2j * cmath.pi * j / order)
                trace = sum(eps ** ((m - q) + n * q) for q in range(m + 1))
                total += trace / ((1 - eps) * (1 - eps**n))
            approx = total / order
            assert abs(approx.imag) < 1e-9
            assert abs(approx.real - float(mu(n, m))) < 1e-9


def test_h1_examples():
    assert h1(1, 2) == 3
    assert h1(2, 2) == 7
    assert h1(1, 0) == 0
    # m = 3..6, so that an error confined to larger m shows
    expected = {1: [9, 18, 30, 50], 2: [18, 37, 64, 104], 3: [28, 56, 98, 159]}
    for n, values in expected.items():
        assert [h1(n, m) for m in range(3, 7)] == values


def test_h1_integrality_small_range():
    for n in range(1, 5):
        for m in range(0, 13):
            value = h1(n, m)
            assert value.denominator == 1
            assert value >= 0


def test_h1_omega_table():
    for n, expected in TABLE_H1_OMEGA.items():
        assert h1_omega(n) == expected


def test_h1_omega_component_identity():
    # h1_omega(n) = -s2(n)/6 - h0_omega(n), since mu grows below cubically
    for n in range(1, 51):
        s2 = chern_local(n).s2
        assert h1_omega(n) == -s2 / 6 - h0_omega(n)
    assert -chern_local(1).s2 / 6 - F(11, 108) == F(4, 27)


def test_h1_omega_growth():
    assert h1_omega(100) > 10
    values = [h1_omega(n) for n in range(1, 31)]
    assert all(b > a for a, b in zip(values, values[1:]))
    for n in (1000, 10000):
        assert abs(6 * h1_omega_float(n) / n - 1.0) < 0.01


def test_h1_omega_limit_report():
    report = h1_omega_limit_report(120)
    assert report["strictly_increasing"]
    assert report["first_n_exceeding_threshold"] is not None
    assert report["first_n_exceeding_threshold"] <= 100
    ratios = {entry["n"]: entry["ratio"] for entry in report["leading_ratio_samples"]}
    assert abs(ratios[10000] - 1.0) < 1e-3
    # the samples are computed once per process, bit for bit as the float loop gives them
    assert ratios == {n: 6 * h1_omega_float(n) / n for n in (1000, 10000)}
    report["leading_ratio_samples"][0]["ratio"] = 0.0
    assert h1_omega_limit_report(120)["leading_ratio_samples"][0]["ratio"] == ratios[1000]


def _h1_rational_part(n):
    """h1_omega(n) + (4/3)(1 + 1/4 + ... + 1/n^2): the published polynomial,
    restated here rather than read from the package."""
    return F(
        n**5 + 19 * n**4 + 83 * n**3 + 137 * n**2 + 80 * n,
        6 * (n + 1) ** 2 * (n + 2) ** 2,
    )


def _limit_report_by_accumulation(n_max, threshold):
    """The report's two verdicts from exact h1_omega values, one by one."""
    increasing = True
    first_exceeds = None
    basel = F(0)
    previous = None
    for n in range(1, n_max + 1):
        basel += F(1, n * n)
        value = _h1_rational_part(n) - F(4, 3) * basel
        if previous is not None and not value > previous:
            increasing = False
        if first_exceeds is None and value > threshold:
            first_exceeds = n
        previous = value
    return increasing, first_exceeds


def test_h1_omega_limit_report_matches_exact_accumulation():
    for threshold in (0, F(1, 2), 10, 30, 60):
        for n_max in (*range(2, 66), 120, 180, 181, 182, 300):
            report = h1_omega_limit_report(n_max, threshold)
            expected = _limit_report_by_accumulation(n_max, threshold)
            assert (report["strictly_increasing"], report["first_n_exceeding_threshold"]) == expected
            assert report["n_max"] == n_max and report["threshold"] == threshold


def _limit_reports_by_fraction_steps(n_top, threshold=10):
    """The report for every n_max = 2..n_top as the step-by-step Fraction
    loop gives it: growth tested as part(n) - part(n-1) > 4/(3n^2) on the
    reduced rational parts.  Both verdicts depend only on n <= n_max, so one
    pass yields every report."""
    samples = [{"n": n, "ratio": 6 * h1_omega_float(n) / n} for n in (1000, 10000)]
    reports = {}
    increasing = True
    first_exceeds = None
    basel = F(0)
    previous = None
    for n in range(1, n_top + 1):
        part = _h1_rational_part(n)
        if previous is not None and not part - previous > F(4, 3 * n * n):
            increasing = False
        if first_exceeds is None:
            basel += F(1, n * n)
            if part - F(4, 3) * basel > threshold:
                first_exceeds = n
        previous = part
        reports[n] = {
            "n_max": n,
            "strictly_increasing": increasing,
            "threshold": F(threshold),
            "first_n_exceeding_threshold": first_exceeds,
            "leading_ratio_samples": samples,
        }
    return reports


def test_h1_omega_limit_report_matches_fraction_steps():
    # the integer growth test against the Fraction loop it replaced
    expected = _limit_reports_by_fraction_steps(2000)
    for n_max in (*range(2, 301), 1561, 2000):
        assert h1_omega_limit_report(n_max) == expected[n_max]


def test_h1_asymptotic_consistency():
    # h1(n, m)/m^3 approaches h1_omega(n) at rate O(1/m)
    for n in (1, 2, 3):
        target = h1_omega(n)
        gaps = {m: abs(h1(n, m) / m**3 - target) for m in (12, 24, 48)}
        assert gaps[48] * 48 <= max(gaps[12] * 12, gaps[24] * 24) + 1


def test_invariant_record_consistency():
    rec = invariant_record(2, 2)
    assert rec["h1"] == rec["mu"] - rec["chi_orb"] - rec["hsum"]
    assert rec["n"] == 2 and rec["m"] == 2


def test_input_validation():
    with pytest.raises(ValueError):
        mu(0, 1)
    with pytest.raises(ValueError):
        chi_orb(1, -1)
    with pytest.raises(ValueError):
        h1_omega(0)


def test_mu_cache_is_bounded():
    assert mu.cache_info().maxsize == MU_CACHE_SIZE
    # one sweep at the CLI's --m-to bound stays in the cache whole
    assert MU_CACHE_SIZE > cli.M_TO_LIMIT + 1
    mu.cache_clear()
    try:
        for n in range(1, MU_CACHE_SIZE + 11):
            mu(n, 0)
        assert mu.cache_info().currsize == MU_CACHE_SIZE
    finally:
        mu.cache_clear()
