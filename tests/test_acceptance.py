"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> PASS/FAIL`` line (run with ``-s`` to
see them on success).  All comparisons are exact unless a criterion
explicitly allows a floating-point gap.
"""

from fractions import Fraction as F

from ansing.asymptotics import h0_omega, h0_omega_float, h0_omega_limit_float
from ansing.bigness import (
    VERDICT_BIG,
    VERDICT_INCONCLUSIVE,
    config_from_dict,
    evaluate_criterion,
)
from ansing.exactmath import QuasiPolynomial
from ansing.extension import divisor_D, extends_holomorphically
from ansing.invariants import h1, h1_omega, mu
from ansing.latticesum import hsum
from ansing.monoblocks import TripleIndex, admissible_triples, parity_holds
from ansing.oracle import hsum_oracle, hsum_oracle_triple
from ansing.quasifit import NoPeriodFitsError, fit
from asymptotic_reports import h0_asymptotic_check, integral_vs_sum_report
from cyclo_oracle import mu_coordinates
from divisor_oracle import divisor_D_bruteforce, divisor_D_case_formula
from general_position import general_position_check
from lattice_oracle import hsum_triple, weight

EXAMPLE1 = QuasiPolynomial(
    6,
    (
        (F(0), F(1, 12), F(29, 72), F(29, 216)),
        (F(-143, 216), F(1, 8), F(29, 72), F(29, 216)),
        (F(-2, 27), F(7, 36), F(29, 72), F(29, 216)),
        (F(3, 8), F(1, 8), F(29, 72), F(29, 216)),
        (F(-10, 27), F(1, 12), F(29, 72), F(29, 216)),
        (F(-7, 216), F(17, 72), F(29, 72), F(29, 216)),
    ),
)

TABLE_H1_OMEGA = {
    1: F(4, 27),
    2: F(67, 216),
    3: F(1283, 2700),
    4: F(577, 900),
    5: F(106819, 132300),
    6: F(1030727, 1058400),
    7: F(5431459, 4762800),
}


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_01_table1_reproduction():
    failures = [n for n, want in TABLE_H1_OMEGA.items() if h1_omega(n) != want]
    _report(1, "h1_omega(1..7) matches the published table exactly", not failures)


def test_criterion_02_example1_reproduction():
    failures = [
        m for m in range(0, 61) if F(hsum(2, m)) != EXAMPLE1.evaluate(m)
    ]
    _report(
        2,
        "hsum(2, m) equals the six-branch quasi-polynomial for m = 0..60",
        not failures,
        f"checked 61 values",
    )


def test_criterion_03_oracle_equivalence():
    mismatches = []
    gp_failures = []
    triple_mismatches = []
    for n in range(1, 6):
        for m in range(0, 13):
            if hsum(n, m) != hsum_oracle(n, m):
                mismatches.append((n, m))
            for t in admissible_triples(n, m, i_max=(n + 1) * m):
                if hsum_oracle_triple(t) != hsum_triple(t):
                    triple_mismatches.append(t)
                if not general_position_check(t):
                    gp_failures.append(t)
    ok = not mismatches and not gp_failures and not triple_mismatches
    _report(
        3,
        "formula = oracle for n <= 5, m <= 12 and general position holds blockwise",
        ok,
        f"mismatches={mismatches[:3]} gp_failures={gp_failures[:3]}",
    )


def test_criterion_04_h1_integrality_nonnegativity():
    violations = []
    for n in range(1, 9):
        for m in range(0, 41):
            value = h1(n, m)
            if value.denominator != 1 or value < 0:
                violations.append((n, m, value))
    _report(
        4,
        "h1(n, m) is a nonnegative integer for n <= 8, m <= 40",
        not violations,
        f"{8 * 41} pairs",
    )


def test_criterion_05_quasi_fit():
    qp1 = fit(tuple((m, F(hsum(1, m))) for m in range(73)), 3, 12)
    ok1 = (
        qp1.period == 6
        and {b[3] for b in qp1.branches} == {F(11, 108)}
        and {b[2] for b in qp1.branches} == {F(11, 36)}
    )
    qp2 = fit(tuple((m, F(hsum(2, m))) for m in range(73)), 3, 12)
    ok2 = qp2.period == 6 and qp2.branches == EXAMPLE1.branches
    _report(
        5,
        "fits give period 6 with cubic 11/108 and 11/36 quadratic for A1, "
        "and the published branches verbatim for A2",
        ok1 and ok2,
    )


def test_criterion_06_cubic_asymptotics():
    failures = []
    details = []
    for n in range(1, 5):
        report = h0_asymptotic_check(n, list(range(0, 61)), fit_cutoff=12)
        details.append(f"n={n}: C={float(report['fit_ratio']):.3f}")
        if not report["bounded"]:
            failures.append(n)
    _report(
        6,
        "residual of h0_omega(n)(m^3 + 3 m^2) stays below the m <= 12 line for m <= 60",
        not failures,
        "; ".join(details),
    )


def test_criterion_07_integral_vs_sum():
    failures = []
    details = []
    for n in range(1, 4):
        report = integral_vs_sum_report(n, [6, 12, 24, 48])
        details.append(f"n={n}: C={float(report['constant']):.3f}")
        if not report["validated"]:
            failures.append(n)
    _report(
        7,
        "lattice sum deviates from the exact integral by at most C*m, "
        "C fit at m in {6,12}, validated at {24,48}",
        not failures,
        "; ".join(details),
    )


def test_criterion_08_limits():
    values = [h0_omega(n) for n in range(1, 201)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    gap = abs(h0_omega_float(10**4) - h0_omega_limit_float())
    _report(
        8,
        "h0_omega strictly increasing to n = 200 and within 1e-3 of its limit at n = 1e4",
        increasing and gap < 1e-3,
        f"gap={gap:.2e}",
    )


def test_criterion_09_divisor():
    brute_fail = []
    for n in range(1, 7):
        for m in range(0, 21):
            window = (n + 1) * m + 2 * (n + 1)
            if divisor_D(n, m) != divisor_D_bruteforce(n, m, window):
                brute_fail.append((n, m))
    shape_fail = []
    for n in range(1, 21):
        for m in range(0, 51):
            coeffs = divisor_D(n, m)
            if any(c < 0 for c in coeffs) or coeffs != coeffs[::-1]:
                shape_fail.append((n, m))
    case_fail = []
    for n in range(1, 11):
        for m in range(0, 31):
            if divisor_D(n, m) != divisor_D_case_formula(n, m):
                case_fail.append((n, m))
    ok = not brute_fail and not shape_fail and not case_fail
    _report(
        9,
        "divisor coefficients: bruteforce, nonnegativity, symmetry and the "
        "reindexed case formula all agree",
        ok,
    )


def test_criterion_10_extension_criterion():
    weight_fail = []
    for n in range(1, 7):
        for m in range(0, 16):
            for x1 in range(n * m, (n + 1) * m + n + 3):
                for x2 in range(-(m + 2), m + 3):
                    if weight(n, m, (x1, x2)) != 0:
                        weight_fail.append((n, m, x1, x2))
    extend_fail = []
    for n in range(1, 7):
        for m in range(0, 16):
            for i in range(n * m, n * m + 2 * n + 4):
                bound = (i + m) // (n + 1)
                for khat in range(-bound, bound + 1):
                    if not parity_holds(n, khat, i, m):
                        continue
                    if not extends_holomorphically(TripleIndex(n, khat, i, m)):
                        extend_fail.append((n, khat, i, m))
    _report(
        10,
        "weight vanishes for x1 >= n*m and those blocks extend holomorphically",
        not weight_fail and not extend_fail,
    )


def test_criterion_11_mu_rationality_and_quasi_linearity():
    # the closed form must equal the group average evaluated in Q(zeta_{n+1}),
    # and that evaluation must have no nonzero zeta-coordinate
    mismatch = []
    non_rational = []
    for n in range(1, 31):
        for m in range(0, 31):
            coords = mu_coordinates(n, m)
            if any(coords[1:]):
                non_rational.append((n, m))
            if coords[0] != mu(n, m):
                mismatch.append((n, m))
    # the period window is empirical: detected periods are reported, not asserted
    detected = {}
    for n in range(1, 11):
        window = 2 * (n + 1)
        samples = tuple((m, mu(n, m)) for m in range(4 * window))
        try:
            detected[n] = fit(samples, 1, window).period
        except NoPeriodFitsError:
            detected[n] = None
    print(f"  mu quasi-linear periods by n (window 2(n+1), reported): {detected}")
    _report(
        11,
        "mu is exactly rational and equals its cyclotomic evaluation for n <= 30, "
        "m <= 30; degree-1 fit periods reported",
        not mismatch and not non_rational,
        f"mismatches {mismatch[:5]}, non-rational {non_rational[:5]}",
    )


def test_criterion_12_bigness_examples():
    smooth = evaluate_criterion(
        config_from_dict({"name": "a", "s2": "1", "singularities": []})
    )
    nodal = evaluate_criterion(
        config_from_dict(
            {"name": "b", "s2": "-4/5", "singularities": [{"n": 1, "count": 6}]}
        )
    )
    negative = evaluate_criterion(
        config_from_dict(
            {"name": "c", "s2": "-100", "singularities": [{"n": 2, "count": 1}]}
        )
    )
    ok = (
        smooth["total"] == F(1, 6)
        and smooth["verdict"] == VERDICT_BIG
        and nodal["localized"] == F(8, 9)
        and nodal["total"] == F(34, 45)
        and nodal["verdict"] == VERDICT_BIG
        and negative["total"] < 0
        and negative["verdict"] == VERDICT_INCONCLUSIVE
    )
    _report(12, "the three reference surface configs give the stated totals and verdicts", ok)
