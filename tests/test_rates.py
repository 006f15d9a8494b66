"""The cubic rates stay bit for bit what the earlier, separate copies gave.

``h0_omega_float`` and ``h1_omega_float`` are now derived from the one exact
rational part per rate and the one float Basel loop in ``asymptotics``.  The
loops below are the earlier standalone float formulas, kept verbatim, and the
pinned lines are the ``--no-timestamp`` stdout those formulas produced, so a
change in rounding or summation order shows here.  The published degree-5
closed form of h1_omega is restated here on its own, as the form the exact
rate is checked against.
"""

from fractions import Fraction as F

import pytest

from ansing import cli
from ansing.asymptotics import h0_omega_float
from ansing.invariants import h1_omega, h1_omega_float

SAMPLED_N = [*range(1, 301), 1000, 10000]

PINNED_STDOUT = [
    (("limits", "--n", "2"), '{"h0": {"n_max": 2, "exact_monotonicity_checked_to": 2, "strictly_increasing": true, "bounded_by_limit": true, "limit_float": 0.19324542246430187, "gap_at_n_max_float": 0.058986163205042796}, "h1": {"n_max": 2, "strictly_increasing": true, "threshold": "10", "first_n_exceeding_threshold": null, "leading_ratio_samples": [{"n": 1000, "ratio": 0.9998405274665397}, {"n": 10000, "ratio": 0.9999840527465214}]}}'),
    (("limits", "--n", "3"), '{"h0": {"n_max": 3, "exact_monotonicity_checked_to": 3, "strictly_increasing": true, "bounded_by_limit": true, "limit_float": 0.19324542246430187, "gap_at_n_max_float": 0.04343060764948703}, "h1": {"n_max": 3, "strictly_increasing": true, "threshold": "10", "first_n_exceeding_threshold": null, "leading_ratio_samples": [{"n": 1000, "ratio": 0.9998405274665397}, {"n": 10000, "ratio": 0.9999840527465214}]}}'),
    (("limits", "--n", "400"), '{"h0": {"n_max": 400, "exact_monotonicity_checked_to": 400, "strictly_increasing": true, "bounded_by_limit": true, "limit_float": 0.19324542246430187, "gap_at_n_max_float": 0.00041563101832386984}, "h1": {"n_max": 400, "strictly_increasing": true, "threshold": "10", "first_n_exceeding_threshold": 61, "leading_ratio_samples": [{"n": 1000, "ratio": 0.9998405274665397}, {"n": 10000, "ratio": 0.9999840527465214}]}}'),
    (("limits", "--n", "401"), '{"h0": {"n_max": 401, "exact_monotonicity_checked_to": 400, "strictly_increasing": true, "bounded_by_limit": true, "limit_float": 0.19324542246430187, "gap_at_n_max_float": 0.00041459709342617224}, "h1": {"n_max": 401, "strictly_increasing": true, "threshold": "10", "first_n_exceeding_threshold": 61, "leading_ratio_samples": [{"n": 1000, "ratio": 0.9998405274665397}, {"n": 10000, "ratio": 0.9999840527465214}]}}'),
    (("limits", "--n", "2000"), '{"h0": {"n_max": 2000, "exact_monotonicity_checked_to": 400, "strictly_increasing": true, "bounded_by_limit": true, "limit_float": 0.19324542246430187, "gap_at_n_max_float": 8.329171518450806e-05}, "h1": {"n_max": 2000, "strictly_increasing": true, "threshold": "10", "first_n_exceeding_threshold": 61, "leading_ratio_samples": [{"n": 1000, "ratio": 0.9998405274665397}, {"n": 10000, "ratio": 0.9999840527465214}]}}'),
    (("omega", "--n", "1"), '{"n": 1, "h0_omega": "11/108", "h1_omega": "4/27"}'),
    (("omega", "--n", "2"), '{"n": 2, "h0_omega": "29/216", "h1_omega": "67/216"}'),
    (("omega", "--n", "50"), '{"n": 50, "h0_omega": "273681425496067715827176654217198360561709/1440611525894597324700383644613947170144000", "h1_omega": "11966808663804432428685886992829411581838291/1440611525894597324700383644613947170144000"}'),
]


def _h0_omega_float_loop(n):
    basel = 0.0
    for j in range(n, 0, -1):
        basel += 1.0 / (j * j)
    poly = (12 * n**4 + 65 * n**3 + 117 * n**2 + 72 * n) / (
        6 * (n + 1) ** 2 * (n + 2) ** 2
    )
    return (4.0 / 3.0) * basel - poly


def _h1_omega_float_loop(n):
    basel = 0.0
    for k in range(n, 0, -1):
        basel += 1.0 / (k * k)
    poly = (n**5 + 19 * n**4 + 83 * n**3 + 137 * n**2 + 80 * n) / (
        6 * (n + 1) ** 2 * (n + 2) ** 2
    )
    return poly - (4.0 / 3.0) * basel


def _h1_omega_published(n):
    """(n^5 + 19n^4 + 83n^3 + 137n^2 + 80n) / (6(n+1)^2(n+2)^2) - (4/3) zeta_n(2)."""
    basel = sum(F(1, k * k) for k in range(1, n + 1))
    return F(
        n**5 + 19 * n**4 + 83 * n**3 + 137 * n**2 + 80 * n,
        6 * (n + 1) ** 2 * (n + 2) ** 2,
    ) - F(4, 3) * basel


def test_h0_omega_float_is_the_loop_bit_for_bit():
    assert [h0_omega_float(n) for n in SAMPLED_N] == [_h0_omega_float_loop(n) for n in SAMPLED_N]


def test_h1_omega_float_is_the_loop_bit_for_bit():
    assert [h1_omega_float(n) for n in SAMPLED_N] == [_h1_omega_float_loop(n) for n in SAMPLED_N]


def test_h1_omega_matches_published_closed_form():
    for n in range(1, 61):
        assert h1_omega(n) == _h1_omega_published(n)


@pytest.mark.parametrize("argv, stdout", PINNED_STDOUT, ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_rate_verbs_print_the_pinned_bytes(capsys, argv, stdout):
    assert cli.run([*argv, "--no-timestamp"]) == 0
    assert capsys.readouterr().out == stdout + "\n"
