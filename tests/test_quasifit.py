import random
from fractions import Fraction as F

import pytest

from ansing.exactmath import QuasiPolynomial, scale_to_integers
from ansing.invariants import mu
from ansing.latticesum import hsum
from ansing.quasifit import InsufficientSamplesError, NoPeriodFitsError, _lagrange, fit
from fraction_kernels import fit_by_fractions, interpolate_by_fractions

EXAMPLE1_BRANCHES = (
    (F(0), F(1, 12), F(29, 72), F(29, 216)),
    (F(-143, 216), F(1, 8), F(29, 72), F(29, 216)),
    (F(-2, 27), F(7, 36), F(29, 72), F(29, 216)),
    (F(3, 8), F(1, 8), F(29, 72), F(29, 216)),
    (F(-10, 27), F(1, 12), F(29, 72), F(29, 216)),
    (F(-7, 216), F(17, 72), F(29, 72), F(29, 216)),
)


def _hsum_samples(n, m_top):
    return tuple((m, F(hsum(n, m))) for m in range(m_top + 1))


def test_constant_sequence():
    values = tuple((m, F(5)) for m in range(12))
    qp = fit(values, 3, 2)
    assert qp.period == 1
    assert qp.branches == ((F(5), F(0), F(0), F(0)),)


def test_fit_reproduces_example1():
    qp = fit(_hsum_samples(2, 47), 3, 12)
    assert qp.period == 6
    assert qp.branches == EXAMPLE1_BRANCHES


def test_fit_a1_coefficients():
    qp = fit(_hsum_samples(1, 60), 3, 12)
    assert qp.period == 6
    assert {branch[3] for branch in qp.branches} == {F(11, 108)}
    assert {branch[2] for branch in qp.branches} == {F(11, 36)}


def test_fit_reproduces_all_samples_exactly():
    samples = _hsum_samples(2, 47)
    qp = fit(samples, 3, 12)
    for m, v in samples:
        assert qp.evaluate(m) == v


def test_fit_minimality():
    samples = _hsum_samples(2, 47)
    qp = fit(samples, 3, 12)
    for smaller in range(1, qp.period):
        with pytest.raises(NoPeriodFitsError):
            fit(samples, 3, smaller)


def test_no_period_fits_error():
    # a genuinely period-7 sequence cannot be matched with periods <= 5
    base = QuasiPolynomial(
        7, tuple((F(k), F(1), F(0), F(0)) for k in range(7))
    )
    values = tuple((m, base.evaluate(m)) for m in range(7 * 7))
    with pytest.raises(NoPeriodFitsError):
        fit(values, 3, 5)
    refit = fit(values, 3, 8)
    assert refit.period == 7


def test_insufficient_samples_error_is_distinct():
    values = tuple((m, F(m)) for m in range(4))
    with pytest.raises(InsufficientSamplesError):
        fit(values, 3, 2)


def test_request_validation():
    with pytest.raises(ValueError, match="^sample points must be distinct and >= 0$"):
        fit(((0, F(1)), (0, F(2))), 1, 2)
    with pytest.raises(ValueError, match="^sample points must be distinct and >= 0$"):
        fit(((-1, F(1)),), 1, 2)
    with pytest.raises(ValueError, match="^degree must be >= 0$"):
        fit(((0, F(1)),), -1, 2)
    with pytest.raises(ValueError, match="^max_period must be >= 1$"):
        fit(((0, F(1)),), 1, 0)


def _outcome(fitter, values, degree, max_period):
    """(period, branches) of a fit, or the type and message of its error."""
    try:
        qp = fitter(values, degree, max_period)
    except ValueError as exc:  # FitError is a ValueError
        return type(exc), str(exc)
    return qp.period, qp.branches


def test_interpolate_matches_fraction_oracle_on_random_nodes():
    # distinct nodes >= 0 in any order and spacing, values over unrelated
    # denominators, scaled to integers as fit scales them, and padding past
    # the number of nodes
    rng = random.Random(20)
    for _ in range(300):
        nodes = rng.sample(range(300), rng.randint(1, 9))
        points = [(x, F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))) for x in nodes]
        degree = len(points) - 1 + rng.randint(0, 2)
        ys, scale = scale_to_integers([y for _, y in points])
        coeffs, denom = _lagrange(nodes, ys)
        assert denom > 0 and all(type(c) is int for c in coeffs)
        padded = [F(c, denom * scale) for c in coeffs] + [F(0)] * (degree + 1 - len(coeffs))
        assert tuple(padded) == interpolate_by_fractions(points, degree), points


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fit_matches_fraction_oracle_on_hsum_samples(n):
    # fits, exhausted candidates (A_3 has no period <= 12) and, on m <= 29,
    # too few samples per class
    cases = [(179, degree, max_period) for degree in (0, 3, 5) for max_period in (1, 6, 12)]
    for m_top, degree, max_period in cases + [(29, 3, 12)]:
        values = _hsum_samples(n, m_top)
        assert _outcome(fit, values, degree, max_period) == _outcome(
            fit_by_fractions, values, degree, max_period
        ), (m_top, degree, max_period)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_fit_matches_fraction_oracle_on_mu_samples(n):
    # mu(n, m) is a quasi-polynomial with non-integer values
    values = tuple((m, mu(n, m)) for m in range(8 * (n + 1)))
    assert any(v.denominator > 1 for _, v in values)
    for degree in (0, 1, 2):
        for max_period in (1, n + 1, 2 * (n + 1)):
            assert _outcome(fit, values, degree, max_period) == _outcome(
                fit_by_fractions, values, degree, max_period
            ), (degree, max_period)


def test_fit_matches_fraction_oracle_on_random_sample_sets():
    # random quasi-polynomials sampled at random non-consecutive m, some with
    # one value disturbed; every outcome kind must occur
    rng = random.Random(20)
    kinds = set()
    for _ in range(200):
        period, degree = rng.randint(1, 4), rng.randint(0, 3)
        branches = tuple(
            tuple(F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1))
            for _ in range(period)
        )
        base = QuasiPolynomial(period, branches)
        ms = sorted(rng.sample(range(120), rng.randint(10, 80)))
        values = [(m, base.evaluate(m)) for m in ms]
        if rng.random() < 0.3:
            k = rng.randrange(len(values))
            values[k] = (values[k][0], values[k][1] + F(1, rng.randint(1, 5)))
        rng.shuffle(values)
        fit_degree, max_period = rng.randint(0, 4), rng.randint(1, 6)
        outcome = _outcome(fit, tuple(values), fit_degree, max_period)
        assert outcome == _outcome(fit_by_fractions, tuple(values), fit_degree, max_period)
        kinds.add(outcome[0] if isinstance(outcome[0], type) else "fit")
    assert kinds == {"fit", InsufficientSamplesError, NoPeriodFitsError}


def coefficient_report(qp: QuasiPolynomial) -> dict:
    """Per-degree coefficient sets across branches; flags branch-independent degrees."""
    degrees = []
    constant_degrees = []
    for k in range(qp.degree + 1):
        values = sorted({branch[k] for branch in qp.branches})
        degrees.append({"degree": k, "coefficients": values})
        if len(values) == 1:
            constant_degrees.append(k)
    return {
        "period": qp.period,
        "by_degree": degrees,
        "constant_degrees": constant_degrees,
    }


def test_coefficient_report_example1():
    qp = fit(_hsum_samples(2, 47), 3, 12)
    report = coefficient_report(qp)
    by_degree = {entry["degree"]: entry["coefficients"] for entry in report["by_degree"]}
    assert by_degree[3] == [F(29, 216)]
    assert by_degree[2] == [F(29, 72)]
    assert by_degree[1] == [F(1, 12), F(1, 8), F(7, 36), F(17, 72)]
    assert 3 in report["constant_degrees"] and 2 in report["constant_degrees"]
    assert 1 not in report["constant_degrees"]


def test_coefficient_report_constant_fit():
    qp = QuasiPolynomial(1, ((F(5), F(0)),))
    report = coefficient_report(qp)
    assert report["constant_degrees"] == [0, 1]
