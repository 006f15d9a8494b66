from fractions import Fraction as F

import pytest

from ansing.exactmath import QuasiPolynomial
from ansing.latticesum import hsum
from ansing.quasifit import InsufficientSamplesError, NoPeriodFitsError, fit

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
