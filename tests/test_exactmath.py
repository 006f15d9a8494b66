import math
import random
import time
from fractions import Fraction as F

import pytest

from ansing.exactmath import (
    CycloElement,
    NonInvertibleError,
    QuasiPolynomial,
    ceil_ratio,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    parse_rational,
)

# Example-1 branch table, constant term first (residues mod 6).
EXAMPLE1_BRANCHES = (
    (F(0), F(1, 12), F(29, 72), F(29, 216)),
    (F(-143, 216), F(1, 8), F(29, 72), F(29, 216)),
    (F(-2, 27), F(7, 36), F(29, 72), F(29, 216)),
    (F(3, 8), F(1, 8), F(29, 72), F(29, 216)),
    (F(-10, 27), F(1, 12), F(29, 72), F(29, 216)),
    (F(-7, 216), F(17, 72), F(29, 72), F(29, 216)),
)


def test_rational_arithmetic_basics():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(29, 216) * 216 == 29
    assert F(1, 3) < F(1, 2) < F(2, 3)
    assert math.ceil(F(5, 4)) == 2
    assert math.ceil(F(-5, 4)) == -1
    assert math.floor(F(-5, 4)) == -2
    with pytest.raises(ZeroDivisionError):
        F(1, 2) / F(0)


def test_ratio_floor_ceil():
    assert ceil_ratio(5, 4) == 2
    assert ceil_ratio(-5, 4) == -1
    assert ceil_ratio(8, 4) == 2
    for a in range(-30, 31):
        for b in (*range(-7, 0), *range(1, 8)):
            assert ceil_ratio(a, b) == math.ceil(F(a, b)), (a, b)
    with pytest.raises(ZeroDivisionError):
        ceil_ratio(1, 0)


def test_rational_string_codec():
    assert format_rational(F(29, 216)) == "29/216"
    assert format_rational(F(-7, 216)) == "-7/216"
    assert format_rational(F(3)) == "3"
    assert parse_rational("29/216") == F(29, 216)
    assert parse_rational("-5") == F(-5)
    for value in (F(0), F(7, 3), F(-22, 7), F(41)):
        assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "text",
    ["1e3000000", "1E-7", "2e3/5", "0.5", "-1.25", ".5", "1_000", " 3", "3 ", "+-1", "1/-2", "١", "", "/", "1/", "1/0", "inf", "nan"],
)
def test_parse_rational_takes_only_the_codec(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_rational(text)
    # Fraction("1e3000000") builds a 3-million-digit integer, about 1.6 s
    assert time.perf_counter() - start < 0.1


def test_parse_rational_signs():
    assert parse_rational("+12/8") == F(3, 2)
    assert parse_rational("-0") == 0
    assert parse_rational("007") == 7


def test_rational_ring_axioms_on_random_triples():
    rng = random.Random(20240811)
    for _ in range(300):
        a, b, c = (
            F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 20):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclo_invert_order_two_is_rational():
    # with order 2 the root is -1, so 1 - zeta = 2 and its inverse is 1/2
    e = CycloElement.one(2) - CycloElement.zeta(2)
    assert e == CycloElement.from_rational(2, 2)
    assert e.inverse() == CycloElement.from_rational(2, F(1, 2))


def test_cyclo_invert_order_three():
    one = CycloElement.one(3)
    zeta = CycloElement.zeta(3)
    inv = (one - zeta).inverse()
    # (1 - zeta)(2 + zeta) = 3, so the inverse is (2 + zeta)/3
    assert inv * (one - zeta) == one
    assert inv == (one * 2 + zeta) * F(1, 3)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 12])
def test_zeta_inverse_is_last_power(order):
    zeta = CycloElement.zeta(order)
    assert zeta.inverse() == CycloElement.zeta_pow(order, order - 1)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 9, 12])
def test_inverse_times_self_is_one_randomized(order):
    rng = random.Random(order * 9176)
    degree = euler_phi(order)
    one = CycloElement.one(order)
    for _ in range(20):
        coeffs = tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree))
        e = CycloElement(order, coeffs)
        if not e:
            continue
        assert e.inverse() * e == one


def test_invert_zero_fails():
    with pytest.raises(NonInvertibleError):
        CycloElement.zero(5).inverse()


def test_rational_part_and_predicate():
    e = CycloElement.from_rational(4, F(7, 3))
    assert e.rational_part() == F(7, 3)
    assert e.is_rational()

    zeta3 = CycloElement.zeta(3)
    assert zeta3.rational_part() == 0
    assert not zeta3.is_rational()

    # zeta + zeta^2 reduces to -1 modulo 1 + x + x^2
    e = zeta3 + CycloElement.zeta_pow(3, 2)
    assert e.is_rational()
    assert e.rational_part() == -1


def test_zeta_pow_wraps_modulo_order():
    for order in (2, 3, 5, 8):
        zeta = CycloElement.zeta(order)
        power = CycloElement.one(order)
        for k in range(2 * order + 1):
            assert CycloElement.zeta_pow(order, k) == power
            power = power * zeta


def test_quasi_eval_example_branches():
    qp = QuasiPolynomial(6, EXAMPLE1_BRANCHES)
    assert qp.evaluate(1) == 0
    assert qp.evaluate(2) == 3
    assert qp.evaluate(6) == 44


def test_quasi_eval_matches_direct_evaluation():
    rng = random.Random(7)
    branches = tuple(
        tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        for _ in range(3)
    )
    qp = QuasiPolynomial(3, branches)
    for m in range(0, 10 * qp.period + 1):
        branch = branches[m % 3]
        direct = sum(c * m**k for k, c in enumerate(branch))
        assert qp.evaluate(m) == direct


def test_quasi_polynomial_validation():
    with pytest.raises(ValueError):
        QuasiPolynomial(0, ())
    with pytest.raises(ValueError):
        QuasiPolynomial(2, ((F(1),),))
    with pytest.raises(ValueError):
        QuasiPolynomial(2, ((F(1),), (F(1), F(2))))
