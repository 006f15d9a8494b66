from fractions import Fraction

import pytest

from ansing.extension import (
    divisor_D,
    extends_holomorphically,
    pole_profile,
)
from ansing.monoblocks import TripleIndex, parity_holds
from divisor_oracle import divisor_D_bruteforce, divisor_D_case_formula
from lattice_oracle import weight


def test_divisor_examples():
    assert divisor_D(1, 2) == (1,)
    assert divisor_D(1, 5) == (3,)  # ceil(5/2)
    assert divisor_D(2, 2) == (1, 1)
    assert divisor_D(3, 5) == (2, 3, 2)


def test_divisor_bruteforce_examples():
    assert divisor_D_bruteforce(1, 2, 10) == (1,)
    assert divisor_D_bruteforce(2, 2, 12) == (1, 1)
    for n in (1, 2, 3):
        assert divisor_D_bruteforce(n, 0, 2 * (n + 1)) == (0,) * n


def test_bruteforce_window_check():
    with pytest.raises(ValueError):
        divisor_D_bruteforce(2, 4, 11)  # needs i_max >= 12


def test_divisor_matches_bruteforce():
    for n in range(1, 5):
        for m in range(0, 9):
            window = (n + 1) * m + 2 * (n + 1)
            assert divisor_D(n, m) == divisor_D_bruteforce(n, m, window)


@pytest.mark.parametrize("n", [50, 101, 400])
def test_divisor_is_the_defining_double_sum(n):
    # a_r = sum over j = 0..min(r-1, n-r) of ceil((m - 2j)/(n+1)), term by term
    for m in (0, 1, 2, n - 1, n, n + 1, 2 * n + 3, 3 * n):
        expected = tuple(
            sum(-((2 * j - m) // (n + 1)) for j in range(min(r - 1, n - r) + 1))
            for r in range(1, n + 1)
        )
        assert divisor_D(n, m) == expected


def test_divisor_nonnegative_and_symmetric():
    for n in range(1, 13):
        for m in range(0, 26):
            coeffs = divisor_D(n, m)
            assert all(c >= 0 for c in coeffs)
            assert coeffs == coeffs[::-1]


def test_case_formula_agrees():
    for n in range(1, 11):
        for m in range(0, 31):
            assert divisor_D(n, m) == divisor_D_case_formula(n, m)


def test_pole_profile_examples():
    assert pole_profile(TripleIndex(1, 0, 0, 2)) == (1,)
    assert pole_profile(TripleIndex(2, 0, 0, 2)) == (1, 1)
    assert pole_profile(TripleIndex(1, 1, 0, 2)) == (1,)


def test_pole_profile_is_the_verbatim_formula():
    # the paper's offset (i+m)/2 + ((n+1)/2 - r) khat on E_r, in rationals
    for n in range(1, 6):
        for m in range(0, 11):
            for i in range(0, (n + 1) * m + n + 1):
                for khat in range(-2 * (m + 1), 2 * (m + 1) + 1):
                    if not parity_holds(n, khat, i, m):
                        continue
                    offsets = pole_profile(TripleIndex(n, khat, i, m))
                    assert offsets == tuple(
                        Fraction(i + m, 2) + (Fraction(n + 1, 2) - r) * khat
                        for r in range(1, n + 1)
                    )


def test_pole_profile_nonnegative_on_admissible():
    for n in range(1, 5):
        for m in range(0, 8):
            for i in range(0, (n + 1) * m + 1):
                bound = (i + m) // (n + 1)
                for khat in range(-bound, bound + 1):
                    if not parity_holds(n, khat, i, m):
                        continue
                    profile = pole_profile(TripleIndex(n, khat, i, m))
                    assert all(offset >= 0 for offset in profile)


def test_extends_holomorphically_examples():
    assert extends_holomorphically(TripleIndex(1, 0, 2, 2))
    # low order forces a pole: i < m can never extend
    assert not extends_holomorphically(TripleIndex(2, 1, 1, 2))
    for n in range(1, 4):
        for m in range(0, 6):
            for i in range(n * m, n * m + 5):
                bound = (i + m) // (n + 1)
                for khat in range(-bound, bound + 1):
                    if parity_holds(n, khat, i, m):
                        assert extends_holomorphically(TripleIndex(n, khat, i, m))


def test_extends_requires_admissible():
    with pytest.raises(ValueError):
        extends_holomorphically(TripleIndex(2, 4, 1, 2))


def test_weight_vanishes_at_extension_threshold():
    # cross-module restatement: zero weight wherever x1 >= n*m
    for n in range(1, 4):
        for m in range(0, 8):
            for x1 in range(n * m, n * m + n + 3):
                for x2 in range(-(m + 2), m + 3):
                    assert weight(n, m, (x1, x2)) == 0
