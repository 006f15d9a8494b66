import random

import pytest

from ansing.monoblocks import (
    ChartExponents,
    ParityError,
    TripleIndex,
    admissible_triples,
    chart_exponents,
    codim_reg,
    dim_vreg,
    k_of_khat,
    khat_of_k,
    parity_holds,
    pullback_coeffs,
    pullback_exponents,
)


def test_triple_rejects_parity_violation():
    with pytest.raises(ParityError):
        TripleIndex(2, 0, 1, 2)  # (n+1)*khat = 0, i+m = 3
    with pytest.raises(ValueError):
        TripleIndex(0, 0, 0, 0)
    t = TripleIndex(2, 1, 1, 2)
    assert t.is_admissible()


def test_k_of_khat_examples():
    assert k_of_khat(TripleIndex(1, 0, 0, 2)) == 1
    assert k_of_khat(TripleIndex(3, 1, 0, 2)) == 3
    assert k_of_khat(TripleIndex(2, 0, 1, 1)) == 1


def test_khat_of_k_inverts():
    for n in range(1, 5):
        for m in range(0, 8):
            for i in range(0, 12):
                for khat in range(-4, 5):
                    if not parity_holds(n, khat, i, m):
                        continue
                    t = TripleIndex(n, khat, i, m)
                    assert khat_of_k(n, k_of_khat(t), i, m) == khat


def test_pullback_exponents_examples():
    assert pullback_exponents(0, 0, 1, 0, 0, 2) == (2, 0)
    assert pullback_exponents(0, 0, 0, 0, 5, 7) == (0, 0)
    assert pullback_exponents(1, 0, 0, 0, 0, 1) == (2, 0)


def test_pullback_coeffs_examples():
    assert pullback_coeffs(0, 0, 3, 5) == [1]
    assert pullback_coeffs(2, 0, 0, 1) == [4, 0, 0]
    assert pullback_coeffs(1, 1, 1, 2) == [-1, 2]


def test_pullback_coeffs_sum_identity():
    # substituting X = Y = 1 must give (n+1-2r)^(m-q) (2r+1-n)^q
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(0, 8)
        q = rng.randint(0, m)
        r = rng.randint(-1, n + 1)
        coeffs = pullback_coeffs(m, q, r, n)
        assert sum(coeffs) == (n + 1 - 2 * r) ** (m - q) * (2 * r + 1 - n) ** q


def test_codim_reg_examples():
    t = TripleIndex(3, 1, 0, 2)
    assert [codim_reg(t, r) for r in (0, 1, 2)] == [0, 1, 2]
    for m in range(0, 6):
        t = TripleIndex(1, 0, m, m)
        assert all(codim_reg(t, r) == 0 for r in range(-1, 2))
    assert codim_reg(TripleIndex(1, 0, 0, 2), 0) == 1


def test_codim_reg_range_check():
    t = TripleIndex(2, 0, 0, 2)
    with pytest.raises(ValueError):
        codim_reg(t, -2)
    with pytest.raises(ValueError):
        codim_reg(t, 3)


def test_dim_vreg_examples():
    assert dim_vreg(TripleIndex(1, 0, 0, 2)) == 1
    assert dim_vreg(TripleIndex(3, 1, 0, 2)) == 0
    for n in (1, 2, 4):
        for m in (0, 3, 5):
            assert dim_vreg(TripleIndex(n, 0, m, m)) == m + 1


def test_chart_exponents_structure():
    # i2 - i1 = m + khat, and codim is the negative part of i1
    for n in range(1, 5):
        for m in range(0, 7):
            for i in range(0, 10):
                for khat in range(-3, 4):
                    if not parity_holds(n, khat, i, m):
                        continue
                    t = TripleIndex(n, khat, i, m)
                    for r in range(-1, n + 2):
                        ce = chart_exponents(t, r)
                        assert isinstance(ce, ChartExponents)
                        assert ce.i2 - ce.i1 == m + khat
                        if r <= n:
                            assert codim_reg(t, r) == max(0, -ce.i1)


def test_integrality_exhaustive_small():
    for n in range(1, 5):
        for m in range(0, 11):
            for i in range(0, (n + 1) * m + 1):
                for khat in range(-2 * (m + 1), 2 * (m + 1) + 1):
                    if not parity_holds(n, khat, i, m):
                        continue
                    t = TripleIndex(n, khat, i, m)
                    k_of_khat(t)  # raises if non-integral
                    chart_exponents(t, 0)
                    chart_exponents(t, n)


def test_integrality_sampled_full_range():
    rng = random.Random(99)
    checked = 0
    while checked < 2000:
        n = rng.randint(1, 6)
        m = rng.randint(0, 20)
        i = rng.randint(0, (n + 1) * m)
        khat = rng.randint(-2 * (m + 1), 2 * (m + 1))
        if not parity_holds(n, khat, i, m):
            continue
        t = TripleIndex(n, khat, i, m)
        k_of_khat(t)
        for r in range(-1, n + 2):
            chart_exponents(t, r)
        checked += 1


def test_codim_mirror_symmetry():
    for n in range(1, 6):
        for m in range(0, 9):
            for i in range(0, 2 * m + 3):
                for khat in range(-m - 1, m + 2):
                    if not parity_holds(n, khat, i, m):
                        continue
                    t = TripleIndex(n, khat, i, m)
                    mirrored = TripleIndex(n, -khat, i, m)
                    for r in range(-1, n + 1):
                        assert codim_reg(t, r) == codim_reg(mirrored, n - 1 - r)


def test_admissible_triples_is_every_admissible_block_in_order():
    for n in range(1, 5):
        for m in range(0, 7):
            for i_max in (-1, 0, n * m - 1, (n + 1) * m + n):
                blocks = list(admissible_triples(n, m, i_max))
                expected = [
                    TripleIndex(n, khat, i, m)
                    for i in range(i_max + 1)
                    for khat in range(-i - m, i + m + 1)
                    if parity_holds(n, khat, i, m)
                    and TripleIndex(n, khat, i, m).is_admissible()
                ]
                assert blocks == expected
            assert list(admissible_triples(n, m)) == list(
                admissible_triples(n, m, (n + 1) * m + n)
            )
