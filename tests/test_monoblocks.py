import random
from collections import Counter
from fractions import Fraction

import pytest

from ansing.monoblocks import (
    ParityError,
    TripleIndex,
    admissible_triples,
    chart_codim_counts,
    chart_codims,
    chart_order,
    codim_reg,
    parity_holds,
)
from lattice_oracle import dim_vreg


def valid_triples(n_max: int, m_max: int):
    """Every triple passing the parity check with n <= n_max, m <= m_max,
    i <= (n+1)m + n and |khat| <= 2(m+1), admissible or not."""
    for n in range(1, n_max + 1):
        for m in range(0, m_max + 1):
            for i in range(0, (n + 1) * m + n + 1):
                for khat in range(-2 * (m + 1), 2 * (m + 1) + 1):
                    if parity_holds(n, khat, i, m):
                        yield TripleIndex(n, khat, i, m)


def test_triple_rejects_parity_violation():
    with pytest.raises(ParityError):
        TripleIndex(2, 0, 1, 2)  # (n+1)*khat = 0, i+m = 3
    with pytest.raises(ValueError):
        TripleIndex(0, 0, 0, 0)
    t = TripleIndex(2, 1, 1, 2)
    assert t.is_admissible()


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


def test_codim_reg_is_the_verbatim_formula():
    # the paper's form, max{0, (m-i)/2 + ((2r-n+1)/2) khat}, in rationals
    for t in valid_triples(5, 10):
        for r in range(-1, t.n + 1):
            verbatim = Fraction(t.m - t.i, 2) + Fraction(2 * r - t.n + 1, 2) * t.khat
            assert codim_reg(t, r) == max(0, verbatim)


def test_chart_codims_is_codim_reg_on_every_chart():
    # every admissible block with n <= 8 and m <= 12, and the inadmissible
    # ones of a smaller range
    blocks = [t for n in range(1, 9) for m in range(0, 13) for t in admissible_triples(n, m)]
    blocks += [t for t in valid_triples(3, 6) if not t.is_admissible()]
    for t in blocks:
        assert chart_codims(t) == tuple(codim_reg(t, r) for r in range(-1, t.n + 1))


def test_integrality_exhaustive_small():
    for n in range(1, 5):
        for m in range(0, 11):
            for i in range(0, (n + 1) * m + 1):
                for khat in range(-2 * (m + 1), 2 * (m + 1) + 1):
                    if not parity_holds(n, khat, i, m):
                        continue
                    t = TripleIndex(n, khat, i, m)
                    chart_order(t, 0)  # raises if non-integral
                    chart_order(t, n)


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
        for r in range(-1, n + 2):
            chart_order(t, r)
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


def test_chart_codim_counts_is_the_multiset_of_chart_codims():
    # the oracle's tuples, counted on the block loop without a TripleIndex
    for n in range(1, 9):
        for m in range(0, 13):
            for i_max in (-1, 0, n * m - 1, (n + 1) * m + n):
                blocks = admissible_triples(n, m, i_max)
                assert chart_codim_counts(n, m, i_max) == Counter(chart_codims(t) for t in blocks)
