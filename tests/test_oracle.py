import random
from fractions import Fraction as F

import pytest

from ansing.latticesum import hsum, hsum_triple
from ansing.monoblocks import TripleIndex
from ansing.oracle import (
    VanishingCondition,
    general_position_check,
    hsum_oracle,
    hsum_oracle_triple,
    rank,
    vanishing_rows,
)
from lattice_oracle import admissible_triples


def _rank_fraction_elimination(rows, ncols):
    """Independent rank check: plain Gaussian elimination over Fraction."""
    matrix = [[F(x) for x in row] for row in rows]
    rank_count = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank_count, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank_count], matrix[pivot] = matrix[pivot], matrix[rank_count]
        lead = matrix[rank_count][col]
        for r in range(rank_count + 1, len(matrix)):
            factor = matrix[r][col] / lead
            if factor:
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank_count])]
        rank_count += 1
    return rank_count


def test_vanishing_rows_coordinate_point():
    rows = vanishing_rows(VanishingCondition((0, 1), 1), 2)
    # single row selecting the coefficient of Y^2
    assert len(rows) == 1
    assert rows[0][0] == rows[0][1] == 0
    assert rows[0][2] != 0


def test_vanishing_rows_diagonal_point():
    rows = vanishing_rows(VanishingCondition((1, 1), 1), 1)
    assert rows == [[1, 1]]


def test_vanishing_rows_double_point_rank_two():
    rows = vanishing_rows(VanishingCondition((1, 1), 2), 2)
    assert rank(rows, 3) == 2
    # the stated row space: P(1,1) = 0 and its X-derivative
    reference = [[1, 1, 1], [2, 1, 0]]
    assert rank(rows + reference, 3) == 2


def test_degenerate_point_rejected():
    with pytest.raises(ValueError):
        VanishingCondition((0, 0), 1)
    with pytest.raises(ValueError):
        vanishing_rows(VanishingCondition((1, 0), 0), 3)


def test_rank_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(314)
    for _ in range(200):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(rows, ncols) == _rank_fraction_elimination(rows, ncols)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(2718)
    for _ in range(100):
        nrows = rng.randint(2, 6)
        ncols = rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        base = rank(rows, ncols)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = []
        for row in shuffled:
            factor = rng.choice([1, 2, 3, -1, -4])
            scaled.append([factor * x for x in row])
        assert rank(scaled, ncols) == base


def test_oracle_triple_examples():
    assert hsum_oracle_triple(TripleIndex(1, 0, 0, 2)) == 1
    assert hsum_oracle_triple(TripleIndex(1, 0, 4, 2)) == 0
    assert hsum_oracle_triple(TripleIndex(3, 1, 0, 2)) == 0


def test_general_position_examples():
    assert general_position_check(TripleIndex(1, 0, 0, 2))
    assert general_position_check(TripleIndex(4, 1, 3, 4))
    assert general_position_check(TripleIndex(2, 0, 6, 2))  # all multiplicities 0


def test_hsum_oracle_known_values():
    assert hsum_oracle(1, 2) == 3
    assert hsum_oracle(2, 2) == 3
    for n in range(1, 4):
        assert hsum_oracle(n, 0) == 0


def test_oracle_equivalence_small_range():
    for n in range(1, 4):
        for m in range(0, 7):
            assert hsum_oracle(n, m) == hsum(n, m)


def test_triplewise_equivalence_and_general_position_small_range():
    for n in range(1, 4):
        for m in range(0, 6):
            for t in admissible_triples(n, m, i_max=(n + 1) * m):
                assert hsum_oracle_triple(t) == hsum_triple(t)
                assert general_position_check(t)
