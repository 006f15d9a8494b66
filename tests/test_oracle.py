import math
import random
from fractions import Fraction as F

import pytest

from ansing import oracle
from ansing.latticesum import hsum
from ansing.monoblocks import TripleIndex, admissible_triples
from ansing.oracle import (
    _PRIME,
    VanishingCondition,
    hsum_oracle,
    hsum_oracle_triple,
    rank,
    vanishing_rows,
)
from general_position import general_position_check
from lattice_oracle import hsum_triple


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


def _vanishing_rows_direct(cond, m):
    """One condition's rows built entry by entry, as the t-th derivative."""
    a, b = cond.point
    rows = []
    for t in range(cond.multiplicity):
        row = [0] * (m + 1)
        for l in range(m + 1):
            if b != 0:
                e = m - l
                if t <= e:
                    row[l] = math.perm(e, t) * a ** (e - t) * b**l
            elif t <= l:
                row[l] = math.perm(l, t) * a ** (m - l) * b ** (l - t)
        rows.append(row)
    return rows


def test_vanishing_rows_match_direct_construction():
    for n in range(1, 5):
        for r in range(-1, n + 1):
            for m in range(0, 11):
                for multiplicity in range(1, m + 2):
                    cond = VanishingCondition((r + 1, r - n), multiplicity)
                    assert vanishing_rows(cond, m) == _vanishing_rows_direct(cond, m)
    # past t = m every derivative of a degree-m form vanishes
    cond = VanishingCondition((2, -1), 5)
    assert vanishing_rows(cond, 2) == _vanishing_rows_direct(cond, 2)


def test_vanishing_rows_are_fresh_lists():
    cond = VanishingCondition((3, -2), 3)
    first = vanishing_rows(cond, 6)
    expected = [list(row) for row in first]
    first[0][0] = 999
    first[1].append(7)
    first.append([1] * 7)
    assert vanishing_rows(cond, 6) == expected


def test_rank_falls_back_when_p_hides_a_pivot():
    p = _PRIME
    assert rank([[p]], 1) == 1
    assert rank([[p, 1], [0, p]], 2) == 2
    # rank 2 over Q, with entries at and around p
    deficient = [[p, p + 1, 1], [p - 1, 2 * p, p + 1], [2 * p - 1, 3 * p + 1, p + 2]]
    assert _rank_fraction_elimination(deficient, 3) == 2
    assert rank(deficient, 3) == 2
    assert rank([[0, 0], [p, 2 * p]], 2) == 1


def test_oracle_systems_are_certified_mod_p(monkeypatch):
    # Hermite interpolation on P^1: every stacked system has full rank, so the
    # modular pass alone must settle each rank the oracle asks for
    def no_fallback(matrix, ncols):
        raise AssertionError(f"Bareiss fallback on a {len(matrix)}x{ncols} oracle system")

    monkeypatch.setattr(oracle, "_rank_bareiss", no_fallback)
    for n in range(1, 4):
        for m in range(0, 9):
            assert hsum_oracle(n, m) == hsum(n, m)
    for t in admissible_triples(3, 6, i_max=24):
        assert general_position_check(t)


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
