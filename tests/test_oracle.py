import math
import random
from fractions import Fraction as F

import pytest

from ansing import oracle
from ansing.cli import ORACLE_M_LIMIT, ORACLE_N_LIMIT
from ansing.latticesum import hsum
from ansing.monoblocks import TripleIndex, admissible_triples
from ansing.oracle import (
    _PRIME,
    forms_dim,
    hsum_oracle,
    hsum_oracle_triple,
    _derivative_table,
    rank,
)
from general_position import chart_conditions, general_position_check, hermite_dim
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


def _condition_rows(point, order, m):
    """The rows ``forms_dim`` stacks for vanishing to the order at the point."""
    return [list(row) for row in _derivative_table(point, m)[:order]]


def test_vanishing_rows_coordinate_point():
    rows = _condition_rows((0, 1), 1, 2)
    # single row selecting the coefficient of Y^2
    assert len(rows) == 1
    assert rows[0][0] == rows[0][1] == 0
    assert rows[0][2] != 0


def test_vanishing_rows_diagonal_point():
    rows = _condition_rows((1, 1), 1, 1)
    assert rows == [[1, 1]]


def test_vanishing_rows_double_point_rank_two():
    rows = _condition_rows((1, 1), 2, 2)
    assert rank(rows, 3) == 2
    # the stated row space: P(1,1) = 0 and its X-derivative
    reference = [[1, 1, 1], [2, 1, 0]]
    assert rank(rows + reference, 3) == 2


def _vanishing_rows_direct(point, order, m):
    """One condition's rows built entry by entry, as the t-th derivative."""
    a, b = point
    rows = []
    for t in range(order):
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
                point = (r + 1, r - n)
                assert len(_derivative_table(point, m)) == m + 1
                for order in range(1, m + 2):
                    assert _condition_rows(point, order, m) == _vanishing_rows_direct(point, order, m)
    # past t = m every derivative of a degree-m form vanishes, so the table
    # stops at t = m and an order past m + 1 adds only zero rows
    assert _vanishing_rows_direct((2, -1), 5, 2)[3:] == [[0, 0, 0]] * 2


def test_whole_tables_match_direct_construction_across_the_cli_range():
    # a wrong entry rarely changes a rank (a perturbed full-rank system stays
    # full rank), so the oracle's answers cannot stand in for this check
    for n in range(1, ORACLE_N_LIMIT + 1):
        for m in (11, 16, 23, ORACLE_M_LIMIT):
            for r in range(-1, n + 1):
                point = (r + 1, r - n)
                assert [list(row) for row in _derivative_table(point, m)] == _vanishing_rows_direct(point, m + 1, m)


def _support(row):
    return [col for col, x in enumerate(row) if x]


def test_boundary_rows_are_singletons():
    # row t hits column m - t alone at [0 : -n-1] and column t alone at
    # [n+1 : 0], so rank_ends is a count of columns
    for n in range(1, 9):
        for m in range(0, 21):
            low = _derivative_table((0, -n - 1), m)
            high = _derivative_table((n + 1, 0), m)
            for t in range(m + 1):
                assert _support(low[t]) == [m - t]
                assert _support(high[t]) == [t]


def _distinct_points(rng, count):
    """Pairwise distinct points of the line, as coprime pairs whose first
    nonzero coordinate is positive."""
    points = set()
    while len(points) < count:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if math.gcd(a, b) == 1:
            points.add((a, b) if (a, b) > (0, 0) else (-a, -b))
    return sorted(points)


def test_forms_dim_is_hermite_on_distinct_points():
    # any distinct points, not only the chart points [r+1 : r-n]
    rng = random.Random(1729)
    for _ in range(150):
        m = rng.randint(0, 12)
        points = _distinct_points(rng, rng.randint(1, 6))
        orders = [rng.randint(0, m + 2) for _ in points]
        assert forms_dim(list(zip(points, orders)), m) == hermite_dim(orders, m)


def test_rank_falls_back_when_p_hides_a_pivot():
    p = _PRIME
    assert rank([[p]], 1) == 1
    assert rank([[p, 1], [0, p]], 2) == 2
    # rank 2 over Q, with entries at and around p
    deficient = [[p, p + 1, 1], [p - 1, 2 * p, p + 1], [2 * p - 1, 3 * p + 1, p + 2]]
    assert _rank_fraction_elimination(deficient, 3) == 2
    assert rank(deficient, 3) == 2
    assert rank([[0, 0], [p, 2 * p]], 2) == 1


def _count_bareiss(monkeypatch):
    """Wrap the Bareiss fallback; the returned list grows by one per call."""
    calls = []
    bareiss = oracle._rank_bareiss

    def counted(matrix, ncols):
        calls.append((len(matrix), ncols))
        return bareiss(matrix, ncols)

    monkeypatch.setattr(oracle, "_rank_bareiss", counted)
    return calls


def test_singleton_rows_on_one_column_count_once():
    rows = [[0, 3, 0, 0], [0, -5, 0, 0], [1, 2, 0, 4], [0, 7, 0, 0]]
    assert _rank_fraction_elimination(rows, 4) == 2
    assert rank(rows, 4) == 2


def test_singleton_multiple_of_p_counts_over_z(monkeypatch):
    p = _PRIME
    calls = _count_bareiss(monkeypatch)
    rows = [[0, 3 * p, 0], [1, 1, 1], [-p, 0, 0]]
    assert _rank_fraction_elimination(rows, 3) == 3
    assert rank(rows, 3) == 3
    assert rank([[2 * p, 0]], 2) == 1
    # a singleton is a pivot over Z, whatever its residue: no fallback needed
    assert calls == []


def test_dense_row_vanishing_after_the_singleton_columns_is_dropped():
    rows = [[4, 0, 0, 0], [0, 0, 7, 0], [2, 0, 5, 0], [0, 1, 1, 1]]
    assert _rank_fraction_elimination(rows, 4) == 3
    assert rank(rows, 4) == 3
    assert rank(rows[:3], 4) == 2


def test_remainder_whose_pivot_p_hides_reaches_bareiss(monkeypatch):
    p = _PRIME
    calls = _count_bareiss(monkeypatch)
    # the two dense rows are [p, 0] and [0, p] once column 0 is deleted:
    # zero mod p, rank 2 over Q
    rows = [[7, 0, 0], [5, p, 0], [3, 0, p]]
    assert _rank_fraction_elimination(rows, 3) == 3
    assert rank(rows, 3) == 3
    assert calls == [(2, 2)]


def test_oracle_systems_are_certified_mod_p(monkeypatch):
    # Hermite interpolation on P^1: every stacked system has full rank, so the
    # singleton pass and the modular pass must settle each rank the oracle
    # asks for
    def no_fallback(matrix, ncols):
        raise AssertionError(f"Bareiss fallback on a {len(matrix)}x{ncols} oracle remainder")

    monkeypatch.setattr(oracle, "_rank_bareiss", no_fallback)
    for n in range(1, 9):
        for m in range(0, 9):
            assert hsum_oracle(n, m) == hsum(n, m)
    for t in admissible_triples(3, 6, i_max=24):
        assert general_position_check(t)


def test_degenerate_point_rejected():
    with pytest.raises(ValueError):
        _derivative_table((0, 0), 3)


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


def _rank_gap(conditions, m):
    return forms_dim([conditions[0], conditions[-1]], m) - forms_dim(conditions, m)


def test_oracle_triple_is_the_rank_gap_of_the_chart_systems():
    # one elimination and a column count against two eliminations
    for n in range(1, 9):
        for m in range(0, 15):
            for t in admissible_triples(n, m, n * m - 1):
                assert hsum_oracle_triple(t) == _rank_gap(chart_conditions(t), m)


def test_oracle_triple_counts_rank_ends_on_the_boundary_charts_alone(monkeypatch):
    # orders no block has: interior charts of order past m give singleton
    # rows too, and boundary orders summing past m + 1 share columns
    rng = random.Random(4242)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(0, 10)
        orders = [rng.randint(0, m + 2) for _ in range(n + 2)]
        monkeypatch.setattr(oracle, "chart_codims", lambda t: tuple(orders))
        conditions = [((r + 1, r - n), orders[r + 1]) for r in range(-1, n + 1)]
        assert hsum_oracle_triple(TripleIndex(n, 0, m, m)) == _rank_gap(conditions, m)


def test_non_singleton_boundary_row_raises(monkeypatch):
    monkeypatch.setattr(oracle, "_derivative_table", lambda point, m: ((1,) * (m + 1),) * (m + 1))
    with pytest.raises(ArithmeticError):
        hsum_oracle_triple(TripleIndex(1, 0, 0, 2))
    with pytest.raises(ArithmeticError):
        hsum_oracle(1, 2)


def test_every_boundary_row_is_checked_before_any_block(monkeypatch):
    # only the last row t = m of the [n+1 : 0] table is spoiled; no
    # admissible block reads it (c_-1 + c_n <= m), yet the check sees it,
    # once per call and before any system is stacked
    table = oracle._derivative_table
    tables = []

    def spoiled(point, m):
        tables.append(point)
        rows = table(point, m)
        return rows[:-1] + ((1,) * (m + 1),) if point[1] == 0 else rows

    monkeypatch.setattr(oracle, "_derivative_table", spoiled)
    with pytest.raises(ArithmeticError):
        hsum_oracle(3, 5)
    assert tables == [(0, -4), (4, 0)]


@pytest.mark.parametrize("spoiled_point", ["low", "high"])
def test_boundary_singleton_in_the_wrong_column_raises(monkeypatch, spoiled_point):
    # rows 0 and 1 of one boundary table swapped: every row is still a
    # singleton, so rank_ends would still count columns, but the window of
    # columns the boundary rows leave would be the wrong one
    table = oracle._derivative_table

    def swapped(point, m):
        rows = table(point, m)
        boundary = point[0] == 0 if spoiled_point == "low" else point[1] == 0
        return (rows[1], rows[0]) + rows[2:] if boundary else rows

    monkeypatch.setattr(oracle, "_derivative_table", swapped)
    for n, m in [(1, 2), (3, 5), (6, 9)]:
        assert all(row.count(0) == m for point in [(0, -n - 1), (n + 1, 0)] for row in swapped(point, m))
        with pytest.raises(ArithmeticError):
            hsum_oracle_triple(TripleIndex(n, 0, m, m))
        with pytest.raises(ArithmeticError):
            hsum_oracle(n, m)


def test_hsum_oracle_is_the_sum_of_its_blocks():
    for n in range(1, 9):
        for m in range(0, 11):
            blocks = admissible_triples(n, m, n * m - 1)
            assert hsum_oracle(n, m) == sum(hsum_oracle_triple(t) for t in blocks)


def test_hsum_oracle_ranks_each_distinct_system_once(monkeypatch):
    calls = []
    counted_rank = oracle.rank

    def counted(rows, ncols):
        calls.append(ncols)
        return counted_rank(rows, ncols)

    monkeypatch.setattr(oracle, "rank", counted)
    saved = 0
    for n in range(1, 9):
        for m in range(0, 11):
            blocks = admissible_triples(n, m, n * m - 1)
            systems = [tuple(order for _, order in chart_conditions(t)) for t in blocks]
            nonzero = [orders for orders in systems if any(orders)]
            calls.clear()
            hsum_oracle(n, m)
            assert len(calls) == len(set(nonzero))
            saved += len(nonzero) - len(calls)
    assert saved > 0


def test_rank_over_q_with_zero_rows_and_signed_singletons(monkeypatch):
    p = _PRIME
    calls = _count_bareiss(monkeypatch)
    cases = [
        ([(0, 0, 0), (0, -3, 0), (0, 0, 0)], 3),
        ([(0, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -5 * p), (2, 1, 1, 0), (0, 0, 0, 0)], 4),
        ([(-p, 0), (0, 0), (3 * p, 0), (0, -2)], 2),
        ([(0, 0, 0), (0, 0, 0)], 3),
        ([(0, 7 * p, 0, 0), (1, -1, 0, 0), (0, 0, -1, 1), (0, 0, 0, 0)], 4),
    ]
    for rows, ncols in cases:
        expected = _rank_fraction_elimination(rows, ncols)
        assert rank(rows, ncols) == expected
        as_lists = [list(row) for row in rows]
        assert rank(as_lists, ncols) == expected
        assert as_lists == [list(row) for row in rows]  # rank never writes its rows
    assert rank([], 3) == 0
    assert calls == []
