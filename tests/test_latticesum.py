import random
from fractions import Fraction

import pytest

from ansing import cli
from ansing.latticesum import HSUM_CACHE_SIZE, hsum, polygon
from ansing.monoblocks import TripleIndex, admissible_triples
from ansing.quasifit import fit
from lattice_oracle import (
    contains,
    hsum_bisection,
    hsum_pointwise,
    hsum_rows,
    hsum_triple,
    hsum_via_triples,
    lattice_points,
    weight,
)


def test_weight_examples():
    assert weight(1, 2, (0, 0)) == 1
    assert weight(1, 2, (2, 0)) == 0
    assert weight(3, 6, (2, 0)) == 3
    assert weight(1, 2, (0, 1)) == 1


def test_weight_even_in_x2():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = rng.randint(0, 12)
        x1 = rng.randint(0, 3 * m + 4)
        x2 = rng.randint(-m - 2, m + 2)
        assert weight(n, m, (x1, x2)) == weight(n, m, (x1, -x2))


def test_weight_zero_at_large_order():
    for n in range(1, 5):
        for m in range(0, 11):
            for x1 in range(n * m, n * m + 2 * n + 3):
                for x2 in range(-(m + 2), m + 3):
                    assert weight(n, m, (x1, x2)) == 0


def test_weight_zero_on_parity_failure():
    assert weight(1, 2, (1, 0)) == 0
    assert weight(2, 2, (1, 0)) == 0
    assert weight(2, 2, (0, 1)) == 0


def test_weight_positive_set_n1_m2():
    positive = [
        p for p in lattice_points(1, 2) if p[1] >= 0 and weight(1, 2, p) > 0
    ]
    assert positive == [(0, 0), (0, 1)]


def test_polygon_membership():
    poly = polygon(2, 4)
    assert contains(poly, (0, 0))
    # closed under reflection
    rng = random.Random(11)
    for _ in range(200):
        p = (rng.randint(-2, 14), rng.randint(-8, 8))
        assert contains(poly, p) == contains(poly, (p[0], -p[1]))


def test_lattice_points_enumeration_is_exact_and_ordered():
    for n in (1, 2, 3):
        for m in (0, 1, 4):
            poly = polygon(n, m)
            points = list(lattice_points(n, m))
            assert points == sorted(points, key=lambda p: (p[1], p[0]))
            assert len(set(points)) == len(points)
            # brute-force membership over a covering box
            box = [
                (x1, x2)
                for x2 in range(-2 * m - 6, 2 * m + 7)
                for x1 in range(-3, (n + 1) * m + n + 6)
            ]
            expected = {p for p in box if contains(poly, p)}
            assert set(points) == expected


def test_hsum_known_values():
    assert hsum(2, 2) == 3
    assert hsum(2, 6) == 44
    assert hsum(1, 2) == 3
    for n in range(1, 5):
        assert hsum(n, 0) == 0
    assert hsum(1, 1) == 0
    assert hsum(2, 1) == 0


def test_hsum_example1_small_values():
    # branch table evaluated at m = 0..6
    assert [hsum(2, m) for m in range(7)] == [0, 0, 3, 8, 15, 28, 44]


def test_hsum_triple_examples():
    assert hsum_triple(TripleIndex(1, 0, 0, 2)) == 1
    assert hsum_triple(TripleIndex(1, 0, 0, 4)) == 1
    assert hsum_triple(TripleIndex(1, 1, 2, 2)) == 0


def test_hsum_triple_matches_weight():
    for t in admissible_triples(3, 5):
        assert hsum_triple(t) == weight(t.n, t.m, (t.i, t.khat))


def test_hsum_agrees_with_triple_route():
    for n in range(1, 5):
        for m in range(0, 11):
            assert hsum(n, m) == hsum_via_triples(n, m)


def test_hsum_agrees_with_plain_point_enumeration():
    for n in range(1, 5):
        for m in range(0, 11):
            direct = sum(weight(n, m, p) for p in lattice_points(n, m))
            assert hsum(n, m) == direct


def test_hsum_nonnegative():
    for n in range(1, 6):
        for m in range(0, 9):
            assert hsum(n, m) >= 0


def test_input_validation():
    with pytest.raises(ValueError):
        hsum(0, 2)
    with pytest.raises(ValueError):
        hsum(1, -1)
    with pytest.raises(ValueError):
        polygon(1, -2)


def test_row_sums_match_pointwise_walk_on_grid():
    mismatches = [
        (n, m)
        for n in range(1, 13)
        for m in range(0, 61)
        if hsum(n, m) != hsum_pointwise(n, m)
    ]
    assert mismatches == []


@pytest.mark.parametrize("n, m", [(1, 400), (2, 300), (8, 320), (20, 200), (30, 100)])
def test_row_sums_match_pointwise_walk_at_large_points(n, m):
    assert hsum(n, m) == hsum_pointwise(n, m)


def test_row_sums_match_pointwise_walk_on_edges():
    for n in range(1, 41):
        for m in (0, 1):
            assert hsum(n, m) == hsum_pointwise(n, m)
    for m in range(61, 101):
        assert hsum(1, m) == hsum_pointwise(1, m)


def test_hsum_matches_bisection_on_grid():
    mismatches = [
        (n, m)
        for n in range(1, 25)
        for m in range(0, 120)
        if hsum(n, m) != hsum_bisection(n, m)
    ]
    assert mismatches == []


@pytest.mark.parametrize(
    "n, m",
    [(1, 5000), (2, 3000), (8, 2000), (30, 1000), (3, 2000), (200, 1500), (10**9, 400)],
)
def test_hsum_matches_bisection_at_large_points(n, m):
    # beyond the pointwise walk's reach; n = 10**9 leaves c capped by m alone
    assert hsum(n, m) == hsum_bisection(n, m)


def test_hsum_follows_its_quasi_polynomial_far_beyond_the_oracles():
    # fitted on m < 72, where the oracles check hsum, then read at m ~ 20000
    for n in (1, 2):
        samples = tuple((m, Fraction(hsum(n, m))) for m in range(72))
        qp = fit(samples, 3, 12)
        for m in range(20000, 20000 + qp.period):
            assert hsum(n, m) == qp.evaluate(m)
        # and at the CLI's --m bound, far past hsum_rows' reach in tier-1
        for m in range(10**6 - qp.period, 10**6 + 1):
            assert hsum(n, m) == qp.evaluate(m)


def test_hsum_cache_is_bounded():
    assert hsum.cache_info().maxsize == HSUM_CACHE_SIZE
    # one fit or sweep at the CLI's --m-to bound stays in the cache whole
    assert HSUM_CACHE_SIZE > cli.M_TO_LIMIT + 1
    hsum.cache_clear()
    try:
        for n in range(1, HSUM_CACHE_SIZE + 11):
            hsum(n, 0)
        assert hsum.cache_info().currsize == HSUM_CACHE_SIZE
    finally:
        hsum.cache_clear()


def test_hsum_equals_row_by_row_sum_on_grid():
    mismatches = [
        (n, m)
        for n in range(1, 41)
        for m in range(0, 241)
        if hsum(n, m) != hsum_rows(n, m)
    ]
    assert mismatches == []


def test_hsum_equals_row_by_row_sum_around_the_span_m_plus_2_row():
    # the row with (n+1)a = m + 2 exists only when (n+1) | (m+2); past the
    # grid above, take the first three such m for each n and the m after each
    mismatches = [
        (n, m)
        for n in range(1, 41)
        for first in [240 + (-242) % (n + 1) + (n + 1) * i for i in range(3)]
        for m in (first, first + 1)
        if hsum(n, m) != hsum_rows(n, m)
    ]
    assert mismatches == []


def _sides(n, m):
    """(c, side, rows, period) for each side of each run of constant c, as
    hsum's docstring defines them: side 0 holds the rows with
    (n+1)a <= m + 1, side 1 the rows after them."""
    lower = (m + 1) // (n + 1)
    first = 1
    c = n + 1
    while c * (c + 1) // 2 > m + 1:
        c -= 1
    for c in range(c, 0, -1):
        last = (m + 1) // (c * (c + 1) // 2)
        period = c + 1 if c % 2 else 2 * (c + 1)
        for side, lo, hi in ((0, first, min(last, lower)), (1, max(first, lower + 1), last)):
            if hi >= lo:
                yield c, side, hi - lo + 1, period
        first = max(first, last + 1)


def test_hsum_equals_row_by_row_sum_on_both_sides_of_the_closed_form_rule():
    # the closed form reads three rows of every class, and a side takes it
    # once it holds 6L rows: sides whose classes all hold 2 or 3 rows, and
    # sides one row short of the rule, at it and one past it
    sizes = {"2L": (2, 0), "3L": (3, 0), "6L-1": (6, -1), "6L": (6, 0), "6L+1": (6, 1)}
    wanted = {(side, rows): [] for side in (0, 1) for rows in sizes}
    for n in range(1, 9):
        for m in range(0, 500):
            for c, side, count, period in _sides(n, m):
                for rows, (classes, plus) in sizes.items():
                    if count == classes * period + plus:
                        wanted[side, rows].append((n, m))
    assert all(len(points) >= 3 for points in wanted.values()), wanted
    mismatches = [
        (n, m)
        for points in wanted.values()
        for n, m in points[:20]
        if hsum(n, m) != hsum_rows(n, m)
    ]
    assert mismatches == []
