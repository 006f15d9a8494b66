"""Brute-force oracle for the obstruction counts, by exact linear algebra.

Independently of the closed weight formula, the obstruction dimension of a
block is a gap between two spaces of degree-m binary forms cut out by
point-vanishing conditions.  ``forms_dim(conditions, m)`` is the dimension
of the forms that vanish to each given order at each given point, (m+1)
minus the exact rank of the stacked derivative rows of the points
(``_derivative_table``).  Chart r contributes order codim_reg(t, r) at the
point [r+1 : r-n] of the projective line; the points for r = -1..n are
pairwise distinct.  The regular part of the block is cut out by the two
boundary charts r in {-1, n}, of rank rank_ends, and the unobstructed part
by all n + 2 charts, so

    oracle dimension = (m+1) - rank_ends - forms_dim(all charts, m).

rank_ends takes no elimination.  At [0 : -n-1] the t-th derivative row has
one nonzero entry, in column m - t, and at [n+1 : 0] one, in column t; rows
past t = m are zero.  Singleton rows span the coordinate subspace of their
columns, so rank_ends is the number of distinct columns they hit: the first
c_-1 = codim_reg(t, -1) rows at [0 : -n-1] hit the columns from m+1-c_-1 up,
and the first c_n rows at [n+1 : 0] the columns below c_n.

The same singleton rows settle most of the other side.  The rank of all
charts is rank_ends plus the rank of the interior rows (charts r = 0..n-1)
with the boundary columns deleted, so the two rank_ends cancel and

    oracle dimension = rank of the interior rows on the window [c_n, m+1-c_-1),

the columns the boundary rows leave (structured Gaussian elimination: the
singleton rows are removed once, and only the remainder is eliminated).  On
an admissible block the window is never empty: with
c_r = codim_reg(t, r) = max(0, -i1(r)), i1(-1) + i1(n) = i - m, and
admissibility, (n+1)|khat| <= i + m, gives i1(r) >= -m at both ends.  So
c_-1 + c_n <= m (both positive: the sum is m - i; else one is 0 and the
other at most m).  Orders whose boundary columns cover all m + 1 leave an
empty window and dimension 0.  The window is only right if every boundary
row sits in its column, so each call checks the rows of both boundary tables
once, before any system is ranked, and raises ArithmeticError otherwise.

Within one (n, m) the points and m are the same for every block, so a
block's dimension is fixed by its tuple of n + 2 chart orders
(``monoblocks.chart_codims``).  ``hsum_oracle`` ranks each distinct nonzero
tuple once, keeping the dimensions in a dict local to the call.  No system is
skipped on the strength of an argument: every distinct one is ranked.

Ranks are computed, never assumed, and are exact over Q: ``rank`` takes the
singleton rows as pivots over Z and certifies the rank of the remainder mod
p, with a Bareiss fallback.  By Hermite interpolation on P^1 every system of
distinct points has full rank, and so has what is left of it once the
singleton columns are deleted: on the oracle's windows the certificate holds
unless p divides a maximal minor.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from itertools import compress

from .monoblocks import TripleIndex, admissible_triples, chart_codims, codim_reg


# The largest prime below 2^30: residues are one-digit CPython ints, which
# multiply and reduce on the interpreter's fast paths.  An unlucky p costs
# time, never correctness: p dividing a maximal minor only sends the rank to
# Bareiss.
_PRIME = 2**30 - 35


def forms_dim(conditions: list[tuple[tuple[int, int], int]], m: int) -> int:
    """Dimension of the degree-m binary forms that vanish to each order at
    its point, for conditions ((a, b), order); order 0 imposes nothing.

    The rows are the cached table rows themselves, not copies: ``rank`` does
    not mutate its input, and the zero rows past t = m add nothing to it.
    """
    rows = []
    for point, order in conditions:
        if order:
            rows += _derivative_table(point, m)[:order]
    return m + 1 - rank(rows, m + 1)


@functools.lru_cache(maxsize=256)
def _derivative_table(point: tuple[int, int], m: int) -> tuple[tuple[int, ...], ...]:
    """All m+1 derivative rows t = 0..m of the point [a : b] in degree m.

    Row t is the t-th derivative of P = sum p_l X^(m-l) Y^l along a fixed
    direction transversal to [a : b], evaluated at (a, b), as a linear form in
    the m+1 coefficients; the first `order` rows are the conditions for
    vanishing to that order.  Rows past t = m would be zero.

    With b != 0 the direction is (1, 0), and entry l of row t is
    e(e-1)..(e-t+1) a^(e-t) b^l with e = m - l, zero for t > e.  At [1 : 0]
    the direction is (0, 1), which gives the same rows with a and b swapped
    and the columns reversed.  The falling factorials are carried from row
    to row, so the table takes O(m^2) multiplications.
    """
    if point == (0, 0):
        raise ValueError("degenerate point (0, 0)")
    a, b = point
    mirrored = b == 0
    if mirrored:
        a, b = b, a
    a_powers, b_powers = [1], [1]
    for _ in range(m):
        a_powers.append(a_powers[-1] * a)
        b_powers.append(b_powers[-1] * b)
    falling = [1] * (m + 1)  # falling[e] = e(e-1)..(e-t+1) for the current t
    table = []
    for t in range(m + 1):
        row = [0] * (m + 1)
        for l in range(m + 1 - t):
            e = m - l
            row[l] = falling[e] * a_powers[e - t] * b_powers[l]
            falling[e] *= e - t
        if mirrored:
            row.reverse()
        table.append(tuple(row))
    return tuple(table)


def rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank over Q of an integer matrix, given as a sequence of rows of
    length ncols, in two stages; the rows are not mutated.

    1. Singleton pass over Z.  A row with exactly one nonzero entry is a
       pivot on that column: each such column is counted once, its rows are
       dropped, and the column is deleted from every other row; rows that are
       zero after the deletion are dropped too.  The singleton rows span the
       coordinate subspace of their columns, so the rank is the number of
       those columns plus the rank of what is left.  That holds over any
       field in which the singleton entries are nonzero, so over Q it holds
       for every nonzero integer entry, a multiple of p included.
    2. Certificate on the remainder.  The rest is eliminated over F_p for the
       fixed prime p = 2^30 - 35.  A minor that is nonzero mod p is nonzero
       over Z, so rank_p <= rank_Q <= min(rows left, columns left); when
       rank_p reaches that bound it is the rank.  Otherwise p may have hidden
       a pivot, and the remainder's rank is recomputed by fraction-free
       Gaussian elimination (Bareiss) over Z.
    """
    pivots: set[int] = set()
    dense = []
    for row in rows:
        zeros = row.count(0)
        if zeros == ncols - 1:
            pivots.add(next(compress(range(ncols), row)))
        elif zeros < ncols:
            dense.append(row)
    if pivots:
        keep = [col not in pivots for col in range(ncols)]
        matrix = [kept for kept in (list(compress(row, keep)) for row in dense) if any(kept)]
    else:
        matrix = dense
    left = ncols - len(pivots)
    bound = min(len(matrix), left)
    if _rank_mod_p(matrix, left) == bound:
        return len(pivots) + bound
    return len(pivots) + _rank_bareiss(matrix, left)


def _rank_mod_p(matrix: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank over F_p of the integer matrix reduced mod p."""
    p = _PRIME
    reduced = [[x % p for x in row] for row in matrix]
    nrows = len(reduced)
    found = 0
    for col in range(ncols):
        pivot = None
        for r in range(found, nrows):
            if reduced[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        reduced[found], reduced[pivot] = reduced[pivot], reduced[found]
        row_p = reduced[found]
        inverse = pow(row_p[col], -1, p)
        row_p = [x * inverse % p for x in row_p[col + 1 :]]
        for r in range(found + 1, nrows):
            row_r = reduced[r]
            factor = row_r[col]
            if factor:
                tail = [(x - factor * y) % p for x, y in zip(row_r[col + 1 :], row_p)]
                row_r[col + 1 :] = tail
        found += 1
    return found


def _rank_bareiss(matrix: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank by fraction-free Gaussian elimination (Bareiss) over Z.

    Entries stay integral: every intermediate entry is a minor of the input
    matrix, so the division by the previous pivot is exact.
    """
    matrix = [list(row) for row in matrix]
    nrows = len(matrix)
    pivot_row = 0
    prev_pivot = 1
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        pivot = None
        for r in range(pivot_row, nrows):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        lead = matrix[pivot_row][col]
        row_p = matrix[pivot_row]
        for r in range(pivot_row + 1, nrows):
            # the update must touch every row below the pivot, including rows
            # with a zero in the pivot column, or later divisions go inexact
            entry = matrix[r][col]
            row_r = matrix[r]
            for c in range(col + 1, ncols):
                quotient, remainder = divmod(lead * row_r[c] - entry * row_p[c], prev_pivot)
                if remainder:
                    raise ArithmeticError("inexact division in fraction-free elimination")
                row_r[c] = quotient
            row_r[col] = 0
        prev_pivot = lead
        pivot_row += 1
    return pivot_row


def _chart_points(n: int) -> list[tuple[int, int]]:
    """The point [r+1 : r-n] of chart r, for r = -1..n."""
    return [(r + 1, r - n) for r in range(-1, n + 1)]


def _check_boundary_columns(n: int, m: int) -> None:
    """Check that derivative row t = 0..m has one nonzero entry, in column
    m - t at [0 : -n-1] and in column t at [n+1 : 0].

    A row that does not raises ArithmeticError: rank_ends is then no column
    count, and the window of ``_system_dim`` holds the wrong columns.
    """
    low = _derivative_table((0, -n - 1), m)
    high = _derivative_table((n + 1, 0), m)
    for t in range(m + 1):
        for point, row, column in (((0, -n - 1), low[t], m - t), ((n + 1, 0), high[t], t)):
            if row.count(0) != m or not row[column]:
                raise ArithmeticError(f"boundary row {t} at {point} is not a singleton in column {column}: {row}")


def _system_dim(tables: list[tuple[tuple[int, ...], ...]], orders: tuple[int, ...], m: int) -> int:
    """(m+1) - rank_ends - forms_dim of the charts with the given orders.

    That is the rank of the interior charts' rows, whose derivative tables
    are given, on the window of columns [orders[-1], m+1-orders[0]) that the
    boundary rows leave; the boundary rows must have been checked
    (``_check_boundary_columns``).  Rows past t = m are zero.
    """
    if not any(orders):
        return 0
    low = orders[-1]
    high = max(low, m + 1 - orders[0])
    rows = [row[low:high] for table, order in zip(tables, orders[1:-1]) for row in table[:order]]
    return rank(rows, high - low)


def _interior_tables(n: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Check the boundary rows, then the derivative tables of charts 0..n-1."""
    _check_boundary_columns(n, m)
    return [_derivative_table(point, m) for point in _chart_points(n)[1:-1]]


def hsum_oracle_triple(t: TripleIndex) -> int:
    """Obstruction dimension of one block: (m+1) - rank_ends - forms_dim of
    all n + 2 charts, as the rank of the interior rows on the window."""
    n, m = t.n, t.m
    orders = tuple(codim_reg(t, r) for r in range(-1, n + 1))
    return _system_dim(_interior_tables(n, m), orders, m)


def hsum_oracle(n: int, m: int) -> int:
    """Brute-force obstruction count: blockwise rank gaps, summed.

    Scans the block range 0 <= i <= n*m - 1; blocks beyond it extend
    holomorphically and contribute nothing (the formula-side enumeration
    covers a superset, so a discrepancy there would surface as a mismatch).
    Blocks with the same chart orders stack the same system, so each
    distinct system is ranked once per call.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    tables = _interior_tables(n, m)
    dims: dict[tuple[int, ...], int] = {}
    total = 0
    for t in admissible_triples(n, m, n * m - 1):
        orders = chart_codims(t)
        dim = dims.get(orders)
        if dim is None:
            dim = dims[orders] = _system_dim(tables, orders, m)
        total += dim
    return total
