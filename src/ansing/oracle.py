"""Brute-force oracle for the obstruction counts, by exact linear algebra.

Independently of the closed weight formula, the obstruction dimension of a
block is a gap between two spaces of degree-m binary forms cut out by
point-vanishing conditions.  The forms that vanish to each given order at
each given point have dimension (m+1) minus the exact rank of the stacked
derivative rows of the points, the first `order` rows of each point's
``_derivative_table``.  Chart r contributes order codim_reg(t, r) at the
point [r+1 : r-n] of the projective line; the points for r = -1..n are
pairwise distinct.  The regular part of the block is cut out by the two
boundary charts r in {-1, n}, of rank rank_ends, and the unobstructed part
by all n + 2 charts, of rank rank_all, so

    oracle dimension = rank_all - rank_ends.

rank_ends takes no elimination.  At [0 : -n-1] the t-th derivative row has
one nonzero entry, in column m - t, and at [n+1 : 0] one, in column t; rows
past t = m are zero.  Singleton rows span the coordinate subspace of their
columns, so rank_ends is the number of distinct columns they hit: the first
c_-1 = codim_reg(t, -1) rows at [0 : -n-1] hit the columns from m+1-c_-1 up,
and the first c_n rows at [n+1 : 0] the columns below c_n.

The same singleton rows settle most of rank_all: it is rank_ends plus the
rank of the interior rows (charts r = 0..n-1) with the boundary columns
deleted, so the two rank_ends cancel and

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

Every rank is taken by one eliminator over F_p, for the fixed prime
p = 2^30 - 35: ``_insert`` reduces a row mod p against an echelon basis and
adds what is left.  A minor that is nonzero mod p is nonzero over Z, so
rank_p <= rank over Q <= min(nonzero rows, columns); when rank_p reaches
that bound it is the rank, and otherwise p may have hidden a pivot and the
rows are ranked again by fraction-free Bareiss elimination over Z.

Within one (n, m) the points and m are the same for every block, so a
block's dimension is fixed by its tuple of n + 2 chart orders.
``monoblocks.chart_codim_counts`` gives each distinct tuple with its number
of blocks, from the integer block loop, and ``hsum_oracle`` ranks each
distinct nonzero tuple once and weights it by that number.  No system is
skipped on the strength of an argument: every distinct one gets its own
rank certificate.

The systems of one window share one echelon basis; each interior table is
reduced mod p once per call.  A window's tuples are taken by increasing
interior row count, and each inserts only the rows it adds to the tuple
before it: on chart r, rows c'_r..c_r - 1, for the previous tuple's c'_r.
Its rank_p is the size of the basis after those rows, and once the basis
spans the window nothing more is inserted.  A tuple whose certificate fails
sends its integer rows to ``rank``, which builds a basis of its own.
``hsum_oracle_triple`` ranks its one block with ``rank`` directly, with no
sharing, sorting or restart, so it is an independent reference for the
shared basis.

Inserting only the new rows is right when each tuple of a window contains
the one before it, c_r >= c'_r on every chart, and on blocks it always does.
The window fixes both boundary orders, c_n = low and c_-1 = m + 1 - high
(the two sum to at most m, so high > low).  The chart order is affine in r,
i1(r) = i1(n) + (n - r) khat.  With a pole at both ends, i1(-1) = -c_-1 and
i1(n) = -c_n fix it, and the window holds one tuple.  With a pole at chart n
only, i1(n) = -c_n < 0 <= i1(-1) = -c_n + (n + 1) khat, so khat > 0 and
every c_r = max(0, c_n - (n - r) khat) is non-increasing in khat: the
window's tuples form one chain under containment, and distinct tuples of a
chain have distinct row counts, so the sort takes them up the chain.  A pole
at chart -1 only is the mirror image, with khat < 0 and |khat| in its place,
and with no pole at either end every order is 0, a tuple never ranked.
``hsum_oracle`` still compares each tuple with the one before it and, should
one not contain it, clears the basis and starts again from that tuple's rows,
so the count never rests on this argument.

By Hermite interpolation on P^1 every system of distinct points has full
rank, and so has what is left of it once the boundary columns are deleted:
on the oracle's windows the certificate holds unless p divides a maximal
minor, which costs time, never correctness.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence

from .monoblocks import TripleIndex, chart_codim_counts, chart_codims


# The largest prime below 2^30: residues are one-digit CPython ints, which
# multiply and reduce on the interpreter's fast paths.  An unlucky p costs
# time, never correctness: p dividing a maximal minor only sends the rank to
# Bareiss.
_PRIME = 2**30 - 35


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


def _insert(basis: list[tuple[int, list[int]]], row: list[int], p: int) -> None:
    """Reduce a row mod p against an echelon basis and add what is left.

    Each basis entry is (pivot column, row with 1 there), and each row is
    zero on the pivot columns of the rows added before it, so one pass in
    the order of insertion clears every pivot column of the new row.
    """
    for col, pivot_row in basis:
        factor = row[col]
        if factor:
            row = [(x - factor * y) % p for x, y in zip(row, pivot_row)]
    for col, x in enumerate(row):
        if x:
            inverse = pow(x, -1, p)
            basis.append((col, [y * inverse % p for y in row]))
            return


def rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank over Q of an integer matrix, given as a sequence of rows of
    length ncols; the rows are not mutated.

    The nonzero rows are reduced mod the fixed prime p = 2^30 - 35 into a
    fresh ``_insert`` basis, until it holds min(nonzero rows, ncols) rows.
    A minor that is nonzero mod p is nonzero over Z, so
    rank_p <= rank_Q <= min(nonzero rows, ncols), and when rank_p reaches
    that bound it is the rank.  Otherwise p may have hidden a pivot, and the
    nonzero rows are ranked by fraction-free Gaussian elimination (Bareiss)
    over Z.
    """
    matrix = [row for row in rows if any(row)]
    bound = min(len(matrix), ncols)
    p = _PRIME
    basis: list[tuple[int, list[int]]] = []
    for row in matrix:
        if len(basis) == bound:
            break
        _insert(basis, [x % p for x in row], p)
    if len(basis) == bound:
        return bound
    return _rank_bareiss(matrix, ncols)


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


def _window(orders: tuple[int, ...], m: int) -> tuple[int, int]:
    """The columns [orders[-1], m+1-orders[0]) the boundary rows leave,
    empty when the two boundary orders cover all m + 1."""
    low = orders[-1]
    return low, max(low, m + 1 - orders[0])


def _system_dim(tables: list[tuple[tuple[int, ...], ...]], orders: tuple[int, ...], m: int) -> int:
    """rank_all - rank_ends of the charts with the given orders.

    That is the rank of the interior charts' rows, whose derivative tables
    are given, on the window of columns [orders[-1], m+1-orders[0]) that the
    boundary rows leave; the boundary rows must have been checked
    (``_check_boundary_columns``).  Rows past t = m are zero.
    """
    if not any(orders):
        return 0
    low, high = _window(orders, m)
    rows = [row[low:high] for table, order in zip(tables, orders[1:-1]) for row in table[:order]]
    return rank(rows, high - low)


def _interior_tables(n: int, m: int) -> list[tuple[tuple[int, ...], ...]]:
    """Check the boundary rows, then the derivative tables of charts 0..n-1."""
    _check_boundary_columns(n, m)
    return [_derivative_table(point, m) for point in _chart_points(n)[1:-1]]


def hsum_oracle_triple(t: TripleIndex) -> int:
    """Obstruction dimension of one block: rank_all - rank_ends of its
    n + 2 charts, as the rank of the interior rows on the window."""
    return _system_dim(_interior_tables(t.n, t.m), chart_codims(t), t.m)


def _certified(tables: list[tuple[tuple[int, ...], ...]], orders: tuple[int, ...], rows: int, rank_p: int, m: int) -> int:
    """The rank over Q of the system of the given orders, whose rows have
    rank rank_p over F_p; rows is at least their number (the sum of the
    interior orders, which counts a row past t = m that the table lacks).

    rank_p <= rank over Q <= min(rows, columns), so rank_p is the rank when
    it reaches that bound; otherwise the system is ranked over Z as
    ``hsum_oracle_triple`` ranks a block (``_system_dim``).
    """
    low, high = _window(orders, m)
    if rank_p == min(rows, high - low):
        return rank_p
    return _system_dim(tables, orders, m)


def hsum_oracle(n: int, m: int) -> int:
    """Brute-force obstruction count: blockwise rank gaps, summed.

    Scans the block range 0 <= i <= n*m - 1; blocks beyond it extend
    holomorphically and contribute nothing (the formula-side enumeration
    covers a superset, so a discrepancy there would surface as a mismatch).
    Each distinct nonzero chart-order tuple is ranked once and counted by
    its number of blocks.  The tuples of one window share one echelon basis
    mod p, taken in the order of their interior row counts, and each adds
    the rows it has beyond the tuple before it; once the basis spans the
    window nothing more is added.  A tuple that does not contain the one
    before it on every chart clears the basis and starts it again from its
    own rows; on blocks that never happens (module docstring).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    tables = _interior_tables(n, m)
    counts = chart_codim_counts(n, m, n * m - 1)
    windows: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
    for orders in counts:
        if any(orders):
            windows.setdefault(_window(orders, m), []).append((sum(orders[1:-1]), orders))
    p = _PRIME
    reduced = [[[x % p for x in row] for row in table] for table in tables]
    total = 0
    for (low, high), systems in windows.items():
        systems.sort()
        basis: list[tuple[int, list[int]]] = []
        done = (0,) * n
        for rows, orders in systems:
            interior = orders[1:-1]
            if any(map(operator.lt, interior, done)):
                basis.clear()
                done = (0,) * n
            for table, start, stop in zip(reduced, done, interior):
                for row in table[start:stop]:
                    if len(basis) == high - low:
                        break
                    _insert(basis, row[low:high], p)
            done = interior
            total += counts[orders] * _certified(tables, orders, rows, len(basis), m)
    return total
