"""Brute-force oracle for the obstruction counts, by exact linear algebra.

Independently of the closed weight formula, the obstruction dimension of a
block is the rank gap between two systems of point-vanishing conditions on
degree-m binary forms.  Chart r contributes vanishing to order
codim_reg(t, r) at the point [r+1 : r-n] of the projective line; the points
for r = -1..n are pairwise distinct.  Writing rank_all for the stacked
system over all charts and rank_ends for the system of the two boundary
charts r in {-1, n}:

    oracle dimension = rank_all - rank_ends

since the regular part of the block has dimension (m+1) - rank_ends and the
unobstructed subspace has dimension (m+1) - rank_all.  Ranks are computed,
never assumed, and are exact over Q, in two stages.  First a singleton pass
over Z: a row with one nonzero entry is a pivot on its column, so each such
column counts once and is deleted from the other rows, and the rank is their
number plus the rank of what is left.  At the boundary points [0 : -n-1]
and [n+1 : 0] every nonzero derivative row is a singleton, so this pass
settles rank_ends outright and takes those columns out of rank_all.  Then
the remainder is eliminated over the prime field F_p: a minor that is
nonzero mod p is nonzero over Z, so rank_p <= rank_Q <= min(rows, cols) of
the remainder, and rank_p reaching that bound certifies its rational rank.
Only a remainder whose rank falls short of the bound is recomputed by
fraction-free (Bareiss) elimination over the integers.  By Hermite
interpolation on P^1 every system the oracle stacks has full rank, so on
its own matrices the certificate holds unless p divides a maximal minor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .monoblocks import TripleIndex, admissible_triples, codim_reg


@dataclass(frozen=True)
class VanishingCondition:
    """Vanishing to the given order at the point [a : b] of the line."""

    point: tuple[int, int]
    multiplicity: int

    def __post_init__(self) -> None:
        if self.point == (0, 0):
            raise ValueError("degenerate point (0, 0)")
        if self.multiplicity < 0:
            raise ValueError("multiplicity must be >= 0")


# The largest prime below 2^30: residues are one-digit CPython ints, which
# multiply and reduce on the interpreter's fast paths.  An unlucky p costs
# time, never correctness: p dividing a maximal minor only sends the rank to
# Bareiss.
_PRIME = 2**30 - 35


def vanishing_rows(cond: VanishingCondition, m: int) -> list[list[int]]:
    """Linear conditions on the m+1 coefficients of P = sum p_l X^(m-l) Y^l.

    Row t is the t-th derivative of P along a fixed direction transversal to
    [a : b], evaluated at (a, b), for t = 0..multiplicity-1; rows past t = m
    are zero.  Any row set with the same row space is acceptable; only the
    rank matters.  The rows are fresh lists, so callers may mutate them.
    """
    if cond.multiplicity < 1:
        raise ValueError("need multiplicity >= 1")
    table = _derivative_table(cond.point, m)
    rows = [list(row) for row in table[: cond.multiplicity]]
    rows.extend([0] * (m + 1) for _ in range(cond.multiplicity - len(table)))
    return rows


@functools.lru_cache(maxsize=256)
def _derivative_table(point: tuple[int, int], m: int) -> tuple[tuple[int, ...], ...]:
    """All m+1 derivative rows t = 0..m of the point [a : b] in degree m."""
    a, b = point
    table = []
    for t in range(m + 1):
        row = [0] * (m + 1)
        for l in range(m + 1):
            if b != 0:
                # direction (1, 0): d^t/dX^t of X^(m-l) Y^l at (a, b)
                e = m - l
                if t > e:
                    continue
                falling = 1
                for s in range(t):
                    falling *= e - s
                row[l] = falling * a ** (e - t) * b**l
            else:
                # point [1 : 0]; use direction (0, 1) instead
                if t > l:
                    continue
                falling = 1
                for s in range(t):
                    falling *= l - s
                row[l] = falling * a ** (m - l) * b ** (l - t)
        table.append(tuple(row))
    return tuple(table)


def rank(rows: list[list[int]], ncols: int) -> int:
    """Exact rank over Q of an integer matrix, in two stages.

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
        nonzero = [col for col, x in enumerate(row) if x]
        if len(nonzero) == 1:
            pivots.add(nonzero[0])
        elif nonzero:
            dense.append(row)
    keep = [col for col in range(ncols) if col not in pivots]
    matrix = [[row[col] for col in keep] for row in dense]
    matrix = [row for row in matrix if any(row)]
    left = len(keep)
    bound = min(len(matrix), left)
    if _rank_mod_p(matrix, left) == bound:
        return len(pivots) + bound
    return len(pivots) + _rank_bareiss(matrix, left)


def _rank_mod_p(matrix: list[list[int]], ncols: int) -> int:
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


def _rank_bareiss(matrix: list[list[int]], ncols: int) -> int:
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


def conditions_for_triple(t: TripleIndex) -> list[VanishingCondition]:
    """One condition per chart r = -1..n: order codim_reg(t, r) at [r+1 : r-n]."""
    return [
        VanishingCondition((r + 1, r - t.n), codim_reg(t, r))
        for r in range(-1, t.n + 1)
    ]


def _stacked_rows(conds: list[VanishingCondition], m: int) -> list[list[int]]:
    rows: list[list[int]] = []
    for cond in conds:
        if cond.multiplicity > 0:
            rows.extend(vanishing_rows(cond, m))
    return rows


def hsum_oracle_triple(t: TripleIndex) -> int:
    """Obstruction dimension of one block, from two exact rank computations."""
    conds = conditions_for_triple(t)
    if all(c.multiplicity == 0 for c in conds):
        return 0
    m = t.m
    ends = [conds[0], conds[-1]]  # boundary charts r = -1 and r = n
    rank_all = rank(_stacked_rows(conds, m), m + 1)
    rank_ends = rank(_stacked_rows(ends, m), m + 1)
    return rank_all - rank_ends


def hsum_oracle(n: int, m: int) -> int:
    """Brute-force obstruction count: blockwise rank gaps, summed.

    Scans the block range 0 <= i <= n*m - 1; blocks beyond it extend
    holomorphically and contribute nothing (the formula-side enumeration
    covers a superset, so a discrepancy there would surface as a mismatch).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return sum(hsum_oracle_triple(t) for t in admissible_triples(n, m, n * m - 1))
