"""The obstruction count hsum(n, m) as a weighted lattice sum.

A degree-m symmetric differential on the punctured resolution of an A_n
singularity decomposes into graded pieces indexed by lattice points
(x1, x2) = (i, khat).  The weight of a point is the dimension of the
obstruction space for its piece to extend across the exceptional chain, and
hsum(n, m) is the total weight over the parity-valid points of a polygon
P_n(m).

The polygon is stored through its upper-half inequalities

    -x1 <= 0,   -x2 <= 0,   x1 - (n-1) x2 <= m,   -x1 + (n+1) x2 <= m+2

and extended to x2 < 0 by the reflection x2 -> -x2.  With a = |x2|, the
weight of a point with x1 + (n+1) x2 = m (mod 2) is max(0, min(cap, tot)):

    cap = m+1 - (m - x1 - (n+1)a)+ / 2 - (m - x1 + (n+1)a)+ / 2
    tot = sum over r = 0..n-1 of (m - x1 + (2r-n+1)a)+ / 2

the chart codimensions ``monoblocks.codim_reg`` of the block
(i, khat) = (x1, x2): the boundary charts bound the dimension, the interior
charts count the obstructions.  Parity makes every half exact; points
failing parity weigh 0, and so do points off the polygon.  ``hsum`` never
evaluates the weight point by point (that walk is kept as a test oracle):
it sums each row x2 = const in closed form, and finds the row's crossing
from triangular-number thresholds instead of searching for it (the
bisection it replaced is kept as a test oracle too).  Nor does it visit
every row: inside a run of rows with the same crossing interval, the even
rows and the odd rows are each a quadratic in the row index, so a long run
is summed from three rows of each (the row-by-row sum it replaced is the
test oracle ``hsum_rows``).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


def polygon(n: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """P_n(m), as its upper-half half-planes a*x1 + b*x2 <= c."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return ((-1, 0, 0), (0, -1, 0), (1, -(n - 1), m), (-1, n + 1, m + 2))


# hsum's lru_cache bound: a fit or sweep at the CLI's --m-to bound needs
# 1501 entries, and a full cache holds well under a megabyte of ints.
HSUM_CACHE_SIZE = 4096


@lru_cache(maxsize=HSUM_CACHE_SIZE)
def hsum(n: int, m: int) -> int:
    """Total obstruction count: sum of weights over parity-valid points.

    The weight is even in x2 and the x1 range depends only on a = |x2|, so
    row a = 0 is summed once and rows a = 1..m+1 twice.  Each row is summed
    in closed form around its crossing, with O(1) integer operations and
    no search (the loop adds up twice each row, so no closed form needs a
    halving); long runs of rows are summed from a few of their rows, so a
    call costs O(m**(1/3)) row evaluations.

    On row a write x1 = start + 2j, j >= 0.  With
    low = (m - start - (n+1)a)/2 the halved chart terms of the weight
    become ramps in j with breakpoints b_k = low + k*a: the boundary
    charts give (b_0 - j)+ = (low - j)+ and (b_{n+1} - j)+ = (high - j)+,
    interior chart r gives (b_{r+1} - j)+.  The weight is
    max(0, min(cap(j), tot(j))) with

        cap(j) = m+1 - (low - j)+ - (high - j)+     nondecreasing,
        tot(j) = sum_{k=1..n} (b_k - j)+             nonincreasing.

    For a >= 1, cap - tot is strictly increasing: on (b_{k-1}, b_k] the
    ramps b_k..b_{n+1} are positive, so its slope is c + 1 with
    c = n+1-k, and below b_0 it is n + 2.  Whatever low is,

        cap(b_k) - tot(b_k) = m + 1 - a*T_c,   T_c = c(c+1)/2.

    So the crossing, the first j with cap(j) >= tot(j), lies in the
    interval of the largest c <= n+1 with a*T_c <= m+1, at cross = b_k - s
    with s = (m + 1 - a*T_c) // (c+1).  It is never negative: for c <= n,
    s < a puts it above b_{k-1} >= low >= -1 while x1 starts at 0, and
    b_k >= s once x1 starts later; for c = n+1, low >= s follows from
    a*T_{n+1} <= m+1 once n*m >= n + 4, and the rows left over (n = 1,
    m = 2..4, a = 1) have s = 0.  There the positive interior ramps are
    s + i*a, i < c, and tot(j) from cross on is the sum of their
    triangular numbers.  For c = n+1 the first of them, i = 0, is the low
    boundary ramp instead; the cap side below leaves out its matching
    + T(low - cross), so the two cancel.  Before the crossing the weight
    is cap(j), which is positive from j = max(0, high - m) on:
    its other condition, 2j >= low + high - m, holds for every j >= 0
    because low + high - m is 0 or -1 while x1 starts at 0 and
    m + 2 - (n+1)a < 0 after.

    c changes only at the thresholds a = (m+1) // T_c, so the rows fall
    into at most min(n + 1, sqrt(2m + 2)) runs of constant c, each with
    its constants hoisted.  Within a run, with span = (n+1)a, the row is
    a quadratic in a on each residue class mod 2, on each side of the cut
    between span <= m + 1 and span >= m + 2:

    - When a grows by 2, span grows by 2(n+1), so low drops by exactly
      n + 1, and a*T_c grows by c(c+1), a multiple of c + 1, so s drops by
      exactly c.  So on a class a = a0 + 2t, span, low, high, s and cross
      are linear in t, and the row's closed forms are quadratic in t, as
      long as no branch flips.
    - span <= m + 1: high = (m + span) // 2 <= m, so positive_from = 0,
      and cross >= 0 keeps the cap side.  below = low >= -1, and
      T(x) = x(x+1)/2 is 0 at x = 0 and x = -1, so the test below > 0
      never changes the row: it subtracts T(low), one quadratic.
    - span >= m + 2: low = m + 1 - span (at span = m + 2 the >> 1 form
      gives -1 as well), high = m + 1, positive_from = 1 and
      below = m - span < 0.  positive_from <= cross fails only at
      cross = 0 (as at c = 1, a = m + 1), where the cap side's closed form
      is -(m+1) + T(m+1) - T(m) = 0.  So this side is one quadratic too,
      the row with span = m + 2, if (n+1) | (m+2), included.  The lower
      side's quadratic passes through that row as well (low = -1 and
      high = m + 1 there, so a cap side from j = 0 adds only
      cap(0) = 0, and T(low) = 0), so it needs no sum of its own.

    If a class has N rows with the values q(0), q(1), ... of a quadratic
    q, then q(t) = q(0) + C(t,1) dq + C(t,2) d2q in forward differences,
    and the class sums to N q(0) + C(N,2) dq + C(N,3) d2q, exactly, in
    integers.  So a side of a run can be summed from its first 6 rows,
    three in each class.  It is, once it holds at least 12 rows, twice
    those it reads; a shorter side is walked row by row, since the class
    sums cost about as much as the rows they would save.  A run then costs
    at most 11 row evaluations, and the one run holding the cut at most
    22.  A run is about 4(m+1)/(c(c+1)(c+2)) rows long, so the runs of
    12 rows or more have c below about (m/3)**(1/3), and the shorter runs
    above it hold O(m**(1/3)) rows together: a call costs O(m**(1/3)) row
    evaluations, plus O(min(n, sqrt(m))) steps of the loop over c.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    # row 0: all n + 2 ramps start at low = m // 2, so cap - tot has slope
    # n + 2 below it and is positive above it; cross >= 0 as (m+1)//3 <= m//2
    low = m >> 1
    s = (m + 1) // (n + 2)
    cross = low - s
    row_zero = (n + 2) * s * (s + 1) // 2 + cross * (m + 1) - low * (low + 1)
    rows = 0  # rows x2 = a and x2 = -a, a = 1..m+1: the loop's row is twice one
    first = 1
    n1, m1, m2 = n + 1, m + 1, m + 2  # hoisted out of the row loop
    lower = m1 // n1  # the last row with span <= m + 1
    # a >= 1 needs T_c <= m + 1, so c stops below sqrt(2m + 2) whatever n is
    for c in range(min(n1, (isqrt(8 * m + 9) - 1) // 2), 0, -1):
        tri = c * (c + 1) // 2
        last = m1 // tri
        if last < first:
            continue
        k = n1 - c
        slope = c + 1
        pairs = c * (c - 1) // 2
        squares = (c - 1) * c * (2 * c - 1) // 6
        period = 2  # low and s are linear on each class of a mod 2
        sample = 3 * period  # the rows that give every class three
        # (start, stop, count): evaluate rows start..stop-1; count > 0 marks
        # them as the first 3 * period rows of a side of count rows
        if last - first < 2 * sample - 1:
            pieces = ((first, last + 1, 0),)
        else:
            pieces = []
            for side_first, side_last in ((first, min(last, lower)), (max(first, lower + 1), last)):
                count = side_last - side_first + 1
                if count >= 2 * sample:
                    pieces.append((side_first, side_first + sample, count))
                elif count > 0:
                    pieces.append((side_first, side_last + 1, 0))
        for start, stop, count in pieces:
            values = []
            for a in range(start, stop):
                span = n1 * a
                # x1 starts at 0 while (n+1)a <= m+2, and at (n+1)a - m - 2 beyond
                low = (m - span) >> 1 if span <= m2 else m1 - span
                high = low + span
                s = (m1 - a * tri) // slope
                cross = low + k * a - s
                # twice the sum of tot(j) for j >= cross: triangles of s + i*a, i < c
                row = c * s * (s + 1) + a * ((2 * s + 1) * pairs + a * squares)
                # twice the sum of cap(j) for max(0, high - m) <= j < cross:
                # m + 1 each, less T(high - positive_from) - T(high - cross)
                # and T(below); at equality it is -T(low - cross), the
                # cancellation for c = n+1.  Past it, cap(cross) <= 0 forces
                # tot(cross) = 0: no ramp to cancel.
                positive_from = high - m if high > m else 0
                if positive_from <= cross:
                    row += (cross - positive_from) * (2 * (m1 - high) + positive_from + cross - 1)
                    below = low - positive_from
                    if below > 0:
                        row -= below * (below + 1)
                if count:
                    values.append(row)
                else:
                    rows += row
            if count:
                rows += _class_sums(values, period, count)
        first = last + 1
    return row_zero + rows


def _class_sums(values: list[int], period: int, count: int) -> int:
    """The sum of count rows, each residue class mod period a quadratic,
    from the values of the first 3*period rows.

    A class with N rows sums to N f0 + C(N,2) (f1 - f0) + C(N,3) (f2 - 2f1 + f0)
    over its first three values f0, f1, f2.  The first count % period
    classes hold one row more than the others, and the sum is linear in
    (f0, f1, f2), so each group of classes is summed at once.
    """
    full, extra = divmod(count, period)
    total = 0
    for size, lo, hi in ((full + 1, 0, extra), (full, extra, period)):
        f0 = sum(values[lo:hi])
        f1 = sum(values[lo + period:hi + period])
        f2 = sum(values[lo + 2 * period:hi + 2 * period])
        total += (
            size * f0
            + size * (size - 1) // 2 * (f1 - f0)
            + size * (size - 1) * (size - 2) // 6 * (f2 - 2 * f1 + f0)
        )
    return total
