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
bisection it replaced is kept as a test oracle too).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


@dataclass(frozen=True)
class Polygon:
    """P_n(m), as upper-half half-planes a*x1 + b*x2 <= c."""

    n: int
    m: int
    half_planes: tuple[tuple[int, int, int], ...]


def polygon(n: int, m: int) -> Polygon:
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    planes = (
        (-1, 0, 0),
        (0, -1, 0),
        (1, -(n - 1), m),
        (-1, n + 1, m + 2),
    )
    return Polygon(n, m, planes)


# hsum's lru_cache bound: a fit or sweep at the CLI's --m-to bound needs
# 1501 entries, and a full cache holds well under a megabyte of ints.
HSUM_CACHE_SIZE = 4096


@lru_cache(maxsize=HSUM_CACHE_SIZE)
def hsum(n: int, m: int) -> int:
    """Total obstruction count: sum of weights over parity-valid points.

    The weight is even in x2 and the x1 range depends only on a = |x2|, so
    row a = 0 is summed once and rows a = 1..m+1 twice.  Each row is summed
    in closed form around its crossing, with O(1) integer operations and
    no search, so a call costs O(m).

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
    its constants hoisted.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    # row 0: all n + 2 ramps start at low = m // 2, so cap - tot has slope
    # n + 2 below it and is positive above it; cross >= 0 as (m+1)//3 <= m//2
    low = m >> 1
    s = (m + 1) // (n + 2)
    cross = low - s
    row_zero = (n + 2) * s * (s + 1) // 2 + cross * (m + 1) - low * (low + 1)
    rows = 0  # rows a = 1..m+1
    first = 1
    # a >= 1 needs T_c <= m + 1, so c stops below sqrt(2m + 2) whatever n is
    for c in range(min(n + 1, (isqrt(8 * m + 9) - 1) // 2), 0, -1):
        tri = c * (c + 1) // 2
        last = (m + 1) // tri
        if last < first:
            continue
        k = n + 1 - c
        slope = c + 1
        pairs = c * (c - 1) // 2
        squares = (c - 1) * c * (2 * c - 1) // 6
        for a in range(first, last + 1):
            span = (n + 1) * a
            # x1 starts at 0 while (n+1)a <= m+2, and at (n+1)a - m - 2 beyond
            low = (m - span) >> 1 if span <= m + 2 else m + 1 - span
            high = low + span
            s = (m + 1 - a * tri) // slope
            cross = low + k * a - s
            # sum of tot(j) for j >= cross: triangles of s + i*a, i < c
            row = (c * s * (s + 1) + a * (2 * s + 1) * pairs + a * a * squares) // 2
            # sum of cap(j) for max(0, high - m) <= j < cross; at equality
            # it is -T(low - cross), the cancellation for c = n+1.  Past
            # it, cap(cross) <= 0 forces tot(cross) = 0: no ramp to cancel.
            positive_from = high - m if high > m else 0
            if positive_from <= cross:
                top = high - positive_from
                rest = high - cross
                row += (
                    (cross - positive_from) * (m + 1)
                    - (top * (top + 1) - rest * (rest + 1)) // 2
                )
                below = low - positive_from
                if below > 0:
                    row -= below * (below + 1) // 2
            rows += row
        first = last + 1
    return row_zero + 2 * rows
