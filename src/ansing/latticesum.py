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
it sums each row x2 = const in closed form (``_row_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


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


@lru_cache(maxsize=None)
def hsum(n: int, m: int) -> int:
    """Total obstruction count: sum of weights over parity-valid points.

    The weight is even in x2 and the x1 range depends only on a = |x2|, so
    row a = 0 is summed once and rows a = 1..m+1 twice, each in closed form
    by ``_row_sum``.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    total = _row_sum(n, m, 0)
    for a in range(1, m + 2):
        total += 2 * _row_sum(n, m, a)
    return total


def _triangle(k: int) -> int:
    """1 + 2 + ... + k, and 0 for k <= 0: the sum of a ramp's positive values."""
    return k * (k + 1) // 2 if k > 0 else 0


def _row_sum(n: int, m: int, a: int) -> int:
    """Sum of the weights on row |x2| = a, without visiting its points.

    Write x1 = start + 2j for j = 0..last.  With low = (m - start - (n+1)a)/2
    the halved chart terms of the weight become ramps in j whose breakpoints
    are equally spaced by a: the boundary charts give (low - j)+ and
    (high - j)+ with high = low + (n+1)a, and interior chart r gives
    (low + (r+1)a - j)+.  So the weight is max(0, min(cap(j), tot(j))) with

        cap(j) = m+1 - (low - j)+ - (high - j)+     nondecreasing,
        tot(j) = sum_r (low + (r+1)a - j)+           nonincreasing.

    Bisection finds the crossing, the first j with cap(j) >= tot(j); the
    weight is cap(j) before it, clipped to 0 below the first j with
    cap(j) >= 1, and tot(j) from it on.  Each side is a sum of ramps, i.e. a
    difference of triangular numbers.  The top interior breakpoint
    low + n*a is x1_hi's j, so tot vanishes at j = last and the crossing
    always lies in 0..last.
    """
    x1_lo = max(0, (n + 1) * a - m - 2)
    start = x1_lo + (m + (n + 1) * a - x1_lo) % 2
    low = (m - start - (n + 1) * a) // 2
    high = low + (n + 1) * a
    last = low + n * a

    def interior(j: int) -> tuple[int, int, int]:
        """Count, smallest value and sum (= tot(j)) of the positive interior ramps."""
        if a == 0:
            return (n, low - j, n * (low - j)) if low > j else (0, 0, 0)
        first = max(1, (j - low) // a + 1)
        count = max(0, n + 1 - first)
        smallest = low + first * a - j
        return count, smallest, count * smallest + a * count * (count - 1) // 2

    lo, hi = 0, last
    while lo < hi:
        mid = (lo + hi) // 2
        if m + 1 - max(0, low - mid) - max(0, high - mid) >= interior(mid)[2]:
            hi = mid
        else:
            lo = mid + 1
    cross = lo

    # sum of tot(j) for j >= cross: sum of triangle(e) over the positive
    # interior ramps e = smallest + i*a, i < count, at j = cross
    count, smallest, linear = interior(cross)
    pairs = count * (count - 1) // 2
    square = (
        count * smallest * smallest
        + 2 * a * smallest * pairs
        + a * a * (count - 1) * count * (2 * count - 1) // 6
    )
    row = (linear + square) // 2

    # sum of cap(j) for positive_from <= j < cross; cap(j) >= 1 exactly when
    # j >= high - m and 2j >= low + high - m (cap is a min of affine terms)
    positive_from = max(0, high - m, -((m - low - high) // 2))
    if positive_from < cross:
        row += (
            (cross - positive_from) * (m + 1)
            - _triangle(low - positive_from) + _triangle(low - cross)
            - _triangle(high - positive_from) + _triangle(high - cross)
        )
    return row

