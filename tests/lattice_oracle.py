"""Test oracles for hsum(n, m): the weight of one point and the long walks.

``latticesum.hsum`` sums each row of the polygon in closed form, locating
the row's crossing from triangular-number thresholds, and never evaluates a
single weight; long runs of rows it sums per residue class from three rows
each.  The functions here compute the same count other ways, so
the tests can check the row sums against enumerations that share nothing
with them: ``hsum_pointwise`` calls ``weight`` once per parity-valid point,
and ``hsum_via_triples`` calls the per-block ``hsum_triple``, built on the
chart codimensions of ``monoblocks`` and the regular-part dimension
``dim_vreg``, once per admissible block.
``hsum_bisection`` still sums rows in closed form but finds each crossing
by bisection; it is O(m log m), so it checks the kernel at degrees where
the pointwise walk is too slow.  ``hsum_rows`` is the kernel's own row
formula summed over every row, O(m): it checks the residue-class sums
row for row, at degrees where even the bisection is too slow.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

from ansing.monoblocks import TripleIndex, admissible_triples, codim_reg

LatticePoint = tuple[int, int]


def weight(n: int, m: int, point: LatticePoint) -> int:
    """Obstruction dimension h_{n,m}(x1, x2); 0 off-polygon or off-parity.

    min of: the total pole codimension over the interior charts r = 0..n-1,
    and the dimension cap m+1 minus the two boundary-chart codimensions.
    All halves below are exact because parity makes the numerators even.
    """
    x1, x2 = point
    if (x1 + (n + 1) * x2 - m) % 2 != 0:
        return 0
    x2 = abs(x2)
    outer_lo = m - x1 - (n + 1) * x2
    outer_hi = m - x1 + (n + 1) * x2
    cap = m + 1 - max(0, outer_lo // 2) - max(0, outer_hi // 2)
    if cap <= 0:
        return 0
    total = 0
    for r in range(n):
        term = m - x1 + (2 * r - n + 1) * x2
        if term > 0:
            total += term // 2
            if total >= cap:
                return cap
    return total


def contains(half_planes: tuple[tuple[int, int, int], ...], point: LatticePoint) -> bool:
    """Membership in the full polygon given by its upper-half half-planes
    a*x1 + b*x2 <= c, reflected across x2 = 0."""
    x1, x2 = point
    x2 = abs(x2)
    return all(a * x1 + b * x2 <= c for a, b, c in half_planes)


def lattice_points(n: int, m: int) -> Iterator[LatticePoint]:
    """All integer points of the full (reflected) polygon P_n(m).

    Deterministic row-major order: increasing x2, then increasing x1.
    """
    for x2 in range(-(m + 1), m + 2):
        a = abs(x2)
        x1_lo = max(0, (n + 1) * a - m - 2)
        x1_hi = m + (n - 1) * a
        for x1 in range(x1_lo, x1_hi + 1):
            yield (x1, x2)


def hsum_pointwise(n: int, m: int) -> int:
    """hsum as one ``weight`` call per parity-valid point of P_n(m)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    total = 0
    for x2 in range(-(m + 1), m + 2):
        a = abs(x2)
        x1_lo = max(0, (n + 1) * a - m - 2)
        x1_hi = m + (n - 1) * a
        if x1_hi < x1_lo:
            continue
        # first x1 >= x1_lo with x1 + (n+1) x2 == m (mod 2)
        start = x1_lo + ((m + (n + 1) * x2 - x1_lo) % 2)
        for x1 in range(start, x1_hi + 1, 2):
            total += weight(n, m, (x1, x2))
    return total


def dim_vreg(t: TripleIndex) -> int:
    """Dimension of the regular part of the block: monomials with no pole
    along either boundary chart."""
    return max(0, t.m + 1 - codim_reg(t, -1) - codim_reg(t, t.n))


def hsum_triple(t: TripleIndex) -> int:
    """Per-block obstruction dimension, from the chart codimension counts.

    Agrees with weight(n, m, (i, khat)); the tests compare the two as a
    definitional consistency check.
    """
    cap = dim_vreg(t)
    if cap <= 0:
        return 0
    total = 0
    for r in range(t.n):
        total += codim_reg(t, r)
        if total >= cap:
            return cap
    return total


def hsum_via_triples(n: int, m: int) -> int:
    """hsum recomputed blockwise over admissible triples."""
    return sum(hsum_triple(t) for t in admissible_triples(n, m))


def hsum_rows(n: int, m: int) -> int:
    """hsum with every row a = 1..m+1 summed by its closed form, one at a time.

    The row formula and its proof are ``latticesum.hsum``'s; this is the
    O(m) loop that kernel had before it summed long runs per residue class.
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


def hsum_bisection(n: int, m: int) -> int:
    """hsum with each row's crossing found by bisection on cap(j) >= tot(j)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    total = _row_sum_bisection(n, m, 0)
    for a in range(1, m + 2):
        total += 2 * _row_sum_bisection(n, m, a)
    return total


def _triangle(k: int) -> int:
    """1 + 2 + ... + k, and 0 for k <= 0: the sum of a ramp's positive values."""
    return k * (k + 1) // 2 if k > 0 else 0


def _row_sum_bisection(n: int, m: int, a: int) -> int:
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
