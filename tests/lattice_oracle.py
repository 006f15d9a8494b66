"""Test oracles for hsum(n, m): the weight of one point and the long walks.

``latticesum.hsum`` sums each row of the polygon in closed form and never
evaluates a single weight.  The functions here compute the same count the
long way, so the tests can check the row sums against enumerations that
share nothing with them: ``hsum_pointwise`` calls ``weight`` once per
parity-valid point, and ``hsum_via_triples`` calls the per-block
``hsum_triple``, built on the chart codimensions of ``monoblocks``, once per
admissible block.
"""

from __future__ import annotations

from typing import Iterator

from ansing.latticesum import Polygon
from ansing.monoblocks import TripleIndex, admissible_triples, codim_reg, dim_vreg

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


def contains(poly: Polygon, point: LatticePoint) -> bool:
    """Membership in the full polygon, reflected across x2 = 0."""
    x1, x2 = point
    x2 = abs(x2)
    return all(a * x1 + b * x2 <= c for a, b, c in poly.half_planes)


def lattice_points(poly: Polygon) -> Iterator[LatticePoint]:
    """All integer points of the full (reflected) polygon.

    Deterministic row-major order: increasing x2, then increasing x1.
    """
    n, m = poly.n, poly.m
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
