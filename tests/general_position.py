"""Test-side check of the theorem the oracle's rank certificate relies on.

By Hermite interpolation on P^1, a nonzero binary form of degree m has at
most m zeros counted with multiplicity, so vanishing conditions at distinct
points of the line are independent up to m+1: the forms vanishing to orders
c_j at distinct points have dimension max(0, m + 1 - sum c_j).  Every system
``oracle.hsum_oracle_triple`` stacks is of this kind; a block where
``forms_dim`` disagrees means a defect in ``oracle._derivative_table`` or
``oracle.rank``.
"""

from __future__ import annotations

from ansing import oracle
from ansing.monoblocks import TripleIndex, codim_reg


def forms_dim(conditions: list[tuple[tuple[int, int], int]], m: int) -> int:
    """Dimension of the degree-m binary forms that vanish to each order at
    its point, for conditions ((a, b), order); order 0 imposes nothing.

    The rows are the cached table rows themselves, not copies: ``rank`` does
    not mutate its input, and the zero rows past t = m add nothing to it.
    Both are looked up on ``oracle`` at call time, so a test that patches
    the module's table or rank patches this count too.
    """
    rows = []
    for point, order in conditions:
        if order:
            rows += oracle._derivative_table(point, m)[:order]
    return m + 1 - oracle.rank(rows, m + 1)


def chart_conditions(t: TripleIndex) -> list[tuple[tuple[int, int], int]]:
    """One condition per chart r = -1..n: order codim_reg(t, r) at [r+1 : r-n]."""
    return [((r + 1, r - t.n), codim_reg(t, r)) for r in range(-1, t.n + 1)]


def hermite_dim(orders, m: int) -> int:
    """Dimension of the degree-m forms vanishing to the given orders at
    pairwise distinct points of the line."""
    return max(0, m + 1 - sum(orders))


def general_position_check(t: TripleIndex) -> bool:
    """True iff the stacked chart conditions of the block are independent."""
    conditions = chart_conditions(t)
    return forms_dim(conditions, t.m) == hermite_dim([order for _, order in conditions], t.m)
