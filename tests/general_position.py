"""Test-side check of the theorem the oracle's rank certificate relies on.

By Hermite interpolation on P^1, a nonzero binary form of degree m has at
most m zeros counted with multiplicity, so vanishing conditions at distinct
points of the line are independent up to m+1.  Every system
``oracle.hsum_oracle_triple`` stacks therefore has rank
min(m+1, total multiplicity); a block where it does not means a defect in
``vanishing_rows`` or ``rank``.
"""

from __future__ import annotations

from ansing.monoblocks import TripleIndex
from ansing.oracle import _stacked_rows, conditions_for_triple, rank


def general_position_check(t: TripleIndex) -> bool:
    """True iff the stacked chart conditions of the block have full rank."""
    conds = conditions_for_triple(t)
    total = sum(c.multiplicity for c in conds)
    if total == 0:
        return True
    stacked = rank(_stacked_rows(conds, t.m), t.m + 1)
    return stacked == min(t.m + 1, total)
