"""Combinatorial block algebra for the A_n quotient model.

Invariant differential monomials of degree m on the smoothing plane group
into blocks of m+1 monomials.  A block is indexed by a triple (khat, i, m)
subject to the parity constraint (n+1)*khat == i+m (mod 2).  One integer
loop over (khat, i) enumerates the admissible blocks; ``admissible_triples``
yields them as TripleIndex objects, and ``chart_codim_counts`` counts the
blocks of each chart-codimension tuple on the same loop without building
one.  ``chart_order`` gives the order of a block on each resolution chart r
(its affine form is written once, on the block's integers, so the loop reads
it too), and ``codim_reg`` (one chart) and ``chart_codims`` (all n + 2)
count how many monomials of a block fail to be regular along the
exceptional curve meeting that chart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator


class ParityError(ValueError):
    """Triple violates (n+1)*khat == i+m (mod 2)."""


def parity_holds(n: int, khat: int, i: int, m: int) -> bool:
    return ((n + 1) * khat - (i + m)) % 2 == 0


@dataclass(frozen=True)
class TripleIndex:
    """Graded-piece index (n, khat, i, m); parity is enforced at construction.

    ``i`` is the vanishing order at the origin, ``m`` the symmetric degree,
    ``khat`` the invariant block degree.  A triple indexes a nonempty regular
    block iff |khat| <= (i+m)/(n+1); inadmissible triples are legal inputs
    and simply carry zero-dimensional regular pieces.
    """

    n: int
    khat: int
    i: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.i < 0 or self.m < 0:
            raise ValueError("i and m must be >= 0")
        if not parity_holds(self.n, self.khat, self.i, self.m):
            raise ParityError(
                f"(n+1)*khat != i+m mod 2 for n={self.n}, khat={self.khat}, "
                f"i={self.i}, m={self.m}"
            )

    def is_admissible(self) -> bool:
        return (self.n + 1) * abs(self.khat) <= self.i + self.m


def _blocks(n: int, m: int, i_max: int) -> Iterator[tuple[int, int]]:
    """(khat, i) of every admissible block with 0 <= i <= i_max, by
    increasing i, then khat: the one block loop of the package."""
    for i in range(i_max + 1):
        bound = (i + m) // (n + 1)
        for khat in range(-bound, bound + 1):
            if parity_holds(n, khat, i, m):
                yield khat, i


def admissible_triples(n: int, m: int, i_max: int | None = None) -> Iterator[TripleIndex]:
    """The admissible triples with 0 <= i <= i_max, by increasing i, then khat.

    The default i_max = (n+1)m + n scans a safe superset of the blocks with
    nonzero weight.
    """
    if i_max is None:
        i_max = (n + 1) * m + n
    for khat, i in _blocks(n, m, i_max):
        yield TripleIndex(n, khat, i, m)


def _order(n: int, khat: int, i: int, m: int, r: int) -> int:
    """``chart_order`` of the block (n, khat, i, m), from its integers."""
    twice = (i - m) + (n - 1 - 2 * r) * khat
    if twice % 2:
        raise ArithmeticError(f"chart order is not integral: {twice}/2")
    return twice // 2


def chart_order(t: TripleIndex, r: int) -> int:
    """Exponent i1(r) = ((i - m) + (n - 1 - 2r) khat)/2 of the leading block
    monomial on chart r, signed.

    The numerator is congruent to (i + m) + (n + 1) khat mod 2, which the
    parity of TripleIndex makes even; an odd one raises ArithmeticError.
    The block loop, which builds no TripleIndex, reads the same affine form.
    """
    return _order(t.n, t.khat, t.i, t.m, r)


def codim_reg(t: TripleIndex, r: int) -> int:
    """Number of block monomials with a pole along the curve met by chart r:
    the negative part of the chart order, which for admissible triples never
    exceeds m."""
    if not -1 <= r <= t.n:
        raise ValueError(f"chart index r={r} outside -1..{t.n}")
    return max(0, -chart_order(t, r))


def _codims(n: int, khat: int, i: int, m: int) -> tuple[int, ...]:
    """codim_reg on charts r = -1..n of the block (khat, i), from i1(-1)
    stepping by -khat (i1 is affine in r with slope -khat).  The orders are
    all >= 0 when both end orders are, so such a block skips the steps."""
    start = _order(n, khat, i, m, -1)
    end = start - (n + 1) * khat
    if start >= 0 and end >= 0:
        return (0,) * (n + 2)
    if not khat:
        return (-start,) * (n + 2)
    orders = range(start, end - khat, -khat)
    return tuple([0 if order >= 0 else -order for order in orders])


def chart_codims(t: TripleIndex) -> tuple[int, ...]:
    """codim_reg(t, r) for r = -1..n, as one tuple."""
    return _codims(t.n, t.khat, t.i, t.m)


def chart_codim_counts(n: int, m: int, i_max: int) -> Counter[tuple[int, ...]]:
    """How many admissible blocks with 0 <= i <= i_max have each tuple of
    chart codimensions: the multiset of ``chart_codims`` over
    ``admissible_triples(n, m, i_max)``, taken on the same loop without
    building a TripleIndex per block."""
    return Counter(_codims(n, khat, i, m) for khat, i in _blocks(n, m, i_max))
