"""Test oracles for hsum(n, m): the two point-by-point walks.

``latticesum.hsum`` sums each row of the polygon in closed form.  The
functions here compute the same count the long way, so the tests can check
the row sums against an enumeration that shares nothing with them but the
public ``weight`` (for ``hsum_pointwise``) or the per-block ``hsum_triple``
(for ``hsum_via_triples``).
"""

from __future__ import annotations

from typing import Iterator

from ansing.latticesum import hsum_triple, weight
from ansing.monoblocks import TripleIndex, parity_holds


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


def admissible_triples(n: int, m: int, i_max: int | None = None) -> Iterator[TripleIndex]:
    """Parity-valid triples with |khat| <= (i+m)/(n+1) and 0 <= i <= i_max.

    The default scan bound (n+1)m + n is a safe superset of the support of
    the weight; triples beyond the polygon contribute zero.
    """
    if i_max is None:
        i_max = (n + 1) * m + n
    for i in range(i_max + 1):
        bound = (i + m) // (n + 1)
        for khat in range(-bound, bound + 1):
            if parity_holds(n, khat, i, m):
                yield TripleIndex(n, khat, i, m)


def hsum_via_triples(n: int, m: int) -> int:
    """hsum recomputed blockwise over admissible triples."""
    return sum(hsum_triple(t) for t in admissible_triples(n, m))
