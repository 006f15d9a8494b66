"""Test oracles for the divisor coefficients ``extension.divisor_D``.

``divisor_D`` sums ceil((m - 2j)/(n+1)) over j = 0..min(r-1, n-r).  The
functions here reach the same coefficients two other ways: the equivalent
two-case sum, and the minimum of each component's pole offset over a window
of admissible blocks, read from the public ``extension.pole_profile``.
"""

from __future__ import annotations

from ansing.exactmath import ceil_ratio
from ansing.extension import pole_profile
from ansing.monoblocks import admissible_triples


def divisor_D_case_formula(n: int, m: int) -> tuple[int, ...]:
    """The equivalent two-case form of the coefficients."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    coeffs = []
    for r in range(1, n + 1):
        upper = r if r <= (n + 1) // 2 else n + 1 - r
        coeffs.append(
            sum(ceil_ratio(m + 2 - 2 * j, n + 1) for j in range(1, upper + 1))
        )
    return tuple(coeffs)


def divisor_D_bruteforce(n: int, m: int, i_max: int) -> tuple[int, ...]:
    """Coefficients as offset minima over a block window.

    The window must contain the minimizer; offsets grow with i, so scanning
    i up to (n+1)*m is provably enough and smaller windows are rejected.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if i_max < (n + 1) * m:
        raise ValueError(f"window too small: i_max={i_max} < (n+1)*m={(n + 1) * m}")
    best: list[int | None] = [None] * n
    for t in admissible_triples(n, m, i_max):
        for r, value in enumerate(pole_profile(t)):
            if best[r] is None or value < best[r]:
                best[r] = value
    if None in best:
        raise ArithmeticError("offset minimum missing")
    return tuple(best)
