"""Local singularity invariants: local_c2, chi_orb, mu and h1.

The localized first cohomology of degree-m symmetric differentials at an A_n
point decomposes exactly as

    h1(n, m) = mu(n, m) - chi_orb(n, m) - hsum(n, m)

where chi_orb is the orbifold Euler characteristic polynomial built from the
local Chern numbers (c1^2 = 0 and c2 = n(n+2)/(n+1) for type A_n, with
s2 = c1^2 - c2), and mu averages trace-over-determinant of the symmetric
powers of the defining cyclic representation diag(eps, eps^n).  mu is
evaluated in closed form: since eps^n = eps^-1, the sum over group elements
is a finite Fourier-Dedekind sum with an exact rational value, so mu never
leaves the rationals.
"""

from __future__ import annotations

import functools
from fractions import Fraction

# the cubic rate of h1 lives beside that of h0 in asymptotics; its names are
# re-exported here, where the CLI's limits verb looks up the report
from .asymptotics import h1_omega, h1_omega_float, h1_omega_limit_report  # noqa: F401
from .latticesum import hsum


def local_c2(n: int) -> Fraction:
    """Local second Chern number of an A_n point on the resolution:
    c2 = e(exceptional chain) - 1/|group| = (n+1) - 1/(n+1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(n * (n + 2), n + 1)


def chi_orb(n: int, m: int) -> Fraction:
    """Orbifold Euler characteristic polynomial evaluated at degree m.

    In general it is s2/6 m^3 - c2/2 m^2 - (c1^2 + 3 c2)/12 m + (c1^2 + c2)/12
    with s2 = c1^2 - c2.  An A_n point has c1^2 = 0, so s2 = -c2 and every
    term is a multiple of c2 = ``local_c2(n)``: chi_orb is
    c2 (1 - 3m - 6m^2 - 2m^3)/12, formed here as one fraction over 12(n+1).
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if n < 1:
        raise ValueError("need n >= 1")
    return Fraction(n * (n + 2) * (1 - 3 * m - 6 * m**2 - 2 * m**3), 12 * (n + 1))


# mu's lru_cache bound: a sweep at the CLI's --m-to bound needs 1501 entries
MU_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=MU_CACHE_SIZE)
def mu(n: int, m: int) -> Fraction:
    """Group average of trace/determinant over the nontrivial elements.

    For g = diag(zeta^j, zeta^-j) with zeta a primitive N-th root of unity,
    N = n + 1, the trace on the m-th symmetric power is the sum over
    q = 0..m of zeta^(j(m - 2q)) and det(Id - g) = |1 - zeta^j|^2.  The
    Fourier-Dedekind sum (Beck-Robins, Computing the Continuous Discretely,
    ch. 8)

        S(k) = sum_{j=1}^{N-1} zeta^(jk) / |1 - zeta^j|^2
             = (N^2 - 1)/12 - k(N - k)/2        for 0 <= k < N

    turns the average into (1/N) sum_k c_k S(k), where c_k counts the q in
    0..m with (m - 2q) mod N = k.  The residue depends only on q mod N, so
    the N smallest q stand for their classes and the sum costs O(min(m, N)).
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    order = n + 1
    total = 0
    for q in range(min(m, n) + 1):
        k = (m - 2 * q) % order
        count = (m - q) // order + 1  # the q' = q mod N in 0..m
        total += count * (order * order - 1 - 6 * k * (order - k))  # 12 S(k)
    return Fraction(total, 12 * order)


def h1(n: int, m: int) -> Fraction:
    """Localized first cohomology dimension; a nonnegative integer in fact."""
    return mu(n, m) - chi_orb(n, m) - hsum(n, m)
