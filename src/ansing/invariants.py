"""Local singularity invariants: chi_orb, mu, h1 and the cubic rate h1_omega.

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

from .asymptotics import _basel, _basel_float, _basel_sums, _h1_terms, _increasing_to, _rate, _rate_float
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
    term is a multiple of c2 = ``local_c2(n)``.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    return local_c2(n) * Fraction(1 - 3 * m - 6 * m**2 - 2 * m**3, 12)


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


def h1_omega(n: int) -> Fraction:
    """Cubic growth rate of h1(n, m), in closed form.

    Its terms and the Basel partial sum are kept once in ``asymptotics``,
    beside those of ``h0_omega``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _rate(_h1_terms(n), _basel(n))


def h1_omega_float(n: int) -> float:
    return _rate_float(_h1_terms(n), _basel_float(n))


def h1_omega_limit_report(n_max: int, threshold: Fraction | int = 10) -> dict:
    """Strict growth of h1_omega up to n_max, plus the linear leading behavior.

    The closed formula grows like n/6, so h1_omega eventually exceeds any
    threshold; the report records where the given one is first passed and
    samples 6*h1_omega(n)/n at large n in float.  Growth is tested in
    integers, step by step; the exact Basel partial sum, whose denominators
    grow like lcm(1..n)^2, is carried only until the threshold is passed.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    first_exceeds = None
    for n, basel in enumerate(_basel_sums(n_max), start=1):
        if _rate(_h1_terms(n), basel) > threshold:
            first_exceeds = n
            break
    return {
        "n_max": n_max,
        "strictly_increasing": _increasing_to(_h1_terms, n_max),
        "threshold": Fraction(threshold),
        "first_n_exceeding_threshold": first_exceeds,
        "leading_ratio_samples": [
            {"n": n, "ratio": ratio} for n, ratio in _leading_ratios()
        ],
    }


@functools.cache
def _leading_ratios() -> tuple[tuple[int, float], ...]:
    """6*h1_omega(n)/n in float at n = 1000 and 10000; input-independent."""
    return tuple((n, 6 * h1_omega_float(n) / n) for n in (1000, 10000))

