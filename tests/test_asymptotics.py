from fractions import Fraction as F

import math
import random

import pytest

from ansing import asymptotics, cli
from ansing.asymptotics import (
    GROWTH_CHECK_CAP,
    h0_omega,
    h0_omega_float,
    h0_omega_limit_float,
    h0_omega_limit_report,
    h1_omega_sum,
    integrate_piece,
    omega_rates,
    pieces,
    upper_integral,
    _basel_sums,
    _h0_terms,
    _h1_terms,
    _increasing_to,
    _pieces_integral,
)
from ansing.invariants import h1_omega
from ansing.quasifit import fit
from asymptotic_reports import h0_asymptotic_check, integral_vs_sum_report
from fraction_kernels import integrate_piece_by_fractions, pieces_by_fractions
from lattice_oracle import weight


def _vertices(points):
    return tuple((F(x), F(y)) for x, y in points)


def _value(weight_form, x, y, m):
    a, b, c, d = weight_form
    return a * x + b * y + c * m + d


def test_integrate_unit_triangle():
    assert integrate_piece(_vertices([(0, 0), (1, 0), (0, 1)]), (1, 0, 0, 0), 0) == F(1, 6)


def test_integrate_unit_square():
    assert integrate_piece(_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), (0, 0, 0, 1), 0) == 1


def test_integrate_orientation_independent():
    w = (F(1), F(2), F(0), F(3))
    ccw = _vertices([(0, 0), (2, 0), (2, 1), (0, 1)])
    cw = _vertices([(0, 0), (0, 1), (2, 1), (2, 0)])
    assert integrate_piece(ccw, w, 0) == integrate_piece(cw, w, 0)


# every n <= 40 at six m <= 24, among them m = 0 and 1, the only m <= 40 where
# the clip to x1 >= 0 acts; then larger m and a few points at integral-check's
# bound n = 1000
ORACLE_GRID = (
    [(n, m) for n in range(1, 41) for m in (0, 1, 2, 5, 11, 24)]
    + [(n, m) for n in (1, 2, 3, 7, 16, 40) for m in (50, 97, 320, 1000, 10**6)]
    + [(1000, m) for m in (0, 5, 10**6)]
)


def test_integrate_piece_matches_fraction_oracle_on_grid():
    # both orientations: pieces lists most of its polygons clockwise; and
    # upper_integral is the sum of the oracle's integrals of the pieces
    for n, m in ORACLE_GRID:
        total = F(0)
        for label, (verts, w) in enumerate(pieces(n, m)):
            expected = integrate_piece_by_fractions(verts, w, m)
            assert integrate_piece(verts, w, m) == expected, (n, m, label)
            assert integrate_piece(verts[::-1], w, m) == expected, (n, m, label)
            total += expected
        assert upper_integral(n, m) == total, (n, m)


def test_pieces_match_fraction_oracle_on_grid():
    # vertices, their order and the weights, at every n <= 40 and m <= 80;
    # the clip to x1 >= 0 acts at m = 0 and 1
    for n in range(1, 41):
        for m in range(0, 81):
            assert pieces(n, m) == pieces_by_fractions(n, m), (n, m)


def test_pieces_match_fraction_oracle_on_random_draws():
    # n and m log-uniform up to the polygon verb's bounds, and the corner
    rng = random.Random(25)
    draws = [(cli.POLYGON_N_LIMIT, cli.M_LIMIT)]
    for _ in range(12):
        n = int(math.exp(rng.uniform(0, math.log(cli.POLYGON_N_LIMIT))))
        m = int(math.exp(rng.uniform(0, math.log(cli.M_LIMIT + 1)))) - 1
        draws.append((n, m))
    for n, m in draws:
        assert pieces(n, m) == pieces_by_fractions(n, m), (n, m)


def test_integrate_piece_matches_fraction_oracle_on_random_polygons():
    # vertices and weights over unrelated denominators, integer weights too,
    # and polygons that are not convex, degenerate or a single point
    rng = random.Random(20)

    def rational():
        return F(rng.randint(-50, 50), rng.randint(1, 30))

    for _ in range(300):
        verts = tuple((rational(), rational()) for _ in range(rng.randint(0, 7)))
        if rng.random() < 0.2:
            w = tuple(rng.randint(-3, 3) for _ in range(4))
        else:
            w = tuple(rational() for _ in range(4))
        m = rng.randint(0, 10**6)
        value = integrate_piece(verts, w, m)
        assert isinstance(value, F)
        assert value == integrate_piece_by_fractions(verts, w, m), (verts, w, m)


def test_piece_vertices_and_weights():
    n, m = 2, 6
    ps = pieces(n, m)
    assert len(ps) == n + 2
    verts0, w0 = ps[0]
    # right base vertex of the first piece sits at ((m n - 2)/(n + 2), 0)
    assert (F(m * n - 2, n + 2), F(0)) in verts0
    assert _value(w0, F(0), F(m, n + 1), m) == 1
    # the assembly piece vanishes at the top corner (0, (m+2)/(n+1))
    _, top = ps[-1]
    assert _value(top, F(0), F(m + 2, n + 1), m) == 0


def test_piece_weights_nonnegative_at_vertices():
    for n in (1, 2, 3, 4):
        for m in (3, 7, 12):
            for verts, w in pieces(n, m):
                for x, y in verts:
                    assert _value(w, x, y, m) >= 0


def test_piece_weights_match_lattice_weight_at_interior_points():
    # at integer points strictly inside one piece the affine form must equal
    # the lattice weight (where parity holds)
    for n, m in ((1, 8), (2, 6), (3, 9)):
        for verts, w in pieces(n, m):
            if len(verts) < 3:
                continue
            cx = sum(x for x, _ in verts) / len(verts)
            cy = sum(y for _, y in verts) / len(verts)
            x1 = int(cx)
            x2 = int(cy)
            # snap to parity and keep the snapped point inside the piece hull
            for dx in range(2):
                cand = (x1 + dx, x2)
                if (cand[0] + (n + 1) * cand[1] - m) % 2 == 0 and _inside(
                    verts, cand
                ):
                    assert weight(n, m, cand) == _value(w, F(cand[0]), F(cand[1]), m)
                    break


def _inside(vertices, point):
    """Strict interior test for a convex vertex cycle (either orientation)."""
    px, py = F(point[0]), F(point[1])
    signs = set()
    for idx in range(len(vertices)):
        ax, ay = vertices[idx]
        bx, by = vertices[(idx + 1) % len(vertices)]
        cross = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        if cross == 0:
            return False
        signs.add(cross > 0)
    return len(signs) == 1


def test_piece0_against_riemann_refinement():
    # midpoint Riemann sum over a fine grid, compared to three decimal digits
    n, m = 1, 4
    verts0, w0 = pieces(n, m)[0]
    exact = integrate_piece(verts0, w0, m)
    steps = 160
    xs = [x for x, _ in verts0]
    ys = [y for _, y in verts0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    dx = (x_hi - x_lo) / steps
    dy = (y_hi - y_lo) / steps
    total = F(0)
    for ix in range(steps):
        for iy in range(steps):
            cx = x_lo + dx * ix + dx / 2
            cy = y_lo + dy * iy + dy / 2
            if _inside(verts0, (cx, cy)):
                total += _value(w0, cx, cy, m)
    riemann = total * dx * dy
    assert abs(riemann - exact) < F(1, 1000)


def test_pieces_tile_the_upper_polygon_exactly():
    # unit-weight integrals of the pieces must add up to the area of the
    # quadrilateral hull {x1 >= 0, x2 >= 0, x1-(n-1)x2 <= m, -x1+(n+1)x2 <= m+2}
    unit = (F(0), F(0), F(0), F(1))
    for n in (1, 2, 3, 4):
        for m in (2, 5, 9):
            total = sum(integrate_piece(verts, unit, m) for verts, _ in pieces(n, m))
            hull = [
                (F(0), F(0)),
                (F(m), F(0)),
                (F(n * (m + 1) - 1), F(m + 1)),
                (F(0), F(m + 2, n + 1)),
            ]
            doubled = sum(
                hull[i][0] * hull[(i + 1) % 4][1] - hull[(i + 1) % 4][0] * hull[i][1]
                for i in range(4)
            )
            assert total == abs(doubled) / 2


def test_upper_integral_matches_raw_weight_riemann():
    # the summed piece integrals agree with a midpoint Riemann integral of the
    # raw min/max weight formula over the quadrant (coarse float tolerance)
    for n, m in ((1, 1), (2, 3)):
        steps = 150
        x_hi = m + (n - 1) * (m + 2) + 1
        y_hi = m + 2
        dx = x_hi / steps
        dy = y_hi / steps
        total = 0.0
        for ix in range(steps):
            for iy in range(steps):
                x1 = dx * (ix + 0.5)
                x2 = dy * (iy + 0.5)
                alpha = sum(
                    max(0.0, (m - x1 + (2 * r - n + 1) * x2) / 2) for r in range(n)
                )
                beta = max(
                    0.0,
                    m + 1
                    - max(0.0, (m - x1 - (n + 1) * x2) / 2)
                    - max(0.0, (m - x1 + (n + 1) * x2) / 2),
                )
                total += min(alpha, beta) * dx * dy
        assert abs(total - float(upper_integral(n, m))) < 1e-2


def test_degenerate_pieces_at_m_zero():
    # for n = 1 the m = 0 polygon collapses entirely; for larger n a sliver
    # of area O(1) survives, so the integral is positive but below 1
    assert upper_integral(1, 0) == 0
    for n in (2, 3):
        value = upper_integral(n, 0)
        assert 0 < value < 1


def test_piece_vertices_lie_in_the_closed_quadrant():
    # pieces clips to x1 >= 0 only; x2 >= 0 holds by construction
    for n in range(1, 41):
        for m in range(0, 81):
            for label, (verts, _) in enumerate(pieces(n, m)):
                assert all(x1 >= 0 and x2 >= 0 for x1, x2 in verts), (n, m, label)


def test_h0_omega_values():
    assert h0_omega(1) == F(11, 108)
    assert h0_omega(2) == F(29, 216)


def test_h0_omega_monotone_prefix():
    previous = h0_omega(1)
    for n in range(2, 51):
        value = h0_omega(n)
        assert value > previous
        previous = value


def test_h0_omega_limit():
    limit = h0_omega_limit_float()
    assert abs(limit - 0.193245) < 1e-5
    assert abs(h0_omega_float(10**4) - limit) < 1e-3
    assert abs(h0_omega_float(200) - float(h0_omega(200))) < 1e-12


def test_h0_omega_limit_report():
    report = h0_omega_limit_report(50)
    assert report["strictly_increasing"]
    assert report["bounded_by_limit"]
    assert report["gap_at_n_max_float"] > 0


def _h0_reports_by_fraction_values(n_top, limit):
    """Every h0_omega_limit_report for n_max = 2..n_top, as the per-n Fraction
    loop gives it: each exact h0_omega value up to min(n_max, 400), built from
    the published polynomial restated here, is compared with the one before
    it and, in float, with the limit.  The verdicts depend only on n <= n_max,
    so one pass yields every report."""
    reports = {}
    increasing = bounded = True
    basel = F(0)
    previous = None
    for n in range(1, n_top + 1):
        if n <= 400:
            basel += F(1, n * n)
            value = F(4, 3) * basel - F(
                12 * n**4 + 65 * n**3 + 117 * n**2 + 72 * n,
                6 * (n + 1) ** 2 * (n + 2) ** 2,
            )
            if previous is not None and not value > previous:
                increasing = False
            if not float(value) < limit:
                bounded = False
            previous = value
        reports[n] = {
            "n_max": n,
            "exact_monotonicity_checked_to": min(n, 400),
            "strictly_increasing": increasing,
            "bounded_by_limit": bounded,
            "limit_float": limit,
            "gap_at_n_max_float": limit - h0_omega_float(n),
        }
    return reports


def test_h0_omega_limit_report_matches_fraction_values():
    expected = _h0_reports_by_fraction_values(460, h0_omega_limit_float())
    for n_max in range(2, 461):
        assert h0_omega_limit_report(n_max) == expected[n_max]


@pytest.mark.parametrize("k", [2, 3, 57, 399, 400])
def test_h0_omega_limit_report_bound_at_a_moved_limit(monkeypatch, k):
    # with the limit at float(h0_omega(k)) the bound fails from n_max = k on,
    # and past n_max = 400 the verdict is the one at 400
    limit = float(h0_omega(k))
    monkeypatch.setattr(asymptotics, "h0_omega_limit_float", lambda: limit)
    expected = _h0_reports_by_fraction_values(max(k, 400) + 2, limit)
    for n_max in sorted({2, *range(max(2, k - 2), k + 3), 401, 402}):
        report = h0_omega_limit_report(n_max)
        assert report == expected[n_max]
        assert report["bounded_by_limit"] == (min(n_max, 400) < k)


def test_basel_pairs_are_the_partial_sums_over_lcm_squared():
    # each pair (P, Q) is the exact partial sum over Q = lcm(1..n)^2, unreduced
    basel = F(0)
    for n, (p, q) in enumerate(_basel_sums(400), start=1):
        basel += F(1, n * n)
        assert q == math.lcm(*range(1, n + 1)) ** 2, n
        assert F(p, q) == basel, n


def test_rates_match_fraction_accumulation():
    # both rates from a running Fraction sum and the published polynomials,
    # restated here, up to the largest n the omega verb admits
    wanted = {*range(1, 61), 400, cli.OMEGA_N_LIMIT}
    basel = F(0)
    for n in range(1, max(wanted) + 1):
        basel += F(1, n * n)
        if n not in wanted:
            continue
        den = 6 * (n + 1) ** 2 * (n + 2) ** 2
        h0 = F(4, 3) * basel - F(12 * n**4 + 65 * n**3 + 117 * n**2 + 72 * n, den)
        h1 = F(n**5 + 19 * n**4 + 83 * n**3 + 137 * n**2 + 80 * n, den) - F(4, 3) * basel
        assert (h0_omega(n), h1_omega(n)) == (h0, h1), n


def test_omega_rates_are_the_two_rates():
    for n in (*range(1, 61), cli.OMEGA_N_LIMIT):
        assert omega_rates(n) == (h0_omega(n), h1_omega(n)), n
    with pytest.raises(ValueError):
        omega_rates(0)


def test_h1_omega_sum_weights_each_rate_by_its_count():
    assert h1_omega_sum(()) == 0
    # repeated n, unsorted, n = 1 and the largest n in the middle
    entries = ((7, 3), (2, 1), (40, 1), (7, 2), (1, 5), (2, 4))
    assert h1_omega_sum(entries) == sum((count * h1_omega(n) for n, count in entries), F(0))
    assert h1_omega_sum(((3, 1),)) == h1_omega(3)
    for entries in (((0, 1),), ((3, 1), (-2, 1)), ((5, 1), (0, 2), (5, 3))):
        with pytest.raises(ValueError):
            h1_omega_sum(entries)


def _rate_by_fraction(terms, n):
    sign, num, den = terms(n)
    return sign * F(4, 3) * sum(F(1, j * j) for j in range(1, n + 1)) + F(num, den)


def test_integer_growth_step_matches_fraction_values():
    # rates with both signs of the Basel term, rising and falling rational
    # parts, and steps that change sign within the range
    rng = random.Random(17)
    for _ in range(300):
        sign = rng.choice((1, -1))
        a, b, c = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-3, 3)
        d, e = rng.randint(1, 4), rng.randint(0, 4)
        terms = lambda n: (sign, a * n * n + b * n + c, d * n * n + e)  # noqa: E731
        values = [_rate_by_fraction(terms, n) for n in range(1, 13)]
        for n_max in range(2, 13):
            rising = all(y > x for x, y in zip(values[: n_max - 1], values[1:n_max]))
            assert _increasing_to(terms, n_max) == rising
    # the Basel term alone rises with sign +1 and falls with sign -1
    assert _increasing_to(lambda n: (1, 0, 1), 50)
    assert not _increasing_to(lambda n: (-1, 0, 1), 2)
    # rate(2) == rate(1) == 1 here: an equal step is not a rise
    assert _rate_by_fraction(lambda n: (1, -n, 3), 2) == _rate_by_fraction(lambda n: (1, -n, 3), 1)
    assert not _increasing_to(lambda n: (1, -n, 3), 2)


class _Poly:
    """An integer polynomial in one variable, constant first, with the
    arithmetic the rate terms use, so they can be evaluated symbolically."""

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @staticmethod
    def lift(other):
        return other if isinstance(other, _Poly) else _Poly([other])

    def __add__(self, other):
        a, b = self.coeffs, _Poly.lift(other).coeffs
        size = max(len(a), len(b))
        return _Poly([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(size)])

    __radd__ = __add__

    def __neg__(self):
        return _Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -_Poly.lift(other)

    def __mul__(self, other):
        b = _Poly.lift(other).coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = _Poly([1])
        for _ in range(k):
            out = out * self
        return out

    def at(self, x):
        return sum(c * x**k for k, c in enumerate(self.coeffs))


@pytest.mark.parametrize("terms, degree", [(_h0_terms, 8), (_h1_terms, 10)])
def test_every_growth_step_from_two_on_is_positive(terms, degree):
    # the step test at n is P(n) > 0 with P(n) = 3n^2 (num(n) den(n-1) -
    # num(n-1) den(n)) + 4 sign den(n) den(n-1).  Built from the rate's own
    # terms at n = t + 2, Q(t) = P(t + 2) has no negative coefficient and
    # Q(0) = P(2) > 0, so Q(t) >= P(2) > 0 for every t >= 0: both rates grow
    # at every n >= 2, and the limit reports may stop their loops at the cap
    t = _Poly([0, 1])
    sign, num, den = terms(t + 2)
    _, prev_num, prev_den = terms(t + 1)
    step = 3 * (t + 2) ** 2 * (num * prev_den - prev_num * den) + 4 * sign * den * prev_den
    assert len(step.coeffs) - 1 == degree
    assert all(c >= 0 for c in step.coeffs)
    assert step.coeffs[0] > 0
    # the symbolic step is the integer one the package tests
    for n in (2, 3, 10, GROWTH_CHECK_CAP, 10**5):
        s, a, b = terms(n)
        _, a_prev, b_prev = terms(n - 1)
        assert step.at(n - 2) == 3 * n * n * (a * b_prev - a_prev * b) + 4 * s * b * b_prev
    assert _increasing_to(terms, GROWTH_CHECK_CAP)


def _geometry_integral(n, m):
    """The integral as the sum of the piece integrals, independent of
    upper_integral's closed form."""
    return sum((integrate_piece(verts, w, m) for verts, w in pieces(n, m)), F(0))


def test_integral_cubic_fit_leading_coefficient():
    # the piece integrals sum to a cubic in m whose leading coefficient is
    # the closed-form growth rate; quadratic coefficient is 3x that.  The fit
    # interpolates m = 6..24 and checks the cubic at m = 30 and 36.
    for n in (1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        values = tuple((m, _geometry_integral(n, m)) for m in range(6, 37, 6))
        (coeffs,) = fit(values, 3, 1).branches
        assert coeffs[3] == h0_omega(n)
        assert coeffs[2] == 3 * h0_omega(n)


def test_upper_integral_closed_form_equals_the_pieces():
    # from the first m with n m >= 2 on the clip does not act and both sides
    # are cubics in m, so four consecutive m prove the identity at each n.
    # The piece sum in integers (_pieces_integral) is the geometry of
    # pieces and integrate_piece without their Fractions.
    for n in [*range(1, 201), 1000]:
        first = 2 if n == 1 else 1
        for m in range(first, first + 4):
            closed = h0_omega(n) * (m + 1) ** 3 - F(m + 1, 2 * (n + 1))
            assert upper_integral(n, m) == closed == _pieces_integral(n, m), (n, m)
    # around the clip boundary, n m in {1, 2}; (1, 1) still takes the piece sum
    for n, m in ((1, 1), (1, 2), (2, 1)):
        assert upper_integral(n, m) == _geometry_integral(n, m), (n, m)
    assert upper_integral(1, 1) != h0_omega(1) * 8 - F(2, 4)


def test_h0_asymptotic_check_example1_bound():
    # residual of the cubic model stays within the branch tail for n = 2
    report = h0_asymptotic_check(2, list(range(0, 31)))
    assert report["bounded"]
    for entry in report["samples"]:
        m = entry["m"]
        assert abs(entry["residual"]) <= F(17, 72) * m + F(143, 216)


def test_h0_asymptotic_check_residual_zero_at_zero():
    report = h0_asymptotic_check(1, [0, 6, 12, 18])
    assert report["samples"][0]["residual"] == 0
    assert report["bounded"]


def test_integral_vs_sum_report_validates():
    for n in (1, 2, 3):
        report = integral_vs_sum_report(n, [6, 12, 24, 48])
        assert report["validated"], report


def test_input_validation():
    with pytest.raises(ValueError):
        pieces(0, 4)
    with pytest.raises(ValueError):
        h0_omega(0)
    with pytest.raises(ValueError):
        h0_asymptotic_check(1, [])
