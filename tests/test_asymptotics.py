from fractions import Fraction as F

import pytest

from ansing.asymptotics import (
    AffineWeight,
    PolygonPiece,
    h0_asymptotic_check,
    h0_omega,
    h0_omega_float,
    h0_omega_limit_float,
    h0_omega_limit_report,
    integral_vs_sum_check,
    integral_vs_sum_report,
    integrate_piece,
    pieces,
    upper_integral,
)
from ansing.latticesum import hsum
from ansing.quasifit import _interpolate
from lattice_oracle import weight


def _piece(vertices, weight_form, m=0):
    return PolygonPiece(0, m, tuple((F(x), F(y)) for x, y in vertices), weight_form)


def test_integrate_unit_triangle():
    p = _piece([(0, 0), (1, 0), (0, 1)], AffineWeight(F(1), F(0), F(0), F(0)))
    assert integrate_piece(p) == F(1, 6)


def test_integrate_unit_square():
    p = _piece(
        [(0, 0), (1, 0), (1, 1), (0, 1)], AffineWeight(F(0), F(0), F(0), F(1))
    )
    assert integrate_piece(p) == 1


def test_integrate_orientation_independent():
    w = AffineWeight(F(1), F(2), F(0), F(3))
    ccw = _piece([(0, 0), (2, 0), (2, 1), (0, 1)], w)
    cw = _piece([(0, 0), (0, 1), (2, 1), (2, 0)], w)
    assert integrate_piece(ccw) == integrate_piece(cw)


def test_piece_vertices_and_weights():
    n, m = 2, 6
    ps = pieces(n, m)
    assert [p.label for p in ps] == [0, 1, 2, 3]
    p0 = ps[0]
    # right base vertex of the first piece sits at ((m n - 2)/(n + 2), 0)
    assert (F(m * n - 2, n + 2), F(0)) in p0.vertices
    assert p0.weight.value_at(F(0), F(m, n + 1), m) == 1
    # the assembly piece vanishes at the top corner (0, (m+2)/(n+1))
    top = ps[-1]
    assert top.weight.value_at(F(0), F(m + 2, n + 1), m) == 0


def test_piece_weights_nonnegative_at_vertices():
    for n in (1, 2, 3, 4):
        for m in (3, 7, 12):
            for p in pieces(n, m):
                for x, y in p.vertices:
                    assert p.weight.value_at(x, y, m) >= 0


def test_piece_weights_match_lattice_weight_at_interior_points():
    # at integer points strictly inside one piece the affine form must equal
    # the lattice weight (where parity holds)
    for n, m in ((1, 8), (2, 6), (3, 9)):
        for p in pieces(n, m):
            verts = p.vertices
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
                    assert weight(n, m, cand) == p.weight.value_at(
                        F(cand[0]), F(cand[1]), m
                    )
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
    p0 = pieces(n, m)[0]
    exact = integrate_piece(p0)
    steps = 160
    xs = [x for x, _ in p0.vertices]
    ys = [y for _, y in p0.vertices]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    dx = (x_hi - x_lo) / steps
    dy = (y_hi - y_lo) / steps
    total = F(0)
    for ix in range(steps):
        for iy in range(steps):
            cx = x_lo + dx * ix + dx / 2
            cy = y_lo + dy * iy + dy / 2
            if _inside(p0.vertices, (cx, cy)):
                total += p0.weight.value_at(cx, cy, m)
    riemann = total * dx * dy
    assert abs(riemann - exact) < F(1, 1000)


def test_pieces_tile_the_upper_polygon_exactly():
    # unit-weight integrals of the pieces must add up to the area of the
    # quadrilateral hull {x1 >= 0, x2 >= 0, x1-(n-1)x2 <= m, -x1+(n+1)x2 <= m+2}
    unit = AffineWeight(F(0), F(0), F(0), F(1))
    for n in (1, 2, 3, 4):
        for m in (2, 5, 9):
            total = sum(
                integrate_piece(PolygonPiece(p.label, p.m, p.vertices, unit))
                for p in pieces(n, m)
            )
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


def test_integral_cubic_fit_leading_coefficient():
    # the exact integral is a cubic polynomial in m whose leading coefficient
    # is the closed-form growth rate; quadratic coefficient is 3x that
    for n in range(1, 5):
        points = [(m, upper_integral(n, m)) for m in (6, 12, 18, 24)]
        coeffs = _interpolate(points, 3)
        assert coeffs[3] == h0_omega(n)
        assert coeffs[2] == 3 * h0_omega(n)
        probe = 30
        assert sum(c * probe**k for k, c in enumerate(coeffs)) == upper_integral(
            n, probe
        )


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


def test_integral_vs_sum_check_records():
    rec = integral_vs_sum_check(2, 6)
    assert rec["hsum"] == 44
    assert rec["residual"] == rec["hsum"] - rec["integral"]
    # degenerate end of the range: the n = 1 polygon vanishes at m = 0
    rec0 = integral_vs_sum_check(1, 0)
    assert rec0["hsum"] == 0 and rec0["integral"] == 0


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
