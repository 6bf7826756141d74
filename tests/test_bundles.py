"""Chern-class calculus checks.

The degree and Euler-characteristic formulas each have two independent
implementations in the library (tautological-class expansion vs. the
closed forms), so the grids below cross-check them against each other
over every small coefficient combination rather than spot values only.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement

import pytest

import fano64.bundles
from fano64.bundles import (
    c1_nef_dominated,
    chi_rank2,
    degree_p1_bundle,
    kg2_integral,
    p1_bundle_anticanonical,
    rr_dim_anticanonical,
    scroll_degree,
    solve_c2_for_degree,
    split_gap_bound_holds,
    triple_intersection,
    twist,
)
from fano64.surfaces import (
    F0,
    F1,
    F2,
    BaseSurface,
    P2,
    SurfaceClass,
    canonical_class,
    intersect,
)

HIRZEBRUCHS = [BaseSurface(n) for n in range(5)]


def grid_bundles():
    """Chern data (c1, c2) over small coefficients on every base."""
    for base in [P2] + HIRZEBRUCHS:
        for a in range(-5, 6):
            b_values = [0] if base.is_plane else range(-5, 6)
            for b in b_values:
                c1 = SurfaceClass(base, a, b)
                for c2 in range(-5, 6):
                    yield c1, c2


def test_c1_and_twists_must_live_on_the_same_hirzebruch_surface():
    with pytest.raises(ValueError):
        twist(SurfaceClass(F2, 1, 1), 0, SurfaceClass(F1, 1, 0))
    with pytest.raises(ValueError):
        twist(SurfaceClass(P2, 1), 0, SurfaceClass(F0, 1, 0))


def test_a_surface_built_afresh_carries_the_same_bundles():
    fresh = BaseSurface(2)
    c1 = SurfaceClass(fresh, -2, -2)
    assert c1 == SurfaceClass(F2, -2, -2)
    assert chi_rank2(c1, -2) == 2
    c1_t, c2_t = twist(c1, -2, SurfaceClass(F2, 1, 1))
    assert c1_t == SurfaceClass(fresh, 0, 0)
    assert degree_p1_bundle(c1_t, c2_t) == degree_p1_bundle(c1, -2) == 64


def test_anticanonical_class_of_bundle():
    assert p1_bundle_anticanonical(SurfaceClass(F2, -2, -2)) == "2D + pi*(4h+6l)"
    assert p1_bundle_anticanonical(-canonical_class(F0)) == "2D"
    assert p1_bundle_anticanonical(SurfaceClass(P2, 0)) == "2D + pi*(3L)"


def test_anticanonical_text_is_2d_plus_the_pullback_of_minus_k_minus_c1():
    # -K_Y = 2D + pi*(-K_S - c1), written from this test's own class
    for c1, c2 in grid_bundles():
        if c2:
            continue
        b = -canonical_class(c1.surface) - c1
        expected = "2D" if b.is_zero() else f"2D + pi*({b})"
        assert p1_bundle_anticanonical(c1) == expected


def test_cone_degrees():
    assert degree_p1_bundle(-canonical_class(F0), 0) == 64
    assert degree_p1_bundle(-canonical_class(F1), 0) == 64
    assert degree_p1_bundle(SurfaceClass(P2, 3), 0) == 72


def test_degree_agrees_with_tautological_expansion():
    # degree = 6K^2 + 2c1^2 - 8c2 on one side, (-K_Y)^3 = (2D + pi*B)^3
    # with B = -K_S - c1 expanded through D^3 = c1^2 - c2 on the other
    for c1, c2 in grid_bundles():
        b = -canonical_class(c1.surface) - c1
        assert triple_intersection(c1, c2, 2, b) == degree_p1_bundle(c1, c2)


def test_degree_is_twist_invariant():
    for c1, c2 in grid_bundles():
        base = c1.surface
        if base.is_plane:
            twists = [SurfaceClass(P2, t) for t in range(-2, 3)]
        else:
            twists = [
                SurfaceClass(base, p, q)
                for p in range(-2, 3)
                for q in range(-2, 3)
            ]
        for b in twists:
            assert degree_p1_bundle(*twist(c1, c2, b)) == degree_p1_bundle(c1, c2)


def test_chi_is_an_int_equal_to_the_rational_riemann_roch():
    # chi(E) = (c1^2 - 2 c2 - K.c1) / 2 + 2, computed here as a Fraction
    for c1, c2 in grid_bundles():
        k = canonical_class(c1.surface)
        chi = chi_rank2(c1, c2)
        assert type(chi) is int
        assert chi == Fraction(intersect(c1, c1) - 2 * c2 - intersect(k, c1) + 4, 2)


def test_chi_agrees_with_hirzebruch_closed_form():
    for n in range(5):
        for a in range(-5, 6):
            for b in range(-5, 6):
                for c in range(-5, 6):
                    closed = (
                        -Fraction(n * a * (a + 1), 2) + a * b + a + b - c + 2
                    )
                    assert chi_rank2(SurfaceClass(BaseSurface(n), a, b), c) == closed


def test_chi_agrees_with_twisted_closed_form():
    # after twisting down to -2 <= a', b' <= -1 the Euler characteristic
    # collapses to (b' - n*a'/2)(a' + 1) + a' - c2' + 2
    for n in range(5):
        for a_p in (-2, -1):
            for b_p in (-2, -1):
                for c2_p in range(-6, 7):
                    closed = (
                        (b_p - Fraction(n * a_p, 2)) * (a_p + 1)
                        + a_p
                        - c2_p
                        + 2
                    )
                    assert chi_rank2(SurfaceClass(BaseSurface(n), a_p, b_p), c2_p) == closed


def test_chi_of_split_bundles():
    # O + O(B) with B nef: chi = chi(O) + chi(O(B)), and chi(O(B)) counts
    # lattice points of the corresponding polygon on a toric surface
    for n in range(5):
        for a in range(0, 4):
            for b in range(n * a, n * a + 5):
                sections = sum(b - n * i + 1 for i in range(a + 1))
                assert chi_rank2(SurfaceClass(BaseSurface(n), a, b), 0) == 1 + sections


@cache
def _sections(d: SurfaceClass) -> int:
    """#P_D, the lattice points m with <m, u> >= -d_u on every ray u of the base's fan.

    P^2 has rays (1,0), (0,1), (-1,-1), with aL = a D_(-1,-1); F_n has
    rays (1,0), (0,1), (-1,n), (0,-1), with l = D_(1,0) and the negative
    section h = D_(0,1).  Each row y is scanned between its facet
    inequalities: u_x x >= -d_u - u_y y bounds x below when u_x > 0,
    above when u_x < 0, and empties the row when u_x = 0 and it fails.
    The rows at both ends of the window must be empty, so the window
    holds the whole polygon.  For nef D this is h^0(D) = chi(D).
    """
    s = d.surface
    if s.is_plane:
        rays, coeffs = ((1, 0), (0, 1), (-1, -1)), (0, 0, d.a)
    else:
        rays, coeffs = ((1, 0), (0, 1), (-1, s.n), (0, -1)), (d.b, d.a, 0, 0)
    reach = (1 + max(abs(t) for u in rays for t in u)) * max(map(abs, coeffs)) + 1
    rows = []
    for y in range(-reach, reach + 1):
        lo, hi, empty = None, None, False
        for (ux, uy), c in zip(rays, coeffs):
            r = -c - uy * y
            if ux > 0:
                bound = -(-r // ux)
                lo = bound if lo is None else max(lo, bound)
            elif ux < 0:
                bound = r // ux
                hi = bound if hi is None else min(hi, bound)
            elif r > 0:
                empty = True
        rows.append(0 if empty else max(0, hi - lo + 1))
    assert rows[0] == rows[-1] == 0, d
    return sum(rows)


def _is_nef(d: SurfaceClass) -> bool:
    # D.C >= 0 on the torus-invariant curves: L on P^2; the fiber l and h on F_n
    return d.a >= 0 if d.surface.is_plane else d.a >= 0 and d.b >= d.surface.n * d.a


def _classes(base: BaseSurface, a_max: int, b_max: int) -> list[SurfaceClass]:
    b_values = [0] if base.is_plane else range(-b_max, b_max + 1)
    return [SurfaceClass(base, a, b) for a in range(-a_max, a_max + 1) for b in b_values]


def test_chi_of_line_bundles_counts_sections_and_obeys_serre_duality():
    """chi(D) = chi_rank2(D, 0) - 1, as O + O(D) has chi(O) = 1, against #P_D.

    On P^2 with |a| <= 9, and on F0 ... F4 with |a| <= 5 and |b| <= 12:
    chi(D) = #P_D for nef D, and chi(D) = chi(K - D) = #P_(K - D) when
    K - D is nef.
    """
    nef = dual = 0
    for base in [P2] + HIRZEBRUCHS:
        k = canonical_class(base)
        for d in _classes(base, 9 if base.is_plane else 5, 12):
            chi = chi_rank2(d, 0) - 1
            assert chi == chi_rank2(k - d, 0) - 1, d
            if _is_nef(d):
                assert chi == _sections(d), d
                nef += 1
            if _is_nef(k - d):
                assert chi == _sections(k - d), d
                dual += 1
    # P^2 and F0 ... F4 hold 10 + 252 nef classes in the box, and 7 + 127 with K - D nef
    assert (nef, dual) == (262, 134)


def test_chi_of_split_pairs_and_their_twists_counts_sections():
    """O(D1) + O(D2) has c1 = D1 + D2 and c2 = D1.D2, and chi = #P_D1 + #P_D2.

    Every unordered pair of nef classes with |a| <= 3 and |b| <= 6, on P^2
    and F0 ... F4.  Twisting by B, with |a| <= 1 and |b| <= 2, gives the
    split pair O(D1 + B) + O(D2 + B): twist's Chern data must have that
    c1 and, where both summands stay nef, their count of sections.
    """
    pairs = twisted = 0
    for base in [P2] + HIRZEBRUCHS:
        nef = [d for d in _classes(base, 3, 6) if _is_nef(d)]
        twists = _classes(base, 1, 2)
        for d1, d2 in combinations_with_replacement(nef, 2):
            c1, c2 = d1 + d2, intersect(d1, d2)
            assert chi_rank2(c1, c2) == _sections(d1) + _sections(d2), (d1, d2)
            pairs += 1
            for b in twists:
                e1, e2 = d1 + b, d2 + b
                c1_t, c2_t = twist(c1, c2, b)
                assert c1_t == e1 + e2, (d1, d2, b)
                if _is_nef(e1) and _is_nef(e2):
                    assert chi_rank2(c1_t, c2_t) == _sections(e1) + _sections(e2), (d1, d2, b)
                    twisted += 1
    # unordered pairs of the 4 nef classes on P^2 and 28, 22, 16, 12, 10 on F0 ... F4
    assert (pairs, twisted) == (938, 8714)


def test_twist_chern_classes():
    c1 = SurfaceClass(F2, 2, 4)
    b = SurfaceClass(F2, -1, -2)
    c1_t, c2_t = twist(c1, 3, b)
    assert c1_t == SurfaceClass(F2, 0, 0)
    assert c2_t == 3 + intersect(c1, b) + intersect(b, b)


def test_solve_c2_for_degree():
    cases = [
        (SurfaceClass(P2, 0), Fraction(-5, 4), False),
        (SurfaceClass(F1, 1, 0), Fraction(-9, 4), False),
        (SurfaceClass(F1, 1, 1), Fraction(-7, 4), False),
        (SurfaceClass(F1, -2, -2), Fraction(-1), True),
        (SurfaceClass(F2, -2, -2), Fraction(-2), True),
    ]
    for c1, expected, integral in cases:
        value = solve_c2_for_degree(c1, 64)
        assert type(value) is Fraction
        assert value == expected
        assert (value.denominator == 1) is integral


def test_solve_then_evaluate_round_trip():
    for base in [P2] + HIRZEBRUCHS:
        for a in range(-3, 4):
            for b in [0] if base.is_plane else range(-3, 4):
                c1 = SurfaceClass(base, a, b)
                value = solve_c2_for_degree(c1, 64)
                if value.denominator == 1:
                    assert degree_p1_bundle(c1, int(value)) == 64


def test_chi_of_f2_case_is_two():
    assert chi_rank2(SurfaceClass(F2, -2, -2), -2) == 2


def test_split_gap_bound():
    assert split_gap_bound_holds(0, 0, 0)
    assert split_gap_bound_holds(3, 0, 1)
    assert not split_gap_bound_holds(4, 0, 1)
    assert split_gap_bound_holds(-2, 2, 2)


def test_c1_nef_domination():
    assert c1_nef_dominated(SurfaceClass(P2, 9))
    assert not c1_nef_dominated(SurfaceClass(P2, 10))
    assert c1_nef_dominated(SurfaceClass(F0, 6, 6))
    assert not c1_nef_dominated(SurfaceClass(F0, 7, 6))


def test_scrolls():
    # rank-3 scroll degree is independent of the splitting type; cube
    # -K = 3M + (2 - d)F term by term with M^3 = d, M^2.F = 1, F^2 = 0
    for degrees in [(0, 0, 0), (1, 0, 0), (3, 1, 0), (5, 2, 0), (9, 4, 0)]:
        d = sum(degrees)
        a, b = 3, 2 - d
        assert scroll_degree(degrees) == a**3 * d + 3 * a**2 * b == 54


def test_anticanonical_rr_dimension():
    assert rr_dim_anticanonical(64) == 34
    assert rr_dim_anticanonical(72) == 38
    assert rr_dim_anticanonical(0) == 2
    with pytest.raises(ValueError):
        rr_dim_anticanonical(63)
    with pytest.raises(ValueError):
        rr_dim_anticanonical(-2)


def test_half_k_squared_genus_integrality():
    assert kg2_integral(64)
    assert kg2_integral(72)
    assert not kg2_integral(66)
    assert not kg2_integral(68)
    assert not kg2_integral(70)


def test_chi_rank2_refuses_an_odd_c1_c1_minus_k(monkeypatch):
    # no divisor on a smooth surface gives one; a broken intersection form would
    monkeypatch.setattr(fano64.bundles, "intersect", lambda a, b: 1)
    with pytest.raises(ArithmeticError) as err:
        chi_rank2(SurfaceClass(P2, 1), 0)
    assert str(err.value) == "c1.(c1 - K) = 1 is odd for c1 = L"
