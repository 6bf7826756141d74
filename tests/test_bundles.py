"""Chern-class calculus checks.

The degree and Euler-characteristic formulas each have two independent
implementations in the library (tautological-class expansion vs. the
closed forms), so the grids below cross-check them against each other
over every small coefficient combination rather than spot values only.
"""

from fractions import Fraction

import pytest

from fano64.bundles import (
    BundleClass,
    RankTwoBundle,
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
    anticanonical_class,
    intersect,
    k_squared,
    plane_class,
    ruled_class,
)

HIRZEBRUCHS = [BaseSurface(n) for n in range(5)]


def grid_bundles():
    for base in [P2] + HIRZEBRUCHS:
        for a in range(-5, 6):
            b_values = [0] if base.is_plane else range(-5, 6)
            for b in b_values:
                c1 = SurfaceClass(base, a, b)
                for c2 in range(-5, 6):
                    yield RankTwoBundle(base, c1, c2)


def test_c1_must_live_on_the_base():
    with pytest.raises(ValueError):
        RankTwoBundle(P2, ruled_class(0, 1, 1), 0)


def test_c1_and_twists_must_live_on_the_same_hirzebruch_surface():
    with pytest.raises(ValueError):
        RankTwoBundle(F2, ruled_class(1, 1, 1), 0)
    data = RankTwoBundle(F2, ruled_class(2, 1, 1), 0)
    with pytest.raises(ValueError):
        twist(data, ruled_class(1, 1, 0))


def test_a_surface_built_afresh_carries_the_same_bundles():
    fresh = BaseSurface(2)
    data = RankTwoBundle(fresh, ruled_class(2, -2, -2), -2)
    assert data == RankTwoBundle(F2, ruled_class(2, -2, -2), -2)
    assert chi_rank2(data) == 2
    twisted = twist(data, SurfaceClass(F2, 1, 1))
    assert twisted.c1 == SurfaceClass(fresh, 0, 0)
    assert degree_p1_bundle(twisted) == degree_p1_bundle(data) == 64


def test_anticanonical_class_of_bundle():
    data = RankTwoBundle(F2, ruled_class(2, -2, -2), -2)
    mk = p1_bundle_anticanonical(data)
    assert mk.d_coeff == 2
    assert mk.pullback == ruled_class(2, 4, 6)
    assert str(mk) == "2D + pi*(4h+6l)"
    assert str(BundleClass(2, SurfaceClass(F0, 0, 0))) == "2D"


def test_cone_degrees():
    assert degree_p1_bundle(RankTwoBundle(F0, anticanonical_class(F0), 0)) == 64
    assert degree_p1_bundle(RankTwoBundle(F1, anticanonical_class(F1), 0)) == 64
    assert degree_p1_bundle(RankTwoBundle(P2, plane_class(3), 0)) == 72


def test_degree_agrees_with_tautological_expansion():
    # degree = 6K^2 + 2c1^2 - 8c2 on one side, (-K_Y)^3 expanded through
    # D^3 = c1^2 - c2 on the other
    for data in grid_bundles():
        cube = triple_intersection(data, p1_bundle_anticanonical(data))
        assert cube == degree_p1_bundle(data)


def test_degree_is_twist_invariant():
    for data in grid_bundles():
        if data.base.is_plane:
            twists = [plane_class(t) for t in range(-2, 3)]
        else:
            twists = [
                ruled_class(data.base.n, p, q)
                for p in range(-2, 3)
                for q in range(-2, 3)
            ]
        for b in twists:
            assert degree_p1_bundle(twist(data, b)) == degree_p1_bundle(data)


def test_chi_agrees_with_hirzebruch_closed_form():
    for n in range(5):
        base = BaseSurface(n)
        for a in range(-5, 6):
            for b in range(-5, 6):
                for c in range(-5, 6):
                    data = RankTwoBundle(base, ruled_class(n, a, b), c)
                    closed = (
                        -Fraction(n * a * (a + 1), 2) + a * b + a + b - c + 2
                    )
                    assert chi_rank2(data) == closed


def test_chi_agrees_with_twisted_closed_form():
    # after twisting down to -2 <= a', b' <= -1 the Euler characteristic
    # collapses to (b' - n*a'/2)(a' + 1) + a' - c2' + 2
    for n in range(5):
        base = BaseSurface(n)
        for a_p in (-2, -1):
            for b_p in (-2, -1):
                for c2_p in range(-6, 7):
                    data = RankTwoBundle(base, ruled_class(n, a_p, b_p), c2_p)
                    closed = (
                        (b_p - Fraction(n * a_p, 2)) * (a_p + 1)
                        + a_p
                        - c2_p
                        + 2
                    )
                    assert chi_rank2(data) == closed


def test_chi_of_split_bundles():
    # O + O(B) with B nef: chi = chi(O) + chi(O(B)), and chi(O(B)) counts
    # lattice points of the corresponding polygon on a toric surface
    for n in range(5):
        base = BaseSurface(n)
        for a in range(0, 4):
            for b in range(n * a, n * a + 5):
                cls = ruled_class(n, a, b)
                split = RankTwoBundle(base, cls, 0)
                sections = sum(b - n * i + 1 for i in range(a + 1))
                assert chi_rank2(split) == 1 + sections


def test_twist_chern_classes():
    data = RankTwoBundle(F2, ruled_class(2, 2, 4), 3)
    b = ruled_class(2, -1, -2)
    out = twist(data, b)
    assert out.c1 == ruled_class(2, 0, 0)
    assert out.c2 == 3 + intersect(data.c1, b) + intersect(b, b)


def test_solve_c2_for_degree():
    cases = [
        (P2, plane_class(0), Fraction(-5, 4), False),
        (F1, ruled_class(1, 1, 0), Fraction(-9, 4), False),
        (F1, ruled_class(1, 1, 1), Fraction(-7, 4), False),
        (F1, ruled_class(1, -2, -2), Fraction(-1), True),
        (F2, ruled_class(2, -2, -2), Fraction(-2), True),
    ]
    for base, c1, expected, integral in cases:
        value, ok = solve_c2_for_degree(base, c1, 64)
        assert value == expected
        assert ok is integral


def test_solve_then_evaluate_round_trip():
    for base in [P2] + HIRZEBRUCHS:
        for a in range(-3, 4):
            for b in [0] if base.is_plane else range(-3, 4):
                c1 = SurfaceClass(base, a, b)
                value, ok = solve_c2_for_degree(base, c1, 64)
                if ok:
                    data = RankTwoBundle(base, c1, int(value))
                    assert degree_p1_bundle(data) == 64


def test_chi_of_f2_case_is_two():
    assert chi_rank2(RankTwoBundle(F2, ruled_class(2, -2, -2), -2)) == 2


def test_split_gap_bound():
    assert split_gap_bound_holds(0, 0, 0)
    assert split_gap_bound_holds(3, 0, 1)
    assert not split_gap_bound_holds(4, 0, 1)
    assert split_gap_bound_holds(-2, 2, 2)


def test_c1_nef_domination():
    assert c1_nef_dominated(P2, plane_class(9))
    assert not c1_nef_dominated(P2, plane_class(10))
    assert c1_nef_dominated(F0, ruled_class(0, 6, 6))
    assert not c1_nef_dominated(F0, ruled_class(0, 7, 6))


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
