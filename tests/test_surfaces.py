import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano64.surfaces import (
    F0,
    F1,
    F2,
    F3,
    F4,
    BaseSurface,
    P2,
    SurfaceClass,
    canonical_class,
    intersect,
    k_squared,
    nef_cone_generators,
)

surfaces = st.sampled_from([P2, F0, F1, F2, BaseSurface(3)])
small = st.integers(min_value=-6, max_value=6)


@st.composite
def classes(draw, surface=None):
    s = surface if surface is not None else draw(surfaces)
    if s.is_plane:
        return SurfaceClass(s, draw(small))
    return SurfaceClass(s, draw(small), draw(small))


def test_surface_construction():
    assert P2.is_plane
    assert not F2.is_plane
    assert F2.n == 2
    assert str(P2) == "P2"
    assert str(F0) == "F0"
    with pytest.raises(ValueError):
        BaseSurface(-1)
    with pytest.raises(ValueError) as err:
        P2.n
    assert str(err.value) == "the projective plane has no Hirzebruch index"


def test_class_strings():
    assert str(SurfaceClass(F2, 2, 4)) == "2h+4l"
    assert str(SurfaceClass(F1, -2, -2)) == "-2h-2l"
    assert str(SurfaceClass(F0, 1, 0)) == "h"
    assert str(SurfaceClass(F0, 0, 0)) == "0"
    assert str(SurfaceClass(P2, 3)) == "3L"
    assert str(SurfaceClass(P2, -1)) == "-L"
    assert str(SurfaceClass(P2, 1)) == "L"
    assert str(SurfaceClass(P2, 0)) == "0"


def test_class_arithmetic():
    d = SurfaceClass(F1, 1, 2)
    assert d + d == SurfaceClass(F1, 2, 4)
    assert d - d == SurfaceClass(F1, 0, 0)
    assert (d - d).is_zero()
    assert -d == SurfaceClass(F1, -1, -2)
    assert 3 * d == SurfaceClass(F1, 3, 6)
    with pytest.raises(ValueError):
        d + SurfaceClass(P2, 1)


def test_only_an_integer_on_the_left_scales_a_class():
    # a class is a tuple underneath, and c * k must not repeat it
    c = SurfaceClass(F0, 1, 2)
    assert 2 * c == SurfaceClass(F0, 2, 4) and type(2 * c) is SurfaceClass
    with pytest.raises(TypeError):
        c * 2


def test_classes_on_different_hirzebruch_surfaces_do_not_combine():
    on_f1, on_f2 = SurfaceClass(F1, 1, 1), SurfaceClass(F2, 1, 1)
    for combine in (intersect, lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(ValueError, match="^classes live on different surfaces: F1 vs F2$"):
            combine(on_f1, on_f2)
        with pytest.raises(ValueError, match="^classes live on different surfaces: F2 vs F1$"):
            combine(on_f2, on_f1)


def test_a_class_combines_only_with_a_class():
    c = SurfaceClass(F1, 1, 1)
    for combine in (intersect, lambda x, y: x + y, lambda x, y: x - y):
        for other in (1, (F1, 1, 1), None):
            with pytest.raises(AttributeError):
                combine(c, other)


def test_a_surface_built_afresh_is_the_same_surface():
    fresh = BaseSurface(2)
    assert fresh is not F2
    d, e = SurfaceClass(fresh, 1, 3), SurfaceClass(F2, 0, 1)
    assert d + e == SurfaceClass(F2, 1, 4)
    assert intersect(d, e) == 1
    assert canonical_class(fresh) == canonical_class(F2)
    assert k_squared(fresh) == k_squared(F2) == 8


# Sums, differences, negatives and integer multiples skip SurfaceClass's
# check; they must build what the checked constructor builds.
@given(
    st.sampled_from([P2, F0, F1, F2, F3, F4]).flatmap(
        lambda s: st.tuples(classes(s), classes(s))
    ),
    small,
)
def test_derived_classes_equal_the_checked_ones(pair, k):
    c, d = pair
    s = c.surface
    for got, a, b in (
        (c + d, c.a + d.a, c.b + d.b),
        (c - d, c.a - d.a, c.b - d.b),
        (-c, -c.a, -c.b),
        (k * c, k * c.a, k * c.b),
    ):
        assert got == SurfaceClass(s, a, b) and type(got) is SurfaceClass
        assert got.surface is s
        if s.is_plane:
            assert got.b == 0
    fresh = SurfaceClass(BaseSurface(s.hirzebruch_n), d.a, d.b)
    assert fresh.surface is not s
    assert (c + fresh, c - fresh, intersect(c, fresh)) == (c + d, c - d, intersect(c, d))


def _oracle_form(s, x, y):
    # L^2 = 1 on the plane; h^2 = -n, h.l = 1, l^2 = 0 on F_n
    if s.is_plane:
        return x[0] * y[0]
    gram = ((-s.n, 1), (1, 0))
    return sum(gram[i][j] * x[i] * y[j] for i in range(2) for j in range(2))


@given(
    st.sampled_from([P2, F0, F1, F2, F3, F4]).flatmap(
        lambda s: st.tuples(classes(s), classes(s))
    )
)
def test_operators_match_the_bilinear_form_oracle(pair):
    c, d = pair
    s = c.surface
    x, y = (c.a, c.b), (d.a, d.b)
    got = intersect(c, d)
    assert got == _oracle_form(s, x, y) and type(got) is int
    for total, sign in ((c + d, 1), (c - d, -1)):
        assert type(total) is SurfaceClass and total.surface is s
        z = (x[0] + sign * y[0], x[1] + sign * y[1])
        assert (total.a, total.b) == z
        # the result is a class again: it pairs by the same form
        assert intersect(total, d) == _oracle_form(s, z, y)


def test_intersection_form():
    # h^2 = -n, h.l = 1, l^2 = 0 on F_n; L^2 = 1 on the plane
    h, l = SurfaceClass(F2, 1, 0), SurfaceClass(F2, 0, 1)
    assert intersect(h, h) == -2
    assert intersect(h, l) == 1
    assert intersect(l, l) == 0
    assert intersect(SurfaceClass(P2, 2), SurfaceClass(P2, 3)) == 6


@given(classes(), classes(), classes())
def test_intersection_is_symmetric_and_bilinear(d1, d2, d3):
    if d1.surface != d2.surface or d1.surface != d3.surface:
        return
    assert intersect(d1, d2) == intersect(d2, d1)
    assert intersect(d1 + d2, d3) == intersect(d1, d3) + intersect(d2, d3)


def test_canonical_classes():
    assert -canonical_class(P2) == SurfaceClass(P2, 3)
    assert -canonical_class(F0) == SurfaceClass(F0, 2, 2)
    assert str(-canonical_class(F2)) == "2h+4l"
    assert canonical_class(F1) == SurfaceClass(F1, -2, -3)
    assert k_squared(P2) == 9
    assert k_squared(F0) == 8
    assert k_squared(F2) == 8


@given(surfaces)
def test_k_squared_is_eight_or_nine(s):
    assert k_squared(s) == (9 if s.is_plane else 8)


def test_nef_cone():
    gens = nef_cone_generators(F2)
    assert gens == (SurfaceClass(F2, 0, 1), SurfaceClass(F2, 1, 2))
    assert nef_cone_generators(P2) == (SurfaceClass(P2, 1),)


def test_plane_classes_have_no_fiber_part():
    assert SurfaceClass(P2, 2).b == 0
    with pytest.raises(ValueError):
        SurfaceClass(P2, 1, 1)
