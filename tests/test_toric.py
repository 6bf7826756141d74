import json
import random
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, combinations_with_replacement, product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fano64.toric
from fano64.lattice import IVec, _cross, _dot, det3, solve3
from fano64.toric import (
    ConeSingularity,
    Fan,
    RationalPolytope,
    _cone_walls,
    _ring_walls,
    _support_plane,
    anticanonical_polytope,
    cone_singularity,
    fan_from_json,
    validate_fan,
)
from fano64.wps import Weights, wps_degree, wps_is_gorenstein

FANS = Path(__file__).resolve().parent.parent / "fans"

# rays of the fan whose walls get modified below; e2, e3, e4 span the
# defective cone
E1 = (-1, 0, 0)
E2 = (1, -1, 0)
E3 = (-1, -1, 2)
E4 = (-1, -1, 3)
E5 = (-1, 2, -1)


def vsum(*vs: IVec) -> IVec:
    return (sum(v[0] for v in vs), sum(v[1] for v in vs), sum(v[2] for v in vs))


def scaled(v: IVec, k: int) -> IVec:
    return (k * v[0], k * v[1], k * v[2])


def load(name: str) -> Fan:
    return fan_from_json((FANS / name).read_text())


def test_cone_lattice_index():
    assert cone_singularity(((1, 0, 0), (0, 1, 0), (0, 0, 1))).index == 1
    assert cone_singularity((E1, E2, E3)).index == 2
    assert cone_singularity((E1, E2, E5)).index == 1
    # a non-simplicial cone has no index; dependent rays have nothing but degeneracy
    assert cone_singularity((E1, E3, E4, E5)) == ConeSingularity(False, support=(1, 0, 0))
    assert cone_singularity((E1, E2, vsum(E1, E2))) == ConeSingularity(degenerate=True)
    assert cone_singularity((E1, E2, vsum(E1, E2), scaled(E1, 2))).degenerate


def test_gorenstein_support():
    assert cone_singularity((E1, E2, E3)).support == (1, 2, 1)
    assert cone_singularity((E1, E3, E4, E5)).support == (1, 0, 0)
    assert cone_singularity((E1, E2, E5)).support == (1, 2, 4)
    assert cone_singularity((E2, E3, E4, E5)).support is None


def test_support_pairs_to_minus_one_on_every_ray():
    rays = (E1, E2, E3)
    m = cone_singularity(rays).support
    for v in rays:
        assert _dot(m, v) == -1


def _positive_dependence_oracle(vectors: tuple[IVec, ...]) -> bool:
    """Whether 0 is a nontrivial non-negative combination of the vectors.

    Equivalent to the generated cone containing a line.  A minimal such
    dependence is supported on at most 4 vectors in rank 3, so checking
    subsets of size 2 to 4 is exhaustive: a parallel pair pointing apart,
    a rank-2 triple whose dependence coefficients share a sign (each
    candidate is the cross product of two coordinate rows), or a
    quadruple whose Cramer coefficients share a sign.
    """

    def same_sign(lam):
        nonzero = [x for x in lam if x != 0]
        return bool(nonzero) and (all(x > 0 for x in nonzero) or all(x < 0 for x in nonzero))

    def dependence_coeffs_3(triple):
        rows = list(zip(*triple))
        for r, s in combinations(rows, 2):
            lam = _cross(r, s)
            if any(lam):
                return lam if all(_dot(lam, row) == 0 for row in rows) else None
        return None

    for a, b in combinations(vectors, 2):
        if _cross(a, b) == (0, 0, 0) and _dot(a, b) < 0:
            return True
    for a, b, c in combinations(vectors, 3):
        if det3(a, b, c) != 0:
            continue
        lam = dependence_coeffs_3((a, b, c))
        if lam is not None and same_sign(lam):
            return True
    for a, b, c, d in combinations(vectors, 4):
        ab, cd = _cross(a, b), _cross(c, d)
        lam = (_dot(b, cd), -_dot(a, cd), _dot(d, ab), -_dot(c, ab))
        if any(lam) and same_sign(lam):
            return True
    return False


small = st.integers(min_value=-4, max_value=4)
small_rays = st.tuples(small, small, small)
UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _support_plane_oracle(rays: tuple[IVec, ...]) -> tuple[IVec, int, bool] | None:
    """(s, L, every ray on the plane) from the Fraction m of the first independent triple.

    m solves <m, v> = -1 on the triple by Cramer's rule over Fractions,
    L is the lcm of m's denominators and s = L m.
    """
    for triple in combinations(rays, 3):
        d = det3(*triple)
        if d == 0:
            continue
        m = [
            Fraction(det3(*[tuple(-1 if k == j else v[k] for k in range(3)) for v in triple]), d)
            for j in range(3)
        ]
        level = 1
        for x in m:
            level = level * x.denominator // gcd(level, x.denominator)
        s = tuple(int(x * level) for x in m)
        return s, level, all(_dot(m, v) == -1 for v in rays)
    return None


@st.composite
def dependent_rays(draw):
    """Rays each zero, a multiple of an earlier ray, in the span of two, or drawn freely."""
    rays: list[IVec] = []
    for _ in range(draw(st.integers(min_value=3, max_value=8))):
        kind = draw(st.sampled_from(("zero", "parallel", "coplanar", "free")))
        if kind == "zero":
            rays.append((0, 0, 0))
        elif kind == "parallel" and rays:
            v, k = draw(st.sampled_from(rays)), draw(small)
            rays.append((k * v[0], k * v[1], k * v[2]))
        elif kind == "coplanar" and len(rays) > 1:
            u, v = draw(st.sampled_from(rays)), draw(st.sampled_from(rays))
            p, q = draw(small), draw(small)
            rays.append(tuple(p * a + q * b for a, b in zip(u, v)))
        else:
            rays.append(draw(small_rays))
    return tuple(rays)


# small coordinates, and coordinates near +-10^12
plane_coords = st.one_of(small, small.map(lambda t: t + 10**12), small.map(lambda t: t - 10**12))


@given(
    st.one_of(
        st.lists(st.tuples(plane_coords, plane_coords, plane_coords), min_size=3, max_size=6),
        dependent_rays(),
    )
)
@example([(0, 1, 0), (1, 0, 0), (0, 0, 1)])  # det -1
@example([(0, 2, 0), (1, 0, 0), (0, 0, 3), (-1, 0, 0)])  # det -6, fractional, off the plane
@example([(2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)])  # det 6, fractional, off the plane
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, -1, -1)])  # dependent first triple
@example([(10**12, 1, 0), (0, 10**12 - 1, 1), (1, 0, -(10**12))])
@example([(0, 0, 0), (1, 2, 3), (2, 4, 6), (0, 0, 0), (1, 0, 0), (3, 2, 3), (0, 0, 1)])
@example([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)])  # rank 2
def test_support_plane_matches_the_fraction_oracle(rays):
    rays = tuple(rays)
    assert _support_plane(rays) == _support_plane_oracle(rays)


def test_support_plane_of_a_rank_2_cone_solves_nothing(monkeypatch):
    """3000 rays on one plane: no triple is independent, and none is solved."""
    calls = []

    def counting_solve3(rows):
        calls.append(rows)
        return solve3(rows)

    monkeypatch.setattr(fano64.toric, "solve3", counting_solve3)
    rays = tuple((1, i, 0) for i in range(3000))
    assert _support_plane(rays) is None
    assert cone_singularity(rays).degenerate
    assert calls == []
    assert _support_plane(((1, 0, 0), (0, 1, 0), (0, 0, 1), *rays)) == ((-1, -1, -1), 1, False)
    assert len(calls) == 1


def _support_oracle(rays: tuple[IVec, ...]) -> IVec | None:
    """The Gorenstein support: the oracle's s when L = 1 and every ray lies on the plane."""
    plane = _support_plane_oracle(rays)
    if plane is None:
        return None
    s, level, on_plane = plane
    return s if level == 1 and on_plane else None


@given(
    st.one_of(
        st.lists(small_rays, min_size=3, max_size=6),
        # degenerate: every ray in the plane z = 0
        st.lists(st.tuples(small, small, st.just(0)), min_size=3, max_size=6),
        # integral solve on the first triple, so the later rays decide
        st.lists(small_rays, min_size=1, max_size=3).map(lambda rest: [*UNIT, *rest]),
    ).map(tuple)
)
@example(UNIT[:2] + ((1, 1, 0),))  # degenerate
@example(UNIT[:2] + ((1, 1, 2),))  # non-integral
@example(UNIT + ((1, 1, 1),))  # inconsistent
@example(UNIT + ((3, -1, -1),))  # integral, four rays
def test_gorenstein_support_matches_the_fraction_oracle(rays):
    out = cone_singularity(rays)
    assert out.support == _support_oracle(rays)
    assert out.degenerate is not any(det3(*triple) for triple in combinations(rays, 3))


def test_cone_checks_build_no_fraction(monkeypatch):
    """validate_fan and cone_singularity run in integers: a Fraction anywhere in them raises."""

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built in the cone checks")

    monkeypatch.setattr(fano64.toric, "Fraction", no_fraction)
    fans = [load(name) for name in ("p3.fan", "p1p1p1.fan", "x66.fan")]
    # a cone with a fractional support: L = 3
    fans.append(Fan(((1, 0, 0), (0, 1, 0), (1, 1, 3), (-1, -1, -1)), ((0, 1, 2),)))
    for f in fans:
        validate_fan(f)
        for cone in f.max_cones:
            cone_singularity([f.rays[i] for i in cone])
    # the polytope's degree is one Fraction, so the patch does bite
    with pytest.raises(AssertionError, match="built in the cone checks"):
        anticanonical_polytope(fans[0])


def test_classify_smooth_cone():
    out = cone_singularity(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert out.kind == "smooth"
    assert out.witness is None


def test_classify_transverse_a1():
    out = cone_singularity((E1, E2, E3))
    assert out.kind == "transverse-A1"
    assert out.witness == (0, -1, 1)
    # the witness is the half-sum of two generators, so it lies in the
    # lattice on a two-dimensional face
    assert scaled(out.witness, 2) == vsum(E2, E3)


def test_classify_isolated_half_point():
    rays = ((1, 0, 0), (0, 1, 0), (1, 1, 2))
    out = cone_singularity(rays)
    assert out.kind == "isolated-half-point"
    assert scaled(out.witness, 2) == vsum(*rays)


def test_classify_leaves_higher_index_unclassified():
    out = cone_singularity(((1, 0, 0), (0, 1, 0), (1, 1, 3)))
    assert (out.index, out.kind, out.witness) == (3, None, None)


def test_p3_polytope():
    p = anticanonical_polytope(load("p3.fan"))
    assert set(p.vertices) == {
        ((-1, -1, -1), 1),
        ((-1, -1, 3), 1),
        ((-1, 3, -1), 1),
        ((3, -1, -1), 1),
    }
    assert p.degree == 64


def test_cube_polytope_degree():
    p = anticanonical_polytope(load("p1p1p1.fan"))
    assert len(p.vertices) == 8
    assert p.degree == 48


def test_x66_polytope_degree():
    # the defective fan still has a bounded anticanonical polytope and
    # its normalized volume comes out at the claimed 66
    p = anticanonical_polytope(load("x66.fan"))
    assert p.degree == 66


def test_repeated_ray_bounds_one_facet():
    base = load("p3.fan")
    f = Fan(rays=base.rays + ((1, 0, 0),), max_cones=base.max_cones)
    p = anticanonical_polytope(f)
    assert set(p.vertices) == set(anticanonical_polytope(base).vertices)
    assert len(_polar_facets(f, p)) == 4
    assert p.degree == 64
    # the same on P(5,2,1,1), whose vertices' denominators 1, 2 and 5 need their common lcm
    base = _wps_fan((5, 2, 1, 1))
    f = Fan(rays=base.rays + ((-5, -2, -1), (0, 1, 0)), max_cones=base.max_cones)
    p = anticanonical_polytope(f)
    assert set(p.vertices) == set(anticanonical_polytope(base).vertices)
    assert len(_polar_facets(f, p)) == 4
    assert p.degree == Fraction(729, 10) == _oracle_degree(f, p)


def test_cube_face_fan_has_the_octahedron_as_polar():
    # all 26 nonzero points of {-1,0,1}^3, one cone per facet of the cube;
    # rays such as (1,1,0) or (1,0,0) touch Delta only in an edge or a
    # vertex and must add no volume
    rays = tuple(v for v in product((-1, 0, 1), repeat=3) if v != (0, 0, 0))
    cones = tuple(
        tuple(i for i, v in enumerate(rays) if v[axis] == sign)
        for axis in range(3)
        for sign in (-1, 1)
    )
    f = Fan(rays, cones)
    p = anticanonical_polytope(f)
    units = {(tuple(s * (i == k) for i in range(3)), 1) for k in range(3) for s in (-1, 1)}
    assert set(p.vertices) == units
    assert {v for v, _ in _polar_facets(f, p)} == set(product((-1, 1), repeat=3))
    assert p.degree == 8


def _weight_kernel_rows(weights: tuple[int, ...]) -> tuple[IVec, ...]:
    """Rows of a 4x3 integer matrix whose columns span {u : sum a_i u_i = 0}.

    Column reduction: integer column operations on the row of weights,
    mirrored on the identity, until one entry is the gcd 1 and the rest
    are 0.  The other three columns of the mirrored matrix then span the
    kernel, and the images of the standard basis of Z^4 / Z(a) are its rows.
    """
    row = list(weights)
    cols = [[int(i == j) for i in range(4)] for j in range(4)]
    while sum(1 for x in row if x) > 1:
        p = min((j for j in range(4) if row[j]), key=lambda j: abs(row[j]))
        for j in range(4):
            if j != p and row[j]:
                q = row[j] // row[p]
                row[j] -= q * row[p]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[p])]
    pivot = next(j for j in range(4) if row[j])
    assert abs(row[pivot]) == 1
    kernel = [cols[j] for j in range(4) if j != pivot]
    return tuple(tuple(col[i] for col in kernel) for i in range(4))


def _wps_fan(weights: tuple[int, int, int, int]) -> Fan:
    """The complete simplicial fan of P(weights): the kernel rows, all four triples as cones."""
    rays = _weight_kernel_rows(weights)
    assert vsum(*(scaled(v, a) for v, a in zip(rays, weights))) == (0, 0, 0)
    return Fan(rays, tuple(combinations(range(4), 3)))


def _wps_fans() -> list[tuple[Weights, Fan]]:
    """Every well-formed weight vector with entries at most 7, with its fan."""
    out = []
    for weights in combinations_with_replacement(range(7, 0, -1), 4):
        try:
            w = Weights(*weights)
        except ValueError:
            continue
        out.append((w, _wps_fan(w)))
    return out


def test_toric_degree_of_weighted_projective_space_matches_wps_degree():
    checked = 0
    for w, f in _wps_fans():
        assert anticanonical_polytope(f).degree == wps_degree(w)
        checked += 1
    assert checked == 125


def _oracle_hull_order(points, normal):
    """Cyclic boundary order of the vertices of one facet of Delta, as Fraction points.

    Not the monotone chain that _hull_order runs.  Every point is a
    vertex of the facet, so projected along a coordinate with
    normal_k != 0 no two others are collinear with the lexicographically
    least one, and one cross product orders each pair counter-clockwise
    around it, as _strict_hull_ring does.
    """
    drop = max(range(3), key=lambda i: abs(normal[i]))
    flat = {tuple(x for i, x in enumerate(pt) if i != drop): pt for pt in points}
    (ox, oy) = first = min(flat)

    def compare(a, b):
        # negative when a comes first, counter-clockwise around first
        return (b[0] - ox) * (a[1] - oy) - (b[1] - oy) * (a[0] - ox)

    rest = sorted((q for q in flat if q != first), key=cmp_to_key(compare))
    return [flat[q] for q in (first, *rest)]


def _fraction_point(vertex) -> tuple[Fraction, Fraction, Fraction]:
    (x, y, z), d = vertex
    return (Fraction(x, d), Fraction(y, d), Fraction(z, d))


def _polar_facets(f: Fan, p: RationalPolytope) -> list:
    """Delta's facets as (ray v, the vertices p / d with <p, v> = -d), read off its vertices.

    Each distinct ray v gives the face of Delta on <m, v> = -1, kept when
    it holds at least three vertices: no three vertices are collinear,
    so that face is a facet.  The triple oracle keeps the same sets.
    """
    facets = []
    for v in dict.fromkeys(f.rays):
        on_facet = tuple(m for m in p.vertices if _dot(m[0], v) == -m[1])
        if len(on_facet) >= 3:
            facets.append((v, on_facet))
    return facets


def _fraction_facets(f: Fan, p: RationalPolytope) -> list:
    """The polytope's facets as (ray, Fraction vertices), the form the oracles work in."""
    return [(ray, tuple(_fraction_point(m) for m in ms)) for ray, ms in _polar_facets(f, p)]


def _fraction_volume(facets) -> Fraction:
    """6 vol by a Fraction triangle fan: each facet triangle (a, b, c) adds |det(a, b, c)|."""

    def det(a, b, c):
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )

    total = Fraction(0)
    for ray, on_facet in facets:
        ring = _oracle_hull_order(on_facet, ray)
        a = ring[0]
        for b, c in zip(ring[1:], ring[2:]):
            total += abs(det(a, b, c))
    if total == 0:
        raise ValueError("polytope is not full-dimensional")
    return total


def _oracle_degree(f: Fan, p: RationalPolytope) -> Fraction:
    """The triangle-fan volume of the polytope's facets, read as Fractions."""
    return _fraction_volume(_fraction_facets(f, p))


UNBOUNDED = "polytope is unbounded: rays do not positively span (direction "


def _checked_unbounded(e: ValueError, rays) -> str:
    """The error's message, or "unbounded" once the direction m it names is checked.

    m must be nonzero with <m, v> >= 0 on every ray, the certificate that
    Delta is unbounded along m; which such m the walk names is its own
    choice, so only that property is compared.
    """
    message = str(e)
    if not message.startswith(UNBOUNDED):
        return f"ValueError: {message}"
    m = tuple(int(x) for x in message[len(UNBOUNDED) : -1].strip("()").split(","))
    assert len(m) == 3 and m != (0, 0, 0), message
    assert all(_dot(m, v) >= 0 for v in rays), (message, rays)
    return "unbounded"


def _degree_outcome(degree, f: Fan):
    """The degree of the fan's polytope, or the checked error on the way to it."""
    try:
        return degree(anticanonical_polytope(f))
    except ValueError as e:
        return _checked_unbounded(e, f.rays)


def _is_integral(p: RationalPolytope) -> bool:
    return all(d == 1 for _, d in p.vertices)


def test_polytope_degree_matches_the_fraction_oracle_on_random_fans():
    rng = random.Random(2009)
    fractional = unbounded = 0
    for _ in range(300):
        rays = tuple(
            tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(rng.randint(4, 12))
        )
        f = Fan(rays, ((0, 1, 2),))
        outcome = _degree_outcome(lambda p: p.degree, f)
        assert outcome == _degree_outcome(lambda p: _oracle_degree(f, p), f), rays
        assert (outcome == "unbounded") is (_positive_span_fails(rays) is not None), rays
        if isinstance(outcome, str):
            assert outcome == "unbounded"
            unbounded += 1
        elif not _is_integral(anticanonical_polytope(f)):
            fractional += 1
    assert fractional >= 100
    assert unbounded >= 20


def test_polytope_degree_matches_the_fraction_oracle_on_shipped_and_wps_fans():
    fans = [load(name) for name in ("p3.fan", "p1p1p1.fan", "x66.fan")]
    fans += [f for _, f in _wps_fans()]
    for f in fans:
        p = anticanonical_polytope(f)
        assert p.degree == _oracle_degree(f, p)
    assert len(fans) == 128


def _facet_on(f: Fan, p: RationalPolytope, ray: IVec):
    (on_facet,) = [ms for v, ms in _polar_facets(f, p) if v == ray]
    return on_facet


def test_facet_with_mixed_denominators_is_scaled_by_their_lcm():
    # P(5,2,1,1): the facet on (-5,-2,-1) has vertices with denominators
    # 1, 2 and 5, so no single vertex denominator clears the others
    f = _wps_fan((5, 2, 1, 1))
    p = anticanonical_polytope(f)
    on_facet = _facet_on(f, p, (-5, -2, -1))
    assert {d for _, d in on_facet} == {1, 2, 5}
    assert p.degree == Fraction(729, 10) == _oracle_degree(f, p)


def test_facet_normal_with_a_large_dropped_coordinate():
    # P(6,4,1,1): the facet on (-6,-4,-1), a normal far from a unit one,
    # adds the same determinant terms as any other facet
    f = _wps_fan((6, 4, 1, 1))
    p = anticanonical_polytope(f)
    normal = (-6, -4, -1)
    assert len(_facet_on(f, p, normal)) == 3
    assert p.degree == 72 == _oracle_degree(f, p)


def _lattice_points(f: Fan, p: RationalPolytope) -> list[IVec]:
    """Delta n Z^3 for a lattice polytope: scan its bounding box, test <m, v> >= -1 in integers."""
    rays = f.rays
    points = [m for m, _ in p.vertices]
    box = [range(min(m[i] for m in points), max(m[i] for m in points) + 1) for i in range(3)]
    return [
        m for m in product(*box) if all(m[0] * v[0] + m[1] * v[1] + m[2] * v[2] >= -1 for v in rays)
    ]


def _lattice_point_count(f: Fan, p: RationalPolytope) -> int:
    return len(_lattice_points(f, p))


def test_reflexive_degree_matches_the_lattice_point_count():
    # for a reflexive Delta, (-K)^3 = 2 (#(Delta n M) - 3), independent of any volume
    shipped = (("p3.fan", 35, 64), ("p1p1p1.fan", 27, 48), ("x66.fan", 36, 66))
    for name, points, degree in shipped:
        f = load(name)
        p = anticanonical_polytope(f)
        assert _is_integral(p)
        assert _lattice_point_count(f, p) == points
        assert p.degree == degree
    reflexive = 0
    for w, f in _wps_fans():
        p = anticanonical_polytope(f)
        # Delta is a lattice polytope exactly when -K is Cartier
        assert _is_integral(p) == wps_is_gorenstein(w), w
        if _is_integral(p):
            assert p.degree == 2 * (_lattice_point_count(f, p) - 3), w
            reflexive += 1
    assert reflexive == 9


def _edge_length_sum(rays) -> int:
    """Sum of l(e*) l(e) over the edges e* of conv(rays), when every facet has c = 1.

    Each edge e* = [a, b] is booked a -> b to one facet by _hull_facets
    and b -> a to its neighbour; its dual edge e joins those two facets'
    vertices -n of Delta.  l is the lattice length, the gcd of the
    difference.
    """
    booked = fano64.toric._hull_facets(rays)
    total = 0
    for (a, b), (n, _) in booked.items():
        if a < b:
            m, _ = booked[b, a]
            total += gcd(*(x - y for x, y in zip(rays[a], rays[b]))) * gcd(
                *(x - y for x, y in zip(n, m))
            )
    return total


def _reflexive(rays) -> bool:
    """Whether Delta is bounded and every facet <n, x> = c of conv(rays) has c = 1."""
    try:
        return all(c == 1 for _, c in fano64.toric._hull_facets(rays).values())
    except ValueError:
        return False


def _face_fan(points) -> list[list[int]]:
    """The cones over the facets of conv(points): each facet's edge starts, from _hull_facets."""
    cones: dict[tuple[IVec, int], list[int]] = {}
    for (a, _), plane in fano64.toric._hull_facets(points).items():
        cones.setdefault(plane, []).append(a)
    return list(cones.values())


@cache
def _reflexive_fans() -> tuple[tuple[IVec, ...], ...]:
    """Rays of 212 reflexive fans, drawn once.

    They are the 3 shipped fans, the 9 reflexive wps fans with weights
    <= 7, and 200 seeded subsets of {-1, 0, 1}^3 whose hull has every
    facet at c = 1.
    """
    fans = [load(name).rays for name in ("p3.fan", "p1p1p1.fan", "x66.fan")]
    fans += [f.rays for w, f in _wps_fans() if wps_is_gorenstein(w)]
    assert len(fans) == 12 and all(map(_reflexive, fans))
    rng = random.Random(27)
    cube = [v for v in product((-1, 0, 1), repeat=3) if v != (0, 0, 0)]
    while len(fans) < 212:
        rays = tuple(rng.sample(cube, rng.randint(4, 26)))
        if _reflexive(rays):
            fans.append(rays)
    return tuple(fans)


def test_reflexive_edge_lengths_sum_to_24():
    # for reflexive Delta, the sum over the edges of Delta* = conv(rays)
    # of l(e*) l(e) is 24, the Euler number of a K3 surface
    for rays in _reflexive_fans():
        assert _edge_length_sum(rays) == 24, rays


def _dilate_point_count(rays, vertices: list[IVec], m: int) -> int:
    """#(m Delta n Z^3), Delta = {x : <x, v> >= -1 for every ray v}, counted row by row.

    Each (x, y) in the box of m Delta's vertices is a row: a ray with
    v_z > 0 bounds z from below by <(x, y, z), v> >= -m, one with
    v_z < 0 from above, and one with v_z = 0 keeps or empties the row.
    Rays that span positively bound every row on both sides.
    """
    xs, ys, _ = zip(*vertices)
    box = [range(m * min(c), m * max(c) + 1) for c in (xs, ys)]
    count = 0
    for x, y in product(*box):
        lows, highs, inside = [], [], True
        for vx, vy, vz in rays:
            rest = -m - vx * x - vy * y  # the ray asks vz * z >= rest
            if vz > 0:
                lows.append(-(-rest // vz))
            elif vz < 0:
                highs.append(rest // vz)
            else:
                inside = inside and rest <= 0
        if inside:
            count += max(0, min(highs) - max(lows) + 1)
    return count


def test_reflexive_dilates_count_their_ehrhart_polynomial():
    # for reflexive Delta of degree d, #(m Delta n M) = m(m+1)(2m+1)d/12 + 2m + 1
    counts = {}
    for rays in _reflexive_fans():
        p = anticanonical_polytope(Fan(rays, _face_fan(rays)))
        assert _is_integral(p), rays
        vertices = [v for v, _ in p.vertices]
        for m in (2, 3):
            count = _dilate_point_count(rays, vertices, m)
            assert count == m * (m + 1) * (2 * m + 1) * p.degree / 12 + 2 * m + 1, (rays, m)
            counts[rays, m] = count
    p3, p1p1p1 = (load(name).rays for name in ("p3.fan", "p1p1p1.fan"))
    assert (counts[p3, 2], counts[p3, 3]) == (165, 455)
    assert (counts[p1p1p1, 2], counts[p1p1p1, 3]) == (125, 343)


def test_unbounded_polytope_rejected():
    f = Fan(
        rays=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        max_cones=((0, 1, 2),),
    )
    with pytest.raises(ValueError):
        anticanonical_polytope(f)


def random_unimodular(rng: random.Random) -> tuple[IVec, IVec, IVec]:
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(12):
        op = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if op == 0:
            rows[j] = vsum(rows[j], scaled(rows[i], rng.randint(-3, 3)))
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = scaled(rows[i], -1)
    m = tuple(rows)
    assert abs(det3(*m)) == 1
    return m


def apply(m: tuple[IVec, IVec, IVec], v: IVec) -> IVec:
    return (_dot(m[0], v), _dot(m[1], v), _dot(m[2], v))


def test_lattice_index_is_unimodular_invariant():
    rng = random.Random(64)
    cones = [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        (E1, E2, E3),
        ((1, 0, 0), (0, 1, 0), (1, 1, 2)),
        ((2, 1, 0), (0, 3, 1), (1, 0, 5)),
    ]
    for _ in range(100):
        m = random_unimodular(rng)
        for rays in cones:
            want = cone_singularity(rays)
            got = cone_singularity(tuple(apply(m, v) for v in rays))
            assert (got.index, got.kind) == (want.index, want.kind)
            # the index-2 witness is the one lattice point of its kind, so it moves with m
            if want.witness is not None:
                assert got.witness == apply(m, want.witness)


def test_polytope_degree_is_unimodular_invariant():
    rng = random.Random(66)
    for name, degree in (("p3.fan", 64), ("p1p1p1.fan", 48), ("x66.fan", 66)):
        base = load(name)
        findings = validate_fan(base)
        # x66 has a cone off its support plane, which takes the hull walk
        assert (len(findings) == 6) is (name == "x66.fan"), findings
        for _ in range(100):
            m = random_unimodular(rng)
            f = Fan(
                rays=tuple(apply(m, v) for v in base.rays),
                max_cones=base.max_cones,
            )
            assert anticanonical_polytope(f).degree == degree
            # the ring walls project along a coordinate, so they depend on coordinates
            assert validate_fan(f) == findings


def _positive_span_fails(rays: tuple[IVec, ...]) -> IVec | None:
    """A nonzero direction m with <m, v> >= 0 for all rays, if one exists: O(n^3) by pairs.

    Such an m is an unbounded direction of the polar polytope.  When the
    rays have full rank the set of such m is a pointed cone, so if it is
    nonzero it has an extremal direction lying on two of the hyperplanes
    <., v> = 0, hence proportional to a cross product of two rays.  Of
    rank 2 the first nonzero cross product is orthogonal to every ray
    and passes; of rank <= 1 no pair has one, and any m orthogonal to
    the line of the rays serves.
    """
    zero = (0, 0, 0)
    spans_a_plane = False
    for a, b in combinations(rays, 2):
        m = _cross(a, b)
        if m == zero:
            continue
        spans_a_plane = True
        for cand in (m, scaled(m, -1)):
            if all(_dot(v, cand) >= 0 for v in rays):
                return cand
    if spans_a_plane:
        return None
    for v in rays:
        if v != zero:
            m = _cross(v, (1, 0, 0))
            return m if m != zero else _cross(v, (0, 1, 0))
    return (1, 0, 0)


def _oracle_polytope(f: Fan):
    """Delta's Fraction vertices and facets from every ray triple: O(n^4) whatever the output size.

    The planes <m, a> = <m, b> = <m, c> = -1 meet in m = N / d with
    N = -(b x c + c x a + a x b) and d = det(a, b, c); kept in lowest
    terms with d > 0, m is a vertex when <N, v> >= -d for every ray v.
    Returns None when Delta is unbounded.
    """
    rays = tuple(dict.fromkeys(f.rays))
    if _positive_span_fails(rays) is not None:
        return None
    seen = set()
    vertices = []
    on_ray: dict[int, list] = {}
    for a, b, c in combinations(rays, 3):
        bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
        d = _dot(a, bc)
        if d == 0:
            continue
        n = tuple(-x - y - z for x, y, z in zip(bc, ca, ab))
        g = gcd(*n, d) if d > 0 else -gcd(*n, d)
        n, d = tuple(x // g for x in n), d // g
        if (n, d) in seen:
            continue
        seen.add((n, d))
        pairings = [_dot(n, v) for v in rays]
        if min(pairings) >= -d:
            m = tuple(Fraction(x, d) for x in n)
            vertices.append(m)
            for r, p in enumerate(pairings):
                if p == -d:
                    on_ray.setdefault(r, []).append(m)
    facets = [(rays[r], tuple(ms)) for r, ms in on_ray.items() if len(ms) >= 3]
    return vertices, facets


def _polytope_outcome(f: Fan):
    """Sorted Fraction vertices, facet incidences as sets and degree, or the checked error.

    On a bounded Delta it also checks the map the hull walk returns: each
    edge is mapped both ways, each facet's edges form one directed cycle
    through distinct points, and the facets, in the order the map first
    names them, are Delta's vertices (-n, c).
    """
    try:
        p = anticanonical_polytope(f)
    except ValueError as e:
        return _checked_unbounded(e, f.rays)
    # each vertex p / d is in lowest terms with d > 0
    assert all(d > 0 and gcd(*m, d) == 1 for m, d in p.vertices), p.vertices
    hull = fano64.toric._hull_facets(tuple(dict.fromkeys(f.rays)))
    assert all((b, a) in hull for a, b in hull), f.rays
    rings: dict[tuple[IVec, int], list[tuple[int, int]]] = {}
    for edge, plane in hull.items():
        rings.setdefault(plane, []).append(edge)
    for plane, edges in rings.items():
        succ = dict(edges)
        cycle = [edges[0][0]]
        for _ in edges[1:]:
            cycle.append(succ[cycle[-1]])
        assert len(edges) >= 3 and succ[cycle[-1]] == cycle[0], (f.rays, plane)
        assert len(set(cycle)) == len(succ) == len(edges), (f.rays, plane)
    assert [((-x, -y, -z), c) for (x, y, z), c in rings] == list(p.vertices), f.rays
    incidences = {(v, frozenset(ms)) for v, ms in _fraction_facets(f, p)}
    return sorted(map(_fraction_point, p.vertices)), incidences, p.degree


def _oracle_outcome(f: Fan):
    """The same as _polytope_outcome, from the triple oracle and the Fraction volume."""
    oracle = _oracle_polytope(f)
    if oracle is None:
        return "unbounded"
    vertices, facets = oracle
    incidences = {(v, frozenset(ms)) for v, ms in facets}
    return sorted(vertices), incidences, _fraction_volume(facets)


def _huge_unimodular(rng: random.Random) -> tuple[IVec, IVec, IVec]:
    """Row operations with multipliers up to 10^6 until some entry exceeds 10^30."""
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    while max(abs(x) for row in rows for x in row) <= 10**30:
        i, j = rng.sample(range(3), 2)
        rows[i] = vsum(rows[i], scaled(rows[j], rng.choice((-1, 1)) * rng.randint(1, 10**6)))
    return tuple(rows)


def _hull_oracle_fans() -> list[Fan]:
    """The shipped and wps fans, hand-made corner cases, huge unimodular images and 3000 random fans."""
    fans = [load(name) for name in ("p3.fan", "p1p1p1.fan", "x66.fan")]
    fans += [f for _, f in _wps_fans()]
    p3 = load("p3.fan")
    fans += [
        # repeated rays
        Fan(p3.rays + p3.rays[:2], p3.max_cones),
        # a zero ray inside the hull, and one at a vertex of it
        Fan(p3.rays + ((0, 0, 0),), p3.max_cones),
        Fan((*UNIT, (0, 0, 0)), ((0, 1, 2),)),
        # rays of rank 2, with and without the origin inside their hull
        Fan(((1, -1, 0), (0, 1, -1), (-1, 0, 1)), ((0, 1, 2),)),
        Fan(((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 1, 2),)),
    ]
    rng = random.Random(1970)
    cube = [v for v in product((-1, 0, 1), repeat=3) if v != (0, 0, 0)]
    base = load("p1p1p1.fan")
    for _ in range(3):
        m = _huge_unimodular(rng)
        fans.append(Fan(tuple(apply(m, v) for v in base.rays), base.max_cones))
    assert max(abs(x) for v in fans[-1].rays for x in v) > 10**30
    for _ in range(3000):
        kind = rng.randrange(4)
        if kind == 0:
            # faces of {-1,0,1}^3 hold many coplanar and collinear rays
            rays = rng.sample(cube, rng.randint(3, 20))
        elif kind == 1:
            bound = rng.randint(1, 5)
            rays = [
                tuple(rng.randint(-bound, bound) for _ in range(3))
                for _ in range(rng.randint(3, 10))
            ]
        elif kind == 2:
            rays = [(rng.randint(-2, 2), rng.randint(-2, 2), 0) for _ in range(rng.randint(3, 7))]
            if rng.random() < 0.5:
                rays.append((0, 0, rng.choice((-1, 1))))
        else:
            rays = rng.sample(cube, rng.randint(3, 10))
            rays += [rng.choice(rays) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                rays.append((0, 0, 0))
            rng.shuffle(rays)
        fans.append(Fan(tuple(rays), ((0, 1, 2),)))
    return fans


def test_hull_walk_matches_the_triple_oracle():
    fans = _hull_oracle_fans()
    unbounded = 0
    for f in fans:
        outcome = _polytope_outcome(f)
        assert outcome == _oracle_outcome(f), f.rays
        unbounded += isinstance(outcome, str)
    assert len(fans) == 3136
    assert 1000 < unbounded < 2000, unbounded


def test_hull_walk_matches_the_triple_oracle_on_huge_random_rays():
    # unlike the huge unimodular images above, these Delta are not
    # lattice polytopes: their vertices have denominators d of 120 digits
    rng = random.Random(40)
    bounded = 0
    for _ in range(8):
        rays = tuple(
            tuple(rng.randint(-(10**40), 10**40) for _ in range(3))
            for _ in range(rng.randint(6, 12))
        )
        f = Fan(rays, ((0, 1, 2),))
        outcome = _polytope_outcome(f)
        assert outcome == _oracle_outcome(f), rays
        if not isinstance(outcome, str):
            assert max(d for _, d in anticanonical_polytope(f).vertices) > 10**100
            bounded += 1
    assert bounded >= 6, bounded


def _box_fans(count: int) -> list[Fan]:
    """Fans of 17 random primitive points of {-3..3}^3 whose polar is bounded."""
    rng = random.Random(31)
    box = [v for v in product(range(-3, 4), repeat=3) if any(v) and gcd(*v) == 1]
    fans = []
    while len(fans) < count:
        f = Fan(rng.sample(box, 17), ((0, 1, 2),))
        try:
            anticanonical_polytope(f)
        except ValueError:
            continue
        fans.append(f)
    return fans


def test_hull_walk_wraps_once_per_facet(monkeypatch):
    """One wrap per facet of conv(rays), plus the first plane when it meets the hull in an edge.

    A walk that wraps once per hull edge makes 14 wraps on the
    octahedron of p1p1p1's rays, which has 8 facets and 12 edges.
    """
    calls = [0]
    real = fano64.toric._wrap

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(fano64.toric, "_wrap", counted)
    for f in [load("p1p1p1.fan"), load("x66.fan"), *_box_fans(5)]:
        calls[0] = 0
        p = anticanonical_polytope(f)
        assert calls[0] <= len(p.vertices) + 1, (f.rays, calls[0], len(p.vertices))


def test_hull_walk_raises_when_it_reaches_a_facet_twice(monkeypatch):
    """A wrap that returns a facet found before breaks the walk's invariant: it raises, not loops."""
    cube = list(product((-1, 1), repeat=3))
    real = fano64.toric._wrap
    planes = []

    def stuck(*args):
        assert len(planes) < 10, "the walk kept wrapping"
        planes.append(real(*args) if not planes else planes[0])
        return planes[-1]

    monkeypatch.setattr(fano64.toric, "_wrap", stuck)
    with pytest.raises(ArithmeticError, match="reached the facet .* twice"):
        fano64.toric._hull_facets(cube)
    assert len(planes) == 2


def _strict_hull_ring(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The strict hull vertices of distinct points, by brute force; none for one point.

    A point is a strict vertex unless it lies on a segment or in a
    closed triangle of the other points (Caratheodory in the plane).
    The vertices are listed counter-clockwise from the lexicographically
    least one, which is a vertex: no two others are collinear with it,
    so one cross product orders each pair.
    """

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def on_segment(p, a, b):
        return cross(a, b, p) == 0 and min(a, b) <= p <= max(a, b)

    def in_triangle(p, a, b, c):
        sides = (cross(a, b, p), cross(b, c, p), cross(c, a, p))
        return cross(a, b, c) != 0 and (min(sides) >= 0 or max(sides) <= 0)

    if len(points) < 2:
        return []  # a ring needs an edge
    vertices = []
    for p in points:
        others = [q for q in points if q != p]
        if not any(on_segment(p, a, b) for a, b in combinations(others, 2)) and not any(
            in_triangle(p, a, b, c) for a, b, c in combinations(others, 3)
        ):
            vertices.append(p)
    first = min(vertices)
    rest = sorted(
        (v for v in vertices if v != first),
        key=cmp_to_key(lambda a, b: -cross(first, a, b)),
    )
    return [first, *rest]


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=10, unique=True)
)
@example([(0, 0), (1, 1), (2, 2)])  # collinear
@example([(0, 2), (0, 0), (0, 1)])  # collinear, vertical
@example([(1, 1), (0, 0), (1, 0)])  # counter-clockwise in sorted order
@example([(1, 0), (0, 1), (0, 0)])  # clockwise in sorted order
def test_hull_order_matches_the_monotone_chain(points):
    # the degree in anticanonical_polytope reads each ring's direction, not its start;
    # hull facets and rings of rays hold 4 to 9 points on fan-large's fans
    index = {pt: t for t, pt in enumerate(points)}
    want = [index[pt] for pt in _strict_hull_ring(points)]
    assert fano64.toric._hull_order(index) == want


NON_PRIMITIVE = "is not primitive"
UNUSED = "lies in no maximal cone"
DEGENERATE = "is degenerate (rays do not span)"
NON_CONVEX = "is not strongly convex (contains a line)"
UNPAIRED = "is not shared by exactly two maximal cones"
NO_SUPPORT = "has no integral Gorenstein support vector"


def _of_kind(findings: tuple[str, ...], kind: str) -> tuple[str, ...]:
    """The findings of one kind, in validate_fan's order: those that end with its text."""
    return tuple(f for f in findings if f.endswith(kind))


def test_validate_clean_fans():
    for name in ("p3.fan", "p1p1p1.fan"):
        assert validate_fan(load(name)) == ()


def test_validate_flags_the_defective_fan():
    findings = validate_fan(load("x66.fan"))
    assert type(findings) is tuple and findings != ()
    assert f"cone 2 {NON_CONVEX}" in findings
    assert f"cone 2 {NO_SUPPORT}" in findings
    assert _of_kind(findings, NON_PRIMITIVE) == ()
    assert _of_kind(findings, UNUSED) == ()
    assert _of_kind(findings, DEGENERATE) == ()
    assert len(_of_kind(findings, UNPAIRED)) == 4
    assert any("no integral Gorenstein support" in f for f in findings)


def _one_cone_is_convex(rays: tuple[IVec, ...]) -> bool:
    findings = validate_fan(Fan(rays, (tuple(range(len(rays))),)))
    assert _of_kind(findings, DEGENERATE) == ()
    return _of_kind(findings, NON_CONVEX) == ()


def test_strong_convexity_matches_the_positive_dependence_oracle():
    half_space = ((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1))
    with_zero_ray = (*UNIT, (0, 0, 0))
    pointed_four = ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
    x66 = load("x66.fan")
    x66_cone_2 = tuple(x66.rays[i] for i in x66.max_cones[2])
    for rays, convex in (
        (half_space, False),
        (with_zero_ray, False),
        (pointed_four, True),
        (x66_cone_2, False),
        (UNIT, True),
    ):
        assert _positive_dependence_oracle(rays) is not convex, rays
        assert _one_cone_is_convex(rays) is convex, rays

    rng = random.Random(20090)
    checked = non_convex = 0
    while checked < 1500:
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(3, 9))]
        # mix in an opposite, a zero and a repeated ray, each at random
        if rng.random() < 0.3:
            rays[rng.randrange(len(rays))] = scaled(rng.choice(rays), -1)
        if rng.random() < 0.2:
            rays[rng.randrange(len(rays))] = (0, 0, 0)
        if rng.random() < 0.3:
            rays[rng.randrange(len(rays))] = rng.choice(rays)
        rays = tuple(rays)
        if not any(det3(*t) for t in combinations(rays, 3)):
            continue
        dependent = _positive_dependence_oracle(rays)
        assert _one_cone_is_convex(rays) is not dependent, rays
        checked += 1
        non_convex += dependent
    # both verdicts are well represented
    assert 300 < non_convex < 1200, non_convex


def _pair_scan_walls(
    rays: tuple[IVec, ...], indices: tuple[int, ...]
) -> tuple[bool, list[tuple[int, ...]]]:
    """Strong convexity and walls of a rank-3 cone from every pair of its rays: O(k^3).

    A pair of rays spans a wall when all the cone's rays off its plane
    lie on one side of it, and the rays on the plane are absorbed into
    the wall, keyed by their indices in the order of indices.  The inward
    normal of a wall is the sign of n with <n, v> > 0 on the off-plane
    rays; one per distinct wall, they sum to m.  A strongly convex cone's
    walls are its facets, so m lies inside the dual cone and <m, v> > 0
    for every ray; a cone that contains a line has a zero non-negative
    ray combination, so no m is positive on every ray.
    """
    walls = {}
    for i, j in combinations(indices, 2):
        n = _cross(rays[i], rays[j])
        if n == (0, 0, 0):
            continue
        sides = [_dot(n, rays[k]) for k in indices]
        low, high = min(sides), max(sides)
        if low >= 0 or high <= 0:
            on_plane = tuple([k for k, s in zip(indices, sides) if s == 0])
            walls[on_plane] = n if low >= 0 else scaled(n, -1)
    m = vsum(*walls.values())
    return all(_dot(m, rays[k]) > 0 for k in indices), list(walls)


def test_ring_walls_match_the_pair_scan_on_q_cartier_cones():
    """Rays on a plane <s, x> = -L: the ring of their polygon and the pair scan find the same walls.

    Points of a small box in the plane z = -L, some repeated, many on the
    polygon's edges or inside it, sometimes shifted by 10^12, are mapped
    by a unimodular matrix T; the plane becomes <s, x> = -L with
    s = T e1 x T e2 up to sign.
    """
    rng = random.Random(20092)
    checked = beyond_triangles = 0
    while checked < 600:
        level = rng.choice((1, 2, 3, 6))
        bound = rng.randint(1, 3)
        shift = rng.choice((0, 0, 0, 10**12))
        points = [
            (rng.randint(-bound, bound) + shift, rng.randint(-bound, bound) - shift, -level)
            for _ in range(rng.randint(3, 10))
        ]
        points += [rng.choice(points) for _ in range(rng.randint(0, 2))]
        m = random_unimodular(rng)
        rays = tuple(apply(m, p) for p in points)
        s = _cross(apply(m, (1, 0, 0)), apply(m, (0, 1, 0)))
        if _dot(s, apply(m, (0, 0, 1))) < 0:
            s = scaled(s, -1)
        plane = _support_plane(rays)
        if plane is None:
            # the points are collinear
            continue
        assert plane == (s, level, True), rays
        assert all(_dot(s, v) == -level for v in rays)
        indices = tuple(range(len(rays)))
        convex, walls = _pair_scan_walls(rays, indices)
        assert convex, rays
        ring = _ring_walls(rays, indices, s)
        assert len(ring) == len(set(ring)) and set(ring) == set(walls), rays
        checked += 1
        beyond_triangles += len(walls) > 3
    assert beyond_triangles > 200, beyond_triangles


def test_hull_walls_match_the_pair_scan_on_cones_off_their_plane():
    """Rank-3 cones with rays off their support plane: the hull walk and the pair scan agree.

    Half the cones are drawn inside the half-space <u, x> >= 0 of a random
    u, so that many are pointed; opposite, zero and repeated rays are
    mixed in at random.
    """
    rng = random.Random(20093)
    checked = convex_cones = zero_rays = 0
    while checked < 1500:
        bound = rng.randint(1, 4)
        rays = [
            tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(rng.randint(4, 9))
        ]
        if rng.random() < 0.5:
            u = tuple(rng.randint(-2, 2) for _ in range(3))
            rays = [v if _dot(u, v) >= 0 else scaled(v, -1) for v in rays]
        if rng.random() < 0.15:
            rays[rng.randrange(len(rays))] = scaled(rng.choice(rays), -1)
        if rng.random() < 0.1:
            rays[rng.randrange(len(rays))] = (0, 0, 0)
        if rng.random() < 0.3:
            rays[rng.randrange(len(rays))] = rng.choice(rays)
        rays = tuple(rays)
        plane = _support_plane(rays)
        if plane is None or plane[2]:
            continue
        indices = tuple(range(len(rays)))
        walls = _cone_walls(rays, indices)
        convex = bool(walls)
        want_convex, want_walls = _pair_scan_walls(rays, indices)
        assert convex is want_convex, rays
        # a cone with a zero ray is never strongly convex
        assert not (convex and (0, 0, 0) in rays), rays
        if convex:
            assert len(walls) == len(set(walls)) and set(walls) == set(want_walls), rays
        checked += 1
        convex_cones += convex
        zero_rays += (0, 0, 0) in rays
    # both verdicts are well represented, and zero rays among them
    assert 300 < convex_cones < 1200, convex_cones
    assert zero_rays > 50, zero_rays


def test_walls_on_one_plane_are_told_apart_by_their_rays():
    """In P1 x P1 x P1 the plane z = 0 holds four walls, each shared by two cones."""
    f = load("p1p1p1.fan")
    assert validate_fan(f) == ()
    on_z0 = [
        wall
        for cone in f.max_cones
        for wall in _ring_walls(f.rays, cone, (1, 1, 1))
        if all(f.rays[t][2] == 0 for t in wall)
    ]
    assert sorted(set(on_z0)) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert len(on_z0) == 8


def test_a_wall_with_an_extra_ray_on_one_side_stays_unpaired():
    """The second cone holds (0, 1, 0) on the wall it shares with the first, which does not.

    Both cones are Gorenstein, so the ring finds the walls of both.
    """
    rays = ((1, 0, 0), (-1, 2, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1))
    f = Fan(rays, ((0, 1, 3), (0, 1, 2, 4)))
    assert _support_plane([rays[i] for i in f.max_cones[1]]) == ((-1, -1, 1), 1, True)
    findings = validate_fan(f)
    assert _of_kind(findings, UNPAIRED) == tuple(
        f"wall {w} {UNPAIRED}"
        for w in (
            "rays[0, 1]",
            "rays[0, 1, 2]",
            "rays[0, 3]",
            "rays[0, 4]",
            "rays[1, 3]",
            "rays[1, 4]",
        )
    )
    assert findings[:2] == (
        "wall rays[0, 1] is not shared by exactly two maximal cones",
        "wall rays[0, 1, 2] is not shared by exactly two maximal cones",
    )


def test_validate_flags_rank_deficient_cones():
    """A cone whose rays span a plane or less is degenerate, not non-convex, and has no walls."""
    rng = random.Random(20091)
    cones = [
        UNIT[:2] + ((1, 1, 0),),
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
        ((1, 2, 3), (0, 0, 0), (-2, -4, -6)),
    ]
    while len(cones) < 300:
        u, w = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
        coefficients = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 6))]
        cones.append(tuple(vsum(scaled(u, i), scaled(w, j)) for i, j in coefficients))
    for rays in cones:
        assert not any(det3(*t) for t in combinations(rays, 3)), rays
        findings = validate_fan(Fan(rays, (tuple(range(len(rays))),)))
        assert _of_kind(findings, DEGENERATE) == (f"cone 0 {DEGENERATE}",), rays
        assert (_of_kind(findings, NON_CONVEX), _of_kind(findings, UNPAIRED)) == ((), ()), rays
        # simplicial or not, the singularity report calls it degenerate too
        assert cone_singularity(rays) == ConeSingularity(degenerate=True), rays


def test_validate_and_cone_singularity_agree_on_every_cone():
    """Both read one support plane: the same cones are degenerate, the same lack a support."""
    rng = random.Random(20093)
    for _ in range(500):
        rays = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(3, 7)))
        cones = (tuple(rng.sample(range(len(rays)), rng.randint(3, len(rays)))) for _ in range(3))
        f = Fan(rays, tuple(dict.fromkeys(tuple(sorted(c)) for c in cones)))
        findings = validate_fan(f)
        sings = [cone_singularity([rays[i] for i in cone]) for cone in f.max_cones]
        assert _of_kind(findings, DEGENERATE) == tuple(
            f"cone {i} {DEGENERATE}" for i, s in enumerate(sings) if s.degenerate
        )
        assert _of_kind(findings, NO_SUPPORT) == tuple(
            f"cone {i} {NO_SUPPORT}"
            for i, s in enumerate(sings)
            if not s.degenerate and s.support is None
        )


def test_fan_rejects_a_repeated_cone():
    rays = (*UNIT, (-1, -1, -1))
    for cones in (((0, 1, 2), (2, 1, 0)), ((2, 1, 0), (0, 1, 2))):
        with pytest.raises(ValueError) as err:
            Fan(rays, cones)
        assert str(err.value) == f"cone {cones[1]} is listed twice"


def test_validate_flags_non_primitive_rays():
    others = ((0, 1, 0), (0, 0, 1), (-1, -1, -1))
    cones = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    # the zero vector is not primitive either
    for ray in ((2, 0, 0), (2, 4, 6), (0, 0, 0)):
        findings = validate_fan(Fan((ray, *others), cones))
        assert _of_kind(findings, NON_PRIMITIVE) == (f"ray 0 {NON_PRIMITIVE}",), ray
    for ray in ((2, 3, 5), (0, 0, 1)):
        assert _of_kind(validate_fan(Fan((ray, *others), cones)), NON_PRIMITIVE) == (), ray


def test_validate_flags_unused_rays():
    p3_rays = (*UNIT, (-1, -1, -1))
    cones = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    # an unused ray still cuts the polytope: P3's degree 64 drops to 56
    findings = validate_fan(Fan((*p3_rays, (1, 1, 1)), cones))
    assert _of_kind(findings, UNUSED) == (f"ray 4 {UNUSED}",)
    assert findings == ("ray 4 lies in no maximal cone",)
    assert _of_kind(validate_fan(Fan((*p3_rays, (1, 1, 1), (2, 1, 1)), cones)), UNUSED) == (
        f"ray 4 {UNUSED}",
        f"ray 5 {UNUSED}",
    )
    # the octant alone leaves the fourth ray in no cone
    assert _of_kind(validate_fan(Fan(p3_rays, cones[:1])), UNUSED) == (f"ray 3 {UNUSED}",)
    assert _of_kind(validate_fan(Fan(p3_rays, cones)), UNUSED) == ()


def test_integer_coordinates_required():
    """A ray is a list or tuple of exactly three ints and a cone index an int; bool is neither."""
    others = ((0, 1, 0), (0, 0, 1))
    bad_rays = ((1, 2, 3.0), (Fraction(1, 2), 0, 0), (True, 0, 0), (1, 0), (1, 0, 0, 0))
    for ray in bad_rays:
        with pytest.raises(ValueError) as err:
            Fan((ray, *others), ((0, 1, 2),))
        assert str(err.value) == f"ray {ray} is not a triple of integers"
    # a list ray is accepted and stored as a tuple
    assert Fan(([1, 0, 0], *others), ((0, 1, 2),)).rays[0] == (1, 0, 0)
    # (0, True, 2) would otherwise be read as the cone (0, 1, 2)
    p3_rays = (*UNIT, (-1, -1, -1))
    for cone in ((0, 1, 2.0), (0, True, 2)):
        with pytest.raises(ValueError) as err:
            Fan(p3_rays, (cone, (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        assert str(err.value) == f"cone {cone} is not an array of integer indices"


def test_fan_json_round_trip():
    f = load("p3.fan")
    assert f.rays == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-1, -1, -1),
    )
    assert len(f.max_cones) == 4


def test_fan_json_rejects_floats():
    doc = {"rays": [[1, 0, 0.5]], "cones": [[0]]}
    with pytest.raises(ValueError):
        fan_from_json(json.dumps(doc))


def test_fan_json_rejects_unknown_keys():
    doc = {"rays": [[1, 0, 0]], "cones": [[0]], "extra": 1}
    with pytest.raises(ValueError):
        fan_from_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["rays", "cones"])
def test_fan_json_rejects_a_repeated_key(key):
    # json.loads alone would keep the last value and drop the first
    rays = '"rays": [[1,0,0],[0,1,0],[0,0,1],[-1,-1,-1]]'
    cones = '"cones": [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]'
    text = "{" + ", ".join((rays, cones, rays if key == "rays" else cones)) + "}"
    with pytest.raises(ValueError, match=f'^fan file repeats the key "{key}"$'):
        fan_from_json(text)


def test_fan_json_rejects_booleans():
    doc = {"rays": [[True, 0, 0], [0, 1, 0], [0, 0, 1]], "cones": [[0, 1, 2]]}
    with pytest.raises(ValueError):
        fan_from_json(json.dumps(doc))


def test_fan_json_keeps_the_json_wording_for_a_byte_order_mark():
    text = "\ufeff" + (FANS / "p3.fan").read_text()
    with pytest.raises(json.JSONDecodeError) as err:
        fan_from_json(text)
    with pytest.raises(json.JSONDecodeError) as plain:
        json.loads(text)
    assert str(err.value) == str(plain.value)


@pytest.mark.parametrize(
    "cone, message",
    [
        # a non-int index is worded first, then a repeat, then a missing ray
        ((99, "0", 1), "cone (99, '0', 1) is not an array of integer indices"),
        ((0, 0, 99), "cone (0, 0, 99) repeats a ray index"),
        ((5, 0, 99), "cone (5, 0, 99) references missing ray 5"),
        ((0, 1), "maximal cone (0, 1) has fewer than 3 rays"),
    ],
)
def test_fan_words_the_first_cone_defect(cone, message):
    with pytest.raises(ValueError) as err:
        Fan((*UNIT, (-1, -1, -1)), (cone,))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "rays, cones, message",
    [
        # every ray's type, then every cone's, then emptiness, then each cone in turn
        (([1, 2],), ([0, "1"],), "ray [1, 2] is not a triple of integers"),
        ((), ([0, "1", 2],), "cone [0, '1', 2] is not an array of integer indices"),
        ((), (), "fan needs at least one ray"),
        (UNIT, ((0, 0, 1), [0, 1, 2.0]), "cone [0, 1, 2.0] is not an array of integer indices"),
    ],
)
def test_fan_checks_every_entry_type_first(rays, cones, message):
    with pytest.raises(ValueError) as err:
        Fan(rays, cones)
    assert str(err.value) == message


# The self-checks below guard against a broken collaborator; no input to
# a sound one reaches them, so each is reached with that collaborator patched.


def test_an_index_2_cone_without_a_half_point_raises(monkeypatch):
    monkeypatch.setattr(fano64.toric, "det3", lambda a, b, c: 2)
    with pytest.raises(ArithmeticError) as err:
        cone_singularity(UNIT)
    assert str(err.value) == (
        "index-2 cone ((1, 0, 0), (0, 1, 0), (0, 0, 1)) has no half-integer lattice point"
    )


def test_a_hull_walk_plane_with_a_point_beyond_it_raises(monkeypatch):
    monkeypatch.setattr(fano64.toric, "_wrap", lambda pts, a, b: ((1, 0, 0), 1))
    with pytest.raises(ArithmeticError) as err:
        fano64.toric._hull_facets([*UNIT, (-1, -1, -1), (2, 1, 1)])
    assert str(err.value) == "hull walk reached a plane ((1, 0, 0), 1) that is not a facet"


def test_a_hull_walk_with_no_volume_raises(monkeypatch):
    # both directions of the edge 0 -> 1 on one plane: the determinant terms all vanish
    plane = ((1, 0, 0), 1)
    monkeypatch.setattr(fano64.toric, "_hull_facets", lambda pts: {(0, 1): plane, (1, 0): plane})
    with pytest.raises(ArithmeticError) as err:
        anticanonical_polytope(load("p3.fan"))
    assert str(err.value) == "hull walk gave a polytope with no volume"


def test_a_hull_walk_with_every_ring_reversed_raises(monkeypatch):
    # every ring turned the other way makes every determinant term negative
    real = fano64.toric._hull_facets
    monkeypatch.setattr(
        fano64.toric,
        "_hull_facets",
        lambda pts: {(b, a): plane for (a, b), plane in real(pts).items()},
    )
    with pytest.raises(ArithmeticError) as err:
        anticanonical_polytope(load("p1p1p1.fan"))
    assert str(err.value) == "hull walk gave a polytope with no volume"
