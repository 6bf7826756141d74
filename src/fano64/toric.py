"""Fans in Z^3 and their anticanonical polytopes, in exact arithmetic.

A fan is a list of primitive ray vectors plus maximal cones given as
index sets.  Fan alone checks that they are well formed, so a fan file
that fan_from_json reads and a fan built in code get the same message
for the same defect.  cone_singularity tells, for one cone, whether
its rays span, the lattice index of a simplicial cone, the type of an
index-1 or index-2 cone, one of the strings "smooth", "transverse-A1"
and "isolated-half-point", and its integral Gorenstein support vector.
The toolkit also computes the polar polytope

    Delta = { m : <m, v> >= -1 for every ray v },

whose normalized volume 6 vol(Delta) is the anticanonical degree of the
toric variety when the fan is complete and -K is Q-Cartier and nef.
Delta is the polar of conv(rays), so its vertices come from an integer
walk over the facets of conv(rays), a facet <n, x> = c giving the
vertex -n / c.  Delta is unbounded exactly when the walk meets a
supporting plane with c <= 0: no ray lies beyond it, so the error names
-n, a direction m with <m, v> >= 0 on every ray.  The walk rings each
facet of conv(rays) by its vertices and returns one map, from each
directed ring edge a -> b to the facet (n, c) that runs it, and wraps
once per facet: about a ring edge only when no facet found so far runs
it the other way, so every wrap reaches a new facet.  Each facet of
Delta lies on the plane <m, v> = -1 of one vertex v of conv(rays): its
vertices are the facets around v, and the facets that run an edge as
v -> b and as b -> v are neighbours round v.  So the degree is one
determinant sum over that map, a tetrahedron from the origin per map
entry, and no facet of Delta is listed or ordered.  A vertex is kept
as the integer pair (p, d) = (-n, c), the point p / d in lowest terms,
so Delta is a lattice polytope exactly when every d is 1.
validate_fan performs structural sanity checks and returns its
findings, a tuple of strings that is empty when the fan is clean,
instead of raising, so defective input data can be examined rather than
rejected.  Rays come first, non-primitive then unused; then cones,
degenerate then not strongly convex; then walls not shared by exactly
two cones; then cones without an integral Gorenstein support.  A ray
that lies in no maximal cone is one finding: it still bounds Delta, so
it changes the degree.  The cone checks (rank, strong convexity,
walls, Gorenstein supports) run in integers only, from one support
plane per cone: the m with <m, v> = -1 on the cone's first
independent triple is solve3's Cramer pair n / d, and one gcd reduces
it to the integer plane <s, x> = -L, L > 0 the lcm of m's denominators.
The cone has rank 3 exactly when such a triple exists, and a Gorenstein
support exactly when L = 1 and every ray lies on the plane;
_support_plane answers whether they do, and validate_fan and
cone_singularity both read that one answer.  A cone whose rays all lie
on the plane is the cone over a convex polygon in it, so it is
pointed, and its walls are the consecutive pairs of the polygon's ring.
A cone off its plane goes through the hull walk instead: it contains no
line exactly when it has no zero ray and the origin is a vertex of
conv(rays and 0), and its walls are then that hull's facets through the
origin.  Either routine answers with the wall keys alone: no walls
means the cone contains a line.  One monotone chain, _hull_order, rings
each hull facet and the rays of each cone of four or more rays on its
plane.  A wall is keyed by the indices of the rays on it alone: it
holds two rays that are not parallel, so they fix its plane.  The cone
checks build no Fraction; anticanonical_polytope builds one per
polytope, its degree.
"""

from __future__ import annotations

import json
import reprlib
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .lattice import IVec, _cross, _dot, _is_primitive, det3, solve3, vec_str


class Fan(namedtuple("Fan", ["rays", "max_cones"])):
    """Rays plus maximal cones, checked here and stored as tuples.

    A ray is a list or tuple of exactly three ints, and a cone a list or
    tuple of 0-based ray indices; bool is not an int here.  This is the
    only fan validator: fan_from_json passes the arrays it reads, so a
    file and a caller get the same message for the same defect.
    """

    rays: tuple[IVec, ...]
    max_cones: tuple[tuple[int, ...], ...]
    __slots__ = ()

    def __new__(
        cls, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]
    ) -> Fan:
        checked_rays = []
        for v in rays:
            if (
                (type(v) is not tuple and type(v) is not list)
                or len(v) != 3
                or type(v[0]) is not int
                or type(v[1]) is not int
                or type(v[2]) is not int
            ):
                raise ValueError(f"ray {reprlib.repr(v)} is not a triple of integers")
            checked_rays.append(tuple(v))
        checked_cones = []
        for cone in max_cones:
            if type(cone) is tuple or type(cone) is list:
                for i in cone:
                    if type(i) is not int:
                        break
                else:
                    checked_cones.append(tuple(cone))
                    continue
            raise ValueError(f"cone {reprlib.repr(cone)} is not an array of integer indices")
        if not checked_rays:
            raise ValueError("fan needs at least one ray")
        if not checked_cones:
            raise ValueError("fan needs at least one maximal cone")
        n = len(checked_rays)
        cones: dict[tuple[int, ...], None] = {}
        for cone in checked_cones:
            # the sorted key's ends bound every index; a bad cone is rescanned to word its defect
            key = tuple(sorted(cone))
            if not (len(key) >= 3 and 0 <= key[0] and key[-1] < n and len(set(key)) == len(key)):
                if len(set(cone)) != len(cone):
                    raise ValueError(f"cone {cone} repeats a ray index")
                for i in cone:
                    if not 0 <= i < n:
                        raise ValueError(f"cone {cone} references missing ray {i}")
                raise ValueError(f"maximal cone {cone} has fewer than 3 rays")
            if key in cones:
                raise ValueError(f"cone {cone} is listed twice")
            cones[key] = None
        return tuple.__new__(cls, (tuple(checked_rays), tuple(cones)))


# the rational point p / d, with d > 0 and gcd(p, d) = 1
QPoint = tuple[IVec, int]


class RationalPolytope(namedtuple("RationalPolytope", ["vertices", "degree"])):
    """Vertices (p, d) meaning p / d, in the order the hull walk finds them, and 6 vol."""

    vertices: tuple[QPoint, ...]
    degree: Fraction
    __slots__ = ()


class ConeSingularity(
    namedtuple(
        "ConeSingularity",
        ["degenerate", "index", "kind", "witness", "support"],
        defaults=[None, None, None, None],
    )
):
    """What one maximal cone is, as far as `toric singularities` tells.

    A degenerate cone (rays of rank at most 2) has nothing else.  A
    simplicial cone has its lattice index; at index 1 and 2 it has a
    kind, "smooth" at index 1 and "transverse-A1" or "isolated-half-point"
    at index 2, where it also has the witness, the lattice point which is
    a half-integer combination of the three rays.  support is the
    integral Gorenstein support vector, when the cone has one.
    """

    degenerate: bool
    index: int | None
    kind: str | None
    witness: IVec | None
    support: IVec | None
    __slots__ = ()


def _support_plane(rays: Sequence[IVec]) -> tuple[IVec, int, bool] | None:
    """The integer plane <s, x> = -L through a cone's rational support, if any.

    The m with <m, v> = -1 on the first independent triple of rays is
    the Cramer pair (n, d) of solve3, m = n / d.  One gcd g of n and d,
    signed like d, reduces it to s = n / g and L = d / g > 0, so L is the
    lcm of m's denominators and s = L m.  Returns (s, L, whether every
    ray has <s, v> = -L), or None when the rays have rank at most 2.
    The cone is Q-Cartier exactly when every ray lies on the plane, and
    Gorenstein when moreover L = 1; three independent rays always lie on
    it.  The first independent triple in lexicographic order of indices
    is found greedily, in one pass: a is the first nonzero ray, b the
    first later ray with a x b != 0, c the first later ray off their
    span.  Every ray before b lies on the line of a, and every ray before
    c in span(a, b), so no earlier triple is independent.
    """
    later = iter(rays)
    for a in later:
        if a != (0, 0, 0):
            break
    else:
        return None
    for b in later:
        ab = _cross(a, b)
        if ab != (0, 0, 0):
            break
    else:
        return None
    for c in later:
        if _dot(ab, c):
            break
    else:
        return None
    (x, y, z), d = solve3((a, b, c))
    g = gcd(x, y, z, d)
    if d < 0:
        g = -g
    sx, sy, sz = s = (x // g, y // g, z // g)
    level = d // g
    if len(rays) > 3:
        for vx, vy, vz in rays:
            if sx * vx + sy * vy + sz * vz != -level:
                return s, level, False
    return s, level, True


def cone_singularity(rays: Sequence[IVec]) -> ConeSingularity:
    """Degeneracy, lattice index, index-2 type and Gorenstein support of one cone.

    The support plane decides degeneracy and the support: m = s when
    L = 1 and every ray lies on the plane, which for a full-dimensional
    cone is the unique integral m with <m, v> = -1 on every ray.  The
    index of a simplicial cone is |det|.  Index 1 is smooth.  At index 2
    exactly one nonzero combination (e1 v1 + e2 v2 + e3 v3)/2 with e_i in
    {0, 1} is a lattice point: on a proper face (some e_i = 0) it is a
    transverse A1 curve germ, in the interior (all e_i = 1) an isolated
    half-point.  A larger index is left unclassified.
    """
    plane = _support_plane(rays)
    if plane is None:
        return ConeSingularity(degenerate=True)
    s, level, on_plane = plane
    index = abs(det3(*rays)) if len(rays) == 3 else None
    kind = witness = None
    if index == 1:
        kind = "smooth"
    elif index == 2:
        a, b, c = rays
        for e, f, g in product((0, 1), repeat=3):
            x = e * a[0] + f * b[0] + g * c[0]
            y = e * a[1] + f * b[1] + g * c[1]
            z = e * a[2] + f * b[2] + g * c[2]
            if (e or f or g) and x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                break
        else:
            raise ArithmeticError(f"index-2 cone {rays} has no half-integer lattice point")
        kind = "transverse-A1"
        if e and f and g:
            kind = "isolated-half-point"
        witness = (x // 2, y // 2, z // 2)
    support = s if level == 1 and on_plane else None
    return ConeSingularity(False, index, kind, witness, support)


def _axes(n: IVec) -> tuple[int, int, int]:
    """A coordinate k with n_k != 0, then k + 1 and k + 2 mod 3.

    A plane <n, x> = c projects one to one onto those two coordinates,
    and a counter-clockwise turn there is a turn about +e_k.
    """
    k = 0 if n[0] else 1 if n[1] else 2
    return k, (k + 1) % 3, (k + 2) % 3


def _wrap(pts: Sequence[IVec], a: IVec, b: IVec) -> tuple[IVec, int]:
    """Rotate a plane about the line ab until no point lies beyond it.

    <(b - a) x (r - a), p - a> > 0 says p lies further round than r; about
    a hull edge or a supporting line the points span under a half turn,
    so one pass suffices.  Returns the primitive outward normal and
    offset: 0 and -1 when every point is on the line.
    """
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    # n = 0 with c = -1 takes the first point off the line
    nx, ny, nz, c = 0, 0, 0, -1
    for px, py, pz in pts:
        if nx * px + ny * py + nz * pz > c:
            px, py, pz = px - ax, py - ay, pz - az
            mx, my, mz = ey * pz - ez * py, ez * px - ex * pz, ex * py - ey * px
            if mx or my or mz:
                nx, ny, nz = mx, my, mz
                c = mx * ax + my * ay + mz * az
    g = gcd(nx, ny, nz) or 1
    return (nx // g, ny // g, nz // g), c // g


def _hull_facets(pts: Sequence[IVec]) -> dict[tuple[int, int], tuple[IVec, int]]:
    """Each directed ring edge a -> b of conv(pts), mapped to the facet <n, x> = c that runs it.

    The walk starts on a supporting plane through the vertical line at
    the largest point a, and crosses to a facet where a plane meets the
    hull in an edge only, as its monotone chain leaves two corners.  A
    facet's ring lists its corners, the hull vertices on it, turning
    about -n, and maps each of its edges p -> q to its plane, so each
    hull edge is mapped once each way, and the facets come in walk
    order.  Wrapping about p -> q reaches the facet that runs q -> p.
    Each ring edge goes on a stack, and is wrapped about when popped
    only if no facet found so far runs it as q -> p, so the walk makes
    one wrap per facet, plus one for the first plane when it meets the
    hull in an edge only.  A wrap that still reaches a facet found
    before, whose first ring edge is then already mapped, raises
    ArithmeticError, as a plane with a point beyond it does: either
    means the walk is broken.
    When the origin is not inside the hull the walk meets a supporting
    plane with c <= 0 and raises ValueError: no point lies beyond it,
    so m = -n has <m, p> >= 0 on every point, and the message names m.
    A wrap gives n = 0 only when every point lies on one line through
    a.  Then m = a x e3, or e1 when that is zero: <m, p> = 0 when the
    line is vertical, and otherwise <m, p> is a non-negative multiple of
    the c > 0 of the first plane, the one through the line and a's
    vertical line.
    """
    a = max(pts)
    plane = _wrap(pts, a, (a[0], a[1], a[2] + 1))
    edges: dict[tuple[int, int], tuple[IVec, int]] = {}
    todo = []
    while True:
        n, c = plane
        if c <= 0:
            m = (-n[0], -n[1], -n[2])
            if m == (0, 0, 0):
                m = _cross(a, (0, 0, 1)) if a[0] or a[1] else (1, 0, 0)
            raise ValueError(
                f"polytope is unbounded: rays do not positively span (direction {vec_str(m)})"
            )
        nx, ny, nz = n
        k, i, j = _axes(n)
        flat = {}
        for t, p in enumerate(pts):
            s = nx * p[0] + ny * p[1] + nz * p[2]
            if s >= c:
                if s > c:
                    raise ArithmeticError(f"hull walk reached a plane {plane} that is not a facet")
                flat[p[i], p[j]] = t
        ring = _hull_order(flat)
        if len(ring) == 2:
            todo.append((ring[0], ring[1]))
        else:
            # counter-clockwise in coordinates k + 1, k + 2 turns about +e_k
            if n[k] > 0:
                ring.reverse()
            ring_edges = list(zip(ring[-1:] + ring, ring))
            if ring_edges[0] in edges:
                raise ArithmeticError(f"hull walk reached the facet {plane} twice")
            edges.update(dict.fromkeys(ring_edges, plane))
            todo += ring_edges
        while todo:
            p, q = todo.pop()
            if (q, p) not in edges:
                break
        else:
            return edges
        plane = _wrap(pts, pts[p], pts[q])


def anticanonical_polytope(f: Fan) -> RationalPolytope:
    """Polar polytope Delta of the fan's rays and 6 vol(Delta), from one hull walk.

    Each facet <n, x> = c of conv(rays), n primitive and outward, is the
    vertex (-n, c) of Delta: c > 0, so -n / c is in lowest terms.  Each
    vertex v of conv(rays) is the facet of Delta on <m, v> = -1, whose
    vertices are those of the facets around v.  A repeated ray counts
    once.  Raises when Delta is unbounded, i.e. the rays fail to
    positively span the space; the walk names the direction from the
    supporting plane that shows it.

    The degree is a sum of tetrahedra that cone the boundary of Delta
    from the origin, which is interior to it, read off the walk's map
    alone.  If the facet (m, d) of conv(rays) runs the edge v -> b, the
    facet (n, e) that runs b -> v comes next round v, so each map entry
    is one edge of Delta's facet on <m, v> = -1.  Fanned from an apex
    (a, c), the first facet seen with an edge out of v, that edge cones
    to the tetrahedron on the origin and -a / c, -m / d, -n / e, of
    6 vol = |det(a, m, n)| / (c d e).  The walk turns every ring one way,
    so no det(a, m, n) is negative.  Over the lcm L of every c each term
    is the integer det(a, m, n) (L / c) (L / d) (L / e), their sum is
    6 vol(Delta) L^3, and one Fraction is built at the end.  A bounded
    Delta is full-dimensional, so a sum that is not positive means a
    broken walk and raises ArithmeticError.
    """
    hull = _hull_facets(tuple(dict.fromkeys(f.rays)))
    planes = dict.fromkeys(hull.values())
    vertices = [((-x, -y, -z), c) for (x, y, z), c in planes]
    level = lcm(*[c for _, c in planes])
    apex: dict[int, tuple[IVec, int]] = {}
    total = 0
    for (v, b), (m, d) in hull.items():
        n, e = hull[b, v]
        a, c = apex.setdefault(v, (m, d))
        total += det3(a, m, n) * (level // c) * (level // d) * (level // e)
    if total <= 0:
        raise ArithmeticError("hull walk gave a polytope with no volume")
    return RationalPolytope(tuple(vertices), Fraction(total, level**3))


def _hull_order(index: dict[tuple[int, int], int]) -> list[int]:
    """The indices of the hull vertices of `index`'s points, counter-clockwise.

    `index` maps each integer point to its index.  Andrew's monotone
    chain gives the ring: the lower chain from the least point in
    lexicographic order, then the upper chain back, each dropping a
    point that makes no strict left turn, so collinear points keep only
    their two ends.
    """
    flat = sorted(index)
    ring: list[tuple[int, int]] = []
    for chain in (flat, flat[::-1]):
        start = len(ring)
        for pt in chain:
            x, y = pt
            while len(ring) - start >= 2:
                (ox, oy), (ax, ay) = ring[-2], ring[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0:
                    break
                ring.pop()
            ring.append(pt)
        # a chain's last point starts the other chain
        ring.pop()
    return [index[pt] for pt in ring]


def _ring_walls(rays: Sequence[IVec], indices: tuple[int, ...], s: IVec) -> list[tuple[int, ...]]:
    """Walls (2-faces) of a cone whose rays all lie on one plane <s, x> = -L, L > 0.

    The plane misses the origin, so the cone is pointed: it is the cone
    over the convex polygon its rays span in that plane, and its walls are
    the cones over the polygon's edges.  Three rays are their own ring,
    and each wall holds just its own two.  Otherwise, projected along a
    coordinate k with s_k != 0, the plane maps one to one onto two
    coordinates, and _hull_order lists the polygon's vertices in order,
    so each wall is spanned by two consecutive vertices p, q; the cross
    product p x q only picks out the rays on the wall's plane.  Returns
    one key per wall, as _cone_walls keys them.
    """
    if len(indices) == 3:
        a, b, c = indices
        return [(a, b), (a, c), (b, c)]
    _, i, j = _axes(s)
    flat = {(rays[t][i], rays[t][j]): t for t in indices}
    ring = _hull_order(flat)
    walls = []
    for p, q in zip(ring, ring[1:] + ring[:1]):
        nx, ny, nz = _cross(rays[p], rays[q])
        walls.append(
            tuple([t for t in indices if nx * rays[t][0] + ny * rays[t][1] + nz * rays[t][2] == 0])
        )
    return walls


def _cone_walls(rays: Sequence[IVec], indices: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Walls (2-faces) of a rank-3 cone off its support plane; none when it holds a line.

    This takes the cones _ring_walls cannot: those that are not
    Q-Cartier, and those with a zero ray.  A cone with a zero ray is not
    strongly convex.  Otherwise the cone contains no line exactly when
    the origin is a vertex of P = conv(rays and 0), and its walls are then
    P's facets through the origin: at least three, and none when the
    origin is not a vertex.  _hull_facets walks P's k distinct
    points p as k p - (their sum): that puts their centroid, inside P as
    the rays have rank 3, at the origin, so the walk never raises, and
    keeps each facet's normal n.  A facet that runs an edge out of the
    origin's index k - 1 lies on <n, x> = 0, and is keyed by the indices
    of the rays on it, in the order of indices: it holds two rays that
    are not parallel, so the key fixes its plane, and the same wall keys equally from both
    adjacent cones when both list their rays in ascending order, as Fan
    does.  Returns the wall keys, an empty list exactly when the cone is
    not strongly convex.
    """
    cone = [rays[t] for t in indices]
    if (0, 0, 0) in cone:
        return []
    pts = [*dict.fromkeys(cone), (0, 0, 0)]
    k = len(pts)
    sx, sy, sz = (sum(p[i] for p in pts) for i in range(3))
    hull = _hull_facets([(k * x - sx, k * y - sy, k * z - sz) for x, y, z in pts])
    return [
        tuple([t for t, v in zip(indices, cone) if _dot(n, v) == 0])
        for (a, _), (n, _) in hull.items()
        if a == k - 1
    ]


def validate_fan(f: Fan) -> tuple[str, ...]:
    """Structural checks: primitivity, ray use, convexity, wall pairing, supports.

    Returns the findings, empty when the fan is clean, in this order:
    non-primitive rays, rays in no maximal cone, degenerate cones, cones
    that contain a line, walls not shared by exactly two cones (in
    sorted key order), then cones with no integral Gorenstein support;
    each kind in index order.  One support plane per cone decides its
    rank and its Gorenstein support, and chooses how its walls are
    found: from the ring of its rays when they all lie on the plane, else
    from the hull walk over its rays and the origin.  A cone with no
    walls contains a line.
    """
    findings = [f"ray {i} is not primitive" for i, v in enumerate(f.rays) if not _is_primitive(v)]
    used = {i for cone in f.max_cones for i in cone}
    findings += [f"ray {i} lies in no maximal cone" for i in range(len(f.rays)) if i not in used]
    non_convex = []
    wall_count: dict = {}
    no_support = []
    for ci, cone in enumerate(f.max_cones):
        plane = _support_plane([f.rays[i] for i in cone])
        if plane is None:
            findings.append(f"cone {ci} is degenerate (rays do not span)")
            continue
        s, level, on_plane = plane
        if level != 1 or not on_plane:
            no_support.append(f"cone {ci} has no integral Gorenstein support vector")
        walls = _ring_walls(f.rays, cone, s) if on_plane else _cone_walls(f.rays, cone)
        if not walls:
            non_convex.append(f"cone {ci} is not strongly convex (contains a line)")
        for wall in walls:
            wall_count[wall] = wall_count.get(wall, 0) + 1
    findings += non_convex
    findings += [
        f"wall rays{list(key)} is not shared by exactly two maximal cones"
        for key, n in sorted(wall_count.items())
        if n != 2
    ]
    return (*findings, *no_support)


def _reject_float(s: str):
    raise ValueError(f"fan files must contain only integers, got {s}")


def _reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f'fan file repeats the key "{key}"')
        obj[key] = value
    return obj


def fan_from_json(text: str) -> Fan:
    """Parse the fan file format: {"rays": [[x,y,z]...], "cones": [[i...]...]}.

    Integers only: floats, NaN and the infinities (which reach
    parse_constant, not parse_float) and booleans anywhere are rejected,
    and so is an object that repeats a key, which json would otherwise
    resolve by keeping the last value.  json.loads words a byte-order
    mark itself.  Cone entries are 0-based ray indices.  Input nested
    too deeply for the parser is rejected with ValueError like any other
    malformed file.  This reader checks only the JSON shape; Fan checks
    every ray and cone, in the same words as for a caller that builds one.
    """
    try:
        data = json.loads(
            text,
            parse_float=_reject_float,
            parse_constant=_reject_float,
            object_pairs_hook=_reject_repeated_keys,
        )
    except RecursionError:
        raise ValueError("fan file is nested too deeply") from None
    if not isinstance(data, dict) or set(data.keys()) != {"rays", "cones"}:
        raise ValueError('fan file must be an object with exactly "rays" and "cones"')
    rays, cones = data["rays"], data["cones"]
    if not isinstance(rays, list) or not isinstance(cones, list):
        raise ValueError('"rays" and "cones" must be arrays')
    return Fan(rays, cones)
