"""Seeded fan inputs for the fan workloads, with integer reference values.

Every fan the benchmark gives the program is built here from the run's
seed, in pure integer arithmetic, and written to a fan file before any
timing starts.  Each fan carries the reference values its outputs are
checked against.  They are computed for the untransformed fan, before a
seeded unimodular transform is applied to its rays: the toric degree,
the number of vertices of the polar polytope, the `validate` findings
and, for each cone, the lattice index, the singularity type and whether
an integral Gorenstein support exists.  All of these are GL3(Z)
invariants, so the transformed fan must reproduce them exactly.

Families:

* ``shipped``: the three fan files of the repository, embedded here.
* ``wps``: fans of well-formed weighted projective 3-spaces P(a0..a3).
* ``cube``: face fans of positively spanning subsets of {-1,0,1}^3.  Few
  polar vertices, so vertex enumeration dominates the degree.
* ``box``: face fans of random primitive points in {-3..3}^3.  Many polar
  vertices with large denominators, so facet search dominates.

Each seed gets a fixed number of cube and box fans of each (rays, polar
vertices) size, so that the cost mix stays the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod
from pathlib import Path

Vec = tuple[int, int, int]

NO_SUPPORT = "cone {} has no integral Gorenstein support vector"


def dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det3(a: Vec, b: Vec, c: Vec) -> int:
    return dot(a, cross(b, c))


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _primitive(v: Vec) -> Vec:
    g = gcd(*v)
    return (v[0] // g, v[1] // g, v[2] // g)


@dataclass(frozen=True)
class ConeRef:
    """Reference for one maximal cone: lattice index, type, Gorenstein support.

    index and kind are None where the program reports none: a
    non-simplicial cone has no index, and only indices 1 and 2 are typed.
    """

    index: int | None
    kind: str | None
    has_support: bool


@dataclass(frozen=True)
class FanInput:
    """One generated fan, its family and size, and its reference values."""

    name: str
    family: str
    rays: tuple[Vec, ...]
    cones: tuple[tuple[int, ...], ...]
    polar_vertices: int
    degree: Fraction
    findings: tuple[str, ...]
    cone_refs: tuple[ConeRef, ...]
    weights: tuple[int, int, int, int] | None = None

    def fan_json(self) -> str:
        return json.dumps({"rays": [list(v) for v in self.rays], "cones": [list(c) for c in self.cones]})

    def summary(self) -> dict:
        return {
            "name": self.name,
            "family": self.family,
            "rays": len(self.rays),
            "polar_vertices": self.polar_vertices,
            "degree": str(self.degree),
        }


# ---------------------------------------------------------------------------
# Integer oracle


def hull_facets(points: list[Vec]) -> list[tuple[Vec, int, tuple[int, ...]]]:
    """Facets (primitive outward normal n, offset h, indices on n.x = h) of conv(points)."""
    found: dict[tuple[Vec, int], tuple[int, ...]] = {}
    for a, b, c in combinations(points, 3):
        n = cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        n = _primitive(n)
        h = dot(n, a)
        above = below = False
        for p in points:
            s = dot(n, p) - h
            above = above or s > 0
            below = below or s < 0
            if above and below:
                break
        else:
            if above:
                n, h = (-n[0], -n[1], -n[2]), -h
            if (n, h) not in found:
                found[(n, h)] = tuple(i for i, p in enumerate(points) if dot(n, p) == h)
    return sorted((n, h, on) for (n, h), on in found.items())


def polar_vertices(rays: tuple[Vec, ...]) -> list[tuple[Vec, int]]:
    """Vertices N/d (d > 0, lowest terms) of {m : <m, v> >= -1 for all rays}."""
    out = set()
    for a, b, c in combinations(rays, 3):
        d = det3(a, b, c)
        if d == 0:
            continue
        # the solution of <m,a> = <m,b> = <m,c> = -1 is -(bxc + cxa + axb) / d
        s = [x + y + z for x, y, z in zip(cross(b, c), cross(c, a), cross(a, b))]
        if d < 0:
            d = -d
        else:
            s = [-x for x in s]
        if all(dot(s, v) >= -d for v in rays):
            g = gcd(*s, d)
            out.add(((s[0] // g, s[1] // g, s[2] // g), d // g))
    return sorted(out)


def _ring(points: list[Vec], drop: int) -> list[Vec]:
    """Convex boundary order of coplanar points, by a monotone chain on two coordinates."""
    flat = sorted((tuple(x for i, x in enumerate(p) if i != drop), p) for p in set(points))

    def turn(o, a, b):
        return (a[0][0] - o[0][0]) * (b[0][1] - o[0][1]) - (a[0][1] - o[0][1]) * (b[0][0] - o[0][0])

    chain = []
    for seq in (flat, flat[::-1]):
        half: list = []
        for item in seq:
            while len(half) >= 2 and turn(half[-2], half[-1], item) <= 0:
                half.pop()
            half.append(item)
        chain += half[:-1]
    return [p for _, p in chain]


def polar_degree(rays: tuple[Vec, ...], vertices: list[tuple[Vec, int]]) -> Fraction:
    """Normalized volume of the polar polytope, by polar duality.

    The facet of the polytope dual to ray v holds the vertices m with
    <m, v> = -1; coning each facet's triangles from the origin gives
    sum over v and triangles (a, b, c) of |det(a, b, c)|.
    """
    total = Fraction(0)
    for v in rays:
        face = [(n, d) for n, d in vertices if dot(n, v) == -d]
        if len(face) < 3:
            continue
        den = lcm(*(d for _, d in face))
        pts = [tuple(x * (den // d) for x in n) for n, d in face]
        ring = _ring(pts, max(range(3), key=lambda i: abs(v[i])))
        twice = sum(abs(det3(ring[0], ring[i], ring[i + 1])) for i in range(1, len(ring) - 1))
        total += Fraction(twice, den**3)
    return total


def cone_ref(cone_rays: tuple[Vec, ...]) -> ConeRef:
    """Reference for a cone whose rays lie on one affine plane missing the origin."""
    a = cone_rays[0]
    n = next(n for b, c in combinations(cone_rays[1:], 2) if any(n := cross(_sub(b, a), _sub(c, a))))
    has_support = abs(dot(_primitive(n), a)) == 1
    if len(cone_rays) != 3:
        return ConeRef(None, None, has_support)
    index = abs(det3(*cone_rays))
    if index != 2:
        return ConeRef(index, "smooth" if index == 1 else None, has_support)
    on_face = False
    for eps in product((0, 1), repeat=3):
        s = [sum(e * v[k] for e, v in zip(eps, cone_rays)) for k in range(3)]
        if any(s) and all(x % 2 == 0 for x in s) and 0 in eps:
            on_face = True
    return ConeRef(2, "transverse-A1" if on_face else "isolated-half-point", has_support)


def _clean_fan(name, family, rays, cones, weights=None) -> FanInput:
    """A fan whose only possible findings are cones without Gorenstein support."""
    refs = tuple(cone_ref(tuple(rays[i] for i in c)) for c in cones)
    verts = polar_vertices(rays)
    return FanInput(
        name=name,
        family=family,
        rays=tuple(rays),
        cones=tuple(cones),
        polar_vertices=len(verts),
        degree=polar_degree(rays, verts),
        findings=tuple(NO_SUPPORT.format(i) for i, r in enumerate(refs) if not r.has_support),
        cone_refs=refs,
        weights=weights,
    )


# ---------------------------------------------------------------------------
# Families


def face_fan(points: list[Vec]) -> tuple[list[Vec], list[tuple[int, ...]]] | None:
    """Rays and cones of the fan over the facets of conv(points), or None if 0 is not interior.

    Points strictly inside the hull are dropped; every boundary point is a
    ray of each cone over a facet that contains it.  There is one cone per
    facet, so the number of cones is the number of polar vertices.
    """
    facets = hull_facets(points)
    if len(facets) < 4 or any(h <= 0 for _, h, _ in facets):
        return None
    boundary = sorted({i for _, _, on in facets for i in on})
    if len(boundary) < len(points):
        return face_fan([points[i] for i in boundary])
    return points, [on for _, _, on in facets]


def stratified(rng: random.Random, family: str, draw, quotas: dict[tuple[int, int], int]) -> list[FanInput]:
    """Face fans of random point sets until each (rays, polar vertices) quota is met.

    Fixing how many fans of each size a seed gets keeps the cost mix, and
    so the run's percentiles, steady from seed to seed.
    """
    need = dict(quotas)
    fans = []
    for _ in range(100_000):
        if not any(need.values()):
            return fans
        hull = face_fan(draw(rng))
        if hull is None:
            continue
        rays, cones = hull
        key = (len(rays), len(cones))
        if need.get(key):
            need[key] -= 1
            fan = _clean_fan(f"{family}-{key[0]}-{key[1]}-{need[key]}", family, rays, cones)
            if fan.polar_vertices != len(cones):
                raise AssertionError(f"{fan.name}: polar vertices disagree with facets")
            fans.append(fan)
    raise RuntimeError(f"{family}: quotas {need} not met")


def wps_fan(weights: tuple[int, int, int, int]) -> FanInput:
    """Fan of P(a0..a3): rays v_i spanning Z^3 with sum a_i v_i = 0.

    Column operations reduce the row a to (1, 0, 0, 0) while tracking a
    unimodular U; the last three columns of U are a basis of the integer
    kernel of a, and row i of that basis is v_i.
    """
    a = list(weights)
    u = [[int(i == j) for j in range(4)] for i in range(4)]
    while sum(1 for x in a if x) > 1:
        p = min((j for j in range(4) if a[j]), key=lambda j: abs(a[j]))
        for j in range(4):
            if j != p and a[j]:
                q = a[j] // a[p]
                a[j] -= q * a[p]
                for row in u:
                    row[j] -= q * row[p]
    p = next(j for j in range(4) if a[j])
    kernel = [j for j in range(4) if j != p]
    rays = [tuple(u[i][j] for j in kernel) for i in range(4)]
    name = "wps-" + "-".join(map(str, weights))
    return _clean_fan(name, "wps", rays, list(combinations(range(4), 3)), weights)


def wps_degree(weights: tuple[int, int, int, int]) -> Fraction:
    return Fraction(sum(weights) ** 3, prod(weights))


def _well_formed(w: tuple[int, ...]) -> bool:
    return all(gcd(*(w[:i] + w[i + 1 :])) == 1 for i in range(4))


WPS_WEIGHTS = [
    w
    for w in product(range(1, 8), repeat=4)
    if w[0] >= w[1] >= w[2] >= w[3] and _well_formed(w)
]

_SHIPPED = {
    "p3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "p1p1p1": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)],
    ),
    "x66": (
        [(-1, 0, 0), (1, -1, 0), (-1, -1, 2), (-1, -1, 3), (-1, 2, -1)],
        [(0, 1, 2), (0, 2, 3, 4), (1, 2, 3, 4), (0, 1, 4)],
    ),
}

# x66 is not a clean fan: cone 2 contains a line, which breaks wall pairing.
_X66_FINDINGS = (
    "cone 2 is not strongly convex (contains a line)",
    "wall rays[1, 2] is not shared by exactly two maximal cones",
    "wall rays[1, 4] is not shared by exactly two maximal cones",
    "wall rays[2, 3] is not shared by exactly two maximal cones",
    "wall rays[3, 4] is not shared by exactly two maximal cones",
    NO_SUPPORT.format(2),
)
_X66_CONES = (
    ConeRef(2, "transverse-A1", True),
    ConeRef(None, None, True),
    ConeRef(None, None, False),
    ConeRef(1, "smooth", True),
)


def shipped_fan(name: str) -> FanInput:
    rays, cones = _SHIPPED[name]
    fan = _clean_fan(name, "shipped", rays, cones)
    if name == "x66":
        fan = replace(fan, findings=_X66_FINDINGS, cone_refs=_X66_CONES)
    return fan


CUBE_POINTS = [p for p in product((-1, 0, 1), repeat=3) if any(p)]


def cube_points(sizes: range):
    """Draw a random subset of {-1,0,1}^3 with a size in `sizes`."""
    return lambda rng: rng.sample(CUBE_POINTS, rng.choice(sizes))


BOX_POINTS = [p for p in product(range(-3, 4), repeat=3) if any(p) and gcd(*p) == 1]


def box_points(rng: random.Random) -> list[Vec]:
    """Draw 17 random primitive points of {-3..3}^3."""
    return rng.sample(BOX_POINTS, 17)


# ---------------------------------------------------------------------------
# Transforms and workload sets


def unimodular(rng: random.Random) -> tuple[Vec, Vec, Vec]:
    """A random signed permutation followed by two elementary row operations."""
    perm = rng.sample(range(3), 3)
    rows = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(3)] for i in range(3)]
    for _ in range(2):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)


def transformed(fan: FanInput, rng: random.Random) -> FanInput:
    """The fan with every ray mapped by a seeded unimodular matrix; references kept."""
    a = unimodular(rng)
    rays = tuple(tuple(dot(row, v) for row in a) for v in fan.rays)
    return replace(fan, rays=rays)


# (rays, polar vertices) -> fans per seed, at the commonest vertex counts of each size
SCAN_CUBE_QUOTAS = {
    (r, v): 6
    for r, vs in {6: (7, 8), 7: (8, 9), 8: (9, 10), 9: (9, 10), 10: (9, 10), 11: (10, 11), 12: (10, 11)}.items()
    for v in vs
}
LARGE_CUBE_QUOTAS = {
    (16, 9): 2, (17, 8): 2, (18, 8): 2, (19, 8): 2, (20, 7): 2, (21, 7): 2,
    (22, 7): 2, (23, 7): 2, (24, 7): 2, (25, 6): 2, (26, 6): 2,
    (16, 8): 1, (17, 9): 1, (18, 9): 1,
}
LARGE_BOX_QUOTAS = {(15, 18): 8, (15, 19): 8, (15, 20): 9}


def scan_fans(seed: int) -> list[FanInput]:
    """fan-scan: the shipped fans, nine wps fans and 84 cube fans of 6..12 rays."""
    rng = random.Random(f"fan-scan/{seed}")
    fans = [shipped_fan(name) for name in _SHIPPED]
    fans += [wps_fan(w) for w in rng.sample(WPS_WEIGHTS, 9)]
    fans += stratified(rng, "cube", cube_points(range(6, 13)), SCAN_CUBE_QUOTAS)
    fans = [transformed(f, rng) for f in fans]
    rng.shuffle(fans)
    return fans


def large_fans(seed: int) -> list[FanInput]:
    """fan-large: 25 cube fans of 16..26 rays, 25 box fans of 15 rays and 18..20 vertices."""
    rng = random.Random(f"fan-large/{seed}")
    fans = stratified(rng, "cube", cube_points(range(16, 27)), LARGE_CUBE_QUOTAS)
    fans += stratified(rng, "box", box_points, LARGE_BOX_QUOTAS)
    fans = [transformed(f, rng) for f in fans]
    rng.shuffle(fans)
    return fans


def write_fans(fans: list[FanInput], directory: Path) -> list[Path]:
    """Write each fan to <directory>/<name>.fan, plus a manifest of families and sizes."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for fan in fans:
        path = directory / f"{fan.name}.fan"
        path.write_text(fan.fan_json(), encoding="utf-8")
        paths.append(path)
    manifest = [fan.summary() for fan in fans]
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return paths
