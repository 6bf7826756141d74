"""Degree-64 witness fans, checked as they stand.

`fans/p4211.fan` is the fan of P(4,2,1,1): the rows of the weights'
kernel as rays, every triple a cone, as the tests' `_wps_fan` builds it.
Its fan is clean, -K is Cartier (Delta is a lattice polytope with 35
points, so Delta is reflexive) and its degree is 64, yet no `Survives`
record of the ledger names it.  The tests state what is computed;
nothing in the ledger is edited to make them pass.

`fans/cone-p1p1.fan` and `fans/cone-f1.fan` are the fans of the ledger's
two surviving cones, the projective cones over P1 x P1 and F1 in their
anticanonical embeddings.  Each is rebuilt from the polygon P of its
base surface: Delta_X = conv(2P x {-1}, (0, 0, 1)) has every facet
<n, x> = 1, so the fan's rays are its polar's vertices -n, and its cones
are the face fan of conv(rays).

Two more fans tie pairs of degree-64 varieties together.
`fans/cone-p112.fan` is the cone over P(1,1,2), the quadric cone,
rebuilt the same way from its polygon; a unimodular matrix carries its
Delta onto Delta of P(4,2,1,1).  `fans/p3111-tangent.fan` is P(3,1,1,1)
projected from the tangent space at a smooth torus-fixed point: Delta
loses the vertex u and the first lattice point u + e along each of its
three edges, the other lattice points are hulled again, and the fan's
rays are the polar's vertices -n.  A unimodular matrix carries its
Delta onto Delta of the cone over F1, so the records "cone over F1" and
"P(3,1,1,1) projected from a tangent space" name one toric class.
`fans/p6411-tangent.fan` is P(6,4,1,1) projected the same way from its
smooth vertex (-1, -1, -1); a unimodular matrix carries the projection
from its other smooth vertex, (-1, -1, 11), onto it, so both vertices
give one class.

Each classification record with a witness fan is tied to its file in
one table: the file is clean and its degree is the record's.  The
records for X70 and X66 have no witness.
"""

from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from test_toric import _face_fan, _lattice_point_count, _lattice_points, _wps_fan

import fano64.toric
from fano64.cli import _reproduce, main
from fano64.elimination import classification_summary
from fano64.lattice import _dot, det3
from fano64.records import surviving_constructions
from fano64.toric import Fan, anticanonical_polytope, fan_from_json, validate_fan

FANS = Path(__file__).resolve().parent.parent / "fans"
FAN = FANS / "p4211.fan"
WEIGHTS = (4, 2, 1, 1)
# each cone's file and its base's polygon
CONES = {
    "cone-p1p1.fan": ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    "cone-f1.fan": ((-1, -1), (1, -1), (1, 0), (-1, 2)),
}


def test_the_file_is_the_fan_of_its_weights():
    assert fan_from_json(FAN.read_text(encoding="utf-8")) == _wps_fan(WEIGHTS)


def test_toric_finds_it_clean_and_of_degree_64(capsys):
    assert main(["toric", str(FAN), "validate"]) == 0
    assert capsys.readouterr().out == "rays: 4\nmaximal cones: 4\nclean\n"
    assert main(["toric", str(FAN), "degree", "--expect", "64"]) == 0
    assert capsys.readouterr().out == "degree: 64\nexpected: 64 (match)\n"


def test_delta_is_a_lattice_polytope_with_35_points():
    f = _wps_fan(WEIGHTS)
    p = anticanonical_polytope(f)
    assert all(d == 1 for _, d in p.vertices)
    assert _lattice_point_count(f, p) == 35


def test_wps_finds_it_of_degree_64_and_gorenstein(capsys):
    assert main(["wps", *map(str, WEIGHTS)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "space: P(4,2,1,1)",
        "degree: 64",
        "anticanonical index: 8",
        "gorenstein: true",
    ]


def test_no_survivor_of_the_ledger_names_it():
    survivors = surviving_constructions(chain.from_iterable(_reproduce(None).values()))
    assert survivors == {
        "P3",
        "cone over P1 x P1",
        "cone over F1",
        "P(3,1,1,1) projected from a tangent space",
        "P(6,4,1,1) projected from a tangent space",
        "X70 projected from a plane",
        "X66 projected from a cDV point",
    }
    assert not any("4,2,1,1" in name for name in survivors)


def _polar_face_fan(points) -> Fan:
    """The face fan of the polar of the reflexive conv(points), rays and cones sorted."""
    planes = dict.fromkeys(fano64.toric._hull_facets(points).values())
    assert all(c == 1 for _, c in planes), points
    rays = sorted((-x, -y, -z) for (x, y, z), _ in planes)
    return Fan(rays, sorted(sorted(cone) for cone in _face_fan(rays)))


def _cone_fan(polygon) -> Fan:
    """The fan of the polar of Delta_X = conv(2P x {-1}, (0, 0, 1))."""
    return _polar_face_fan([(2 * x, 2 * y, -1) for x, y in polygon] + [(0, 0, 1)])


@pytest.mark.parametrize("name", CONES)
def test_each_cone_file_is_the_fan_of_its_polygon(name):
    assert fan_from_json((FANS / name).read_text(encoding="utf-8")) == _cone_fan(CONES[name])


@pytest.mark.parametrize("name", CONES)
def test_toric_finds_each_cone_clean_and_of_degree_64(name, capsys):
    path = str(FANS / name)
    assert main(["toric", path, "validate"]) == 0
    assert capsys.readouterr().out == "rays: 5\nmaximal cones: 5\nclean\n"
    assert main(["toric", path, "degree", "--expect", "64"]) == 0
    assert capsys.readouterr().out == "degree: 64\nexpected: 64 (match)\n"


@pytest.mark.parametrize("name", CONES)
def test_each_cone_has_35_points(name):
    f = _cone_fan(CONES[name])
    p = anticanonical_polytope(f)
    assert _lattice_point_count(f, p) == 35
    assert p.degree == 64


def _tangent_fan(weights, u) -> Fan:
    """The fan of P(weights) projected from the tangent space at the smooth vertex u of its Delta.

    Delta is a simplex, so u's edges run to the other three vertices.
    """
    f = _wps_fan(weights)
    p = anticanonical_polytope(f)
    dropped = {u}
    edges = []
    for w, _ in p.vertices:
        if w != u:
            step = tuple(a - b for a, b in zip(w, u))
            e = tuple(x // gcd(*step) for x in step)
            edges.append(e)
            dropped.add(tuple(a + b for a, b in zip(u, e)))
    assert len(edges) == 3 and det3(*edges) in (1, -1), (weights, u)
    return _polar_face_fan([m for m in _lattice_points(f, p) if m not in dropped])


# each new file's rebuild, and its numbers of rays and of cones
WITNESSES = {
    "cone-p112.fan": (lambda: _cone_fan(((-1, -1), (3, -1), (-1, 1))), 4, 4),
    "p3111-tangent.fan": (lambda: _tangent_fan((3, 1, 1, 1), (-1, 5, -1)), 5, 5),
    "p6411-tangent.fan": (lambda: _tangent_fan((6, 4, 1, 1), (-1, -1, -1)), 5, 5),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_each_witness_file_is_its_rebuild(name):
    rebuild, _, _ = WITNESSES[name]
    assert fan_from_json((FANS / name).read_text(encoding="utf-8")) == rebuild()


@pytest.mark.parametrize("name", WITNESSES)
def test_toric_finds_each_witness_clean_and_of_degree_64(name, capsys):
    _, rays, cones = WITNESSES[name]
    path = str(FANS / name)
    assert main(["toric", path, "validate"]) == 0
    assert capsys.readouterr().out == f"rays: {rays}\nmaximal cones: {cones}\nclean\n"
    assert main(["toric", path, "degree", "--expect", "64"]) == 0
    assert capsys.readouterr().out == "degree: 64\nexpected: 64 (match)\n"


@pytest.mark.parametrize("name", WITNESSES)
def test_each_witness_has_35_points(name):
    f = WITNESSES[name][0]()
    assert _lattice_point_count(f, anticanonical_polytope(f)) == 35


def _vertices(name: str) -> set:
    f = fan_from_json((FANS / name).read_text(encoding="utf-8"))
    return {m for m, _ in anticanonical_polytope(f).vertices}


# M, with the file whose Delta M carries onto the other file's Delta
EQUIVALENCES = [
    ("cone-p112.fan", ((0, 0, 1), (0, 1, -1), (1, 0, -1)), "p4211.fan"),
    ("p3111-tangent.fan", ((1, 1, 0), (1, 0, 1), (1, 0, 0)), "cone-f1.fan"),
]


@pytest.mark.parametrize(("source", "matrix", "target"), EQUIVALENCES)
def test_a_unimodular_matrix_carries_one_delta_onto_the_other(source, matrix, target):
    assert det3(*matrix) in (1, -1)
    image = {tuple(_dot(row, m) for row in matrix) for m in _vertices(source)}
    assert image == _vertices(target)


def test_both_smooth_vertices_of_p6411_give_one_class():
    matrix = ((1, 0, 0), (0, 1, 0), (-6, -4, -1))
    assert det3(*matrix) == -1
    f = _tangent_fan((6, 4, 1, 1), (-1, -1, 11))
    image = {tuple(_dot(row, m) for row in matrix) for m, _ in anticanonical_polytope(f).vertices}
    assert image == _vertices("p6411-tangent.fan")


# each classification record with a witness, and the witness's file
WITNESS_OF = {
    "P3": "p3.fan",
    "cone over P1 x P1": "cone-p1p1.fan",
    "cone over F1": "cone-f1.fan",
    "P(3,1,1,1) projected from a tangent space": "p3111-tangent.fan",
    "P(6,4,1,1) projected from a tangent space": "p6411-tangent.fan",
}
NO_WITNESS = ("X70 projected from a plane", "X66 projected from a cDV point")


def test_the_witness_table_names_the_seven_classification_records():
    labels = [r.context.removeprefix("classification/") for r in classification_summary()]
    assert len(labels) == 7
    assert set(labels) == {*WITNESS_OF, *NO_WITNESS}


@pytest.mark.parametrize("label", WITNESS_OF)
def test_each_witness_is_clean_with_the_degree_of_its_record(label):
    (record,) = [r for r in classification_summary() if r.context == f"classification/{label}"]
    f = fan_from_json((FANS / WITNESS_OF[label]).read_text(encoding="utf-8"))
    assert validate_fan(f) == ()
    assert dict(record.computed)["degree"] == anticanonical_polytope(f).degree == 64
