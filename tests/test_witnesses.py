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
"""

from itertools import chain
from pathlib import Path

import pytest
from test_toric import _face_fan, _lattice_point_count, _wps_fan

import fano64.toric
from fano64.cli import _reproduce, main
from fano64.elimination import classification_summary
from fano64.records import surviving_constructions
from fano64.toric import Fan, anticanonical_polytope, fan_from_json

FANS = Path(__file__).resolve().parent.parent / "fans"
FAN = FANS / "p4211.fan"
WEIGHTS = (4, 2, 1, 1)
# each cone's file, the classification record that names it, and its base's polygon
CONES = {
    "cone-p1p1.fan": ("cone over P1 x P1", ((-1, -1), (1, -1), (1, 1), (-1, 1))),
    "cone-f1.fan": ("cone over F1", ((-1, -1), (1, -1), (1, 0), (-1, 2))),
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


def _cone_fan(polygon) -> Fan:
    """The face fan of the polar of Delta_X = conv(2P x {-1}, (0, 0, 1)), rays and cones sorted."""
    points = [(2 * x, 2 * y, -1) for x, y in polygon] + [(0, 0, 1)]
    planes = dict.fromkeys(fano64.toric._hull_facets(points).values())
    assert all(c == 1 for _, c in planes), polygon
    rays = sorted((-x, -y, -z) for (x, y, z), _ in planes)
    return Fan(rays, sorted(sorted(cone) for cone in _face_fan(rays)))


@pytest.mark.parametrize("name", CONES)
def test_each_cone_file_is_the_fan_of_its_polygon(name):
    _, polygon = CONES[name]
    assert fan_from_json((FANS / name).read_text(encoding="utf-8")) == _cone_fan(polygon)


@pytest.mark.parametrize("name", CONES)
def test_toric_finds_each_cone_clean_and_of_degree_64(name, capsys):
    path = str(FANS / name)
    assert main(["toric", path, "validate"]) == 0
    assert capsys.readouterr().out == "rays: 5\nmaximal cones: 5\nclean\n"
    assert main(["toric", path, "degree", "--expect", "64"]) == 0
    assert capsys.readouterr().out == "degree: 64\nexpected: 64 (match)\n"


@pytest.mark.parametrize("name", CONES)
def test_each_cone_has_35_points_and_the_degree_of_its_record(name):
    label, polygon = CONES[name]
    f = _cone_fan(polygon)
    p = anticanonical_polytope(f)
    assert _lattice_point_count(f, p) == 35
    (record,) = [r for r in classification_summary() if r.context == f"classification/{label}"]
    assert dict(record.computed)["degree"] == p.degree == 64
