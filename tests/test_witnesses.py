"""The weighted projective space P(4,2,1,1), a degree-64 witness, checked as it stands.

`fans/p4211.fan` is the fan of P(4,2,1,1): the rows of the weights'
kernel as rays, every triple a cone, as the tests' `_wps_fan` builds it.
Its fan is clean, -K is Cartier (Delta is a lattice polytope with 35
points, so Delta is reflexive) and its degree is 64, yet no `Survives`
record of the ledger names it.  The tests state what is computed;
nothing in the ledger is edited to make them pass.
"""

from itertools import chain
from pathlib import Path

from test_toric import _lattice_point_count, _wps_fan

from fano64.cli import _reproduce, main
from fano64.records import surviving_constructions
from fano64.toric import anticanonical_polytope, fan_from_json

FAN = Path(__file__).resolve().parent.parent / "fans" / "p4211.fan"
WEIGHTS = (4, 2, 1, 1)


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
