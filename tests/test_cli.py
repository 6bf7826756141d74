import hashlib
import importlib
import importlib.metadata
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fano64
import fano64.toric
from fano64 import cli
from fano64.cli import _build_parser, _plain_toric_args, main
from fano64.elimination import classification_summary
from fano64.ledger import genus_of_degree
from fano64.records import CaseRecord, GeometricArgument, Survives
from fano64.toric import Fan
from fano64.wps import Weights

FANS = Path(__file__).resolve().parent.parent / "fans"
P3 = str(FANS / "p3.fan")
P1P1P1 = str(FANS / "p1p1p1.fan")
X66 = str(FANS / "x66.fan")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, flags=()):
    """Run the CLI in a new interpreter, given `flags`, that imports the fano64 under test."""
    src = str(Path(fano64.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "fano64.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_wps_table_output(capsys):
    code, out, _ = run(capsys, "wps", "6", "4", "1", "1")
    assert code == 0
    assert "degree: 72" in out
    assert "anticanonical index: 12" in out
    assert "gorenstein: true" in out
    assert "1/6(4,1,1)" in out
    assert "edge 0-1: 1/2(1,1)" in out


def test_wps_machine_output(capsys):
    code, out, _ = run(capsys, "wps", "6", "4", "1", "1", "--machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == "72"
    assert doc["genus"] == 37
    assert doc["ambient_dim"] == 38
    assert doc["gorenstein"] is True
    assert doc["vertex_singularities"] == [
        "1/6(4,1,1)",
        "1/4(2,1,1)",
        "smooth",
        "smooth",
    ]


def test_wps_fractional_degree_has_no_genus_row(capsys):
    code, out, _ = run(capsys, "wps", "2", "1", "1", "1")
    assert code == 0
    assert "degree: 125/2" in out
    assert "genus" not in out


def test_one_genus_formula_across_the_ledger_and_the_wps_command(capsys):
    for r in classification_summary():
        genus = r.value("genus")
        assert genus == genus_of_degree(r.value("degree")), r.context
        assert r.value("ambient_dim") == genus + 1, r.context
    with_genus = 0
    for weights in combinations_with_replacement(range(7, 0, -1), 4):
        try:
            Weights(*weights)
        except ValueError:
            continue  # ill-formed
        code, out, _ = run(capsys, "wps", *map(str, weights), "--machine")
        assert code == 0, weights
        doc = json.loads(out)
        degree = Fraction(doc["degree"])
        if degree.denominator == 1 and degree % 2 == 0:
            with_genus += 1
            assert doc["genus"] == genus_of_degree(degree), weights
            assert doc["ambient_dim"] == doc["genus"] + 1, weights
        else:
            assert "genus" not in doc and "ambient_dim" not in doc, weights
    assert with_genus > 0


def test_wps_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "wps", "5", "0", "1", "1")
    assert code == 1
    assert "error:" in err


def test_bundle_evaluation(capsys):
    code, out, _ = run(capsys, "bundle", "--base", "F0", "--c1", "2,2", "--c2", "0")
    assert code == 0
    assert "degree: 64" in out
    assert "-K: 2D" in out

    code, out, _ = run(
        capsys, "bundle", "--base", "F2", "--c1=-2,-2", "--c2=-2"
    )
    assert code == 0
    assert "degree: 64" in out
    assert "-K: 2D + pi*(4h+6l)" in out
    assert "chi: 2" in out


def test_bundle_solve_reports_non_integral_c2(capsys):
    code, out, _ = run(
        capsys, "bundle", "--base", "P2", "--c1", "0", "--solve-degree", "64"
    )
    assert code == 0
    assert "-5/4" in out
    assert "NON-INTEGRAL" in out


def test_bundle_solve_machine(capsys):
    code, out, _ = run(
        capsys,
        "bundle",
        "--base",
        "F1",
        "--c1=-2,-2",
        "--solve-degree",
        "64",
        "--machine",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c2"] == "-1"
    assert doc["integral"] is True


def test_bundle_argument_errors(capsys):
    code, _, err = run(capsys, "bundle", "--base", "F9", "--c1", "1,1", "--c2", "0")
    assert code == 1
    assert "invalid choice" in err

    code, _, err = run(capsys, "bundle", "--base", "P2", "--c1", "1,2", "--c2", "0")
    assert code == 1
    assert "single coefficient" in err

    code, out, err = run(capsys, "bundle", "--base", "F1", "--c1", "1", "--c2", "0")
    assert (code, out) == (1, "")
    assert err == "error: c1 on F1 takes two coefficients a,b\n"

    code, _, err = run(capsys, "bundle", "--base", "F0", "--c1", "1,1")
    assert code == 1  # needs --c2 or --solve-degree


INTEGER_ARGUMENTS = {
    "c1 on P2": ("bundle", "--base", "P2", "--c1", "{}", "--c2", "0"),
    "c1 on F0": ("bundle", "--base", "F0", "--c1", "2,{}", "--c2", "0"),
    "c2": ("bundle", "--base", "P2", "--c1", "3", "--c2", "{}"),
    "solve-degree": ("bundle", "--base", "P2", "--c1", "3", "--solve-degree", "{}"),
    "wps weight": ("wps", "{}", "1", "1", "1"),
    "expect": ("toric", P3, "degree", "--expect", "{}"),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_read_only_decimal_digits(capsys, name):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    template = INTEGER_ARGUMENTS[name]
    for bad in ("1_0", "٣", "0x1", "1e1", "1.0", "", "+", "1 0", "9" * 5000):
        code, out, err = run(capsys, *(a.format(bad) for a in template))
        assert (code, out) == (1, ""), (name, bad)
        assert "error:" in err and (bad in err or "4300 digits" in err), (name, err)
    one = run(capsys, *(a.format("1") for a in template))
    assert one[2] == "", one
    for same in (" 1 ", "+1", "01"):
        assert run(capsys, *(a.format(same) for a in template)) == one, (name, same)


# the interpreter's own words would name its API, sys.set_int_max_str_digits
TOO_LONG = (
    f"a number has more than {sys.get_int_max_str_digits()} digits, "
    "the most this program reads or prints"
)


def test_a_number_past_the_digit_limit_is_refused_in_the_programs_words(capsys):
    code, out, err = run(capsys, "wps", "1", "1", "1", "1" * 5000)
    assert (code, out) == (1, "")
    assert err.endswith(f"fano64 wps: error: argument W: {TOO_LONG}\n"), err
    # each degree below has thousands of digits more than its inputs
    for argv in (
        ("wps", "1", "1", "1", "1" * 3000),
        ("wps", "1", "1", "1", "1" * 3000, "--machine"),
        ("bundle", "--base", "P2", "--c1", "1" * 3000, "--c2", "0"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {TOO_LONG}\n"), argv[:4]


def test_toric_degree_with_matching_expectation(capsys):
    code, out, _ = run(capsys, "toric", P3, "degree", "--expect", "64")
    assert code == 0
    assert "degree: 64" in out
    assert "match" in out


def test_toric_degree_reports_value_next_to_expectation(capsys):
    code, out, _ = run(capsys, "toric", X66, "degree", "--expect", "66")
    assert code == 0
    assert "degree: 66" in out
    assert "expected: 66 (match)" in out


def test_toric_degree_mismatch_exits_two(capsys):
    code, out, _ = run(capsys, "toric", X66, "degree", "--expect", "64")
    assert code == 2
    assert "MISMATCH" in out
    assert run(capsys, "toric", P3, "degree", "--expect", "63") == (
        2,
        "degree: 64\nexpected: 63 (MISMATCH)\n",
        "",
    )


def test_toric_degree_machine(capsys):
    code, out, _ = run(capsys, "toric", X66, "degree", "--expect", "66", "--machine")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"degree": "66", "expected": 66, "match": True, "vertices": 5}


def _wps_fan_file(tmp_path, ray: list[int]) -> str:
    """P(a,b,1,1) with rays e1, e2, ray = (-a,-b,-1) and e3, every triple a cone."""
    path = tmp_path / "wps.fan"
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    path.write_text(json.dumps({"rays": [[1, 0, 0], [0, 1, 0], ray, [0, 0, 1]], "cones": cones}))
    return str(path)


WPS_RAY = {"p6411": [-6, -4, -1], "p5211": [-5, -2, -1]}
DEGREE_OUTPUT = {
    "p3": ("degree: 64\n", '{"degree": "64", "vertices": 4}\n'),
    "p1p1p1": ("degree: 48\n", '{"degree": "48", "vertices": 8}\n'),
    "x66": ("degree: 66\n", '{"degree": "66", "vertices": 5}\n'),
    # a facet normal with |v_k| = 6 on the projected-away coordinate
    "p6411": ("degree: 72\n", '{"degree": "72", "vertices": 4}\n'),
    # vertices with denominators 2 and 5, and a fractional degree
    "p5211": ("degree: 729/10\n", '{"degree": "729/10", "vertices": 4}\n'),
}


@pytest.mark.parametrize("fan", sorted(DEGREE_OUTPUT))
def test_toric_degree_output_is_pinned(tmp_path, capsys, fan):
    if fan in WPS_RAY:
        path = _wps_fan_file(tmp_path, WPS_RAY[fan])
    else:
        path = str(FANS / f"{fan}.fan")
    text, machine = DEGREE_OUTPUT[fan]
    assert run(capsys, "toric", path, "degree") == (0, text, "")
    assert run(capsys, "toric", path, "degree", "--machine") == (0, machine, "")


E = ([1, 0, 0], [0, 1, 0], [0, 0, 1])
P3_CONES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
# the direction is -n for the first supporting plane <n, x> = c with
# c <= 0 that the hull walk meets
DEGENERATE_FANS = {
    # conv(rays) is a triangle off the origin
    "flat-hull": ([*E], [[0, 1, 2]], "(0,1,0)"),
    # the origin lies on the facet z = 0 of conv(rays)
    "origin-on-facet": (
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
        [[0, 2, 4], [1, 2, 4], [0, 3, 4], [1, 3, 4]],
        "(0,0,1)",
    ),
    "rank-2": ([[1, -1, 0], [0, 1, -1], [-1, 0, 1]], [[0, 1, 2]], "(1,1,1)"),
    # every ray lies on the vertical line through the largest, the z-axis
    "rank-1": ([[0, 0, 1], [0, 0, -1], [0, 0, 2]], [[0, 1, 2]], "(1,0,0)"),
    # a repeated ray counts once
    "p3-repeated-ray": ([*E, [-1, -1, -1], [1, 0, 0]], P3_CONES, None),
}


@pytest.mark.parametrize("fan", sorted(DEGENERATE_FANS))
def test_toric_degree_on_degenerate_hulls_is_pinned(tmp_path, capsys, fan):
    rays, cones, direction = DEGENERATE_FANS[fan]
    path = tmp_path / "degenerate.fan"
    path.write_text(json.dumps({"rays": rays, "cones": cones}))
    for machine in (False, True):
        argv = ("toric", str(path), "degree") + (("--machine",) if machine else ())
        if direction is None:
            out = '{"degree": "64", "vertices": 4}\n' if machine else "degree: 64\n"
            assert run(capsys, *argv) == (0, out, ""), argv
        else:
            err = (
                "error: polytope is unbounded: rays do not positively span"
                f" (direction {direction})\n"
            )
            assert run(capsys, *argv) == (1, "", err), argv


def test_toric_singularities_output_is_pinned(tmp_path, capsys):
    path = _wps_fan_file(tmp_path, WPS_RAY["p6411"])
    assert run(capsys, "toric", path, "singularities") == (
        0,
        "cone 0 [0, 1, 2]: index 1, smooth\n"
        "cone 0 [0, 1, 2]: Gorenstein support (-1,-1,11)\n"
        "cone 1 [0, 1, 3]: index 1, smooth\n"
        "cone 1 [0, 1, 3]: Gorenstein support (-1,-1,-1)\n"
        "cone 2 [0, 2, 3]: index 4, not classified\n"
        "cone 2 [0, 2, 3]: Gorenstein support (-1,2,-1)\n"
        "cone 3 [1, 2, 3]: index 6, not classified\n"
        "cone 3 [1, 2, 3]: Gorenstein support (1,-1,-1)\n",
        "",
    )
    code, out, err = run(capsys, "toric", path, "singularities", "--machine")
    assert (code, err) == (0, "")
    assert out == (
        '{"cones": [{"cone": [0, 1, 2], "degenerate": false, "gorenstein_support": [-1, -1, 11], '
        '"index": 1, "type": "smooth"}, {"cone": [0, 1, 3], "degenerate": false, '
        '"gorenstein_support": [-1, -1, -1], "index": 1, "type": "smooth"}, {"cone": [0, 2, 3], '
        '"degenerate": false, "gorenstein_support": [-1, 2, -1], "index": 4}, {"cone": [1, 2, 3], '
        '"degenerate": false, "gorenstein_support": [1, -1, -1], "index": 6}]}\n'
    )


def test_toric_validate_lists_findings(capsys):
    code, out, _ = run(capsys, "toric", X66, "validate")
    assert code == 0
    assert "cone 2 is not strongly convex" in out
    assert "cone 2 has no integral Gorenstein support vector" in out

    code, out, _ = run(capsys, "toric", P3, "validate")
    assert code == 0
    assert "clean" in out


def test_toric_validate_output_is_pinned(capsys):
    walls = [
        f"wall rays[{a}, {b}] is not shared by exactly two maximal cones"
        for a, b in ((1, 2), (1, 4), (2, 3), (3, 4))
    ]
    x66_findings = [
        "cone 2 is not strongly convex (contains a line)",
        *walls,
        "cone 2 has no integral Gorenstein support vector",
    ]
    expected = {
        (X66, False): "rays: 5\nmaximal cones: 4\n"
        + "".join(f"finding: {f}\n" for f in x66_findings),
        (X66, True): '{"clean": false, "findings": ['
        + ", ".join(f'"{f}"' for f in x66_findings)
        + '], "max_cones": 4, "rays": 5}\n',
        (P3, False): "rays: 4\nmaximal cones: 4\nclean\n",
        (P3, True): '{"clean": true, "findings": [], "max_cones": 4, "rays": 4}\n',
        (P1P1P1, False): "rays: 6\nmaximal cones: 8\nclean\n",
        (P1P1P1, True): '{"clean": true, "findings": [], "max_cones": 8, "rays": 6}\n',
    }
    for (fan, machine), text in expected.items():
        argv = ("toric", fan, "validate") + (("--machine",) if machine else ())
        assert run(capsys, *argv) == (0, text, ""), argv


def test_toric_validate_flags_an_unused_ray(tmp_path, capsys):
    # the unused ray still bounds the polytope, so the degree reads 56, not 64
    unused = tmp_path / "unused.fan"
    unused.write_text(
        '{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],'
        ' "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}'
    )
    finding = "ray 4 lies in no maximal cone"
    assert run(capsys, "toric", str(unused), "validate") == (
        0,
        f"rays: 5\nmaximal cones: 4\nfinding: {finding}\n",
        "",
    )
    assert run(capsys, "toric", str(unused), "validate", "--machine") == (
        0,
        f'{{"clean": false, "findings": ["{finding}"], "max_cones": 4, "rays": 5}}\n',
        "",
    )
    assert run(capsys, "toric", str(unused), "degree") == (0, "degree: 56\n", "")


def test_toric_validate_pins_the_ray_and_cone_findings(tmp_path, capsys):
    # ray 0 is 2 e1; cone 4 holds 2 e1, e2 and e1 + e2, which lie in one plane
    bad = tmp_path / "bad.fan"
    bad.write_text(
        json.dumps(
            {
                "rays": [[2, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 0]],
                "cones": [*P3_CONES, [0, 1, 4]],
            }
        )
    )
    findings = [
        "ray 0 is not primitive",
        "cone 4 is degenerate (rays do not span)",
        *(f"cone {i} has no integral Gorenstein support vector" for i in range(3)),
    ]
    assert run(capsys, "toric", str(bad), "validate") == (
        0,
        "rays: 5\nmaximal cones: 5\n" + "".join(f"finding: {f}\n" for f in findings),
        "",
    )
    assert run(capsys, "toric", str(bad), "validate", "--machine") == (
        0,
        '{"clean": false, "findings": ['
        + ", ".join(f'"{f}"' for f in findings)
        + '], "max_cones": 5, "rays": 5}\n',
        "",
    )


def test_toric_singularity_report(capsys):
    # x66 has an index-2 witness, two non-simplicial cones and a cone with no support
    assert run(capsys, "toric", X66, "singularities") == (
        0,
        "cone 0 [0, 1, 2]: index 2, transverse-A1, witness (0,-1,1)\n"
        "cone 0 [0, 1, 2]: Gorenstein support (1,2,1)\n"
        "cone 1 [0, 2, 3, 4]: non-simplicial, index not computed\n"
        "cone 1 [0, 2, 3, 4]: Gorenstein support (1,0,0)\n"
        "cone 2 [1, 2, 3, 4]: non-simplicial, index not computed\n"
        "cone 2 [1, 2, 3, 4]: no integral Gorenstein support\n"
        "cone 3 [0, 1, 4]: index 1, smooth\n"
        "cone 3 [0, 1, 4]: Gorenstein support (1,2,4)\n",
        "",
    )
    assert run(capsys, "toric", X66, "singularities", "--machine") == (
        0,
        '{"cones": [{"cone": [0, 1, 2], "degenerate": false, "gorenstein_support": [1, 2, 1], '
        '"index": 2, "type": "transverse-A1", "witness": [0, -1, 1]}, {"cone": [0, 2, 3, 4], '
        '"degenerate": false, "gorenstein_support": [1, 0, 0], "index": null}, {"cone": [1, 2, 3, 4], '
        '"degenerate": false, "gorenstein_support": null, "index": null}, {"cone": [0, 1, 4], '
        '"degenerate": false, "gorenstein_support": [1, 2, 4], "index": 1, "type": "smooth"}]}\n',
        "",
    )


def test_toric_singularities_reports_every_cone(tmp_path, capsys):
    # cone 0 is coplanar; the report flags it and goes on to the others
    fan = tmp_path / "coplanar.fan"
    fan.write_text(
        json.dumps(
            {
                "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [-1, -1, -1]],
                "cones": [[0, 1, 2], [0, 1, 3], [1, 3, 4], [0, 3, 4], [0, 1, 4]],
            }
        )
    )
    code, out, _ = run(capsys, "toric", str(fan), "singularities")
    assert code == 0
    assert "cone 0 [0, 1, 2]: degenerate (rays do not span), index not computed" in out
    assert "cone 4 [0, 1, 4]: index 1, smooth" in out

    code, out, _ = run(capsys, "toric", str(fan), "singularities", "--machine")
    assert code == 0
    cones = json.loads(out)["cones"]
    assert len(cones) == 5
    assert cones[0] == {
        "cone": [0, 1, 2],
        "degenerate": True,
        "gorenstein_support": None,
        "index": None,
    }
    assert [c["degenerate"] for c in cones[1:]] == [False] * 4
    assert [c["index"] for c in cones[1:]] == [1] * 4


def test_toric_singularities_flags_a_degenerate_non_simplicial_cone(tmp_path, capsys):
    # cone 0 holds four rays of the plane z = 0; validate calls it degenerate, and so must this
    fan = tmp_path / "flat.fan"
    rays = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    quarters = [[0, 1], [1, 2], [2, 3], [0, 3]]
    smooth = [[*q, apex] for apex in (4, 5) for q in quarters]
    fan.write_text(json.dumps({"rays": rays, "cones": [[0, 1, 2, 3], *smooth]}))
    # each smooth cone's support is minus the sum of its three unit rays
    supports = [(x, y, z) for z in (-1, 1) for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    text = "cone 0 [0, 1, 2, 3]: degenerate (rays do not span), index not computed\n"
    text += "cone 0 [0, 1, 2, 3]: no integral Gorenstein support\n"
    for ci, (cone, s) in enumerate(zip(smooth, supports), start=1):
        text += f"cone {ci} {cone}: index 1, smooth\n"
        text += f"cone {ci} {cone}: Gorenstein support ({s[0]},{s[1]},{s[2]})\n"
    assert run(capsys, "toric", str(fan), "singularities") == (0, text, "")
    entries = [
        '{"cone": [0, 1, 2, 3], "degenerate": true, "gorenstein_support": null, "index": null}'
    ] + [
        f'{{"cone": {cone}, "degenerate": false, "gorenstein_support": {list(s)}, '
        '"index": 1, "type": "smooth"}'
        for cone, s in zip(smooth, supports)
    ]
    machine = '{"cones": [' + ", ".join(entries) + "]}\n"
    assert run(capsys, "toric", str(fan), "singularities", "--machine") == (0, machine, "")
    assert run(capsys, "toric", str(fan), "validate") == (
        0,
        "rays: 6\nmaximal cones: 9\nfinding: cone 0 is degenerate (rays do not span)\n",
        "",
    )


def _vec(text: str) -> list[int]:
    """A vector as vec_str prints it, "(1,-2,3)", read back as a list."""
    return json.loads("[" + text[1:-1] + "]")


def _read_singularity_text(out: str) -> list[dict]:
    """The `--machine` entries that the text report of `toric singularities` states, cone by cone."""
    lines = out.splitlines()
    assert len(lines) % 2 == 0, out
    entries = []
    for ci, (first, second) in enumerate(zip(lines[::2], lines[1::2])):
        prefix, cone, what = re.fullmatch(r"(cone \d+ (\[[^]]*\])): (.*)", first).groups()
        assert prefix.startswith(f"cone {ci} ") and second.startswith(f"{prefix}: "), (first, second)
        entry = {"cone": json.loads(cone), "degenerate": what.startswith("degenerate"), "index": None}
        if what.startswith("index "):
            index, _, kind = what.removeprefix("index ").partition(", ")
            entry["index"] = int(index)
            if kind != "not classified":
                kind, _, witness = kind.partition(", witness ")
                entry["type"] = kind
                if witness:
                    entry["witness"] = _vec(witness)
        support = second.removeprefix(f"{prefix}: ")
        if support == "no integral Gorenstein support":
            entry["gorenstein_support"] = None
        else:
            entry["gorenstein_support"] = _vec(support.removeprefix("Gorenstein support "))
        entries.append(entry)
    return entries


def _singularities_text_and_machine_agree(capsys, path: str) -> list[dict]:
    code, text, err = run(capsys, "toric", path, "singularities")
    assert (code, err) == (0, "")
    code, machine, err = run(capsys, "toric", path, "singularities", "--machine")
    assert (code, err) == (0, "")
    entries = json.loads(machine)["cones"]
    # index, kind, witness and Gorenstein support, cone by cone
    assert _read_singularity_text(text) == entries
    return entries


@pytest.mark.parametrize("name", ["p3.fan", "p1p1p1.fan", "x66.fan"])
def test_toric_singularities_text_and_machine_agree_on_the_shipped_fans(capsys, name):
    entries = _singularities_text_and_machine_agree(capsys, str(FANS / name))
    assert len(entries) == len(json.loads((FANS / name).read_text())["cones"])


@st.composite
def _small_fans(draw):
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=3, max_size=7))
    cone = st.lists(st.integers(0, len(rays) - 1), min_size=3, max_size=len(rays), unique=True)
    cones = draw(st.lists(cone, min_size=1, max_size=4, unique_by=lambda c: tuple(sorted(c))))
    return {"rays": rays, "cones": cones}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_small_fans())
def test_toric_singularities_text_and_machine_agree_on_small_fans(tmp_path, capsys, fan):
    path = tmp_path / "small.fan"
    path.write_text(json.dumps(fan))
    entries = _singularities_text_and_machine_agree(capsys, str(path))
    # Fan stores each cone sorted
    assert [e["cone"] for e in entries] == [sorted(c) for c in fan["cones"]]


def test_toric_singularities_names_an_isolated_half_point(tmp_path, capsys):
    # (v1 + v2 + v3) / 2 = (1,1,1) is a lattice point inside the index-2 cone;
    # <m, v> = -1 on the rays forces m = (-1,-1,1/2), so there is no integral support
    fan = tmp_path / "half-point.fan"
    fan.write_text(json.dumps({"rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2]], "cones": [[0, 1, 2]]}))
    assert run(capsys, "toric", str(fan), "singularities") == (
        0,
        "cone 0 [0, 1, 2]: index 2, isolated-half-point, witness (1,1,1)\n"
        "cone 0 [0, 1, 2]: no integral Gorenstein support\n",
        "",
    )
    assert run(capsys, "toric", str(fan), "singularities", "--machine") == (
        0,
        '{"cones": [{"cone": [0, 1, 2], "degenerate": false, "gorenstein_support": null, '
        '"index": 2, "type": "isolated-half-point", "witness": [1, 1, 1]}]}\n',
        "",
    )


def test_toric_rejects_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.fan"
    depth = 100_000
    deep.write_text('{"rays": ' + "[" * depth + "]" * depth + ', "cones": []}')
    code, out, err = run(capsys, "toric", str(deep), "degree")
    assert code == 1
    assert out == ""
    assert "error: fan file is nested too deeply" in err


def test_toric_rejects_a_fan_without_cones(tmp_path, capsys):
    bare = tmp_path / "bare.fan"
    bare.write_text('{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], "cones": []}')
    code, out, err = run(capsys, "toric", str(bare), "validate")
    assert code == 1
    assert out == ""
    assert "error: fan needs at least one maximal cone" in err


def test_toric_rejects_a_repeated_key(tmp_path, capsys):
    # without the check the second "cones" list replaces the first and the
    # fan reads as one cone of degree 64
    twice = tmp_path / "twice.fan"
    twice.write_text(
        '{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],'
        ' "cones": [[0, 1, 2]], "cones": [[0, 1, 3]]}'
    )
    for action in ("validate", "degree", "singularities"):
        code, out, err = run(capsys, "toric", str(twice), action)
        assert code == 1
        assert out == ""
        assert err == 'error: fan file repeats the key "cones"\n'


def test_toric_rejects_a_repeated_cone(tmp_path, capsys):
    # without the check the two copies pair every wall with each other and
    # one octant validates as a complete fan
    twice = tmp_path / "twice.fan"
    twice.write_text(
        '{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],'
        ' "cones": [[0, 1, 2], [2, 1, 0]]}'
    )
    for action in ("validate", "degree", "singularities"):
        code, out, err = run(capsys, "toric", str(twice), action)
        assert code == 1
        assert out == ""
        assert err == "error: cone (2, 1, 0) is listed twice\n"


def test_toric_file_errors(capsys):
    code, _, err = run(capsys, "toric", str(FANS / "missing.fan"), "degree")
    assert code == 1
    assert "error:" in err


def test_toric_rejects_float_entries(tmp_path, capsys):
    bad = tmp_path / "bad.fan"
    bad.write_text('{"rays": [[1, 0, 0.5]], "cones": [[0]]}')
    code, _, err = run(capsys, "toric", str(bad), "degree")
    assert code == 1
    assert "only integers" in err


P3_RAYS = [*E, [-1, -1, -1]]
ALL_ACTIONS = ("validate", "degree", "singularities")
NOT_ARRAYS = '"rays" and "cones" must be arrays'
HOSTILE_FANS = {
    # name: (rays, cones, actions that reject the file, message)
    "no-rays": ([], P3_CONES, ALL_ACTIONS, "fan needs at least one ray"),
    "ray-of-two-entries": (
        [[1, 2]],
        [[0, 1, 2]],
        ALL_ACTIONS,
        "ray [1, 2] is not a triple of integers",
    ),
    "rays-not-array": ({"0": [1, 0, 0]}, P3_CONES, ALL_ACTIONS, NOT_ARRAYS),
    "cones-not-array": (P3_RAYS, 5, ALL_ACTIONS, NOT_ARRAYS),
    "cone-not-array": (P3_RAYS, [5], ALL_ACTIONS, "cone 5 is not an array of integer indices"),
    "cone-string-index": (
        P3_RAYS,
        [["0", 1, 2]],
        ALL_ACTIONS,
        "cone ['0', 1, 2] is not an array of integer indices",
    ),
    "cone-index-too-large": (
        P3_RAYS,
        [[0, 1, 7]],
        ALL_ACTIONS,
        "cone (0, 1, 7) references missing ray 7",
    ),
    "cone-index-negative": (
        P3_RAYS,
        [[0, 1, -1]],
        ALL_ACTIONS,
        "cone (0, 1, -1) references missing ray -1",
    ),
    "cone-repeats-index": (P3_RAYS, [[0, 1, 1]], ALL_ACTIONS, "cone (0, 1, 1) repeats a ray index"),
    "cone-of-two-rays": (
        P3_RAYS,
        [[0, 1]],
        ALL_ACTIONS,
        "maximal cone (0, 1) has fewer than 3 rays",
    ),
    # a cone with several defects names the first: a repeat, then the first
    # missing index in cone order, then too few rays
    "cone-indices-too-large-and-negative": (
        P3_RAYS,
        [[5, -1, 0]],
        ALL_ACTIONS,
        "cone (5, -1, 0) references missing ray 5",
    ),
    "cone-indices-negative-and-too-large": (
        P3_RAYS,
        [[-1, 5, 0]],
        ALL_ACTIONS,
        "cone (-1, 5, 0) references missing ray -1",
    ),
    "cone-repeats-and-misses-an-index": (
        P3_RAYS,
        [[9, 1, 1]],
        ALL_ACTIONS,
        "cone (9, 1, 1) repeats a ray index",
    ),
    "cone-of-two-rays-misses-an-index": (
        P3_RAYS,
        [[0, 7]],
        ALL_ACTIONS,
        "cone (0, 7) references missing ray 7",
    ),
    "cone-empty": (P3_RAYS, [[]], ALL_ACTIONS, "maximal cone () has fewer than 3 rays"),
    # json reads these constants as floats unless its parse_constant hook says otherwise
    "ray-infinity": (
        [*E, [-1, -1, float("inf")]],
        P3_CONES,
        ALL_ACTIONS,
        "fan files must contain only integers, got Infinity",
    ),
    "ray-minus-infinity": (
        [*E, [-1, -1, float("-inf")]],
        P3_CONES,
        ALL_ACTIONS,
        "fan files must contain only integers, got -Infinity",
    ),
    "cone-nan": (
        P3_RAYS,
        [[0, 1, float("nan")]],
        ALL_ACTIONS,
        "fan files must contain only integers, got NaN",
    ),
    # parses and validates, but Delta is unbounded
    "zero-rays": (
        [[0, 0, 0]] * 3,
        [[0, 1, 2]],
        ("degree",),
        "polytope is unbounded: rays do not positively span (direction (1,0,0))",
    ),
    # rays given as JSON text: json.dumps cannot write a number this long
    "coordinate-too-long": (
        f"[{E[0]}, {E[1]}, {E[2]}, [-{'9' * 5001}, -1, -1]]",
        P3_CONES,
        ALL_ACTIONS,
        TOO_LONG,
    ),
    # a simplex fan whose degree has more digits than the interpreter prints
    "degree-too-long": ([*E, [-(10**1500), -1, -1]], P3_CONES, ("degree",), TOO_LONG),
}


@pytest.mark.parametrize("fan", sorted(HOSTILE_FANS))
def test_toric_rejects_a_hostile_fan_file(tmp_path, capsys, fan):
    rays, cones, actions, message = HOSTILE_FANS[fan]
    path = tmp_path / "hostile.fan"
    rays_text = rays if type(rays) is str else json.dumps(rays)
    path.write_text(f'{{"rays": {rays_text}, "cones": {json.dumps(cones)}}}')
    for action in actions:
        for machine in ((), ("--machine",)):
            argv = ("toric", str(path), action, *machine)
            # one line on stderr and nothing else: no traceback, no partial output
            assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


# the entries that reach Fan as parsed: not the float constants, which the
# JSON reader rejects, nor the zero rays, which parse and fail in `degree`
FAN_LEVEL_HOSTILE = sorted(
    name
    for name, (rays, cones, actions, message) in HOSTILE_FANS.items()
    if type(rays) is list
    and type(cones) is list
    and actions == ALL_ACTIONS
    and not message.startswith("fan files")
)


@pytest.mark.parametrize("fan", FAN_LEVEL_HOSTILE)
def test_fan_words_a_hostile_fan_as_the_cli_does(fan):
    rays, cones, _, message = HOSTILE_FANS[fan]
    with pytest.raises(ValueError) as err:
        Fan(rays, cones)
    assert str(err.value) == message


def test_fan_stores_lists_as_tuples():
    from_lists = Fan(P3_RAYS, P3_CONES)
    from_tuples = Fan(tuple(map(tuple, P3_RAYS)), tuple(map(tuple, P3_CONES)))
    assert from_lists == from_tuples
    assert all(type(v) is tuple for v in from_lists.rays)


def _count_hull_work(monkeypatch) -> list[int]:
    """Count the calls to toric's _wrap and _cross: one per wrap, and one per pair in a pair scan."""
    calls = [0]

    def counted(f):
        def wrapper(*args):
            calls[0] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(fano64.toric, "_wrap", counted(fano64.toric._wrap))
    monkeypatch.setattr(fano64.toric, "_cross", counted(fano64.toric._cross))
    return calls


def test_validate_walks_a_thousand_ray_cone_off_its_plane(tmp_path, capsys, monkeypatch):
    """P3 plus the cone over (i, i^2, 1 + i mod 2), i = 1..k: not Q-Cartier, so not a ring.

    The rays with even i lie on the parabola (x, x^2, 1) and those with
    odd i on (x, 2 x^2, 1) scaled by 2, inside the even rays' polygon but
    for i = 1.  The cone's walls join i = 1 to 2 and to k, and each even
    i to the next; none is shared.  A pair scan made k^2 / 2 cross
    products.
    """
    k = 1000
    rays = [*P3_RAYS, *([i, i * i, 1 + i % 2] for i in range(1, k + 1))]
    path = tmp_path / "cone.fan"
    path.write_text(json.dumps({"rays": rays, "cones": [*P3_CONES, list(range(4, 4 + k))]}))
    first, last = 4, 3 + k
    walls = [(first, first + 1), (first, last), *((j, j + 2) for j in range(first + 1, last, 2))]
    expected = [f"rays: {4 + k}", "maximal cones: 5"]
    expected += [
        f"finding: wall rays[{a}, {b}] is not shared by exactly two maximal cones" for a, b in walls
    ]
    expected.append("finding: cone 4 has no integral Gorenstein support vector")
    calls = _count_hull_work(monkeypatch)
    assert run(capsys, "toric", str(path), "validate") == (0, "\n".join(expected) + "\n", "")
    assert len(walls) == k // 2 + 1
    assert calls[0] <= 4 * k, calls


def test_degree_of_two_thousand_collinear_rays_names_the_unbounded_direction(
    tmp_path, capsys, monkeypatch
):
    """Rays (1, i, 0), i = 0..k - 2 and k, and (0, 0, +-1): the origin lies on an edge of the hull.

    A pair scan for the direction crossed every coplanar pair and dotted
    it with all k rays before the last two ruled it out.
    """
    k = 2000
    rays = [[1, i, 0] for i in range(1, k - 1)] + [[1, 0, 0], [1, k, 0], [0, 0, 1], [0, 0, -1]]
    path = tmp_path / "line.fan"
    path.write_text(json.dumps({"rays": rays, "cones": [[0, 1, 2]]}))
    calls = _count_hull_work(monkeypatch)
    err = f"error: polytope is unbounded: rays do not positively span (direction ({k},-1,0))\n"
    assert run(capsys, "toric", str(path), "degree") == (1, "", err)
    assert calls[0] <= 4 * k, calls


def test_reproduce_table(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "all checks passed" in out
    assert "survives: cone over P1 x P1" in out
    assert "survives: cone over F1" in out
    assert "degree 64: P3" in out


def test_reproduce_machine(capsys):
    code, out, _ = run(capsys, "reproduce", "--machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert sorted(doc["parts"]) == [
        "classification",
        "p1-bundles",
        "quadric-filter",
        "twisted-sweep",
    ]
    assert len(doc["parts"]["classification"]) == 7
    assert sorted(doc["parts"]["twisted-sweep"]) == ["F0", "F2", "F3", "F4", "P2"]
    sections = [s for p in doc["parts"].values() for s in (p.values() if type(p) is dict else [p])]
    assert sum(map(len, sections)) == 259


# sha256 of the `reproduce` stdout, whole and for each part; a change to
# any record, verdict, line or byte of either format shows here.  A single
# part takes its own path through the nested twisted-sweep object.
REPRODUCE_DIGESTS = {
    (): "317f5826f657c82d4c0e26d2c0b5581ada801d7ad73505171f1e95c9cd95d082",
    ("--machine",): "990f775439f7ea3fc72cf540380fcac96a0e46c93f328f57bd3d37c92f0966fc",
    ("--part", "p1-bundles"): (
        "4cdf541283fd2a93afa7a36e10132e718872d1260b27ded00563b81c0c366c1b"
    ),
    ("--part", "p1-bundles", "--machine"): (
        "c3ee069bf251a4666a1f964c01783227ce45ef9803a7f84469adc09beb99048d"
    ),
    ("--part", "quadric-filter"): (
        "e37f1cb9e82f087334ba9ebf3233bf7f8ee2beae2bd7bb64cba1b15bfcc4e3cd"
    ),
    ("--part", "quadric-filter", "--machine"): (
        "5ef3def70522ca419847ceb8751815816a389e3b8c985045813711e2e0323b37"
    ),
    ("--part", "twisted-sweep"): (
        "a4c03424217bfacd3b9c97bd6cedac55f002844854eba49f2137823827ae1892"
    ),
    ("--part", "twisted-sweep", "--machine"): (
        "fd67aebb578e11e7f20d12a19c5c1c546c51c542a9f01fa8c7b8837aa571b18c"
    ),
    ("--part", "classification"): (
        "2b2a17e93ce40ce70a0aabd3f9e863741fa768cec563389b213374f0ae7f19be"
    ),
    ("--part", "classification", "--machine"): (
        "acca3c6901a5eb6748c35a1d4ebe9433f4a812014960f9fbac3609db1cc5ada4"
    ),
}


def test_reproduce_output_is_pinned_by_digest(capsys):
    for flags, digest in REPRODUCE_DIGESTS.items():
        code, out, err = run(capsys, "reproduce", *flags)
        assert (code, err) == (0, ""), flags
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, flags


def test_reproduce_single_part(capsys):
    code, out, _ = run(capsys, "reproduce", "--part", "p1-bundles", "--machine")
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["parts"]) == ["p1-bundles"]
    assert len(doc["parts"]["p1-bundles"]) == 10


def test_reproduce_reports_a_failed_ledger_check(capsys, monkeypatch):
    seven = cli.classification_summary()
    monkeypatch.setattr(cli, "classification_summary", lambda: seven[:-1])
    code, out, _ = run(capsys, "reproduce")
    assert code == 2
    assert "FAILED: classification: 6 records, expected 7" in out
    assert "all checks passed" not in out


def test_reproduce_machine_reports_a_failed_ledger_check(capsys, monkeypatch):
    seven = cli.classification_summary()
    monkeypatch.setattr(cli, "classification_summary", lambda: seven[:-1])
    code, out, _ = run(capsys, "reproduce", "--part", "classification", "--machine")
    assert code == 2
    doc = json.loads(out)
    assert doc["failures"] == ["classification: 6 records, expected 7"]
    assert len(doc["parts"]["classification"]) == 6


def test_reproduce_text_words_each_verdict_by_its_kind(capsys, monkeypatch):
    # Survives("x") == GeometricArgument("x") as tuples; each keeps its own line
    records = [
        CaseRecord(context, (), (), verdict)
        for context, verdict in (
            ("a", Survives("x")),
            ("b", GeometricArgument("x")),
            ("c", Survives("x")),
        )
    ]
    monkeypatch.setattr(cli, "_reproduce", lambda part: {"twisted-sweep/F0": records})
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.splitlines()[:6] == [
        "[twisted-sweep/F0] a",
        "    survives: x",
        "[twisted-sweep/F0] b",
        "    geometric argument: x",
        "[twisted-sweep/F0] c",
        "    survives: x",
    ]


def test_machine_records_round_trip_through_the_serializer(capsys):
    from fano64.cli import _reproduce
    from fano64.elimination import SWEEP_BASES
    from fano64.records import PARTS, record_from_payload, record_to_json

    code, out, _ = run(capsys, "reproduce", "--machine")
    assert code == 0
    doc = json.loads(out)
    sections = _reproduce(None)
    parts: dict = {}
    for name, records in sections.items():
        part, _, base = name.partition("/")
        entries = [json.loads(record_to_json(r)) for r in records]
        if base:
            parts.setdefault(part, {})[base] = entries
        else:
            parts[part] = entries
    assert tuple(parts) == PARTS
    assert list(parts["twisted-sweep"]) == [str(b) for b in SWEEP_BASES]
    assert doc == {"parts": parts, "failures": []}
    for name, records in sections.items():
        part, _, base = name.partition("/")
        entries = doc["parts"][part][base] if base else doc["parts"][part]
        back = [record_from_payload(p) for p in entries]
        # records are tuples, equal across verdict kinds with equal fields
        assert back == records
        assert [type(b.verdict) for b in back] == [type(r.verdict) for r in records]
        # and each section's records write back byte for byte
        assert "[" + ", ".join(map(record_to_json, back)) + "]" in out, name


def _no_floats(text: str):
    raise AssertionError(f"non-integer number in JSON output: {text}")


def test_machine_output_holds_no_floats(capsys):
    for argv in (
        ("reproduce",),
        ("wps", "6", "4", "1", "1"),
        ("bundle", "--base", "F0", "--c1", "2,2", "--c2", "0"),
        ("toric", X66, "degree"),
        ("toric", X66, "validate"),
        ("toric", X66, "singularities"),
    ):
        code, out, _ = run(capsys, *argv, "--machine")
        assert code == 0, argv
        assert out.count("\n") == 1, argv
        json.loads(out, parse_float=_no_floats, parse_constant=_no_floats)


# argv: its exit code, and the first line of its help or the last line of its usage error
USAGE = {
    (): (1, "fano64: error: the following arguments are required: command"),
    ("--help",): (0, "usage: fano64 [-h] {bundle,wps,toric,reproduce} ..."),
    ("toric", P3, "degree", "-h"): (0, "usage: fano64 toric [-h] [--expect N] [--machine]"),
    ("toric", P3, "degree", "extra"): (1, "fano64: error: unrecognized arguments: extra"),
    ("-x", "toric", P3, "degree"): (1, "fano64: error: unrecognized arguments: -x"),
    ("toric", P3, "degree", "--expect", "1_0"): (
        1,
        "fano64 toric: error: argument --expect: expected a decimal integer, got '1_0'",
    ),
}


def test_no_arguments_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    for argv, (status, line) in USAGE.items():
        code, out, err = run(capsys, *argv)
        shown = out.splitlines()[0] if code == 0 else err.splitlines()[-1]
        assert (code, shown) == (status, line), argv


def test_python_m_fano64_cli_runs_in_a_fresh_interpreter():
    out = run_fresh("wps", "1", "1", "1", "1")
    assert out.returncode == 0
    assert "degree: 64" in out.stdout


def test_console_script_names_the_cli_main(capsys):
    """The `fano64` script of pyproject.toml runs cli.main; an installed script loads it too."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    # a regex, since Python 3.10 has no tomllib
    script = re.search(r'^\[project\.scripts\]\nfano64 = "([\w.]+):(\w+)"$', pyproject, re.M)
    assert script, "pyproject.toml declares no fano64 console script"
    module, name = script.groups()
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    assert entry(["wps", "1", "1", "1", "1"]) == 0
    assert "degree: 64" in capsys.readouterr().out
    # where the package is installed, its script must load the same function
    for installed in importlib.metadata.entry_points(group="console_scripts", name="fano64"):
        assert installed.value == f"{module}:{name}"
        assert installed.load() is entry


def test_reproduce_under_python_O_prints_the_same_report(capsys):
    # -O drops assert statements: every check must still run, with the same report
    fresh = run_fresh("reproduce", flags=["-O"])
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == run(capsys, "reproduce")


def test_back_to_back_calls_match_fresh_processes(capsys, monkeypatch):
    """main() reuses one parser per process; no call may see state from the one before."""
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    calls = [
        ("bundle", "--base", "F0", "--c1", "2,2", "--c2", "0", "--solve-degree", "64"),
        ("bundle", "--base", "F0", "--c1", "2,2", "--c2", "0"),
        ("bundle", "--base", "F0", "--c1", "2,2", "--solve-degree", "64"),
        ("toric", P3, "degree", "--expect", "64"),
        ("toric", P3, "validate"),
        ("toric", P3, "degree", "extra"),
        ("toric", "-h"),
        ("bogus",),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    assert in_process[0][0] == 1
    for argv, result in zip(calls, in_process):
        fresh = run_fresh(*argv)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# main() reads a plain toric argv itself and hands every other argv to the
# top-level parser; the reference parses everything through that parser
DISPATCH_CORPUS = [
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "toric"),
    ("bogus",),
    ("tor",),
    ("toric",),
    ("toric", "-h"),
    ("toric", P3, "degree", "-h"),
    ("toric", P3, "degree", "extra"),
    ("toric", P3, "degree", "extra", "--machine"),
    ("toric", P3, "degree", "extra", "more"),
    ("toric", P3, "degree", "--mach"),
    ("toric", P3, "degree", "--expect=64"),
    ("toric", P3, "degree", "--expect", "63"),
    ("toric", P3, "degree", "--expect", "-5"),
    ("toric", P3, "degree", "--machine=1"),
    ("toric", P3, "bogus"),
    ("toric", P3, "validate", "--expect", "64"),
    ("toric", str(FANS / "missing.fan"), "degree"),
    ("toric", "--", P3, "degree"),
    ("toric", P3, "degree", "--"),
    ("toric", P3, "degree", "--", "--machine"),
    ("--", "toric", P3, "degree"),
    ("-x", "toric", P3, "degree"),
    ("toric", P3, "degree", "-x"),
    # the plain reader takes the first four; _integer rejects the fifth, so argparse words it
    ("toric", "--machine", P3, "degree"),
    ("toric", P3, "degree", "--expect", "64", "--machine"),
    ("toric", P3, "degree", "--expect", " 64 "),
    ("toric", P3, "degree", "--expect", "+64"),
    ("toric", P3, "degree", "--expect", "9" * 5000),
    ("reproduce", "--part=classification"),
    ("reproduce", "--part", "bogus"),
    ("wps", "6", "4", "1", "1", "--machine"),
    ("wps", "1", "1", "1"),
    ("wps", "6", "4", "1", "1", "1"),
    ("bundle",),
    ("bundle", "--base", "F0", "--c1", "2,2", "--c2", "-5"),
    ("bundle", "--base", "F0", "--c1", "2,2", "--c2", "0", "--solve-degree", "64"),
]


def _reference_main(argv: list[str]) -> int:
    """main() as a single top-level parse_args, with main()'s error handling."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


COMMAND_FUNCS = ("_cmd_bundle", "_cmd_wps", "_cmd_toric", "_cmd_reproduce")


@pytest.fixture
def parsed_namespaces(monkeypatch):
    """The namespace each command function receives, as a dict, in call order."""
    seen = []

    def recording(func):
        def record(args):
            seen.append(dict(vars(args)))
            return func(args)

        return record

    # the parser binds each command's function when it is built, so it is
    # rebuilt with the recorders, and again once monkeypatch restores them
    for name in COMMAND_FUNCS:
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    _build_parser.cache_clear()
    yield seen
    _build_parser.cache_clear()


def test_dispatch_matches_a_top_level_parse(capsys, monkeypatch, parsed_namespaces):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    for argv in DISPATCH_CORPUS:
        expected = (_reference_main(list(argv)), *capsys.readouterr(), parsed_namespaces[:])
        parsed_namespaces.clear()
        assert (*run(capsys, *argv), parsed_namespaces[:]) == expected, argv
        parsed_namespaces.clear()
        monkeypatch.setattr(sys, "argv", ["fano64", *argv])
        assert (main(), *capsys.readouterr(), parsed_namespaces[:]) == expected, argv
        parsed_namespaces.clear()


TORIC_TOKENS = [
    P3,
    X66,
    str(FANS / "p1p1p1.fan"),
    str(FANS / "missing.fan"),
    "",
    "-",
    "validate",
    "degree",
    "singularities",
    "bogus",
    "--machine",
    "--mach",
    "--machine=1",
    "--expect",
    "--expect=64",
    "64",
    "63",
    "-5",
    "+64",
    " 64 ",
    "1_0",
    "\u0663",
    "9" * 5000,
    "--",
    "-h",
    "-x",
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(TORIC_TOKENS), max_size=6))
@example([P3, "degree", "--expect", "64", "--machine"])
@example(["--machine", X66, "singularities"])
def test_toric_argvs_match_a_top_level_parse(capsys, monkeypatch, parsed_namespaces, tokens):
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    argv = ["toric", *tokens]
    capsys.readouterr()
    parsed_namespaces.clear()
    expected = (_reference_main(list(argv)), *capsys.readouterr(), parsed_namespaces[:])
    parsed_namespaces.clear()
    assert (*run(capsys, *argv), parsed_namespaces[:]) == expected, argv


# the two shapes the reader takes, for each action, then odd fan names
PLAIN_TORIC = [
    *(
        (P3, action, *machine)
        for action in ("validate", "degree", "singularities")
        for machine in ((), ("--machine",))
    ),
    ("", "degree"),
    (str(FANS / "missing.fan"), "degree"),
]
FALLBACK_TORIC = [
    ("--machine", P3, "singularities"),  # argparse reads it into the same namespace
    (P3, "--machine", "validate"),
    (P3, "--expect", "64", "degree"),
    (P3, "degree", "--expect", "64", "--machine"),
    ("--expect", " 64 ", "--machine", P3, "degree"),
    (P3, "degree", "--expect", "+64"),
    (P3, "validate", "--expect", "64"),  # argparse reads it; _cmd_toric rejects it
    (),
    (P3,),
    (P3, "degree", "extra"),
    (P3, "bogus"),
    ("-h",),
    (P3, "degree", "-h"),
    (P3, "degree", "--help"),
    ("--", P3, "degree"),
    (P3, "degree", "--"),
    (P3, "degree", "--machine=1"),
    (P3, "degree", "--expect=64"),
    (P3, "degree", "--mach"),
    (P3, "degree", "--exp", "64"),
    (P3, "degree", "--machine", "--machine"),
    (P3, "degree", "--expect", "64", "--expect", "64"),
    (P3, "degree", "--expect"),
    (P3, "degree", "--expect", "-5"),
    (P3, "degree", "--expect", "--machine"),
    (P3, "degree", "--expect", "1_0"),
    (P3, "degree", "--expect", "\u0663"),
    (P3, "degree", "--expect", ""),
    (P3, "degree", "--expect", "9" * 5000),
    ("-", "degree"),
    ("-5", "degree"),
    ("-x", "degree"),
    (P3, "-x"),
]


def test_plain_toric_args_builds_the_parsers_namespace_or_declines():
    parser = _build_parser()
    for tokens in PLAIN_TORIC:
        args = _plain_toric_args(list(tokens))
        assert args is not None, tokens
        assert vars(args) == vars(parser.parse_args(["toric", *tokens])), tokens
    for tokens in FALLBACK_TORIC:
        assert _plain_toric_args(list(tokens)) is None, tokens


def test_plain_toric_argv_builds_no_parser(capsys):
    _build_parser.cache_clear()
    code, out, err = run(capsys, "toric", P3, "degree", "--machine")
    assert (code, json.loads(out), err) == (0, {"degree": "64", "vertices": 4}, "")
    assert _build_parser.cache_info().currsize == 0
    # an `=` form is not plain: it builds the parser, once, with the same output
    equals = run(capsys, "toric", P3, "degree", "--expect=64")
    assert _build_parser.cache_info().currsize == 1
    run(capsys, "toric", P3, "degree", "--expect=64")
    assert _build_parser.cache_info().misses == 1
    assert equals == run(capsys, "toric", P3, "degree", "--expect", "64")
    assert equals == (0, "degree: 64\nexpected: 64 (match)\n", "")
