"""Acceptance checks, one test per headline requirement.

Everything here is exact integer or rational arithmetic; there are no
tolerances anywhere.  Run with `pytest -v tests/test_acceptance.py` to
get one pass/fail line per requirement.
"""

from fractions import Fraction
from pathlib import Path

from fano64.bundles import (
    chi_rank2,
    degree_p1_bundle,
    kg2_integral,
    rr_dim_anticanonical,
    solve_c2_for_degree,
    triple_intersection,
    twist,
)
from fano64.cli import main
from fano64.elimination import (
    classification_summary,
    eliminate_p1_bundles,
    sweep_twisted_bundles,
)
from fano64.lattice import _dot
from fano64.ledger import blowup_curve_degree, project_from_center
from fano64.records import Survives, surviving_constructions, verify_record
from fano64.surfaces import (
    F0,
    F1,
    F2,
    BaseSurface,
    P2,
    SurfaceClass,
    canonical_class,
)
from fano64.toric import (
    anticanonical_polytope,
    cone_singularity,
    fan_from_json,
    validate_fan,
)
from fano64.wps import Weights, wps_degree

FANS = Path(__file__).resolve().parent.parent / "fans"


def test_weighted_projective_degrees_are_72_72_and_64():
    assert wps_degree(Weights(3, 1, 1, 1)) == 72
    assert wps_degree(Weights(6, 4, 1, 1)) == 72
    assert wps_degree(Weights(1, 1, 1, 1)) == 64


def test_cone_constructions_have_degree_64_and_the_plane_bundle_72():
    assert degree_p1_bundle(-canonical_class(F0), 0) == 64
    assert degree_p1_bundle(-canonical_class(F1), 0) == 64
    assert degree_p1_bundle(SurfaceClass(P2, 3), 0) == 72


def test_second_chern_class_solutions_reproduce_the_contradictions():
    cases = [
        (SurfaceClass(P2, 0), Fraction(-5, 4)),
        (SurfaceClass(F1, 1, 0), Fraction(-9, 4)),
        (SurfaceClass(F1, 1, 1), Fraction(-7, 4)),
        (SurfaceClass(F1, -2, -2), Fraction(-1)),
        (SurfaceClass(F2, -2, -2), Fraction(-2)),
    ]
    for c1, expected in cases:
        assert solve_c2_for_degree(c1, 64) == expected
    assert chi_rank2(SurfaceClass(F2, -2, -2), -2) == 2


def test_genus_integrality_filter_keeps_exactly_64_and_72():
    survivors = {d for d in (64, 66, 68, 70, 72) if kg2_integral(d)}
    assert survivors == {64, 72}
    assert rr_dim_anticanonical(64) == 34
    assert rr_dim_anticanonical(72) == 38


def test_twisted_sweep_has_zero_exceptions():
    for n in (0, 2, 3, 4):
        base = BaseSurface(n)
        records = sweep_twisted_bundles(base)
        grid = [r for r in records if "/a=" in r.context]
        # the coefficient box 0 <= a <= 2, a*n <= b <= n+2 at five
        # Euler-characteristic targets
        assert len(grid) == 5 * sum(
            1 for a in range(3) for b in range(a * n, n + 3)
        )
        for r in grid:
            assert r.value("c2_prime") < 0
            assert r.value("chi_prime") > 0
    plane = sweep_twisted_bundles(P2)
    parity = [r for r in plane if "/m=" in r.context]
    assert len(parity) == 45
    for r in parity:
        assert r.value("c2_prime") < 0


def test_degree_bookkeeping_chains_are_exact():
    d = 54
    for minus_k_dot_c in (-5, -3, -1):
        d = blowup_curve_degree(d, minus_k_dot_c, 0)
    assert d == 66

    x70 = project_from_center(72, 0)
    assert x70 == 70
    assert project_from_center(x70, 2) == 64
    assert project_from_center(72, 3) == 64
    assert project_from_center(66, 0) == 64

    assert blowup_curve_degree(70, 2, 0) == 64


def test_toric_diagnostics_flag_the_defective_cone(capsys):
    e1 = (-1, 0, 0)
    e2 = (1, -1, 0)
    e3 = (-1, -1, 2)
    out = cone_singularity((e1, e2, e3))
    assert out.index == 2
    assert out.kind == "transverse-A1"
    assert out.witness == (0, -1, 1)
    assert cone_singularity((e1, e3, (-1, -1, 3), (-1, 2, -1))).support == (1, 0, 0)

    p3 = fan_from_json((FANS / "p3.fan").read_text())
    assert anticanonical_polytope(p3).degree == 64

    # the printed defective fan: validation must call out the cone with
    # no Gorenstein support, and the degree run must show the computed
    # value next to the claimed 66
    x66 = fan_from_json((FANS / "x66.fan").read_text())
    assert "cone 2 has no integral Gorenstein support vector" in validate_fan(x66)
    code = main(["toric", str(FANS / "x66.fan"), "degree", "--expect", "66"])
    captured = capsys.readouterr()
    assert "degree: 66" in captured.out
    assert "expected: 66" in captured.out
    assert code == 0


def test_formula_cross_checks_over_the_full_grids():
    import random

    from fano64.lattice import det3

    for n in range(5):
        base = BaseSurface(n)
        for a in range(-5, 6):
            for b in range(-5, 6):
                for c2 in range(-5, 6):
                    c1 = SurfaceClass(base, a, b)
                    degree = degree_p1_bundle(c1, c2)
                    minus_k_pullback = -canonical_class(base) - c1
                    assert triple_intersection(c1, c2, 2, minus_k_pullback) == degree
                    closed = -Fraction(n * a * (a + 1), 2) + a * b + a + b - c2 + 2
                    assert chi_rank2(c1, c2) == closed
                    assert degree_p1_bundle(*twist(c1, c2, SurfaceClass(base, -1, 1))) == degree

    rng = random.Random(64)
    cone = ((1, 0, 0), (0, 1, 0), (1, 1, 2))
    for _ in range(120):
        rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            k = rng.randint(-3, 3)
            rows[j] = tuple(x + k * y for x, y in zip(rows[j], rows[i]))
        assert abs(det3(*rows)) == 1
        image = tuple((_dot(rows[0], v), _dot(rows[1], v), _dot(rows[2], v)) for v in cone)
        assert cone_singularity(image).index == 2


def test_reproduce_exits_zero_with_the_seven_fold_classification(capsys):
    code = main(["reproduce"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all checks passed" in captured.out

    survivors = surviving_constructions(eliminate_p1_bundles())
    assert survivors == {"cone over P1 x P1", "cone over F1"}

    records = classification_summary()
    assert len(records) == 7
    assert all(isinstance(r.verdict, Survives) for r in records)
    assert all(verify_record(r) for r in records)
    assert [r.verdict.construction for r in records] == [
        "P3",
        "cone over P1 x P1",
        "cone over F1",
        "P(3,1,1,1) projected from a tangent space",
        "P(6,4,1,1) projected from a tangent space",
        "X70 projected from a plane",
        "X66 projected from a cDV point",
    ]
