"""Case-analysis engine checks.

Every record the engine emits is re-verified here from its own stored
numbers: a contradiction record must contain a value that actually
violates the stated requirement, and a surviving record must carry the
target degree.
"""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano64 import elimination
from fano64.bundles import (
    chi_rank2,
    degree_p1_bundle,
    rr_dim_anticanonical,
    split_gap_bound_holds,
    twist,
)
from fano64.elimination import (
    CHI_TARGETS,
    SWEEP_BASES,
    classification_summary,
    eliminate_p1_bundles,
    filter_quadric_bundle_degrees,
    sweep_twisted_bundles,
)
from fano64.records import (
    DEGREE,
    ArithmeticContradiction,
    CaseRecord,
    GeometricArgument,
    Survives,
    check_ledger,
    record_from_payload,
    record_to_json,
    requirement_holds,
    surviving_constructions,
    verify_record,
)
from fano64.surfaces import F0, F2, F3, F4, P2, SurfaceClass
from fano64.wps import Weights


def verdict_of(records, context):
    match = [r for r in records if r.context == context]
    assert len(match) == 1, context
    return match[0]


def test_requirement_holds():
    assert requirement_holds(Fraction(3), "is-integer", None)
    assert not requirement_holds(Fraction(-5, 4), "is-integer", None)
    assert requirement_holds(4, "==", 4)
    assert not requirement_holds(4, "!=", 4)
    assert requirement_holds(Fraction(1, 2), "<", 1)
    assert requirement_holds(2, ">=", 2)
    assert requirement_holds("abc", "==", "abc")
    with pytest.raises(TypeError):
        requirement_holds("abc", "<", 3)
    with pytest.raises(ValueError):
        requirement_holds(1, "~=", 1)

    # every comparison op, on ints and Fractions, as Python's own operators read it
    python_ops = {
        "==": lambda x, y: x == y,
        "!=": lambda x, y: x != y,
        "<": lambda x, y: x < y,
        "<=": lambda x, y: x <= y,
        ">": lambda x, y: x > y,
        ">=": lambda x, y: x >= y,
    }
    numbers = [-2, 0, 1, 3, Fraction(-3, 2), Fraction(1, 2), Fraction(3), Fraction(7, 3)]
    for op, python_op in python_ops.items():
        for value in numbers:
            for target in numbers:
                expected = python_op(value, target)
                assert requirement_holds(value, op, target) is expected, (value, op, target)

    # the order of the checks: "is-integer" first, before any target is looked at
    assert requirement_holds(3, "is-integer", "abc")
    with pytest.raises(TypeError, match="^integrality is not defined for 'abc'$"):
        requirement_holds("abc", "is-integer", None)
    # then text against a number, even under an unknown op
    with pytest.raises(TypeError, match="^cannot compare 'abc' with 3$"):
        requirement_holds("abc", "~=", 3)
    with pytest.raises(TypeError, match="^cannot compare 3 with 'abc'$"):
        requirement_holds(3, "<", "abc")
    # then the op itself, whatever JSON type it was read as
    for op in ("~=", "=", None, ["=="]):
        with pytest.raises(ValueError, match="^unknown requirement op "):
            requirement_holds(1, op, 1)


def test_p1_bundle_elimination():
    records = eliminate_p1_bundles()
    assert len(records) == 10
    assert all(verify_record(r) for r in records)

    r = verdict_of(records, "p1-bundle/P2/even")
    assert isinstance(r.verdict, ArithmeticContradiction)
    assert r.verdict.quantity == "c2"
    assert r.verdict.op == "is-integer"
    assert r.value("c2") == Fraction(-5, 4)

    r = verdict_of(records, "p1-bundle/P2/odd")
    assert isinstance(r.verdict, ArithmeticContradiction)
    assert r.value("k_d_squared") == 8
    assert r.value("k_squared_of_base") == 9

    r = verdict_of(records, "p1-bundle/F1/odd-even")
    assert r.value("c2") == Fraction(-9, 4)
    r = verdict_of(records, "p1-bundle/F1/odd-odd")
    assert r.value("c2") == Fraction(-7, 4)

    r = verdict_of(records, "p1-bundle/F2/even-even")
    assert isinstance(r.verdict, GeometricArgument)
    assert r.value("c2") == -2
    assert r.value("chi") == 2
    assert r.value("fiber_splittings_allowed") == "0"
    r = verdict_of(records, "p1-bundle/F1/even-even")
    assert isinstance(r.verdict, GeometricArgument)
    assert r.value("fiber_splittings_allowed") == "0"

    for ctx, label in [
        ("p1-bundle/F0/even-even", "cone over P1 x P1"),
        ("p1-bundle/F1/even-odd", "cone over F1"),
    ]:
        r = verdict_of(records, ctx)
        assert isinstance(r.verdict, Survives)
        assert r.verdict.construction == label
        assert r.value("degree_at_c2_0") == 64
        assert r.value("c2") == 0

    assert surviving_constructions(records) == {
        "cone over P1 x P1",
        "cone over F1",
    }


def test_forced_vertical_splitting_window_matches_a_brute_force_search():
    for c in range(-20, 21):
        for z_self in range(-3, 4):
            searched = tuple(q for q in range(101) if split_gap_bound_holds(q, c - q, z_self))
            assert elimination._forced_vertical_splitting(c, z_self) == searched, (c, z_self)


def test_quadric_bundle_degree_filter():
    records = filter_quadric_bundle_degrees()
    degrees = [int(dict(r.inputs)["degree"]) for r in records]
    assert degrees == [64, 66, 68, 70, 72]
    assert all(verify_record(r) for r in records)

    eliminated = {
        d
        for d, r in zip(degrees, records)
        if isinstance(r.verdict, ArithmeticContradiction)
    }
    assert eliminated == {66, 68, 70}
    for r in records:
        if isinstance(r.verdict, ArithmeticContradiction):
            assert r.verdict.quantity == "degree_eighth"
            assert r.verdict.op == "is-integer"
        else:
            assert isinstance(r.verdict, GeometricArgument)

    by_degree = dict(zip(degrees, records))
    assert by_degree[64].value("rr_dim") == 34
    assert by_degree[72].value("rr_dim") == 38


def test_quadric_filter_window_is_every_even_degree_with_enough_sections():
    """The filter's degrees are the whole solution set of its dimension bound, from DEGREE on."""
    degrees = [int(dict(r.inputs)["degree"]) for r in filter_quadric_bundle_degrees()]
    searched = [
        d
        for d in range(0, elimination._QUADRIC_MAX_DEGREE + 1, 2)
        if rr_dim_anticanonical(d) >= elimination._QUADRIC_MIN_DIM
    ]
    assert degrees == searched
    assert degrees[0] == DEGREE
    assert elimination._QUADRIC_MIN_DIM == 34


def test_twisted_sweep_has_no_exceptions():
    for base, expected in [(F0, 45), (F2, 46), (F3, 47), (F4, 52)]:
        records = sweep_twisted_bundles(base)
        assert len(records) == expected
        assert all(verify_record(r) for r in records)
        grid = [r for r in records if "/a=" in r.context]
        assert len(grid) == (50 if base is F4 else 45)
        for r in grid:
            assert r.value("c2_prime") < 0
            assert r.value("chi_prime") > 0
            assert r.value("degree_preserved") is True


def test_twisted_sweep_corner_certificates():
    # corners of the (a', b') box where the twisted Euler characteristic
    # could reach zero for some negative c2'; the sweep must show the
    # actual maxima sit far below those thresholds
    expected = {
        F0: {},
        F2: {(-2, -1): -1},
        F3: {(-2, -1): -2, (-2, -2): -1},
        F4: {(-2, -1): -3, (-2, -2): -2},
    }
    for base, corners in expected.items():
        records = sweep_twisted_bundles(base)
        found = {}
        for r in records:
            if "/corner(" not in r.context:
                continue
            assert isinstance(r.verdict, ArithmeticContradiction)
            assert r.verdict.quantity == "c2_prime_max"
            assert r.verdict.op == ">="
            key = r.context.split("corner", 1)[1]
            found[key] = r.verdict.target
            assert r.value("c2_prime_max") < r.verdict.target
        assert found == {
            f"({a},{b})": t for (a, b), t in corners.items()
        }


def test_plane_sweep():
    records = sweep_twisted_bundles(P2)
    assert len(records) == 47
    assert all(verify_record(r) for r in records)

    r = verdict_of(records, "twisted-sweep/P2/decomposable")
    assert isinstance(r.verdict, ArithmeticContradiction)
    assert r.value("chi_max") == 11
    assert r.verdict.target == 32

    r = verdict_of(records, "twisted-sweep/P2/c1-boundary")
    assert r.value("nef_dominated") is True

    parity = [r for r in records if "/m=" in r.context]
    assert len(parity) == 45
    for r in parity:
        assert r.value("c2_prime") < 0
        assert r.value("c1_twisted") in (-3, -2)


def _per_case_sweep(base, chis):
    """The sweep's case records, with the bundle calculus run once per (c1, chi).

    An oracle for the per-c1 evaluation in the library: one bundle, one
    twist and one Euler characteristic per case, no affine step.
    """
    records = []
    if base is P2:
        for parity, c1_of_m, m_range in (
            ("odd", lambda m: 2 * m - 3, range(2, 6)),
            ("even", lambda m: 2 * m - 2, range(1, 6)),
        ):
            for m in m_range:
                c1 = SurfaceClass(P2, c1_of_m(m))
                for chi in chis:
                    c2 = chi_rank2(c1, 0) - chi
                    c1_t, c2_t = twist(c1, c2, SurfaceClass(P2, -m))
                    records.append(
                        CaseRecord(
                            f"twisted-sweep/P2/{parity}/m={m}/chi={chi}",
                            (("base", "P2"), ("c1", str(c1)), ("m", str(m)), ("chi", str(chi))),
                            (
                                ("c2", c2),
                                ("c1_twisted", c1_t.a),
                                ("c2_prime", c2_t),
                            ),
                            GeometricArgument(
                                "c2' < 0 makes chi of the twisted bundle positive via "
                                "Serre duality, so it has a section; the zero-locus "
                                "analysis excludes it (external)"
                            ),
                        )
                    )
        return records
    n = base.n
    for chi in chis:
        for a in range(0, 3):
            for b in range(a * n, n + 3):
                c1 = SurfaceClass(base, a, b)
                c2 = chi_rank2(c1, 0) - chi
                a_p, b_p = (-2 if a % 2 == 0 else -1), (-2 if b % 2 == 0 else -1)
                c1_t, c2_t = twist(c1, c2, SurfaceClass(base, -(a - a_p) // 2, -(b - b_p) // 2))
                assert c1_t == SurfaceClass(base, a_p, b_p)
                preserved = degree_p1_bundle(c1_t, c2_t) == degree_p1_bundle(c1, c2)
                records.append(
                    CaseRecord(
                        f"twisted-sweep/{base}/a={a}/b={b}/chi={chi}",
                        (("base", str(base)), ("c1", str(c1)), ("chi", str(chi))),
                        (
                            ("c2", c2),
                            ("a_prime", a_p),
                            ("b_prime", b_p),
                            ("c2_prime", c2_t),
                            ("chi_prime", chi_rank2(c1_t, c2_t)),
                            ("degree_preserved", preserved),
                        ),
                        GeometricArgument(
                            "c2' < 0 and chi' > 0 give the twisted bundle a nonzero "
                            "section with 1-dimensional zero locus; the splitting/"
                            "patching analysis excludes it"
                        ),
                    )
                )
    return records


@pytest.mark.parametrize("chis", [CHI_TARGETS], ids=str)
@pytest.mark.parametrize("base", SWEEP_BASES, ids=str)
def test_sweep_matches_the_per_case_oracle(base, chis):
    records = sweep_twisted_bundles(base)
    expected = _per_case_sweep(base, chis)
    cases = [r for r in records if "/chi=" in r.context]
    assert cases == expected
    for got, want in zip(cases, expected):
        assert [type(v) for _, v in got.computed] == [type(v) for _, v in want.computed]
    # what is left: the plane's two fixed records, or one certificate per
    # corner whose largest c2' is the oracle's
    rest = [r for r in records if "/chi=" not in r.context]
    assert len(records) == len(expected) + len(rest)
    if base is P2:
        assert [r.context for r in rest] == [
            "twisted-sweep/P2/decomposable",
            "twisted-sweep/P2/c1-boundary",
        ]
        return
    for r in rest:
        corner = r.context.split("/corner", 1)[1]
        values = [
            w.value("c2_prime")
            for w in expected
            if f"({w.value('a_prime')},{w.value('b_prime')})" == corner
        ]
        assert r.value("corner_cases") == len(values)
        assert r.value("c2_prime_max") == max(values)


@pytest.mark.parametrize("base", [F0, F2, F3, F4], ids=str)
def test_sweep_records_match_direct_calculus_calls(base):
    # the sweep runs the calculus once per c1 and once per parity corner;
    # each record's chi' and degree check must be what direct calls give
    grid = [r for r in sweep_twisted_bundles(base) if "/chi=" in r.context]
    assert grid
    for r in grid:
        fields = dict(part.split("=") for part in r.context.split("/")[2:4])
        c1 = SurfaceClass(base, int(fields["a"]), int(fields["b"]))
        c1_p = SurfaceClass(base, r.value("a_prime"), r.value("b_prime"))
        c2, c2_p = r.value("c2"), r.value("c2_prime")
        assert r.value("chi_prime") == chi_rank2(c1_p, c2_p)
        assert r.value("degree_preserved") is (
            degree_p1_bundle(c1_p, c2_p) == degree_p1_bundle(c1, c2)
        )


def test_sweep_raises_when_a_twist_lands_off_its_corner(monkeypatch):
    def off_by_a_fiber(c1, c2, b):
        c1_t, c2_t = twist(c1, c2, b)
        return c1_t + SurfaceClass(c1.surface, 0, 2), c2_t

    monkeypatch.setattr(elimination, "twist", off_by_a_fiber)
    with pytest.raises(ArithmeticError, match="^twisting 0 gives -2h, off its corner -2h-2l$"):
        sweep_twisted_bundles(F2)


def test_sweeps_do_not_compare_a_class_with_a_tuple(monkeypatch):
    unpatched = {base: sweep_twisted_bundles(base) for base in SWEEP_BASES}

    def eq(self, other):
        return type(other) is SurfaceClass and tuple.__eq__(self, other)

    # a class now equals only a class, not the tuple of its fields
    monkeypatch.setattr(SurfaceClass, "__eq__", eq)
    monkeypatch.setattr(SurfaceClass, "__ne__", lambda self, other: not eq(self, other))
    assert SurfaceClass(F0, -2, -2) != (F0, -2, -2)
    assert SurfaceClass(F0, -2, -2) == SurfaceClass(F0, -2, -2)
    for base in SWEEP_BASES:
        assert sweep_twisted_bundles(base) == unpatched[base], base


def test_sweep_rejects_surfaces_outside_its_scope():
    from fano64.surfaces import BaseSurface

    with pytest.raises(ValueError) as error:
        sweep_twisted_bundles(BaseSurface(1))
    assert str(error.value) == "unsupported base F1; expected P2, F0, F2, F3 or F4"
    # the message is built from the tuple, so it names every base the sweep takes
    for base in SWEEP_BASES:
        assert str(base) in str(error.value).partition("expected")[2]


def test_classification_summary():
    records = classification_summary()
    assert len(records) == 7
    labels = []
    for r in records:
        assert isinstance(r.verdict, Survives)
        assert r.value("degree") == 64
        assert r.value("genus") == 33
        assert r.value("ambient_dim") == 34
        labels.append(r.verdict.construction)
    assert labels == [
        "P3",
        "cone over P1 x P1",
        "cone over F1",
        "P(3,1,1,1) projected from a tangent space",
        "P(6,4,1,1) projected from a tangent space",
        "X70 projected from a plane",
        "X66 projected from a cDV point",
    ]
    x66 = verdict_of(records, "classification/X66 projected from a cDV point")
    assert x66.value("scroll_chain") == "54->62->66->66"
    x70 = verdict_of(records, "classification/X70 projected from a plane")
    assert x70.value("conic_blowup_degree") == 64


def test_each_cone_survivor_is_a_classification_record_of_its_bundle():
    # each surviving p1-bundle names the classification record of its own
    # bundle: same base and c1, c2 = 0, and bundle degree 64
    classified = {r.verdict.construction: r for r in classification_summary()}
    survivors = [r for r in eliminate_p1_bundles() if isinstance(r.verdict, Survives)]
    assert len(survivors) == 2
    for survivor in survivors:
        record = classified[survivor.verdict.construction]
        inputs, cone_inputs = dict(record.inputs), dict(survivor.inputs)
        assert (inputs["base"], inputs["c1"], inputs["c2"]) == (
            cone_inputs["base"],
            cone_inputs["c1"],
            "0",
        )
        assert survivor.value("c2") == 0
        assert record.value("bundle_degree") == 64


def test_verify_record_rejects_fabricated_contradictions():
    r = CaseRecord(
        context="made-up",
        inputs=(("x", "1"),),
        computed=(("c2", 4),),
        verdict=ArithmeticContradiction("c2", "is-integer", None),
    )
    assert not verify_record(r)  # 4 is an integer, no contradiction
    ok = CaseRecord(
        context="made-up",
        inputs=(("x", "1"),),
        computed=(("c2", Fraction(1, 2)),),
        verdict=ArithmeticContradiction("c2", "is-integer", None),
    )
    assert verify_record(ok)


def _full_ledger() -> dict:
    sections = {
        "p1-bundles": eliminate_p1_bundles(),
        "quadric-filter": filter_quadric_bundle_degrees(),
    }
    for base in SWEEP_BASES:
        sections[f"twisted-sweep/{base}"] = sweep_twisted_bundles(base)
    sections["classification"] = classification_summary()
    return sections


def _with_value(record: CaseRecord, key: str, value) -> CaseRecord:
    computed = tuple((k, value if k == key else v) for k, v in record.computed)
    return record._replace(computed=computed)


def test_check_ledger_passes_the_full_ledger():
    assert check_ledger(_full_ledger()) == []


def _fabricate_contradiction(sections):
    fake = CaseRecord(
        context="made-up",
        inputs=(),
        computed=(("c2", 4),),
        verdict=ArithmeticContradiction("c2", "is-integer"),
    )
    sections["quadric-filter"].append(fake)
    return "quadric-filter: contradiction witness failed to verify in made-up"


def _sweep_c2_prime_nonnegative(sections):
    records = sections["twisted-sweep/F0"]
    records[0] = _with_value(records[0], "c2_prime", 0)
    return f"{records[0].context}: c2' not negative"


def _sweep_chi_prime_nonpositive(sections):
    records = sections["twisted-sweep/F2"]
    records[0] = _with_value(records[0], "chi_prime", 0)
    return f"{records[0].context}: chi' not positive"


def _sweep_degree_not_preserved(sections):
    records = sections["twisted-sweep/F3"]
    records[0] = _with_value(records[0], "degree_preserved", False)
    return f"{records[0].context}: degree not preserved by the twist"


def _is_f1_cone(r: CaseRecord) -> bool:
    # isinstance too: tuples of equal fields are equal across verdict kinds
    return isinstance(r.verdict, Survives) and r.verdict.construction == "cone over F1"


def _lose_a_survivor(sections):
    sections["p1-bundles"] = [r for r in sections["p1-bundles"] if not _is_f1_cone(r)]
    return "p1-bundles: survivors ['cone over P1 x P1'] != ['cone over F1', 'cone over P1 x P1']"


def _cone_survivor_c2_one(sections):
    records = sections["p1-bundles"]
    i = next(i for i, r in enumerate(records) if _is_f1_cone(r))
    records[i] = _with_value(records[i], "c2", 1)
    return "p1-bundle/F1/even-odd: surviving cone has c2 1 != 0"


def _six_classification_records(sections):
    sections["classification"].pop()
    return "classification: 6 records, expected 7"


def _classification_degree_62(sections):
    records = sections["classification"]
    records[0] = _with_value(records[0], "degree", 62)
    return "classification/P3: degree 62 != 64"


def _classification_not_surviving(sections):
    records = sections["classification"]
    records[0] = records[0]._replace(verdict=GeometricArgument("made up"))
    return "classification/P3: unexpected verdict"


def _without(record: CaseRecord, key: str) -> CaseRecord:
    return record._replace(computed=tuple(p for p in record.computed if p[0] != key))


def _refused(context: str, key: str):
    # building the tampered record raises, naming the record and the key
    return pytest.raises(
        (TypeError, ValueError), match=f"^record {re.escape(context)} .*{re.escape(repr(key))}"
    )


def _contradiction_witness_missing(sections):
    records = sections["quadric-filter"]
    i = next(i for i, r in enumerate(records) if isinstance(r.verdict, ArithmeticContradiction))
    with _refused(records[i].context, records[i].verdict.quantity):
        records[i] = _without(records[i], records[i].verdict.quantity)
    return []


def _sweep_c2_prime_repeated(sections):
    # the first value reads c2' < 0 and the last 1 >= 0: the repeat itself is refused
    records = sections["twisted-sweep/F4"]
    r = records[0]
    with _refused(r.context, "c2_prime"):
        records[0] = r._replace(computed=r.computed + (("c2_prime", 1),))
    return []


def _sweep_chi_prime_repeated(sections):
    records = sections["twisted-sweep/F0"]
    r = records[1]
    with _refused(r.context, "chi_prime"):
        records[1] = r._replace(computed=r.computed + (("chi_prime", r.value("chi_prime")),))
    return []


def _sweep_degree_preserved_repeated(sections):
    records = sections["twisted-sweep/F2"]
    r = records[2]
    with _refused(r.context, "degree_preserved"):
        records[2] = r._replace(computed=r.computed + (("degree_preserved", True),))
    return []


def _cone_survivor_without_c2(sections):
    records = sections["p1-bundles"]
    i = next(i for i, r in enumerate(records) if _is_f1_cone(r))
    records[i] = _without(records[i], "c2")
    return "p1-bundle/F1/even-odd: surviving cone has no computed c2"


def _classification_without_degree(sections):
    records = sections["classification"]
    records[0] = _without(records[0], "degree")
    return "classification/P3: no computed degree"


def _sweep_c2_prime_not_comparable(sections):
    records = sections["twisted-sweep/F2"]
    records[3] = _with_value(records[3], "c2_prime", "neg")
    return f"{records[3].context}: computed value 'c2_prime' is not comparable"


def _sweep_chi_prime_not_comparable(sections):
    records = sections["twisted-sweep/F3"]
    records[1] = _with_value(records[1], "chi_prime", "pos")
    return f"{records[1].context}: computed value 'chi_prime' is not comparable"


def _contradiction_witness_repeated(sections):
    # the first value, 33/4, verifies: the repeat itself is refused
    records = sections["quadric-filter"]
    i = next(i for i, r in enumerate(records) if r.context == "quadric-filter/degree-66")
    with _refused(records[i].context, "degree_eighth"):
        records[i] = records[i]._replace(computed=records[i].computed + (("degree_eighth", 8),))
    return []


def _contradiction_not_comparable(sections):
    # requirement_holds raises TypeError on an int against a str
    with _refused("made-up", "c2"):
        CaseRecord("made-up", (), (("c2", 1),), ArithmeticContradiction("c2", "<", "a"))
    return []


def _contradiction_unknown_op(sections):
    # requirement_holds raises ValueError on an op it does not know
    with _refused("made-up", "c2"):
        CaseRecord("made-up", (), (("c2", 1),), ArithmeticContradiction("c2", "~", 0))
    return []


def _cone_survivor_c2_repeated(sections):
    # the first c2 reads 0 and the last 1: the repeat itself is refused
    records = sections["p1-bundles"]
    i = next(i for i, r in enumerate(records) if _is_f1_cone(r))
    with _refused("p1-bundle/F1/even-odd", "c2"):
        records[i] = records[i]._replace(computed=records[i].computed + (("c2", 1),))
    return []


def _classification_degree_repeated(sections):
    records = sections["classification"]
    with _refused("classification/P3", "degree"):
        records[0] = records[0]._replace(computed=records[0].computed + (("degree", 62),))
    return []


@pytest.mark.parametrize(
    "tamper",
    [
        _fabricate_contradiction,
        _contradiction_witness_missing,
        _contradiction_witness_repeated,
        _contradiction_not_comparable,
        _contradiction_unknown_op,
        _sweep_c2_prime_not_comparable,
        _sweep_chi_prime_not_comparable,
        _cone_survivor_c2_repeated,
        _classification_degree_repeated,
        _sweep_c2_prime_repeated,
        _sweep_chi_prime_repeated,
        _sweep_degree_preserved_repeated,
        _cone_survivor_without_c2,
        _classification_without_degree,
        _sweep_c2_prime_nonnegative,
        _sweep_chi_prime_nonpositive,
        _sweep_degree_not_preserved,
        _lose_a_survivor,
        _cone_survivor_c2_one,
        _six_classification_records,
        _classification_degree_62,
        _classification_not_surviving,
    ],
)
def test_check_ledger_reports_each_tampered_section(tamper):
    # each tampered case fails loudly: check_ledger reports it, or building
    # the malformed record raises (an empty list), leaving the ledger whole
    sections = {name: list(records) for name, records in _full_ledger().items()}
    expected = tamper(sections)
    assert check_ledger(sections) == (expected if isinstance(expected, list) else [expected])


def test_classification_degree_is_the_computed_one(monkeypatch):
    real = elimination.wps_degree
    for degree, genus, ambient_dim in ((63, Fraction(65, 2), Fraction(67, 2)), (62, 32, 33)):

        def p3_reads(weights):
            return Fraction(degree) if weights == Weights(1, 1, 1, 1) else real(weights)

        monkeypatch.setattr(elimination, "wps_degree", p3_reads)
        records = classification_summary()
        p3 = records[0]
        assert p3.context == "classification/P3"
        assert (p3.value("degree"), p3.value("genus"), p3.value("ambient_dim")) == (
            degree,
            genus,
            ambient_dim,
        )
        assert type(p3.value("genus")) is type(genus)
        assert check_ledger({"classification": records}) == [
            f"classification/P3: degree {degree} != 64"
        ]
    # the other six keep genus 33 and ambient dimension 34, as ints
    for r in records[1:]:
        assert (r.value("genus"), r.value("ambient_dim")) == (33, 34)
        assert type(r.value("genus")) is int


def test_record_value_lookup():
    r = CaseRecord(
        context="c", inputs=(), computed=(("k", 5),), verdict=Survives("s")
    )
    assert r.value("k") == 5
    with pytest.raises(KeyError):
        r.value("missing")


numbers = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
texts = st.text(max_size=30)
COMPARISONS = ["==", "!=", "<", "<=", ">", ">="]


@st.composite
def _contradictions(draw, computed):
    # a requirement on one of the record's own values, of a type it can be tested on
    quantity, value = draw(st.sampled_from(computed))
    if type(value) is str:
        return ArithmeticContradiction(quantity, draw(st.sampled_from(COMPARISONS)), draw(texts))
    op = draw(st.sampled_from(COMPARISONS + ([] if type(value) is bool else ["is-integer"])))
    return ArithmeticContradiction(quantity, op, None if op == "is-integer" else draw(numbers))


def _key(pair):
    return pair[0]


@st.composite
def records(draw):
    """Well-formed records: unique keys, every value and verdict type."""
    keys = st.text(min_size=1, max_size=8)
    inputs = draw(st.lists(st.tuples(keys, st.text(max_size=8)), max_size=3, unique_by=_key))
    computed = draw(st.lists(st.tuples(keys, numbers | texts), max_size=4, unique_by=_key))
    verdicts = [
        st.builds(Survives, st.text(min_size=1, max_size=20)),
        st.builds(GeometricArgument, st.text(min_size=1, max_size=40)),
    ]
    if computed:
        verdicts.append(_contradictions(computed))
    context = draw(st.text(min_size=1, max_size=20))
    return CaseRecord(context, tuple(inputs), tuple(computed), draw(st.one_of(verdicts)))


# The dict builder `reproduce --machine` once serialized with
# json.dumps(..., sort_keys=True): the oracle for record_to_json's bytes.


def _value_to_payload(v) -> dict:
    if isinstance(v, bool):
        return {"t": "bool", "v": v}
    if isinstance(v, int):
        return {"t": "int", "v": v}
    if isinstance(v, Fraction):
        return {"t": "frac", "v": f"{v.numerator}/{v.denominator}"}
    if isinstance(v, str):
        return {"t": "str", "v": v}
    raise TypeError(f"unsupported record value {v!r}")


def _verdict_to_payload(v) -> dict:
    if isinstance(v, ArithmeticContradiction):
        return {
            "kind": "arithmetic-contradiction",
            "quantity": v.quantity,
            "op": v.op,
            "target": None if v.target is None else _value_to_payload(v.target),
        }
    if isinstance(v, Survives):
        return {"kind": "survives", "construction": v.construction}
    return {"kind": "geometric-argument", "argument": v.argument}


def record_to_payload(r: CaseRecord) -> dict:
    return {
        "context": r.context,
        "inputs": [[k, v] for k, v in r.inputs],
        "computed": [[k, _value_to_payload(v)] for k, v in r.computed],
        "verdict": _verdict_to_payload(r.verdict),
    }


@given(records())
def test_serialization_round_trip(r):
    back = record_from_payload(json.loads(record_to_json(r)))
    # records are tuples, equal across verdict kinds with equal fields
    assert back == r and type(back.verdict) is type(r.verdict)


@given(records())
def test_record_json_is_json_dumps_of_the_payload(r):
    assert record_to_json(r) == json.dumps(record_to_payload(r), sort_keys=True)


def test_equal_verdicts_of_different_kinds_serialize_apart():
    # verdicts are tuples, so these pairs compare equal; a writer that
    # cached text by verdict would give the second the first one's kind
    verdicts = [
        Survives("x"),
        GeometricArgument("x"),
        Survives("x"),
        ArithmeticContradiction("q", "==", True),
        ArithmeticContradiction("q", "==", 1),
        ArithmeticContradiction("q", "==", True),
    ]
    for v in verdicts:
        r = CaseRecord("c", (), (("q", 2),), v)
        back = record_from_payload(json.loads(record_to_json(r))).verdict
        assert back == v and type(back) is type(v)
        if type(v) is ArithmeticContradiction:
            assert type(back.target) is type(v.target)


def test_record_json_rejects_a_value_of_another_type():
    for value in (1.5, None, (1, 2), Weights(1, 1, 1, 1)):
        fields = ("c", (), (("x", value),), GeometricArgument("x"))
        with pytest.raises(TypeError, match="^record c has computed key 'x' of type "):
            CaseRecord(*fields)
        # the writer still refuses one that skipped the check
        with pytest.raises(TypeError):
            record_to_json(tuple.__new__(CaseRecord, fields))


def test_serialized_fractions_stay_exact():
    r = CaseRecord(
        context="c",
        inputs=(),
        computed=(("q", Fraction(-5, 4)),),
        verdict=GeometricArgument("x"),
    )
    payload = json.loads(record_to_json(r))
    assert payload["computed"][0][1] == {"t": "frac", "v": "-5/4"}
    assert record_from_payload(payload).value("q") == Fraction(-5, 4)


def _payload(inputs=(), computed=(), verdict=None, context="made-up") -> dict:
    """A `reproduce --machine` record entry, written out; the record is named made-up by default."""
    return {
        "context": context,
        "inputs": list(inputs),
        "computed": list(computed),
        "verdict": verdict or {"kind": "geometric-argument", "argument": "x"},
    }


def _int(v) -> dict:
    return {"t": "int", "v": v}


@pytest.mark.parametrize(
    "inputs, computed, repeated",
    [
        ((("k", "1"), ("k", "2")), (), "inputs key 'k'"),
        ((), (("c2_prime", 1), ("c2_prime", -1), ("chi_prime", 3)), "computed key 'c2_prime'"),
    ],
)
def test_record_from_payload_rejects_a_repeated_key(inputs, computed, repeated):
    payload = _payload([[k, v] for k, v in inputs], [[k, _int(v)] for k, v in computed])
    message = f"^record made-up repeats the {repeated}$"
    with pytest.raises(ValueError, match=message):
        record_from_payload(payload)
    with pytest.raises(ValueError, match=message):
        CaseRecord("made-up", inputs, computed, GeometricArgument("x"))


def _contradiction(quantity: str, op: str, target=None) -> dict:
    return {"kind": "arithmetic-contradiction", "quantity": quantity, "op": op, "target": target}


# each malformed kind: the fields, the same record as a payload, and what the message names
_REFUSALS = [
    pytest.param(
        (("k", "1"), ("k", "2")),
        (),
        GeometricArgument("x"),
        _payload(inputs=[["k", "1"], ["k", "2"]]),
        "repeats the inputs key 'k'",
        id="repeated-inputs-key",
    ),
    pytest.param(
        (),
        (("c2_prime", -1), ("c2_prime", 1)),
        GeometricArgument("x"),
        _payload(computed=[["c2_prime", _int(-1)], ["c2_prime", _int(1)]]),
        "repeats the computed key 'c2_prime'",
        id="repeated-computed-key",
    ),
    pytest.param(
        (("k", 1),),
        (),
        GeometricArgument("x"),
        _payload(inputs=[["k", 1]]),
        "inputs key 'k'",
        id="input-not-a-string",
    ),
    pytest.param(
        (("k", "1", "2"),),
        (),
        GeometricArgument("x"),
        _payload(inputs=[["k", "1", "2"]]),
        "inputs entry ('k', '1', '2')",
        id="input-not-a-pair",
    ),
    pytest.param(
        ((1, "1"),),
        (),
        GeometricArgument("x"),
        _payload(inputs=[[1, "1"]]),
        "inputs entry (1, '1')",
        id="input-key-not-a-string",
    ),
    pytest.param(
        (),
        (("x", 1.5),),
        GeometricArgument("x"),
        _payload(computed=[["x", {"t": "int", "v": 1.5}]]),
        "'x'",
        id="value-of-another-type",
    ),
    pytest.param(
        (),
        (("x", 1),),
        ("x", "is-integer", None),
        _payload(computed=[["x", _int(1)]], verdict={"kind": "made-up"}),
        'verdict of no known kind',
        id="verdict-of-no-kind",
    ),
    pytest.param(
        (),
        (("c2", 1),),
        ArithmeticContradiction("chi", "is-integer"),
        _payload(computed=[["c2", _int(1)]], verdict=_contradiction("chi", "is-integer")),
        "no computed value 'chi'",
        id="contradiction-quantity-absent",
    ),
    pytest.param(
        (),
        (("c2", 1),),
        ArithmeticContradiction("c2", "~", 0),
        _payload(computed=[["c2", _int(1)]], verdict=_contradiction("c2", "~", _int(0))),
        "cannot test 'c2': unknown requirement op '~'",
        id="contradiction-unknown-op",
    ),
    pytest.param(
        (),
        (("c2", 1),),
        ArithmeticContradiction("c2", "<", "a"),
        _payload(
            computed=[["c2", _int(1)]],
            verdict=_contradiction("c2", "<", {"t": "str", "v": "a"}),
        ),
        "cannot test 'c2': cannot compare 1 with 'a'",
        id="contradiction-not-comparable",
    ),
    pytest.param(
        (),
        (("s", "1/2"),),
        ArithmeticContradiction("s", "is-integer"),
        _payload(
            computed=[["s", {"t": "str", "v": "1/2"}]],
            verdict=_contradiction("s", "is-integer"),
        ),
        "cannot test 's': integrality is not defined for '1/2'",
        id="contradiction-integrality-of-text",
    ),
    # each passes the requirement, and record_to_json could not write it
    pytest.param(
        (),
        (("x", 1),),
        ArithmeticContradiction("x", "<", 1.5),
        _payload(
            computed=[["x", _int(1)]],
            verdict=_contradiction("x", "<", {"t": "float", "v": 1.5}),
        ),
        "'x'",
        id="contradiction-target-of-another-type",
    ),
    pytest.param(
        (),
        (),
        GeometricArgument("x"),
        _payload(context=5),
        "has a context of type int",
        id="context-not-a-string",
    ),
    pytest.param(
        (),
        (),
        Survives(3),
        _payload(verdict={"kind": "survives", "construction": 3}),
        "whose construction is not a str",
        id="construction-not-a-string",
    ),
    pytest.param(
        (),
        (),
        GeometricArgument(None),
        _payload(verdict={"kind": "geometric-argument", "argument": None}),
        "whose argument is not a str",
        id="argument-not-a-string",
    ),
]

_WELL_FORMED = CaseRecord("made-up", (), (), GeometricArgument("x"))

# every public way to build a record, from its fields or from its payload
_BUILDERS = {
    "CaseRecord": lambda fields, payload: CaseRecord(*fields),
    "_make": lambda fields, payload: CaseRecord._make(fields),
    "_replace": lambda fields, payload: _WELL_FORMED._replace(
        **dict(zip(CaseRecord._fields, fields))
    ),
    "record_from_payload": lambda fields, payload: record_from_payload(payload),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
@pytest.mark.parametrize(
    "inputs, computed, verdict, payload, names",
    _REFUSALS,
)
def test_case_record_refuses_a_malformed_record(build, inputs, computed, verdict, payload, names):
    context = payload["context"]
    fields = (context, inputs, computed, verdict)
    with pytest.raises((TypeError, ValueError), match=f"^record {context} .*{re.escape(names)}"):
        build(fields, payload)


@pytest.mark.parametrize(
    "value",
    [
        {"t": "int", "v": 1.5},
        {"t": "int", "v": True},
        {"t": "int", "v": "1"},
        {"t": "bool", "v": "false"},
        {"t": "bool", "v": 0},
        {"t": "str", "v": 5},
        {"t": "str", "v": None},
        {"t": "frac", "v": "1/0"},
        {"t": "frac", "v": "2/4"},
        {"t": "frac", "v": "1/-2"},
        {"t": "frac", "v": "-1/-2"},
        {"t": "frac", "v": "+1/2"},
        {"t": "frac", "v": " 1/2"},
        {"t": "frac", "v": "01/2"},
        {"t": "frac", "v": "-0/1"},
        {"t": "frac", "v": "1.5"},
        {"t": "frac", "v": "3"},
        {"t": "frac", "v": 0.5},
        {"t": "float", "v": 1.5},
    ],
    ids=lambda v: f"{v['t']}:{v['v']!r}",
)
def test_record_from_payload_reads_a_value_only_as_written(value):
    # each tag at its own JSON type, a fraction as p/q in lowest terms with q > 0
    with pytest.raises(ValueError, match="^record made-up has an unreadable value for 'x': "):
        record_from_payload(_payload(computed=[["x", value]]))
    target = {"kind": "arithmetic-contradiction", "quantity": "x", "op": "==", "target": value}
    with pytest.raises(ValueError, match="^record made-up has an unreadable value for 'x': "):
        record_from_payload(_payload(computed=[["x", _int(1)]], verdict=target))


def test_no_reproduce_record_repeats_a_key():
    # the builders skip CaseRecord's check (tuple.__new__): each of their
    # records must be one it accepts, unchanged
    for records in _full_ledger().values():
        for r in records:
            for pairs in (r.inputs, r.computed):
                keys = [k for k, _ in pairs]
                assert len(keys) == len(set(keys)), (r.context, keys)
            checked = CaseRecord(*r)
            assert type(r) is CaseRecord and checked == r, r.context
            assert type(checked.verdict) is type(r.verdict)
