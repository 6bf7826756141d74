"""Tests of the benchmark itself: inputs, checks and tracing.

Run from the repository root with `python -m pytest perfbench/tests -q`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_program()

EXACT_COUNTS = [
    "lattice.det3.calls",
    "lattice.solve3.calls",
    "lattice.pairing.calls",
    "lattice.solve3.singular_ratio",
    "toric.polytope_vertices",
    "toric.vertex_yield",
    "elimination.records",
    "elimination.records.arithmetic",
    "elimination.records.survives",
    "elimination.records.geometric",
    "elimination.checked_exclusion_ratio",
    "bundles.calls",
    "surfaces.intersect.calls",
    "wps.calls",
    "ledger.calls",
    "cli.output_bytes",
]


def test_generators_are_deterministic_per_seed():
    assert inputs.scan_fans(3) == inputs.scan_fans(3)
    assert inputs.scan_fans(3) != inputs.scan_fans(4)
    assert inputs.large_fans(3) == inputs.large_fans(3)


def test_generated_fans_record_family_and_size(tmp_path):
    fans = inputs.large_fans(5)
    inputs.write_fans(fans, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {row["family"] for row in manifest} == {"cube", "box"}
    for row, fan in zip(manifest, fans):
        assert (row["rays"], row["polar_vertices"]) == (len(fan.rays), fan.polar_vertices)
        assert (tmp_path / f"{fan.name}.fan").is_file()
    assert all(15 <= r["rays"] <= 17 and 18 <= r["polar_vertices"] <= 20 for r in manifest if r["family"] == "box")


def test_oracle_degree_matches_the_weighted_projective_formula():
    for weights in inputs.WPS_WEIGHTS:
        assert inputs.wps_fan(weights).degree == inputs.wps_degree(weights)


def test_unimodular_transforms_are_invertible():
    import random

    rng = random.Random(0)
    for _ in range(50):
        assert abs(inputs.det3(*inputs.unimodular(rng))) == 1


def _traced_counts(workload: str, seed: int, tmp_path: Path) -> dict:
    tmp_path.mkdir()
    ops = workloads.WORKLOADS[workload](seed, tmp_path)
    loops, metrics, _ = run.traced(ops, CLI, 0, tmp_path / "trace.json")
    assert all(loop.failed == 0 for loop in loops)
    return {name: metrics[name][0] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["ledger", "fan-scan"])
def test_exact_layer_counts_repeat_between_traced_runs(workload, tmp_path):
    first = _traced_counts(workload, 7, tmp_path / "a")
    second = _traced_counts(workload, 7, tmp_path / "b")
    assert first == second
    if workload == "ledger":
        records = [first[f"elimination.records{k}"] for k in ("", ".arithmetic", ".survives", ".geometric")]
        assert records == [259, 13, 9, 237]
        assert first["lattice.det3.calls"] == 0
    else:
        assert first["lattice.solve3.calls"] > 0 and first["elimination.records"] == 0


def test_trace_file_holds_spans_with_parents(tmp_path):
    ops = workloads.WORKLOADS["fan-scan"](1, tmp_path)
    run.traced(ops, CLI, 0, tmp_path / "trace.json")
    doc = json.loads((tmp_path / "trace.json").read_text())
    names = doc["names"]
    spans = {s[0]: s for s in doc["spans"]}
    top = [s for s in spans.values() if s[1] is None]
    assert top and all(names[s[3]].startswith("cli.main.") for s in top)
    child = next(s for s in spans.values() if names[s[3]] == "toric.anticanonical_polytope")
    assert names[spans[child[1]][3]] == "cli.main.toric_degree"


def test_tracer_restores_every_binding(tmp_path):
    import fano64.lattice
    import fano64.toric

    before = (fano64.toric.det3, fano64.toric.solve3, fano64.lattice.det3)
    ops = workloads.WORKLOADS["fan-scan"](1, tmp_path)
    run.traced(ops[:2], CLI, 0, tmp_path / "trace.json")
    assert (fano64.toric.det3, fano64.toric.solve3, fano64.lattice.det3) == before


def test_a_wrong_reference_is_a_failed_operation(tmp_path):
    fan = inputs.scan_fans(2)[0]
    path = inputs.write_fans([fan], tmp_path)[0]
    wrong = dataclasses.replace(fan, degree=fan.degree + Fraction(1, 3))
    loop = run.Loop([], CLI)
    loop.run_op(workloads.fan_operation(fan, path, ("degree",)))
    loop.run_op(workloads.fan_operation(wrong, path, ("degree",)))
    assert loop.failed == 1 and len(loop.latencies) == 2
    assert "expected" in loop.problems[0]


def test_a_tampered_ledger_report_fails_its_check():
    op = workloads.ledger_operations(0, Path("."))[0]
    outputs = workloads.execute(op, CLI.main)
    assert workloads.verify(op, outputs) == []
    payload = json.loads(outputs[1][1])
    payload["parts"]["classification"].pop()
    tampered = [outputs[0], (0, json.dumps(payload))]
    assert workloads.verify(op, tampered) == ["6 classification records, expected 7"]
    assert workloads.verify(op, [outputs[0], (0, "not json")])


def test_a_nonzero_exit_fails_the_operation(tmp_path):
    fan = inputs.scan_fans(2)[0]
    missing = tmp_path / "missing.fan"
    loop = run.Loop([], CLI)
    loop.run_op(workloads.fan_operation(fan, missing, ("validate",)))
    assert loop.failed == 1 and "exit 1" in loop.problems[0]


def test_an_exception_in_the_program_is_a_failed_operation():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    op = workloads.ledger_operations(0, Path("."))[0]
    loop = run.Loop([op], Crashing)
    loop.run_passes(0)
    assert loop.failed == 1 and "RuntimeError: boom" in loop.problems[0]
    assert loop.ops_per_s == 0
