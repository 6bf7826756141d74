"""fano64 benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ledger|fan-scan|fan-large \\
        --seed N --seconds S --trace 0|1

The program is imported from ./src; nothing is installed or built.  One
client in one thread runs operations in a closed loop: each operation is
a few calls to `fano64.cli.main(argv)`, and the next starts when the
previous one has returned and been checked.  The loop runs whole passes
over the workload's inputs until S seconds have gone and at least 100
operations have run, so that ten samples lie beyond op_ms_p90.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced for a
third of the time, then wraps the program's modules (see tracer.py) and
reports per-layer metrics per pass, plus the tracing overhead.  Spans go
to perfbench/out/trace-<workload>.json.  The last line of stdout is the
result as JSON; lines above it are the same numbers for people to read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 9
# op_ms_p90 needs ten samples beyond it
MIN_OPS = 100
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import calibrate, REFERENCE_SECONDS
before = calibrate()
start = time.perf_counter()
import fano64.cli
elapsed = time.perf_counter() - start
after = calibrate()
if not fano64.cli.__file__.startswith(sys.argv[2]):
    raise SystemExit("imported fano64 from " + fano64.cli.__file__)
print(repr(elapsed * REFERENCE_SECONDS / ((before + after) / 2)))
"""
BYTECODE = "none: each fresh interpreter (python -I -B) compiles a fresh copy of src/fano64 from source"


def load_program():
    """Import fano64 from this checkout's src/, writing no bytecode there."""
    if not (SRC / "fano64" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'fano64'}; run from a source checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import fano64.cli

    if not Path(fano64.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: fano64 imported from {fano64.cli.__file__}, not {SRC}")
    return fano64.cli


def setup_seconds(workdir: Path) -> list[float]:
    """Times to import fano64.cli in fresh interpreters, from source, at reference speed."""
    copy = workdir / "setup"
    shutil.copytree(SRC / "fano64", copy / "fano64", ignore=shutil.ignore_patterns("__pycache__"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-B", "-c", SETUP_CHILD, str(Path(__file__).resolve().parent), str(copy)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout))
    return samples


class Loop:
    """Closed-loop client state: latencies, failures and output volume.

    calibrations[i] is the speed loop's time just before operation i; a
    pass loop ends with one more, so operation i lies between
    calibrations i and i + 1.
    """

    def __init__(self, ops, cli, tracer=None) -> None:
        self.ops, self.cli, self.tracer = ops, cli, tracer
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.output_chars = 0
        self.passes = 0

    def run_op(self, op) -> None:
        op_id = len(self.latencies)
        self.calibrations.append(speed.calibrate())
        start = time.perf_counter()
        try:
            outputs = workloads.execute(op, self.cli.main, self.tracer, op_id)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            outputs = None
            problems = [f"{op.name}: raised {type(exc).__name__}: {exc}"]
        self.latencies.append(time.perf_counter() - start)
        if outputs is not None:
            self.output_chars += sum(len(text) for _, text in outputs)
            problems = workloads.verify(op, outputs)
        if problems:
            self.failed += 1
            self.problems += problems

    def run_passes(self, seconds: float, min_ops: int = 1) -> None:
        """Whole passes over the inputs until `seconds` have gone and `min_ops` ran."""
        start = time.perf_counter()
        while True:
            for op in self.ops:
                self.run_op(op)
            self.passes += 1
            if time.perf_counter() - start >= seconds and len(self.latencies) >= min_ops:
                self.calibrations.append(speed.calibrate())
                return

    def reference_latencies(self) -> list[float]:
        """Latencies in seconds at reference speed (see speed.py)."""
        cal = self.calibrations
        return [t * 2 * speed.REFERENCE_SECONDS / (cal[i] + cal[i + 1]) for i, t in enumerate(self.latencies)]

    @property
    def ops_per_s(self) -> float:
        return (len(self.latencies) - self.failed) / sum(self.reference_latencies())

    @property
    def speed_factor(self) -> float:
        """Reference-speed time over measured time, for scaling aggregate times."""
        return sum(self.reference_latencies()) / sum(self.latencies)


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: with n >= 100 samples, at least 10 lie beyond it."""
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def end_to_end(ops, cli, seconds: float, workdir: Path) -> tuple[list[Loop], dict, list[str]]:
    setup = setup_seconds(workdir)
    Loop(ops[:1], cli).run_op(ops[0])  # warm-up, not counted
    loop = Loop(ops, cli)
    loop.run_passes(seconds, MIN_OPS)
    ms = [1000 * t for t in loop.reference_latencies()]
    raw = [1000 * t for t in loop.latencies]
    n = len(ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (loop.ops_per_s, "1/s", n),
        "op_ms_p50": (statistics.median(ms), "ms", n),
        "op_ms_p90": (p90(ms), "ms", n),
        "fail_ratio": (loop.failed / n, "1", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    notes = [
        f"as measured, before scaling to reference speed: ops_per_s {(n - loop.failed) / sum(raw) * 1000:.4g}, "
        f"op_ms_p50 {statistics.median(raw):.4g}, op_ms_p90 {p90(raw):.4g}, "
        f"speed loop {1000 * statistics.median(loop.calibrations):.4g} ms (reference 1 ms)"
    ]
    return [loop], metrics, notes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, loop: Loop, untraced: Loop, table: list[dict]) -> dict:
    """Per-layer metrics per pass over the inputs (records: per reproduce call).

    Times are scaled to reference speed by the traced loop's mean factor.
    """
    per = loop.passes
    scale = loop.speed_factor / per  # ms in total -> ms per pass at reference speed
    calls, counters = tr.calls, tr.counters
    reproduce = calls["cli.main.reproduce_text"] + calls["cli.main.reproduce_machine"]
    m = {}
    for leaf in ("det3", "solve3", "pairing"):
        m[f"lattice.{leaf}.calls"] = (calls[f"lattice.{leaf}"] / per, "count")
    m["lattice.solve3.singular_ratio"] = (_ratio(counters["lattice.solve3.singular"], calls["lattice.solve3"]), "1")
    for name in ("anticanonical_polytope", "polytope_degree", "fan_from_json", "validate_fan"):
        m[f"toric.{name}.ms"] = (tr.ms(f"toric.{name}") * scale, "ms")
    m["toric.cone_checks.ms"] = (
        tr.ms("toric.cone_lattice_index", "toric.classify_index2_cone", "toric.gorenstein_support") * scale,
        "ms",
    )
    m["toric.polytope_vertices"] = (counters["toric.polytope_vertices"] / per, "count")
    attempts = tr.calls_in[("lattice.solve3", "toric.anticanonical_polytope")]
    m["toric.vertex_yield"] = (_ratio(counters["toric.polytope_vertices"], attempts), "1")
    vertex_bound, volume_bound = regime_counts(table)
    m["toric.fans.vertex_bound"] = (vertex_bound, "count")
    m["toric.fans.volume_bound"] = (volume_bound, "count")
    parts = ["eliminate_p1_bundles", "filter_quadric_bundle_degrees"]
    parts += [f"sweep_twisted_bundles.{b}" for b in ("P2", "F0", "F2", "F3", "F4")]
    parts += ["classification_summary", "verify_record", "record_to_payload"]
    for name in parts:
        m[f"elimination.{name}.ms"] = (tr.ms(f"elimination.{name}") * scale, "ms")
    for key in ("records", "records.arithmetic", "records.survives", "records.geometric"):
        m[f"elimination.{key}"] = (_ratio(counters[f"elimination.{key}"], reproduce), "count")
    arithmetic, geometric = counters["elimination.records.arithmetic"], counters["elimination.records.geometric"]
    m["elimination.checked_exclusion_ratio"] = (_ratio(arithmetic, arithmetic + geometric), "1")
    for module in ("bundles", "wps", "ledger"):
        m[f"{module}.calls"] = (tr.module_calls(module) / per, "count")
    m["surfaces.intersect.calls"] = (calls["surfaces.intersect"] / per, "count")
    for module in ("lattice", "toric", "elimination", "bundles", "surfaces", "wps", "ledger", "cli"):
        m[f"{module}.self_ms"] = (tr.module_self_ms(module) * scale, "ms")
    m["cli.output_bytes"] = (loop.output_chars / per, "B")
    m["cli.reproduce_text.ms"] = (tr.ms("cli.main.reproduce_text") * scale, "ms")
    m["cli.reproduce_machine.ms"] = (tr.ms("cli.main.reproduce_machine") * scale, "ms")
    m["trace.ops_per_s.untraced"] = (untraced.ops_per_s, "1/s")
    m["trace.ops_per_s.traced"] = (loop.ops_per_s, "1/s")
    m["trace.overhead_ratio"] = (1 - loop.ops_per_s / untraced.ops_per_s, "1")
    return m


def fan_table(tr: Tracer, loop: Loop) -> list[dict]:
    """Per fan: its sizes, and ms of vertex enumeration and of volume per operation, as measured."""
    rows: dict[str, dict] = {}
    n = len(loop.ops)
    for op_id, spent in tr.per_op.items():
        op = loop.ops[op_id % n]
        if op.fan is None or "toric.polytope_degree" not in spent:
            continue
        row = rows.setdefault(op.name, {**op.fan.summary(), "polytope_ms": 0.0, "volume_ms": 0.0})
        row["polytope_ms"] += 1000 * spent["toric.anticanonical_polytope"] / loop.passes
        row["volume_ms"] += 1000 * spent["toric.polytope_degree"] / loop.passes
    return list(rows.values())


def regime_counts(rows: list[dict]) -> tuple[int, int]:
    """Fans on which vertex enumeration, respectively the volume, took longer."""
    return (
        sum(r["polytope_ms"] > r["volume_ms"] for r in rows),
        sum(r["volume_ms"] > r["polytope_ms"] for r in rows),
    )


def traced(ops, cli, seconds: float, trace_file: Path) -> tuple[list[Loop], dict, list[str]]:
    Loop(ops[:1], cli).run_op(ops[0])  # warm-up, not counted
    untraced = Loop(ops, cli)
    untraced.run_passes(seconds / 3)
    tr = Tracer()
    loop = Loop(ops, cli, tr)
    tr.install()
    try:
        loop.run_passes(seconds - seconds / 3)
    finally:
        tr.uninstall()
    table = fan_table(tr, loop)
    metrics = {k: (v, unit, loop.passes) for k, (v, unit) in layer_metrics(tr, loop, untraced, table).items()}
    write_trace(tr, loop, table, trace_file)
    notes = []
    for family in sorted({r["family"] for r in table}):
        rows = [r for r in table if r["family"] == family]
        rays, polar = [r["rays"] for r in rows], [r["polar_vertices"] for r in rows]
        vertex_bound, volume_bound = regime_counts(rows)
        notes.append(
            f"{family} fans: {len(rows)}, rays {min(rays)}-{max(rays)}, polar vertices {min(polar)}-{max(polar)}, "
            f"anticanonical_polytope longer on {vertex_bound}, polytope_degree longer on {volume_bound} "
            f"(per fan in {trace_file.name})"
        )
    return [untraced, loop], metrics, notes


def write_trace(tr: Tracer, loop: Loop, table: list[dict], path: Path) -> None:
    """Spans, per-function totals and the per-fan table, with times as measured."""
    names = sorted({s[3] for s in tr.spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "passes": loop.passes,
        "span_fields": ["id", "parent", "op", "name", "start_us", "end_us"],
        "names": names,
        "spans": [[i, p, op, index[name], round(1e6 * a), round(1e6 * b)] for i, p, op, name, a, b in tr.spans],
        "functions": {
            name: {"calls": tr.calls[name], "ms": 1000 * tr.inclusive[name], "self_ms": 1000 * tr.exclusive[name]}
            for name in sorted(tr.calls)
        },
        "fans": table,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            loops, metrics, notes = traced(ops, cli, args.seconds, OUT / f"trace-{args.workload}.json")
        else:
            loops, metrics, notes = end_to_end(ops, cli, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload {args.workload}, seed {args.seed}, {len(ops)} inputs, {loops[-1].passes} passes, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}, bytecode {BYTECODE}"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit:6s} n={samples}")
    for line in notes:
        print(f"  {line}")
    problems = [p for loop in loops for p in loop.problems]
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    failed = sum(loop.failed for loop in loops)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(loop.latencies) for loop in loops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items() if k != "fail_ratio"},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
