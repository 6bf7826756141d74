"""The three workloads: their operations and the checks on each operation's output.

An operation is a short list of `fano64` command lines, each run in this
process through `fano64.cli.main(argv)` with stdout and stderr captured
in memory.  Checks read semantic fields of the output, never its bytes,
so the `reproduce` payload may gain fields without failing the check.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

EXPECTED_SURVIVORS = {"cone over P1 x P1", "cone over F1"}


@dataclass(frozen=True)
class Operation:
    """Command lines run back to back as one operation, and their check.

    check takes the (exit code, stdout) of each command and returns the
    problems it finds; an empty list means the operation is verified.
    """

    name: str
    commands: tuple[tuple[str, ...], ...]
    check: Callable[[list[tuple[int, str]]], list[str]]
    fan: inputs.FanInput | None = None


def label(argv: tuple[str, ...]) -> str:
    """Span name of one command: cli.main.reproduce_text, cli.main.toric_degree, ..."""
    if argv[0] == "toric":
        return f"cli.main.toric_{argv[2]}"
    if argv[0] == "reproduce":
        return "cli.main.reproduce_" + ("machine" if "--machine" in argv else "text")
    return f"cli.main.{argv[0]}"


def execute(op: Operation, main, tracer=None, op_id: int = 0) -> list[tuple[int, str]]:
    """Run the operation's commands; return the exit code and stdout of each."""
    outputs = []
    for argv in op.commands:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if tracer is None:
                code = main(list(argv))
            else:
                with tracer.operation(op_id, label(argv)):
                    code = main(list(argv))
        outputs.append((code, out.getvalue()))
    return outputs


def verify(op: Operation, outputs: list[tuple[int, str]]) -> list[str]:
    problems = [f"{' '.join(a)}: exit {c}" for a, (c, _) in zip(op.commands, outputs) if c != 0]
    if problems:
        return problems
    try:
        return op.check(outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# ledger


def check_ledger(outputs: list[tuple[int, str]]) -> list[str]:
    (_, text), (_, machine) = outputs
    problems = []
    lines = text.splitlines()
    if "all checks passed" not in lines or any(line.startswith("FAILED:") for line in lines):
        problems.append("text report does not end with all checks passed")
    listed = lines[lines.index("classification:") + 1 :] if "classification:" in lines else []
    if sum(line.startswith("    degree 64: ") for line in listed) != 7:
        problems.append("text report does not list seven degree-64 constructions")
    payload = json.loads(machine)
    if payload["failures"]:
        problems.append(f"machine report has failures: {payload['failures'][:3]}")
    parts = payload["parts"]
    classification = parts["classification"]
    if len(classification) != 7:
        problems.append(f"{len(classification)} classification records, expected 7")
    for record in classification:
        computed = dict((k, v) for k, v in record["computed"])
        if computed["degree"] != {"t": "int", "v": 64} or record["verdict"]["kind"] != "survives":
            problems.append(f"{record['context']}: not a degree-64 survivor")
    survivors = {
        r["verdict"]["construction"] for r in parts["p1-bundles"] if r["verdict"]["kind"] == "survives"
    }
    if survivors != EXPECTED_SURVIVORS:
        problems.append(f"p1-bundle survivors {sorted(survivors)}")
    return problems


def ledger_operations(seed: int, workdir: Path) -> list[Operation]:
    """The ledger input is fixed; the seed is unused."""
    return [Operation("ledger", (("reproduce",), ("reproduce", "--machine")), check_ledger)]


# ---------------------------------------------------------------------------
# fan-scan and fan-large


def _check_degree(fan: inputs.FanInput, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if Fraction(doc["degree"]) != fan.degree:
        problems.append(f"{fan.name}: degree {doc['degree']}, expected {fan.degree}")
    if doc["vertices"] != fan.polar_vertices:
        problems.append(f"{fan.name}: {doc['vertices']} polar vertices, expected {fan.polar_vertices}")
    return problems


def _check_validate(fan: inputs.FanInput, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    if (doc["rays"], doc["max_cones"]) != (len(fan.rays), len(fan.cones)):
        problems.append(f"{fan.name}: {doc['rays']} rays, {doc['max_cones']} cones")
    if tuple(doc["findings"]) != fan.findings or doc["clean"] != (not fan.findings):
        problems.append(f"{fan.name}: findings {doc['findings']}, expected {list(fan.findings)}")
    return problems


def _check_singularities(fan: inputs.FanInput, text: str) -> list[str]:
    cones = json.loads(text)["cones"]
    got = [(c["index"], c.get("type"), c["gorenstein_support"] is not None) for c in cones]
    want = [(r.index, r.kind, r.has_support) for r in fan.cone_refs]
    if [tuple(c["cone"]) for c in cones] != list(fan.cones) or got != want:
        return [f"{fan.name}: cone types {got}, expected {want}"]
    return []


def _check_wps(fan: inputs.FanInput, text: str) -> list[str]:
    degree = Fraction(json.loads(text)["degree"])
    if degree != inputs.wps_degree(fan.weights) or degree != fan.degree:
        return [f"{fan.name}: wps degree {degree}, toric reference {fan.degree}"]
    return []


_CHECKS = {
    "degree": _check_degree,
    "validate": _check_validate,
    "singularities": _check_singularities,
}


def fan_operation(fan: inputs.FanInput, path: Path, actions: tuple[str, ...]) -> Operation:
    commands = [("toric", str(path), action, "--machine") for action in actions]
    checks = [_CHECKS[action] for action in actions]
    if fan.weights is not None:
        commands.append(("wps", *map(str, fan.weights), "--machine"))
        checks.append(_check_wps)

    def check(outputs: list[tuple[int, str]]) -> list[str]:
        return [p for c, (_, text) in zip(checks, outputs) for p in c(fan, text)]

    return Operation(fan.name, tuple(commands), check, fan)


def scan_operations(seed: int, workdir: Path) -> list[Operation]:
    fans = inputs.scan_fans(seed)
    paths = inputs.write_fans(fans, workdir / "fans")
    return [fan_operation(f, p, ("validate", "degree", "singularities")) for f, p in zip(fans, paths)]


def large_operations(seed: int, workdir: Path) -> list[Operation]:
    fans = inputs.large_fans(seed)
    paths = inputs.write_fans(fans, workdir / "fans")
    return [fan_operation(f, p, ("degree", "validate")) for f, p in zip(fans, paths)]


WORKLOADS = {
    "ledger": ledger_operations,
    "fan-scan": scan_operations,
    "fan-large": large_operations,
}
