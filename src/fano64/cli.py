"""Command-line front end.

Four subcommands: `bundle` (rank-2 Chern calculus on a base surface),
`wps` (weighted projective space invariants), `toric` (fan validation,
polytope degree, cone singularities), and `reproduce` (the full case
ledger and classification).  All numeric output is exact; rationals
print as p/q, never as decimals.

This module only parses arguments and formats results.  What a
`reproduce` run must satisfy is decided in the library, by
`records.check_ledger`; the report prints its failures.  What
`toric singularities` says of each cone is decided by
`toric.cone_singularity`; the command formats each cone only in the
form it prints.  Integer arguments are plain decimals: an optional
sign and ASCII digits, with surrounding spaces allowed.  A number read
or computed past the interpreter's digit limit is refused by that bound.

A command line is parsed one of two ways.  A plain `toric` one,
`toric <fan> <action>` or `toric <fan> <action> --machine`, the shapes
of every `toric` call the benchmark's fan workloads make, is read into
a namespace with the attributes argparse would set, and neither imports
argparse nor builds a parser.  Every other one goes through argparse,
other token orders and `--expect N` included, which alone reads option
values and prints usage, help and error text.  argparse is imported
only where it is used, so a plain `toric` process never loads it (nor
the gettext it loads).

Exit codes: 0 on success, 1 on usage or parse errors, 2 when a value
requested for verification does not match the computed one or a ledger
check fails.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from types import SimpleNamespace

from .bundles import (
    chi_rank2,
    degree_p1_bundle,
    p1_bundle_anticanonical,
    solve_c2_for_degree,
)
from .elimination import (
    SWEEP_BASES,
    classification_summary,
    eliminate_p1_bundles,
    filter_quadric_bundle_degrees,
    sweep_twisted_bundles,
)
from .lattice import vec_str
from .ledger import genus_of_degree
from .records import (
    PARTS,
    ArithmeticContradiction,
    CaseRecord,
    GeometricArgument,
    Survives,
    check_ledger,
    record_to_json,
    value_text,
)
from .surfaces import BASES, BaseSurface, SurfaceClass
from .toric import (
    anticanonical_polytope,
    cone_singularity,
    fan_from_json,
    validate_fan,
)
from .wps import (
    Weights,
    wps_anticanonical_index,
    wps_degree,
    wps_edge_singularity,
    wps_is_gorenstein,
    wps_vertex_singularity,
)


def _too_long() -> str:
    limit = sys.get_int_max_str_digits()
    return f"a number has more than {limit} digits, the most this program reads or prints"


# an optional sign and ASCII digits; int() alone also reads "1_0" as 10 and "\u0663" as 3
_DECIMAL = re.compile("[+-]?[0-9]+")


def _integer(text: str) -> int:
    """A `_DECIMAL` integer, with surrounding spaces stripped."""
    import argparse

    digits = text.strip()
    if not _DECIMAL.fullmatch(digits):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(_too_long()) from None


def _parse_c1(base: BaseSurface, text: str) -> SurfaceClass:
    """c1 from `_DECIMAL` coefficients, in order; `main` words int()'s too-long ValueError."""
    coeffs = []
    for part in text.split(","):
        digits = part.strip()
        if not _DECIMAL.fullmatch(digits):
            raise ValueError(f"c1 coefficients must be integers, got {text!r}")
        coeffs.append(int(digits))
    if base.is_plane:
        if len(coeffs) != 1:
            raise ValueError("c1 on P2 takes a single coefficient")
        return SurfaceClass(base, coeffs[0])
    if len(coeffs) != 2:
        raise ValueError(f"c1 on {base} takes two coefficients a,b")
    return SurfaceClass(base, coeffs[0], coeffs[1])


_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _emit(doc: dict, machine: bool, lines: list[str]) -> None:
    """Print the JSON document or the text lines.

    JSON is one compact line with sorted keys, from one shared C encoder
    (`json.dumps` with a keyword builds one per call) that skips the
    cycle check, as every document is a fresh tree.  The text is
    written in one call, and nothing is written for no lines.
    """
    if machine:
        print(_ENCODER.encode(doc))
    elif lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_bundle(args) -> int:
    base = BASES[args.base]
    c1 = _parse_c1(base, args.c1)
    lines = [f"base: {base}", f"c1: {c1}"]
    doc: dict = {"base": str(base), "c1": str(c1)}
    if args.solve_degree is not None:
        c2 = solve_c2_for_degree(c1, args.solve_degree)
        integral = c2.denominator == 1
        flag = "INTEGRAL" if integral else "NON-INTEGRAL"
        shown = value_text(c2)
        lines.append(f"c2 for degree {args.solve_degree}: {shown} ({flag})")
        doc.update({"solve_degree": args.solve_degree, "c2": shown, "integral": integral})
        if integral:
            minus_k, chi = p1_bundle_anticanonical(c1), str(chi_rank2(c1, int(c2)))
            lines.append(f"-K: {minus_k}")
            lines.append(f"chi: {chi}")
            doc["minus_k"] = minus_k
            doc["chi"] = chi
    else:
        minus_k, chi = p1_bundle_anticanonical(c1), str(chi_rank2(c1, args.c2))
        degree = degree_p1_bundle(c1, args.c2)
        lines.append(f"-K: {minus_k}")
        lines.append(f"degree: {degree}")
        lines.append(f"chi: {chi}")
        doc.update({"c2": args.c2, "minus_k": minus_k, "degree": degree, "chi": chi})
    _emit(doc, args.machine, lines)
    return 0


def _cmd_wps(args) -> int:
    w = Weights(*args.weights)
    degree = wps_degree(w)
    index = wps_anticanonical_index(w)
    gorenstein = wps_is_gorenstein(w)
    shown = value_text(degree)
    lines = [
        f"space: {w}",
        f"degree: {shown}",
        f"anticanonical index: {index}",
        f"gorenstein: {value_text(gorenstein)}",
    ]
    doc: dict = {
        "weights": list(w),
        "degree": shown,
        "anticanonical_index": index,
        "gorenstein": gorenstein,
    }
    if degree.denominator == 1 and int(degree) % 2 == 0 and degree > 0:
        genus = genus_of_degree(degree)
        lines.append(f"genus: {genus}")
        lines.append(f"ambient dimension: {genus + 1}")
        doc["genus"] = genus
        doc["ambient_dim"] = genus + 1
    vertices = []
    for i in range(4):
        t = wps_vertex_singularity(w, i)
        lines.append(f"vertex {i} (weight {w[i]}): {t}")
        vertices.append(str(t))
    doc["vertex_singularities"] = vertices
    edges = []
    for i in range(4):
        for j in range(i + 1, 4):
            t = wps_edge_singularity(w, i, j)
            if not t.is_smooth:
                lines.append(f"edge {i}-{j}: {t}")
                edges.append({"edge": [i, j], "type": str(t)})
    doc["edge_singularities"] = edges
    _emit(doc, args.machine, lines)
    return 0


def _cmd_toric(args) -> int:
    if args.expect is not None and args.action != "degree":
        raise ValueError("--expect only applies to the degree action")
    with open(args.fan_file, encoding="utf-8") as fh:
        fan = fan_from_json(fh.read())
    if args.action == "validate":
        findings = validate_fan(fan)
        lines = [f"rays: {len(fan.rays)}", f"maximal cones: {len(fan.max_cones)}"]
        if findings:
            lines += [f"finding: {f}" for f in findings]
        else:
            lines.append("clean")
        doc = {
            "rays": len(fan.rays),
            "max_cones": len(fan.max_cones),
            "clean": not findings,
            "findings": findings,
        }
        _emit(doc, args.machine, lines)
        return 0
    if args.action == "degree":
        polytope = anticanonical_polytope(fan)
        degree = polytope.degree
        shown = value_text(degree)
        lines = [f"degree: {shown}"]
        doc = {"degree": shown, "vertices": len(polytope.vertices)}
        if args.expect is not None:
            matches = degree == args.expect
            lines.append(f"expected: {args.expect} ({'match' if matches else 'MISMATCH'})")
            doc["expected"] = args.expect
            doc["match"] = matches
            _emit(doc, args.machine, lines)
            return 0 if matches else 2
        _emit(doc, args.machine, lines)
        return 0
    # singularities: each cone builds only the form that is printed
    lines = []
    cones_doc = []
    for ci, cone in enumerate(fan.max_cones):
        sing = cone_singularity([fan.rays[i] for i in cone])
        if args.machine:
            # json writes the tuples as arrays
            entry = {
                "cone": cone,
                "degenerate": sing.degenerate,
                "index": sing.index,
                "gorenstein_support": sing.support,
            }
            if sing.kind is not None:
                entry["type"] = sing.kind
                if sing.witness is not None:
                    entry["witness"] = sing.witness
            cones_doc.append(entry)
            continue
        prefix = f"cone {ci} {list(cone)}:"
        if sing.degenerate:
            lines.append(f"{prefix} degenerate (rays do not span), index not computed")
        elif sing.index is None:
            lines.append(f"{prefix} non-simplicial, index not computed")
        elif sing.kind is None:
            lines.append(f"{prefix} index {sing.index}, not classified")
        else:
            witness = "" if sing.witness is None else f", witness {vec_str(sing.witness)}"
            lines.append(f"{prefix} index {sing.index}, {sing.kind}{witness}")
        if sing.support is None:
            lines.append(f"{prefix} no integral Gorenstein support")
        else:
            lines.append(f"{prefix} Gorenstein support {vec_str(sing.support)}")
    _emit({"cones": cones_doc}, args.machine, lines)
    return 0


def _reproduce(part: str | None) -> dict[str, list[CaseRecord]]:
    """The requested parts as flat sections; the sweep has one per base."""
    sections: dict[str, list[CaseRecord]] = {}
    if part in (None, "p1-bundles"):
        sections["p1-bundles"] = eliminate_p1_bundles()
    if part in (None, "quadric-filter"):
        sections["quadric-filter"] = filter_quadric_bundle_degrees()
    if part in (None, "twisted-sweep"):
        for base in SWEEP_BASES:
            sections[f"twisted-sweep/{base}"] = sweep_twisted_bundles(base)
    if part in (None, "classification"):
        sections["classification"] = classification_summary()
    return sections


def _json_object(members: dict) -> str:
    """A JSON object with sorted keys, from values that are JSON text or such dicts."""
    quote = json.encoder.encode_basestring_ascii
    return "{" + ", ".join(
        f"{quote(k)}: {v if type(v) is str else _json_object(v)}"
        for k, v in sorted(members.items())
    ) + "}"


def _cmd_reproduce(args) -> int:
    sections = _reproduce(args.part)
    failures = check_ledger(sections)
    if args.machine:
        # the sorted-key line `_emit` would print, joined from each record's JSON text
        parts: dict = {}
        for name, records in sections.items():
            part, _, base = name.partition("/")
            entries = "[" + ", ".join(map(record_to_json, records)) + "]"
            if base:
                parts.setdefault(part, {})[base] = entries
            else:
                parts[part] = entries
        print(_json_object({"failures": json.dumps(failures), "parts": parts}))
    else:
        lines = []
        counts: dict[str, int] = {}
        for name, records in sections.items():
            for record in records:
                lines.append(f"[{name}] {record.context}")
                # most values are exact ints, which value_text would only str();
                # a plain loop, since a comprehension per record costs a frame
                for key, value in record.computed:
                    if type(value) is int:
                        lines.append(f"    {key} = {value}")
                    else:
                        lines.append(f"    {key} = {value_text(value)}")
                # most verdicts are geometric arguments: test for those first
                v = record.verdict
                if isinstance(v, GeometricArgument):
                    lines.append(f"    geometric argument: {v.argument}")
                elif isinstance(v, ArithmeticContradiction):
                    got = value_text(record.value(v.quantity))
                    lines.append(f"    contradiction: {v.describe()}, got {got}")
                else:
                    lines.append(f"    survives: {v.construction}")
            part = name.partition("/")[0]
            counts[part] = counts.get(part, 0) + len(records)
        summary = ", ".join(f"{name}: {n}" for name, n in counts.items())
        lines.append(f"records: {summary}")
        if "classification" in sections:
            lines.append("classification:")
            for r in sections["classification"]:
                if isinstance(r.verdict, Survives):
                    lines.append(f"    degree {r.value('degree')}: {r.verdict.construction}")
        lines.extend(f"FAILED: {failure}" for failure in failures)
        if not failures:
            lines.append("all checks passed")
        _emit({}, False, lines)
    return 2 if failures else 0


_TORIC_ACTIONS = ("validate", "degree", "singularities")


def _plain_toric_args(tokens: list[str]) -> SimpleNamespace | None:
    """argparse's attributes for `toric` and a plain argv, in a SimpleNamespace, or None.

    Plain means exactly `<fan> <action>` or `<fan> <action> --machine`,
    the fan not starting with "-": the argvs of the benchmark's fan
    workloads.  argparse takes such tokens as they stand.  Anything else
    returns None and goes to argparse: another order of the same tokens,
    which argparse reads into the same namespace, "--expect" in any
    form, help, "--", "=" forms, abbreviations, a repeated flag, a
    missing or extra positional, an unknown action.
    """
    if len(tokens) < 2 or tokens[2:] not in ([], ["--machine"]):
        return None
    fan_file, action = tokens[:2]
    if fan_file.startswith("-") or action not in _TORIC_ACTIONS:
        return None
    return SimpleNamespace(
        command="toric",
        fan_file=fan_file,
        action=action,
        expect=None,
        machine=len(tokens) == 3,
        func=_cmd_toric,
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built on the first argv that needs it and reused."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with code 2 on bad usage; this front end uses 1."""

        def error(self, message: str):  # noqa: D102 - argparse hook
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    parser = _Parser(prog="fano64", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bundle = sub.add_parser("bundle", help="rank-2 bundle calculus on a base surface")
    bundle.add_argument("--base", required=True, choices=sorted(BASES))
    bundle.add_argument(
        "--c1", required=True, help="c1 coefficients: a (P2) or a,b (F_n)"
    )
    group = bundle.add_mutually_exclusive_group(required=True)
    group.add_argument("--c2", type=_integer, help="second Chern number")
    group.add_argument(
        "--solve-degree",
        type=_integer,
        metavar="N",
        help="solve for the c2 giving anticanonical degree N",
    )
    bundle.add_argument("--machine", action="store_true", help="JSON output")
    bundle.set_defaults(func=_cmd_bundle)

    wps = sub.add_parser("wps", help="weighted projective space invariants")
    wps.add_argument("weights", type=_integer, nargs=4, metavar="W")
    wps.add_argument("--machine", action="store_true", help="JSON output")
    wps.set_defaults(func=_cmd_wps)

    toric = sub.add_parser("toric", help="fan validation and invariants")
    toric.add_argument("fan_file", help="fan file (JSON rays/cones)")
    toric.add_argument("action", choices=_TORIC_ACTIONS)
    toric.add_argument(
        "--expect",
        type=_integer,
        metavar="N",
        help="verify the computed degree equals N (exit 2 on mismatch)",
    )
    toric.add_argument("--machine", action="store_true", help="JSON output")
    toric.set_defaults(func=_cmd_toric)

    reproduce = sub.add_parser(
        "reproduce", help="run the full case ledger and classification"
    )
    reproduce.add_argument(
        "--part",
        choices=PARTS,
        help="restrict to one part of the report",
    )
    reproduce.add_argument("--machine", action="store_true", help="JSON output")
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; `argv` defaults to `sys.argv[1:]`.

    A plain `toric` argv is read by `_plain_toric_args`; every other argv
    goes through the top-level parser.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_toric_args(argv[1:]) if argv[:1] == ["toric"] else None
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # a number read or computed past the interpreter's digit limit: worded without its API
        too_long = type(exc) is ValueError and "set_int_max_str_digits" in str(exc)
        print(f"error: {_too_long() if too_long else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
