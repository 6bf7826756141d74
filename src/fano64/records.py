"""Case records, their JSON, and what a run of the ledger must satisfy.

Every case of the classification is materialized as a CaseRecord: a
context label, the case's inputs, the exactly computed quantities, and
a verdict.  Three verdicts exist and they encode an honesty contract:

* ArithmeticContradiction: the case imposes a requirement on a named
  computed quantity (integrality, an equation, an inequality) and the
  computed value violates it.  The violation is machine-checkable; the
  test suite re-verifies every one.
* Survives: the case is realized by a known construction, named.
* GeometricArgument: the case is excluded by a geometric argument that
  this package does not mechanize.  The record carries a description of
  the argument and claims nothing beyond the values actually computed.

Records are well formed by construction: `CaseRecord(...)`, `_make`,
`_replace` and `record_from_payload` refuse a context that is not a
string, a repeated key, an input that is not a pair of strings, a value,
target or verdict of another type, a verdict whose text is not a
string, and a contradiction whose quantity is absent or cannot be
evaluated: what they accept, `record_to_json` can write.  The
builders in `elimination` skip the check (`tuple.__new__`); a test holds
their records to it.  `check_ledger` is the one place that decides
whether a run of the ledger holds, on its claims alone; the command
line only prints its failures.  `record_to_json` writes a record as
`reproduce --machine` JSON text, and `record_from_payload` reads it back
to an equal record; `value_text` is how the text reports print a value.
This module imports only the standard library.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

# The anticanonical degree the ledger classifies.
DEGREE = 64


Value = int | Fraction | bool | str
_VALUE_TYPES = (int, Fraction, bool, str)  # exact types: a bool is not an int here


def value_text(v: Value) -> str:
    """How the reports print an exact value: a bool as true or false, anything else by str."""
    if type(v) is bool:
        return "true" if v else "false"
    return str(v)


class ArithmeticContradiction(
    namedtuple("ArithmeticContradiction", ["quantity", "op", "target"], defaults=[None])
):
    """The case requires `quantity op target` and the computed value fails it.

    op is one of "is-integer", "==", "!=", "<", "<=", ">", ">="; target
    is None for "is-integer".
    """

    quantity: str
    op: str
    target: Value | None
    __slots__ = ()

    def describe(self) -> str:
        if self.op == "is-integer":
            return f"{self.quantity} must be an integer"
        return f"requires {self.quantity} {self.op} {value_text(self.target)}"


class Survives(namedtuple("Survives", ["construction"])):
    """The case is realized by the named construction."""

    construction: str
    __slots__ = ()


class GeometricArgument(namedtuple("GeometricArgument", ["argument"])):
    """Excluded by a geometric argument that is described, not recomputed."""

    argument: str
    __slots__ = ()


Verdict = ArithmeticContradiction | Survives | GeometricArgument


class CaseRecord(namedtuple("CaseRecord", ["context", "inputs", "computed", "verdict"])):
    """One case: its context label, its inputs as text, its computed values, its verdict."""

    context: str
    inputs: tuple[tuple[str, str], ...]
    computed: tuple[tuple[str, Value], ...]
    verdict: Verdict
    __slots__ = ()

    def __new__(cls, context, inputs, computed, verdict):
        if type(context) is not str:
            raise TypeError(f"record {context} has a context of type {type(context).__name__}")
        _checked_pairs(context, "inputs", inputs, (str,))
        values = _checked_pairs(context, "computed", computed, _VALUE_TYPES)
        if type(verdict) is ArithmeticContradiction:
            quantity, op, target = verdict
            if quantity not in values:
                raise ValueError(f"record {context} has no computed value {quantity!r}")
            if target is not None and type(target) not in _VALUE_TYPES:
                kind = type(target).__name__
                raise TypeError(f"record {context} tests {quantity!r} against a {kind}")
            try:
                requirement_holds(values[quantity], op, target)
            except (TypeError, ValueError) as error:
                raise type(error)(f"record {context} cannot test {quantity!r}: {error}") from None
        elif type(verdict) not in (Survives, GeometricArgument):
            raise TypeError(f"record {context} has a verdict of no known kind: {verdict!r}")
        elif type(verdict[0]) is not str:
            field = verdict._fields[0]
            raise TypeError(f"record {context} has {verdict!r}, whose {field} is not a str")
        return tuple.__new__(cls, (context, inputs, computed, verdict))

    @classmethod
    def _make(cls, iterable: Iterable) -> CaseRecord:
        # namedtuple's own _make, and so _replace, would skip __new__
        return cls(*iterable)

    def value(self, key: str) -> Value:
        for k, v in self.computed:
            if k == key:
                return v
        raise KeyError(f"record {self.context} has no computed value {key!r}")


def _checked_pairs(context: str, field: str, pairs, kinds: tuple[type, ...]) -> dict:
    """The (key, value) pairs of a record field as a dict, refusing a malformed one."""
    values = {}
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2 or type(pair[0]) is not str:
            raise TypeError(f"record {context} has {field} entry {pair!r}, not a key and value")
        key, v = pair
        if type(v) not in kinds:
            raise TypeError(f"record {context} has {field} key {key!r} of type {type(v).__name__}")
        if key in values:
            raise ValueError(f"record {context} repeats the {field} key {key!r}")
        values[key] = v
    return values


# the comparison ops a requirement may state, besides "is-integer"
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def requirement_holds(value: Value, op: str, target: Value | None) -> bool:
    """Evaluate the requirement an ArithmeticContradiction claims to violate."""
    if op == "is-integer":
        if isinstance(value, bool) or isinstance(value, str):
            raise TypeError(f"integrality is not defined for {value!r}")
        return Fraction(value).denominator == 1
    if isinstance(value, str) != isinstance(target, str):
        raise TypeError(f"cannot compare {value!r} with {target!r}")
    try:
        compare = _COMPARISONS[op]
    except (KeyError, TypeError):  # TypeError: an op read from JSON may be a list
        raise ValueError(f"unknown requirement op {op!r}") from None
    return compare(value, target)


def verify_record(record: CaseRecord) -> bool:
    """Re-check a record's verdict against its own computed values.

    An ArithmeticContradiction verifies when the stored requirement
    fails on the stored value.  The other verdicts have nothing to
    re-check and verify trivially.
    """
    v = record.verdict
    if isinstance(v, ArithmeticContradiction):
        return not requirement_holds(record.value(v.quantity), v.op, v.target)
    return True


def surviving_constructions(records: Iterable[CaseRecord]) -> set[str]:
    return {
        r.verdict.construction for r in records if isinstance(r.verdict, Survives)
    }


# ---------------------------------------------------------------------------
# Ledger check

# The four parts of the ledger, in report order.
PARTS = ("p1-bundles", "quadric-filter", "twisted-sweep", "classification")

EXPECTED_SURVIVORS = {"cone over P1 x P1", "cone over F1"}


def check_ledger(sections: dict[str, list[CaseRecord]]) -> list[str]:
    """The ledger's claims on a run; returns the failure messages.

    Sections are named by part, the sweep by `twisted-sweep/<base>`.
    Every contradiction verifies.  A record carrying c2' (only sweep
    records do) has c2' < 0, chi' > 0 and, where recorded, a twist that
    preserves the degree.  p1-bundles leaves exactly the two cones, each
    with c2 = 0; classification holds seven surviving records of degree
    64.  A value a claim reads fails when absent, or when it is text and
    the claim compares numbers.  `CaseRecord` refuses malformed records.
    """
    failures = []
    for where, records in sections.items():
        for r in records:
            # the other verdicts verify trivially
            if isinstance(r.verdict, ArithmeticContradiction) and not verify_record(r):
                failures.append(f"{where}: contradiction witness failed to verify in {r.context}")
            c2_prime = chi_prime = preserved = None
            for key, value in r.computed:
                if key == "c2_prime":
                    c2_prime = value
                elif key == "chi_prime":
                    chi_prime = value
                elif key == "degree_preserved":
                    preserved = value
            if c2_prime is None:
                continue
            if type(c2_prime) is str:
                failures.append(f"{r.context}: computed value 'c2_prime' is not comparable")
            elif c2_prime >= 0:
                failures.append(f"{r.context}: c2' not negative")
            if type(chi_prime) is str:
                failures.append(f"{r.context}: computed value 'chi_prime' is not comparable")
            elif chi_prime is not None and chi_prime <= 0:
                failures.append(f"{r.context}: chi' not positive")
            if preserved is not None and preserved is not True:
                failures.append(f"{r.context}: degree not preserved by the twist")
    if "p1-bundles" in sections:
        for r in sections["p1-bundles"]:
            if isinstance(r.verdict, Survives):
                c2 = dict(r.computed).get("c2")
                if c2 is None:
                    failures.append(f"{r.context}: surviving cone has no computed c2")
                elif c2 != 0:
                    failures.append(f"{r.context}: surviving cone has c2 {c2} != 0")
        survivors = surviving_constructions(sections["p1-bundles"])
        if survivors != EXPECTED_SURVIVORS:
            failures.append(
                f"p1-bundles: survivors {sorted(survivors)} != {sorted(EXPECTED_SURVIVORS)}"
            )
    if "classification" in sections:
        records = sections["classification"]
        if len(records) != 7:
            failures.append(f"classification: {len(records)} records, expected 7")
        for r in records:
            degree = dict(r.computed).get("degree")
            if degree is None:
                failures.append(f"{r.context}: no computed degree")
            elif degree != DEGREE:
                failures.append(f"{r.context}: degree {degree} != {DEGREE}")
            if not isinstance(r.verdict, Survives):
                failures.append(f"{r.context}: unexpected verdict")
    return failures


# ---------------------------------------------------------------------------
# Record serialization (exact round-trip): the text is byte for byte
# json.dumps(payload, sort_keys=True) of the nested dicts and lists that
# record_from_payload reads; strings go through json's own ASCII escaper.


def _value_to_json(v: Value) -> str:
    # record_to_json writes the int form itself: change both together
    t = type(v)
    if t is int:
        return f'{{"t": "int", "v": {v}}}'
    if t is str:
        return f'{{"t": "str", "v": {_quote(v)}}}'
    if t is bool:
        return '{"t": "bool", "v": true}' if v else '{"t": "bool", "v": false}'
    if t is Fraction:
        return f'{{"t": "frac", "v": "{v.numerator}/{v.denominator}"}}'
    raise TypeError(f"unsupported record value {v!r}")


# Most records share one of a few geometric arguments, so each distinct
# argument's verdict text is rendered once.  The cache is keyed by the
# string, never by the verdict: verdicts are tuples, and
# Survives("x") == GeometricArgument("x").  It is bounded, since a caller
# may serialize arbitrary records.
@lru_cache(maxsize=1024)
def _argument_json(argument: str) -> str:
    return f'{{"argument": {_quote(argument)}, "kind": "geometric-argument"}}'


def record_to_json(r: CaseRecord) -> str:
    """The record as one JSON object, the text `reproduce --machine` prints for it."""
    # most values are exact ints: write those inline, in a plain loop,
    # which costs no comprehension frame
    pairs = []
    for k, v in r.computed:
        if type(v) is int:
            pairs.append(f'[{_quote(k)}, {{"t": "int", "v": {v}}}]')
        else:
            pairs.append(f"[{_quote(k)}, {_value_to_json(v)}]")
    computed = ", ".join(pairs)
    inputs = ", ".join([f"[{_quote(k)}, {_quote(v)}]" for k, v in r.inputs])
    v = r.verdict
    if isinstance(v, ArithmeticContradiction):
        target = "null" if v.target is None else _value_to_json(v.target)
        verdict = (
            f'{{"kind": "arithmetic-contradiction", "op": {_quote(v.op)}, '
            f'"quantity": {_quote(v.quantity)}, "target": {target}}}'
        )
    elif isinstance(v, Survives):
        verdict = f'{{"construction": {_quote(v.construction)}, "kind": "survives"}}'
    else:
        verdict = _argument_json(v.argument)
    head = f'{{"computed": [{computed}], "context": {_quote(r.context)}, "inputs": [{inputs}]'
    return f'{head}, "verdict": {verdict}}}'


def _value_from_payload(d: dict, context: str, key: str) -> Value:
    tag, v = d["t"], d["v"]
    if (tag, type(v)) in (("int", int), ("bool", bool), ("str", str)):
        return v
    if tag == "frac" and type(v) is str:
        num, _, den = v.partition("/")
        if num.removeprefix("-").isdecimal() and den.isdecimal() and int(den) > 0:
            q = Fraction(int(num), int(den))
            if f"{q.numerator}/{q.denominator}" == v:  # lowest terms, as written
                return q
    raise ValueError(f"record {context} has an unreadable value for {key!r}: {d!r}")


def _verdict_from_payload(d: dict, context: str) -> Verdict:
    kind = d["kind"]
    if kind == "arithmetic-contradiction":
        target = d["target"]
        if target is not None:
            target = _value_from_payload(target, context, d["quantity"])
        return ArithmeticContradiction(d["quantity"], d["op"], target)
    if kind == "survives":
        return Survives(d["construction"])
    if kind == "geometric-argument":
        return GeometricArgument(d["argument"])
    raise ValueError(f"record {context} has a verdict of no known kind: {kind!r}")


def record_from_payload(d: dict) -> CaseRecord:
    """The record a parsed `record_to_json` text describes.

    A value is read only as `record_to_json` writes it, each tag at its
    own JSON type and a fraction as p/q in lowest terms with q > 0, or
    ValueError names its key; `CaseRecord` refuses a malformed record.
    """
    context = d["context"]
    inputs = tuple([tuple(p) if type(p) is list else p for p in d["inputs"]])  # a JSON pair
    computed = tuple([(k, _value_from_payload(v, context, k)) for k, v in d["computed"]])
    return CaseRecord(context, inputs, computed, _verdict_from_payload(d["verdict"], context))
