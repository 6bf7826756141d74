"""Case-analysis engine for the degree-64 classification.

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

The ledger is built at the one degree the paper classifies, DEGREE =
64, so its builders take no degree parameter.  The enumerations
themselves (parity representatives and the verdict each one's treatment
states, coefficient bounds, the Euler-characteristic targets
CHI_TARGETS) are stored as data so each case is reproducible and
individually addressable.

Records are well formed by construction: `CaseRecord(...)`, `_make`,
`_replace` and `record_from_payload` refuse a context that is not a
string, a repeated key, an input that is not a pair of strings, a value,
target or verdict of another type, a verdict whose text is not a
string, and a contradiction whose quantity is absent or cannot be
evaluated: what they accept, `record_to_json` can write.  The
builders skip the check (`tuple.__new__`); a test holds their records
to it.  `check_ledger` is the one place that decides whether a run of
the ledger holds, on its claims alone; the command line only prints its
failures.  `record_to_json` writes a record as `reproduce --machine`
JSON text, and `record_from_payload` reads it back to an equal record.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .bundles import (
    c1_nef_dominated,
    chi_rank2,
    degree_p1_bundle,
    kg2_integral,
    p1_bundle_anticanonical,
    rr_dim_anticanonical,
    scroll_degree,
    solve_c2_for_degree,
    split_gap_bound_holds,
    twist,
)
from .ledger import blowup_curve_degree, genus_of_degree, project_from_center
from .surfaces import (
    F0,
    F1,
    F2,
    F3,
    F4,
    P2,
    BaseSurface,
    SurfaceClass,
    intersect,
    k_squared,
)
from .wps import Weights, wps_degree

Value = int | Fraction | bool | str
_VALUE_TYPES = (int, Fraction, bool, str)  # exact types: a bool is not an int here


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
        return f"requires {self.quantity} {self.op} {self.target}"


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


def _exact(q: Fraction) -> int | Fraction:
    """A rational as recorded: an int when integral, else the Fraction."""
    return int(q) if q.denominator == 1 else q


def _record(
    context: str,
    inputs: dict[str, object],
    computed: dict[str, Value],
    verdict: Verdict,
) -> CaseRecord:
    # unchecked, for speed: the keys come from dicts, and a test holds every record to __new__
    inputs_text = tuple([(k, str(v)) for k, v in inputs.items()])
    return tuple.__new__(CaseRecord, (context, inputs_text, tuple(computed.items()), verdict))


# ---------------------------------------------------------------------------
# Rank-2 bundle elimination over minimal rational surfaces


# The anticanonical degree the ledger classifies.
DEGREE = 64

# The cones that survive, by base: the construction's name and the c1
# of its rank-2 bundle, whose c2 is 0.  The "cone" rows below, their
# verdicts and the cone records of the classification read this table.
_SURVIVING_CONES: dict[BaseSurface, tuple[str, SurfaceClass]] = {
    F0: ("cone over P1 x P1", SurfaceClass(F0, 2, 2)),
    F1: ("cone over F1", SurfaceClass(F1, 2, 3)),
}

# Parity representatives of c1 on each admissible base.  Each row:
# (base, parity label, representative c1 or None, treatment).  The
# treatment fixes the verdict: "solve" is a non-integral c2,
# "anticanonical-section" a plane section with the wrong K^2, "cone" a
# surviving cone, and "section-patching" and the external rows are
# geometric arguments.
_PARITY_TABLE: tuple[tuple[BaseSurface, str, SurfaceClass | None, str], ...] = (
    (P2, "even", SurfaceClass(P2, 0), "solve"),
    (P2, "odd", SurfaceClass(P2, 3), "anticanonical-section"),
    (F0, "even-even", _SURVIVING_CONES[F0][1], "cone"),
    (F0, "odd", None, "external-parity"),
    (F2, "even-even", SurfaceClass(F2, -2, -2), "section-patching"),
    (F2, "odd", None, "external-then-patching"),
    (F1, "odd-even", SurfaceClass(F1, 1, 0), "solve"),
    (F1, "odd-odd", SurfaceClass(F1, 1, 1), "solve"),
    (F1, "even-odd", _SURVIVING_CONES[F1][1], "cone"),
    (F1, "even-even", SurfaceClass(F1, -2, -2), "section-patching"),
)

_EXTERNAL_ARGUMENTS = {
    "external-parity": (
        "an odd c1 pairs oddly with a ruling, and the splitting "
        "analysis on that ruling excludes the bundle (external)"
    ),
    "external-then-patching": (
        "c2 = -2 follows from the splitting analysis over the "
        "rulings (external); the section/patching exclusion then "
        "runs as in the even case"
    ),
}

_PATCHING_ARGUMENT = (
    "chi = 2 forces a nonzero section by Serre duality; its "
    "zero locus is vertical (fiber splitting degree 0 is the "
    "only one passing the gap bound), and the horizontal "
    "patching normalization 2q+2 = 0 is unsatisfiable"
)


def _forced_vertical_splitting(c1_fiber_degree: int, fiber_self: int) -> tuple[int, ...]:
    """Splitting degrees q >= 0 on a fiber allowed by the gap bound.

    The restriction to a fiber splits as O(q) (+) O(c - q), c = c1.fiber,
    and the movable-curve gap bound |2q - c| <= 2 + Z^2 confines q to
    (c - 2 - Z^2) / 2 <= q <= (c + 2 + Z^2) / 2.  The candidates are
    the q >= 0 in that window, and the bound itself still prunes them.
    """
    gap = 2 + fiber_self
    lowest = max(0, -((gap - c1_fiber_degree) // 2))  # the ceiling of (c - gap) / 2
    candidates = range(lowest, (c1_fiber_degree + gap) // 2 + 1)
    return tuple(
        q for q in candidates if split_gap_bound_holds(q, c1_fiber_degree - q, fiber_self)
    )


def eliminate_p1_bundles() -> list[CaseRecord]:
    """Run the parity case analysis for P1-bundles of degree 64.

    One record per (base, parity class of c1), with the normalized c1
    representative and the verdict its treatment states.  Integrality
    of the solved c2 and the section-locus arithmetic are claimed as
    contradictions, which `check_ledger` re-verifies; the remaining
    exclusions are recorded as geometric arguments.
    """
    records: list[CaseRecord] = []
    for base, parity, c1, treatment in _PARITY_TABLE:
        context = f"p1-bundle/{base}/{parity}"
        inputs = {
            "base": base,
            "c1": c1 if c1 is not None else "(any in parity class)",
            "target_degree": DEGREE,
        }
        if c1 is None:
            argument = GeometricArgument(_EXTERNAL_ARGUMENTS[treatment])
            records.append(_record(context, inputs, {}, argument))
            continue

        c2 = _exact(solve_c2_for_degree(c1, DEGREE))
        computed: dict[str, Value] = {
            "degree_at_c2_0": degree_p1_bundle(c1, 0),
            "c2": c2,
        }
        if treatment == "solve":
            verdict: Verdict = ArithmeticContradiction("c2", "is-integer")
            records.append(_record(context, inputs, computed, verdict))
            continue
        computed["minus_k"] = p1_bundle_anticanonical(c1)
        if treatment == "anticanonical-section":
            # c1 = -K makes -K_Y = 2D; the section D carries K_D^2 = D^3,
            # which the degree pins to 64/8, yet D is a plane.
            computed["k_d_squared"] = _exact(Fraction(DEGREE, 8))
            computed["k_squared_of_base"] = k_squared(base)
            verdict = ArithmeticContradiction("k_d_squared", "==", k_squared(base))
        elif treatment == "cone":
            verdict = Survives(_SURVIVING_CONES[base][0])
        else:  # section-patching
            computed["chi"] = chi_rank2(c1, c2)
            fiber = SurfaceClass(base, 0, 1)
            allowed = _forced_vertical_splitting(
                intersect(c1, fiber), intersect(fiber, fiber)
            )
            computed["fiber_splittings_allowed"] = ",".join(map(str, allowed)) or "none"
            verdict = GeometricArgument(_PATCHING_ARGUMENT)
        records.append(_record(context, inputs, computed, verdict))
    return records


def surviving_constructions(records: Iterable[CaseRecord]) -> set[str]:
    return {
        r.verdict.construction for r in records if isinstance(r.verdict, Survives)
    }


# ---------------------------------------------------------------------------
# Degree filter for quadric-bundle candidates

# Candidates have dim |-K| >= 34, i.e. degree >= 64, up to the maximum 72.
_QUADRIC_MIN_DIM = 34
_QUADRIC_MAX_DEGREE = 72

# The geometric exclusion of each candidate degree divisible by 8.
_QUADRIC_FILTER_ARGUMENTS = {
    72: (
        "comparing Picard ranks of terminal modifications on the two sides "
        "of the quadric-bundle structure rules this degree out"
    ),
    64: (
        "here the anticanonical model admits a small contraction, forcing "
        "the variety to be P3, which carries no such bundle structure"
    ),
}


def filter_quadric_bundle_degrees() -> list[CaseRecord]:
    """Filter candidate anticanonical degrees for quadric-bundle threefolds.

    Candidates are the even degrees from 64 to 72, those whose
    anticanonical system has dimension at least 34.  Each candidate gets
    the eighth-of-degree integrality test (the K^2 of the base of a
    general elephant); survivors carry the degree-specific geometric
    exclusion.
    """
    records = []
    lowest = 2 * (_QUADRIC_MIN_DIM - 2)
    for degree in range(lowest, _QUADRIC_MAX_DEGREE + 1, 2):
        context = f"quadric-filter/degree-{degree}"
        inputs = {
            "degree": degree,
            "min_dim": _QUADRIC_MIN_DIM,
            "max_degree": _QUADRIC_MAX_DEGREE,
        }
        computed: dict[str, Value] = {
            "rr_dim": rr_dim_anticanonical(degree),
            "degree_eighth": _exact(Fraction(degree, 8)),
            "degree_eighth_integral": kg2_integral(degree),
        }
        if kg2_integral(degree):
            verdict: Verdict = GeometricArgument(_QUADRIC_FILTER_ARGUMENTS[degree])
        else:
            verdict = ArithmeticContradiction("degree_eighth", "is-integer")
        records.append(_record(context, inputs, computed, verdict))
    return records


# ---------------------------------------------------------------------------
# Twisted-bundle sweep over minimal rational surfaces

SWEEP_BASES = (P2, F0, F2, F3, F4)
# the Euler characteristics chi of the rank-2 bundles the sweep exhausts
CHI_TARGETS = range(32, 37)

_SECTION_EXCLUSION = (
    "c2' < 0 and chi' > 0 give the twisted bundle a nonzero section with "
    "1-dimensional zero locus; the splitting/patching analysis excludes it"
)


def _hirzebruch_coefficient_range(n: int) -> list[tuple[int, int]]:
    """Feasible (a, b) for c1 = a h + b l: 0 <= a <= 2 and a n <= b <= n + 2.

    The lower bounds come from nefness of the tautological divisor, the
    upper bounds from base-component-freeness of the anticanonical
    system restricted over a ruling.
    """
    return [(a, b) for a in range(0, 3) for b in range(a * n, n + 3)]


def _negative_parity_part(x: int) -> int:
    """The representative of x mod 2 in {-2, -1}."""
    return -2 if x % 2 == 0 else -1


def sweep_twisted_bundles(base: BaseSurface) -> list[CaseRecord]:
    """Exhaust the Chern-class cases for rank-2 bundles with many sections.

    For a Hirzebruch base every feasible (a, b, chi) determines c2
    exactly from Riemann-Roch; twisting c1 into the negative square
    {-2, -1}^2 then yields c2' < 0 and chi' > 0 in every single case,
    which the records document value by value.  For the plane the same
    is done through the parity normalization of c1.  The final
    exclusion in each surviving case is the recorded section argument.

    The bundle calculus runs once per c1, on the bundle with c2 = 0 and
    its twist, and once per twisted parity corner (a', b') in
    {-2, -1}^2, on the corner class with c2 = 0.  Each case and each chi
    in CHI_TARGETS then steps in integers, by three affine facts: chi
    has slope -1 in c2 (so c2 = chi(c2 = 0) - chi, and chi' =
    chi(c1', 0) - c2'), the twist by B gives c2' = c2 + c1.B + B^2, and
    the degree has slope -8 in c2 (so deg(c1', c2') = deg(c1', 0) -
    8 c2', and the gap between the twisted and the untwisted bundle does
    not depend on c2).  Each (a, b) case builds its records for every
    chi in one place, and the report interleaves them chi by chi.
    """
    if base not in SWEEP_BASES:
        *others, last = map(str, SWEEP_BASES)
        raise ValueError(f"unsupported base {base}; expected {', '.join(others)} or {last}")
    if base.is_plane:
        return _sweep_plane()
    return _sweep_hirzebruch(base)


def _sweep_hirzebruch(base: BaseSurface) -> list[CaseRecord]:
    # per parity corner (a', b'): its chi and degree at c2 = 0, and the
    # c2' of every case twisting to it
    corners: dict[tuple[int, int], tuple[int, int, list[int]]] = {}
    base_text = str(base)
    argument = GeometricArgument(_SECTION_EXCLUSION)
    # each chi with its text and its input pair, built once per call
    chis = [(chi, text, (("chi", text),)) for chi in CHI_TARGETS for text in [str(chi)]]
    per_case = []
    for a, b in _hirzebruch_coefficient_range(base.n):
        c1 = SurfaceClass(base, a, b)
        a_p, b_p = _negative_parity_part(a), _negative_parity_part(b)
        p, q = (a - a_p) // 2, (b - b_p) // 2
        # shift = c1.B + B^2 is c2' at c2 = 0, the shift from c2 to c2'
        c1_p, shift = twist(c1, 0, SurfaceClass(base, -p, -q))
        if c1_p != (base, a_p, b_p):  # a class equals the tuple of its fields
            corner_class = SurfaceClass(base, a_p, b_p)
            raise ArithmeticError(f"twisting {c1} gives {c1_p}, off its corner {corner_class}")
        corner = corners.get((a_p, b_p))
        if corner is None:
            corner = corners[a_p, b_p] = (chi_rank2(c1_p, 0), degree_p1_bundle(c1_p, 0), [])
        chi_corner, degree_corner, c2_primes = corner
        chi_at_zero = chi_rank2(c1, 0)
        chi_p_at_zero = chi_corner - shift  # chi' at c2 = 0
        head = f"twisted-sweep/{base_text}/a={a}/b={b}/chi="
        inputs = (("base", base_text), ("c1", str(c1)))
        # the pairs that do not depend on chi, shared by the case's records
        a_pair, b_pair = ("a_prime", a_p), ("b_prime", b_p)
        preserved = ("degree_preserved", degree_corner - 8 * shift == degree_p1_bundle(c1, 0))
        case_records = []
        for chi, chi_text, chi_input in chis:
            c2 = chi_at_zero - chi
            c2_prime = c2 + shift
            c2_primes.append(c2_prime)
            # built as `_record` builds, from the final fields
            case_records.append(
                tuple.__new__(
                    CaseRecord,
                    (
                        head + chi_text,
                        inputs + chi_input,
                        (
                            ("c2", c2),
                            a_pair,
                            b_pair,
                            ("c2_prime", c2_prime),
                            ("chi_prime", chi_p_at_zero - c2),
                            preserved,
                        ),
                        argument,
                    ),
                )
            )
        per_case.append(case_records)
    # the report lists the records chi by chi
    records = [r for same_chi in zip(*per_case) for r in same_chi]
    # chi' is an affine function chi' = threshold - c2' on each twisted
    # parity corner, so chi' <= 0 would need c2' >= threshold.  A corner
    # with threshold <= -1 is compatible with c2' < 0 and needs its own
    # certificate: the subfamily's largest c2' stays strictly below it.
    for (a_p, b_p), (threshold, _, values) in sorted(corners.items()):
        if threshold > -1:
            continue
        records.append(
            _record(
                f"twisted-sweep/{base}/corner({a_p},{b_p})",
                {
                    "base": base,
                    "subfamily": f"(a, b) twisting to (a', b') = ({a_p}, {b_p})",
                    "chi": ",".join(map(str, CHI_TARGETS)),
                },
                {
                    "corner_cases": len(values),
                    "chi_prime_zero_needs": threshold,
                    "c2_prime_max": max(values),
                },
                ArithmeticContradiction("c2_prime_max", ">=", threshold),
            )
        )
    return records


def _sweep_plane() -> list[CaseRecord]:
    records = []
    # Decomposable bundles O(a) (+) O(a+b): nefness and the ruling bound
    # confine (a, b) to a >= 0, b >= 0, 2a + b <= 3, and the largest
    # Euler characteristic in that box falls far short of every target.
    chi_values = {}
    for a in range(0, 2):
        for b in range(0, 4 - 2 * a):
            chi_values[(a, b)] = chi_rank2(SurfaceClass(P2, 2 * a + b), a * (a + b))
    chi_max = max(chi_values.values())
    records.append(
        _record(
            "twisted-sweep/P2/decomposable",
            {"base": P2, "family": "O(a)+O(a+b), a>=0, b>=0, 2a+b<=3"},
            {
                "cases": len(chi_values),
                "chi_max": chi_max,
            },
            ArithmeticContradiction("chi_max", ">=", min(CHI_TARGETS)),
        )
    )
    # c1 = 9 saturates the nef-domination bound and is decomposable by
    # an external splitting argument, so 0 <= c1 <= 8 from here on.
    records.append(
        _record(
            "twisted-sweep/P2/c1-boundary",
            {"base": P2, "c1": SurfaceClass(P2, 9)},
            {"nef_dominated": c1_nef_dominated(SurfaceClass(P2, 9))},
            GeometricArgument(
                "c1 = 9 attains the nef-domination bound and such a bundle "
                "splits (external), reducing to the decomposable case; "
                "indecomposable bundles have 0 <= c1 <= 8"
            ),
        )
    )
    argument = GeometricArgument(
        "c2' < 0 makes chi of the twisted bundle positive "
        "via Serre duality, so it has a section; the zero-"
        "locus analysis excludes it (external)"
    )
    # Parity split of 0 <= c1 <= 8: odd c1 = 2m - 3 and even c1 = 2m - 2.
    for parity, c1_of_m, m_range in (
        ("odd", lambda m: 2 * m - 3, range(2, 6)),
        ("even", lambda m: 2 * m - 2, range(1, 6)),
    ):
        for m in m_range:
            c1 = SurfaceClass(P2, c1_of_m(m))
            c1_twisted, shift = twist(c1, 0, SurfaceClass(P2, -m))
            chi_at_zero = chi_rank2(c1, 0)
            head = f"twisted-sweep/P2/{parity}/m={m}/chi="
            inputs = (("base", str(P2)), ("c1", str(c1)), ("m", str(m)))
            for chi in CHI_TARGETS:
                chi_text = str(chi)
                c2 = chi_at_zero - chi
                records.append(
                    tuple.__new__(
                        CaseRecord,
                        (
                            head + chi_text,
                            inputs + (("chi", chi_text),),
                            (
                                ("c2", c2),
                                ("c1_twisted", c1_twisted.a),
                                ("c2_prime", c2 + shift),
                            ),
                            argument,
                        ),
                    )
                )
    return records


# ---------------------------------------------------------------------------
# Classification summary


# The computed degree of each kind of construction in the summary.
_CONSTRUCTION_DEGREES = ("wps_degree", "bundle_degree", "projected_degree")


def classification_summary() -> list[CaseRecord]:
    """The seven constructions of anticanonical degree 64.

    Each record recomputes its own degree ledger from the source
    construction: the weighted projective spaces through their degree
    formula and tangent-space projections, the cones through the bundle
    degree formula, and the two projected families through the scroll
    and blow-up bookkeeping.  A record's degree is that computed degree,
    and its genus (`genus_of_degree`) and ambient dimension genus + 1
    follow from it exactly, so a wrong degree shows in all three.
    """
    records = []

    def add(label: str, inputs: dict[str, object], computed: dict[str, Value]) -> None:
        # the degree is the construction's own: exactly one of these keys
        (degree,) = (computed[k] for k in _CONSTRUCTION_DEGREES if k in computed)
        genus = genus_of_degree(degree)
        computed = dict(computed)
        computed.update({"degree": degree, "genus": genus, "ambient_dim": genus + 1})
        records.append(
            _record(f"classification/{label}", inputs, computed, Survives(label))
        )

    p3 = Weights(1, 1, 1, 1)
    add("P3", {"weights": p3}, {"wps_degree": int(wps_degree(p3))})

    for base, (label, c1) in _SURVIVING_CONES.items():
        add(label, {"base": base, "c1": c1, "c2": 0}, {"bundle_degree": degree_p1_bundle(c1, 0)})

    for weights in (Weights(3, 1, 1, 1), Weights(6, 4, 1, 1)):
        source = int(wps_degree(weights))
        add(
            f"{weights} projected from a tangent space",
            {"weights": weights, "center_dim": 3},
            {"source_degree": source, "projected_degree": project_from_center(source, 3)},
        )

    # X70: the degree-72 family projected from a cDV point, then from a
    # plane; equivalently the blow-up of a conic drops 70 to 64.
    seventy = project_from_center(72, 0)
    add(
        "X70 projected from a plane",
        {"source_degree": 72, "steps": "point projection, then plane projection"},
        {
            "intermediate_degree": seventy,
            "projected_degree": project_from_center(seventy, 2),
            "conic_blowup_degree": blowup_curve_degree(seventy, 2, 0),
        },
    )

    # X66: built by the scroll ledger 54 -> 62 -> 66 -> 66, then
    # projected from a cDV point.
    chain = [scroll_degree((5, 2, 0))]
    for minus_k_dot_c in (-5, -3, -1):
        chain.append(blowup_curve_degree(chain[-1], minus_k_dot_c, 0))
    sixty_six = chain[-1]
    add(
        "X66 projected from a cDV point",
        {"source": "rank-3 scroll (5,2,0)", "center_dim": 0},
        {
            "scroll_chain": "->".join(map(str, chain)),
            "source_degree": sixty_six,
            "projected_degree": project_from_center(sixty_six, 0),
        },
    )

    return records


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
