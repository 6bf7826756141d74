"""Per-layer tracing of fano64 from outside the program.

`Tracer.install` wraps every public function of each fano64 module in
every *other* namespace that binds it: the package and the modules that
did `from .x import f`.  A call through such a binding is a
module-boundary call.  Calls inside one module are not wrapped, so they
count as that module's own time.  Classes and methods are not wrapped
either: building a dataclass counts toward the function that builds it.

Each wrapped call pushes a frame, so self time (a call's duration minus
the traced calls inside it) is exact at every level.  Most calls also
record a span (name, start, end, parent span, operation id), kept in
memory and written out at the end.  Calls into the hot leaf modules
(lattice, surfaces, bundles) are only counted and timed, not stored:
there are about 70k lattice calls per large fan and 5k surface and
bundle calls per ledger report.

Nothing under src/ changes; `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("lattice", "surfaces", "bundles", "wps", "toric", "ledger", "elimination", "cli")

AGGREGATED = frozenset({"lattice", "surfaces", "bundles"})

_VERDICT_KINDS = {
    "ArithmeticContradiction": "arithmetic",
    "Survives": "survives",
    "GeometricArgument": "geometric",
}


def _count_records(counters: Counter, records) -> None:
    for record in records:
        counters["elimination.records"] += 1
        counters["elimination.records." + _VERDICT_KINDS[type(record.verdict).__name__]] += 1


def _count_singular(counters: Counter, result) -> None:
    counters["lattice.solve3.singular"] += result is None


def _count_vertices(counters: Counter, polytope) -> None:
    counters["toric.polytope_vertices"] += len(polytope.vertices)


OBSERVERS = {
    "lattice.solve3": _count_singular,
    "toric.anticanonical_polytope": _count_vertices,
    "elimination.eliminate_p1_bundles": _count_records,
    "elimination.filter_quadric_bundle_degrees": _count_records,
    "elimination.sweep_twisted_bundles": _count_records,
    "elimination.classification_summary": _count_records,
}

# Calls whose span name carries their first argument, e.g. the sweep base.
LABELLED = frozenset({"elimination.sweep_twisted_bundles"})


class Tracer:
    """Frames, spans and per-name aggregates of the calls it wraps."""

    def __init__(self) -> None:
        # frame: [seconds spent in traced children, enclosing span id, name]
        self.stack: list[list] = [[0.0, None, None]]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.exclusive: defaultdict = defaultdict(float)
        self.calls_in: Counter = Counter()
        self.counters: Counter = Counter()
        self.per_op: defaultdict = defaultdict(lambda: defaultdict(float))
        self.spans: list = []
        self.op_id: int | None = None
        self._undo: list = []

    def _enter(self, name: str, aggregated: bool) -> list:
        parent = self.stack[-1]
        span_id = parent[1]
        if not aggregated:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id, name]
        self.stack.append(frame)
        self.calls_in[(name, parent[2])] += 1
        return frame

    def _exit(self, frame: list, start: float, end: float, aggregated: bool) -> None:
        self.stack.pop()
        parent = self.stack[-1]
        name = frame[2]
        duration = end - start
        parent[0] += duration
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.exclusive[name] += duration - frame[0]
        if not aggregated:
            self.spans[frame[1]] = (frame[1], parent[1], self.op_id, name, start, end)
            self.per_op[self.op_id][name] += duration

    def wrap(self, name: str, fn, aggregated: bool):
        observe = OBSERVERS.get(name)
        labelled = name in LABELLED
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(f"{name}.{args[0]}" if labelled else name, aggregated)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, perf(), aggregated)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int, name: str):
        """Frame and span around one call into the program, e.g. cli.main."""
        self.op_id = op_id
        frame = self._enter(name, False)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter(), False)

    def install(self, package_name: str = "fano64") -> None:
        package = sys.modules[package_name]
        modules = {m: sys.modules[f"{package_name}.{m}"] for m in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", fn, short in AGGREGATED)
                for ns in namespaces:
                    if ns is module:
                        continue
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            ns, bound, fn = self._undo.pop()
            setattr(ns, bound, fn)

    def module_self_ms(self, module: str) -> float:
        return 1000 * sum(t for name, t in self.exclusive.items() if name.split(".")[0] == module)

    def module_calls(self, module: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == module)

    def ms(self, *names: str) -> float:
        return 1000 * sum(self.inclusive[n] for n in names)
