"""Static checks on the package's shape.

The library carries no public function or class that only tests reach,
unless it is an independent cross-check oracle named below, and each
public name has one home, its submodule: the package namespace binds
nothing but `__version__`.  Every command starts a fresh interpreter,
so the package keeps `dataclasses` and `typing`, and the `inspect` the
first loads, out of its import: its records are `collections.namedtuple`
classes, which document each field's type as a bare annotation.  A
plain `toric` command does not load `argparse` either; every other
argv does.  No check rests on an `assert` statement, which `python -O`
drops, and the memoized functions are a fixed, named set.

Every check reads the package that `import fano64` finds, so the suite
run against an installed copy checks that copy.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import fano64

PACKAGE = Path(fano64.__file__).resolve().parent
FANS = Path(__file__).resolve().parent.parent / "fans"

# Public names that only tests call, each kept as an independent cross-check.
ORACLES = {
    "triple_intersection": "cubes a divisor class term by term, against degree_p1_bundle",
    "record_from_payload": "reads a serialized record back, against record_to_json",
}


def unreferenced_public_names(package: Path) -> set[str]:
    """Top-level public functions and classes used nowhere else in the package.

    A name counts as used when it is loaded or read as an attribute
    outside its own definition.
    """
    defined = set()
    used = set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.add(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined - used


def test_no_public_library_code_only_tests_reach():
    unreferenced = unreferenced_public_names(PACKAGE)
    # a name outside the list is test-only code; a listed name now in use,
    # or gone, leaves the list stale
    assert unreferenced == set(ORACLES), sorted(unreferenced ^ set(ORACLES))


def test_package_namespace_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    # one binding, `__version__ = "<str>"`: no import, no re-export, no helper
    rest = [ast.unparse(stmt) for stmt in tree.body[1:]]
    assert len(rest) == 1 and rest[0].startswith("__version__ = '"), rest


def test_no_module_imports_dataclasses_or_typing():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] in {"dataclasses", "typing"} for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, importers


def _fresh_cli(code: str) -> list[str]:
    """The lines `code` prints after `import fano64.cli` in a fresh interpreter.

    The interpreter reads only the directory that holds the package under
    test, writes no bytecode and skips `site`, which may load `typing`
    itself.  The child first prints the cli's path, which is checked and
    dropped.
    """
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fano64.cli; "
        "print(fano64.cli.__file__); " + code
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-S", "-c", child, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    where, *lines = done.stdout.splitlines()
    assert Path(where).parent == PACKAGE
    return lines


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_argparse():
    [loaded] = _fresh_cli(
        "print(*sorted({'dataclasses', 'inspect', 'typing', 'argparse'} & set(sys.modules)))"
    )
    assert not loaded, f"importing fano64.cli loaded {loaded}"


def test_only_an_argv_that_needs_argparse_loads_it():
    fan = FANS / "p3.fan"
    lines = _fresh_cli(
        "main = fano64.cli.main; "
        f"print(main(['toric', {str(fan)!r}, 'degree', '--machine']), 'argparse' in sys.modules); "
        "print(main(['reproduce', '--part', 'quadric-filter']), 'argparse' in sys.modules)"
    )
    assert lines[0] == '{"degree": "64", "vertices": 4}'
    assert lines[1] == "0 False", "a plain toric command loaded argparse"
    assert lines[-2:] == ["all checks passed", "0 True"]


# Each record class with its field defaults; every other field has none.
RECORDS = {
    "surfaces.BaseSurface": {"hirzebruch_n": None},
    "surfaces.SurfaceClass": {"b": 0},
    "wps.Weights": {},
    "wps.QuotientType": {},
    "toric.Fan": {},
    "toric.RationalPolytope": {},
    "toric.ConeSingularity": {"index": None, "kind": None, "witness": None, "support": None},
    "toric.FanReport": {},
    "elimination.ArithmeticContradiction": {"target": None},
    "elimination.Survives": {},
    "elimination.GeometricArgument": {},
    "elimination.CaseRecord": {},
}


def test_each_record_documents_its_fields_and_defaults():
    found = {}
    # the submodules; the package namespace binds only the version
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"fano64.{path.stem}")
        for name, cls in vars(module).items():
            if (
                isinstance(cls, type)
                and issubclass(cls, tuple)
                and hasattr(cls, "_fields")
                and not name.startswith("_")
                and cls.__module__ == module.__name__
            ):
                found[f"{path.stem}.{name}"] = cls
    assert set(found) == set(RECORDS), sorted(set(found) ^ set(RECORDS))
    for name, cls in found.items():
        # the annotations are documentation only: they must name the fields, in order
        assert tuple(cls.__annotations__) == cls._fields, name
        assert cls.__doc__, name
        assert cls._field_defaults == RECORDS[name], name
        assert vars(cls).get("__slots__") == (), name


def test_no_module_uses_an_assert_statement():
    # `python -O` drops asserts; a check must raise explicitly
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not asserts, asserts


# The only functools-memoized functions.  perfbench/tracer.py does not wrap
# a functools-cached function, so its calls vanish from the per-layer
# counts; and the ledger workload repeats one fixed input, so a cache that
# lives across calls on a builder or a calculus function would stop that
# workload measuring the layer at all.
MEMOIZED = {
    "cli._build_parser",
    "surfaces.canonical_class",
    "surfaces.k_squared",
    "elimination._argument_json",
}


_MEMOIZERS = {"cache", "lru_cache", "cached_property"}


def _memoizer_names(node: ast.AST) -> list[ast.AST]:
    return [
        n
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and n.id in _MEMOIZERS)
        or (isinstance(n, ast.Attribute) and n.attr in _MEMOIZERS)
    ]


def test_memoized_functions_are_the_named_ones():
    memoized = set()
    elsewhere = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        as_decorator = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = [n for d in node.decorator_list for n in _memoizer_names(d)]
                if found:
                    memoized.add(f"{path.stem}.{node.name}")
                    as_decorator.update(map(id, found))
        # a memoizer applied any other way, say `f = cache(f)`, is a cache too
        elsewhere += [
            f"{path.name}:{n.lineno}" for n in _memoizer_names(tree) if id(n) not in as_decorator
        ]
    assert memoized == MEMOIZED, sorted(memoized ^ MEMOIZED)
    assert not elsewhere, elsewhere
