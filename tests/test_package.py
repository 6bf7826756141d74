"""Static checks on the package's shape.

The library carries no public function or class that only tests reach,
unless it is an independent cross-check oracle named below, and each
public name has one home, its submodule: the package namespace binds
nothing but `__version__`.  Every command starts a fresh interpreter,
so the package keeps `dataclasses`, and the `inspect` it loads, out of
its import.  No check rests on an `assert` statement, which `python -O`
drops, and the memoized functions are a fixed, named set.
"""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fano64"

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


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "dataclasses" for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, importers


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter that reads src/ only and writes no bytecode
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fano64.cli; "
        "print(fano64.cli.__file__); "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-B", "-c", child, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    where, loaded = done.stdout.splitlines()
    assert Path(where).parent == PACKAGE
    assert not loaded, f"importing fano64.cli loaded {loaded}"


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
