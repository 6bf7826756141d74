"""Static checks on the package's shape.

The library carries no public function or class that only tests reach,
unless it is an independent cross-check oracle named below, and each
public name has one home, its submodule: the package namespace binds
nothing but `__version__`.  Every command starts a fresh interpreter,
so the package keeps `dataclasses`, and the `inspect` it loads, out of
its import.
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
