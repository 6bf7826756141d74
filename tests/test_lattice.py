import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fano64
import fano64.lattice
from fano64.lattice import _cross, _dot, _is_primitive, det3, solve3, vec_str

coords = st.integers(min_value=-50, max_value=50)
vectors = st.tuples(coords, coords, coords)


def test_vector_arithmetic():
    assert _dot((1, 2, 3), (-1, 0, 4)) == 11
    assert vec_str((1, 2, 3)) == "(1,2,3)"
    assert vec_str((-4, 0, 12)) == "(-4,0,12)"


def test_cross_product():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert _cross(e1, e2) == e3
    assert _cross(e2, e3) == e1
    assert _cross(e3, e1) == e2


def test_primitivity():
    assert _is_primitive((2, 3, 5))
    assert not _is_primitive((2, 4, 6))
    assert _is_primitive((0, 0, 1))
    assert not _is_primitive((0, 0, 0))


def test_det3_values():
    assert det3((1, 0, 0), (0, 1, 0), (0, 0, 1)) == 1
    assert det3((1, 0, 0), (0, 1, 0), (1, 1, 2)) == 2
    assert det3((1, 0, 0), (2, 0, 0), (0, 0, 1)) == 0


@given(vectors, vectors, vectors)
def test_det3_antisymmetry(a, b, c):
    assert det3(a, b, c) == -det3(b, a, c) == det3(b, c, a)


@given(vectors, vectors, vectors, vectors)
def test_det3_additivity_in_first_row(a, a2, b, c):
    a_sum = (a[0] + a2[0], a[1] + a2[1], a[2] + a2[2])
    assert det3(a_sum, b, c) == det3(a, b, c) + det3(a2, b, c)


@given(vectors, vectors)
def test_cross_is_orthogonal(a, b):
    n = _cross(a, b)
    assert _dot(n, a) == 0
    assert _dot(n, b) == 0


def _fraction_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """The rational solution of rows * m = rhs by Gaussian elimination, None when singular."""
    aug = [[Fraction(t) for t in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(3):
        pivot = next((i for i in range(col, 3) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for i in range(3):
            if i != col and aug[i][col] != 0:
                f = aug[i][col] / aug[col][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(aug[i][3] / aug[i][i] for i in range(3))


@given(vectors, vectors, vectors, st.integers(-3, 3), st.integers(-3, 3))
@example((1, 2, 3), (2, 4, 6), (0, 0, 1), 0, 0)  # parallel rows
@example((1, 0, 0), (0, 1, 0), (1, 1, 0), 1, 1)  # a row in the others' plane
@example((0, 1, 0), (2, 0, 0), (0, 0, 3), 0, 0)  # det < 0, fractional
def test_solve3_round_trip(a, b, c, p, q):
    """Cramer numerators n over the determinant d, unreduced: rows * n = (-d, -d, -d).

    n / d is the rational solution of rows * m = (-1, -1, -1), and the
    rows raise ArithmeticError exactly when they are dependent, as a, b
    and p a + q b always are.
    """
    rows = (a, b, c)
    d = det3(a, b, c)
    oracle = _fraction_solve(rows, (-1, -1, -1))
    assert (oracle is None) is (d == 0)
    if oracle is None:
        with pytest.raises(ArithmeticError):
            solve3(rows)
    else:
        n, d_solved = solve3(rows)
        assert d_solved == d
        assert all(type(t) is int for t in (*n, d_solved))
        assert tuple(_dot(r, n) for r in rows) == (-d, -d, -d)
        assert tuple(Fraction(t, d) for t in n) == oracle
    dependent = tuple(p * x + q * y for x, y in zip(a, b))
    with pytest.raises(ArithmeticError):
        solve3((a, b, dependent))


def test_solve3_fractional_solution():
    rows = ((2, 0, 0), (0, 3, 0), (0, 0, 1))
    # (-1/2, -1/3, -1) over the determinant 6
    assert solve3(rows) == ((-3, -2, -6), 6)
    # swapping two rows flips the sign of d and n, not the solution
    assert solve3((rows[1], rows[0], rows[2])) == ((3, 2, 6), -6)
    # (-1/2, -1/2, -1/2) over 2, with no diagonal row
    assert solve3(((1, 1, 0), (0, 1, 1), (1, 0, 1))) == ((-1, -1, -1), 2)
    # unreduced: (-1/2, -1/2, -1/2) as (-4, -4, -4) over 8
    assert solve3(((2, 0, 0), (0, 2, 0), (0, 0, 2))) == ((-4, -4, -4), 8)


def test_lattice_builds_no_fractions():
    """The lattice kernel is integers only: it does not import fractions at all."""
    tree = ast.parse(Path(fano64.lattice.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "fractions" not in [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"


PACKAGE_FILES = sorted(Path(fano64.__file__).resolve().parent.glob("*.py"))


def _module_name(path: Path) -> str:
    return "fano64" if path.stem == "__init__" else f"fano64.{path.stem}"


# every module of the package, so a new one cannot escape the ban
@pytest.mark.parametrize("path", PACKAGE_FILES, ids=_module_name)
def test_integer_kernels_hold_no_floats(path):
    """No float literal, no `float` name and no true division: `/` would yield a float silently."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        where = f"{_module_name(path)} line {getattr(node, 'lineno', '?')}"
        assert not isinstance(getattr(node, "op", None), ast.Div), where
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
        assert not (isinstance(node, ast.Name) and node.id == "float"), where
