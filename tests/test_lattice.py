import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fano64.bundles
import fano64.cli
import fano64.elimination
import fano64.lattice
import fano64.ledger
import fano64.surfaces
import fano64.toric
import fano64.wps
from fano64.lattice import Vec3, det3, solve3

coords = st.integers(min_value=-50, max_value=50)
vectors = st.builds(Vec3, coords, coords, coords)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def test_vector_arithmetic():
    a = Vec3(1, 2, 3)
    b = Vec3(-1, 0, 4)
    assert a + b == Vec3(0, 2, 7)
    assert a - b == Vec3(2, 2, -1)
    assert -a == Vec3(-1, -2, -3)
    assert a.scaled(3) == Vec3(3, 6, 9)
    assert a.dot(b) == 11
    assert a.as_tuple() == (1, 2, 3)
    assert str(a) == "(1,2,3)"


def test_integer_coordinates_required():
    with pytest.raises(ValueError):
        Vec3(1, 2, 3.0)
    with pytest.raises(ValueError):
        Vec3(Fraction(1, 2), 0, 0)
    with pytest.raises(ValueError):
        Vec3(True, 0, 0)  # bool is an int subclass but not a coordinate


def test_cross_product():
    e1, e2, e3 = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
    assert e1.cross(e2) == e3
    assert e2.cross(e3) == e1
    assert e3.cross(e1) == e2


def test_primitivity():
    assert Vec3(2, 3, 5).is_primitive()
    assert not Vec3(2, 4, 6).is_primitive()
    assert Vec3(0, 0, 1).is_primitive()
    assert not Vec3(0, 0, 0).is_primitive()


def test_det3_values():
    assert det3(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)) == 1
    assert det3(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 1, 2)) == 2
    assert det3(Vec3(1, 0, 0), Vec3(2, 0, 0), Vec3(0, 0, 1)) == 0


@given(vectors, vectors, vectors)
def test_det3_antisymmetry(a, b, c):
    assert det3(a, b, c) == -det3(b, a, c) == det3(b, c, a)


@given(vectors, vectors, vectors, vectors)
def test_det3_additivity_in_first_row(a, a2, b, c):
    assert det3(a + a2, b, c) == det3(a, b, c) + det3(a2, b, c)


@given(vectors, vectors)
def test_cross_is_orthogonal(a, b):
    n = a.cross(b)
    assert n.dot(a) == 0
    assert n.dot(b) == 0


@given(
    vectors,
    vectors,
    vectors,
    st.tuples(rationals, rationals, rationals),
    st.tuples(coords, coords, coords),
)
def test_solve3_round_trip(a, b, c, x, ints):
    """Rational solutions, so right-hand sides with denominators; plain-int right-hand sides."""
    rows = (a, b, c)
    if det3(a, b, c) == 0:
        assert solve3(rows, (Fraction(0), Fraction(0), Fraction(0))) is None
        assert solve3(rows, ints) is None
        return
    rhs = tuple(r.x * x[0] + r.y * x[1] + r.z * x[2] for r in rows)
    assert solve3(rows, rhs) == x
    m = solve3(rows, ints)
    assert all(type(t) is Fraction for t in m)
    assert tuple(r.x * m[0] + r.y * m[1] + r.z * m[2] for r in rows) == ints


def test_solve3_fractional_solution():
    rows = (Vec3(2, 0, 0), Vec3(0, 3, 0), Vec3(0, 0, 1))
    rhs = (Fraction(1), Fraction(1), Fraction(5))
    assert solve3(rows, rhs) == (Fraction(1, 2), Fraction(1, 3), Fraction(5))
    rhs = (Fraction(1, 3), Fraction(1, 2), Fraction(-5, 4))
    assert solve3(rows, rhs) == (Fraction(1, 6), Fraction(1, 6), Fraction(-5, 4))
    assert solve3(rows, (1, -1, 0)) == (Fraction(1, 2), Fraction(-1, 3), Fraction(0))


@pytest.mark.parametrize(
    "module",
    [
        fano64.lattice,
        fano64.toric,
        fano64.elimination,
        fano64.bundles,
        fano64.surfaces,
        fano64.cli,
        fano64.wps,
        fano64.ledger,
    ],
)
def test_integer_kernels_hold_no_floats(module):
    """No float literal, no `float` name and no true division: `/` would yield a float silently."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        where = f"{module.__name__} line {getattr(node, 'lineno', '?')}"
        assert not isinstance(getattr(node, "op", None), ast.Div), where
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
        assert not (isinstance(node, ast.Name) and node.id == "float"), where
