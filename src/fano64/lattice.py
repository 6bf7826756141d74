"""Exact linear algebra in dimension 3, on int triples.

A lattice vector in Z^3 is a plain ``tuple[int, int, int]`` (``IVec``);
the helper set is ``_cross`` and ``_dot`` (package-internal), ``det3``,
``solve3`` and the formatter ``vec_str``.
Everything here is integer arithmetic: determinants, Cramer numerators
and gcd bookkeeping.  ``solve3`` solves the package's one linear system,
rows * m = (-1, -1, -1), and hands its solution back as integer
numerators over the determinant; the caller reduces it.  No floating
point appears anywhere in this package: elsewhere ``fractions.Fraction``
carries every non-integer value, and Python integers are arbitrary
precision, so enumeration loops cannot overflow.
"""

from __future__ import annotations

IVec = tuple[int, int, int]


def _cross(a: tuple[int, ...], b: tuple[int, ...]) -> IVec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vec_str(v: IVec) -> str:
    """The vector as "(x,y,z)"."""
    return f"({v[0]},{v[1]},{v[2]})"


def det3(a: IVec, b: IVec, c: IVec) -> int:
    """Signed determinant of the 3x3 integer matrix with rows a, b, c."""
    return _dot(a, _cross(b, c))


def solve3(rows: tuple[IVec, IVec, IVec]) -> tuple[IVec, int]:
    """Solve rows * m = (-1, -1, -1) by Cramer's rule, in integers.

    For rows a, b, c the solution is n / d with n = -(b x c + c x a + a x b)
    and d = det(a, b, c), so that rows * n = (-d, -d, -d).  Returns (n, d)
    unreduced; dependent rows (d = 0) raise ArithmeticError.
    """
    a, b, c = rows
    bc = _cross(b, c)
    d = _dot(a, bc)
    if d == 0:
        raise ArithmeticError(f"rows {rows} are linearly dependent")
    ca, ab = _cross(c, a), _cross(a, b)
    return (-bc[0] - ca[0] - ab[0], -bc[1] - ca[1] - ab[1], -bc[2] - ca[2] - ab[2]), d
