"""Exact linear algebra in dimension 3, on int triples.

A lattice vector in Z^3 is a plain ``tuple[int, int, int]`` (``IVec``);
the helper set is ``_cross``, ``_dot`` and ``_is_primitive``
(package-internal), ``det3``, ``solve3`` and the formatter ``vec_str``.
Everything here is integer arithmetic: determinants, Cramer numerators
and gcd bookkeeping.  A rational solution is handed back as integer
numerators over a common determinant, and the caller decides whether
to reduce it.  No floating point appears anywhere in this package:
elsewhere ``fractions.Fraction`` carries every non-integer value, and
Python integers are arbitrary precision, so enumeration loops cannot
overflow.
"""

from __future__ import annotations

import math

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


def _is_primitive(v: IVec) -> bool:
    """True when gcd of the coordinates is 1; the zero vector is not primitive."""
    return math.gcd(*v) == 1


def det3(a: IVec, b: IVec, c: IVec) -> int:
    """Signed determinant of the 3x3 integer matrix with rows a, b, c."""
    return _dot(a, _cross(b, c))


def solve3(rows: tuple[IVec, IVec, IVec], rhs: IVec) -> tuple[IVec, int] | None:
    """Solve the 3x3 system rows * m = rhs by Cramer's rule, in integers.

    For rows a, b, c and right-hand side (p, q, r) the solution is n / d
    with n = p b x c + q c x a + r a x b and d = det(a, b, c), so that
    rows * n = d rhs.  Returns (n, d) unreduced, or None when the rows
    are linearly dependent (a normal outcome, not an error).
    """
    a, b, c = rows
    bc = _cross(b, c)
    d = _dot(a, bc)
    if d == 0:
        return None
    ca, ab = _cross(c, a), _cross(a, b)
    p, q, r = rhs
    return (
        (
            p * bc[0] + q * ca[0] + r * ab[0],
            p * bc[1] + q * ca[1] + r * ab[1],
            p * bc[2] + q * ca[2] + r * ab[2],
        ),
        d,
    )
