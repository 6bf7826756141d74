"""Exact linear algebra in dimension 3.

Everything downstream reduces to integer determinants, Cramer solves over
the rationals, and gcd bookkeeping.  No floating point appears anywhere in
this package: ``fractions.Fraction`` carries every non-integer value and
keeps it in lowest terms with a positive denominator, and Python integers
are arbitrary precision, so enumeration loops cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

QVec = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Vec3:
    """A lattice vector in Z^3."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        for coord in (self.x, self.y, self.z):
            # bool is an int subclass; reject it along with everything else
            if type(coord) is not int:
                raise ValueError(f"lattice coordinate must be an int, got {coord!r}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scaled(self, k: int) -> "Vec3":
        return Vec3(k * self.x, k * self.y, k * self.z)

    def dot(self, other: "Vec3") -> int:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def is_primitive(self) -> bool:
        """True when gcd(|x|, |y|, |z|) = 1.  The zero vector is not primitive."""
        return math.gcd(self.x, self.y, self.z) == 1

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


def pairing(point: QVec, v: Vec3) -> Fraction:
    """<m, v> for a rational point m and a lattice vector v."""
    return point[0] * v.x + point[1] * v.y + point[2] * v.z


def det3(a: Vec3, b: Vec3, c: Vec3) -> int:
    """Signed determinant of the 3x3 integer matrix with rows a, b, c."""
    return (
        a.x * (b.y * c.z - b.z * c.y)
        - a.y * (b.x * c.z - b.z * c.x)
        + a.z * (b.x * c.y - b.y * c.x)
    )


def _det3q(m: list[list[Fraction]]) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def solve3(
    rows: tuple[Vec3, Vec3, Vec3],
    rhs: tuple[Fraction | int, Fraction | int, Fraction | int],
) -> QVec | None:
    """Solve the 3x3 system rows * m = rhs exactly, by Cramer's rule.

    Returns the unique rational solution, or None when the rows are
    linearly dependent (a normal outcome, not an error).
    """
    d = det3(*rows)
    if d == 0:
        return None
    base = [[Fraction(v.x), Fraction(v.y), Fraction(v.z)] for v in rows]
    b = [Fraction(t) for t in rhs]
    out = []
    for j in range(3):
        col = [[b[i] if k == j else base[i][k] for k in range(3)] for i in range(3)]
        out.append(_det3q(col) / d)
    return (out[0], out[1], out[2])
