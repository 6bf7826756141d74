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


def det3(a: Vec3, b: Vec3, c: Vec3) -> int:
    """Signed determinant of the 3x3 integer matrix with rows a, b, c."""
    return (
        a.x * (b.y * c.z - b.z * c.y)
        - a.y * (b.x * c.z - b.z * c.x)
        + a.z * (b.x * c.y - b.y * c.x)
    )


def solve3(
    rows: tuple[Vec3, Vec3, Vec3],
    rhs: tuple[Fraction | int, Fraction | int, Fraction | int],
) -> QVec | None:
    """Solve the 3x3 system rows * m = rhs exactly, by Cramer's rule.

    The work runs in integers.  Scaled by the lcm L of its denominators,
    the right-hand side becomes integers (p, q, r); for rows a, b, c the
    solution is (p b x c + q c x a + r a x b) / (d L) with d = det(a, b, c),
    and one Fraction is built per coordinate.  Returns the unique
    rational solution, or None when the rows are linearly dependent (a
    normal outcome, not an error).
    """
    a, b, c = rows
    bc = (b.y * c.z - b.z * c.y, b.z * c.x - b.x * c.z, b.x * c.y - b.y * c.x)
    d = a.x * bc[0] + a.y * bc[1] + a.z * bc[2]
    if d == 0:
        return None
    ca = (c.y * a.z - c.z * a.y, c.z * a.x - c.x * a.z, c.x * a.y - c.y * a.x)
    ab = (a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x)
    lcm = math.lcm(*(t.denominator for t in rhs))
    p, q, r = (t.numerator * (lcm // t.denominator) for t in rhs)
    d *= lcm
    return (
        Fraction(p * bc[0] + q * ca[0] + r * ab[0], d),
        Fraction(p * bc[1] + q * ca[1] + r * ab[1], d),
        Fraction(p * bc[2] + q * ca[2] + r * ab[2], d),
    )
