"""Base surfaces and their divisor arithmetic.

Two families cover everything this toolkit needs: the projective plane,
with Picard group Z.L and L^2 = 1, and the Hirzebruch surfaces F_n with
basis (h, l), where h is the minimal section and l the fiber:

    h^2 = -n,  h.l = 1,  l^2 = 0.

F_0 is P^1 x P^1 with h, l the two rulings.  The canonical class is -3L
on the plane and -(2h + (n+2)l) on F_n; the nef cone is spanned by L,
respectively by l and h + nl.

Only `SurfaceClass.__new__` checks that a class on the plane has b = 0.
A sum, difference, negative or multiple of classes that passed it keeps
b = 0 on the plane, so the operators build their result with
`tuple.__new__` and skip the check; the ledger builds most of its
classes this way.  Sums, differences and `intersect` still check for a
common surface first, inline: the ledger runs them on every case.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

class BaseSurface(namedtuple("BaseSurface", ["hirzebruch_n"], defaults=[None])):
    """The projective plane (hirzebruch_n is None) or F_n (n >= 0)."""

    hirzebruch_n: int | None
    __slots__ = ()

    def __new__(cls, hirzebruch_n: int | None = None) -> BaseSurface:
        n = hirzebruch_n
        if n is not None and (type(n) is not int or n < 0):
            raise ValueError(f"Hirzebruch index must be a non-negative int, got {n!r}")
        return tuple.__new__(cls, (n,))

    @property
    def is_plane(self) -> bool:
        return self.hirzebruch_n is None

    @property
    def n(self) -> int:
        if self.hirzebruch_n is None:
            raise ValueError("the projective plane has no Hirzebruch index")
        return self.hirzebruch_n

    def __str__(self) -> str:
        return "P2" if self.is_plane else f"F{self.hirzebruch_n}"


P2 = BaseSurface()
F0 = BaseSurface(0)
F1 = BaseSurface(1)
F2 = BaseSurface(2)
F3 = BaseSurface(3)
F4 = BaseSurface(4)

# The one name -> surface table; names are the surfaces' own str().
BASES = {str(s): s for s in (P2, F0, F1, F2, F3, F4)}


class SurfaceClass(namedtuple("SurfaceClass", ["surface", "a", "b"], defaults=[0])):
    """A divisor class: a*L on the plane, a*h + b*l on F_n.

    Classes combine (add, intersect) only with classes on the same surface.
    """

    surface: BaseSurface
    a: int
    b: int
    __slots__ = ()

    def __new__(cls, surface: BaseSurface, a: int, b: int = 0) -> SurfaceClass:
        if surface.hirzebruch_n is None and b != 0:
            raise ValueError("classes on the plane have a single coefficient")
        return tuple.__new__(cls, (surface, a, b))

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        s, t = self.surface, other.surface
        if s is not t and s != t:
            raise _different_surfaces(s, t)
        return tuple.__new__(SurfaceClass, (s, self.a + other.a, self.b + other.b))

    def __sub__(self, other: "SurfaceClass") -> "SurfaceClass":
        s, t = self.surface, other.surface
        if s is not t and s != t:
            raise _different_surfaces(s, t)
        return tuple.__new__(SurfaceClass, (s, self.a - other.a, self.b - other.b))

    def __neg__(self) -> "SurfaceClass":
        return tuple.__new__(SurfaceClass, (self.surface, -self.a, -self.b))

    def __mul__(self, k: int):
        # only k * c scales; c * k would otherwise repeat the tuple
        return NotImplemented

    def __rmul__(self, k: int) -> "SurfaceClass":
        return tuple.__new__(SurfaceClass, (self.surface, k * self.a, k * self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.surface.is_plane:
            if not self.a:
                return "0"
            return f"{'' if self.a == 1 else '-' if self.a == -1 else self.a}L"
        terms = []
        if self.a:
            terms.append(f"{'' if self.a == 1 else '-' if self.a == -1 else self.a}h")
        if self.b:
            sign = "+" if (self.b > 0 and terms) else ""
            terms.append(f"{sign}{'' if self.b == 1 else '-' if self.b == -1 else self.b}l")
        return "".join(terms) or "0"


def _different_surfaces(s: BaseSurface, t: BaseSurface) -> ValueError:
    """The error for combining classes on two surfaces; built only on a mismatch."""
    return ValueError(f"classes live on different surfaces: {s} vs {t}")


def intersect(d1: SurfaceClass, d2: SurfaceClass) -> int:
    """The intersection form: L^2 = 1 on the plane; h^2 = -n, h.l = 1, l^2 = 0."""
    s, t = d1.surface, d2.surface
    if s is not t and s != t:
        raise _different_surfaces(s, t)
    n = s.hirzebruch_n
    if n is None:
        return d1.a * d2.a
    return -n * d1.a * d2.a + d1.a * d2.b + d1.b * d2.a


@cache
def canonical_class(s: BaseSurface) -> SurfaceClass:
    """K: -3L on the plane, -(2h + (n+2)l) on F_n.

    Cached per surface: surfaces are immutable and hashable, and the
    class returned is immutable, so every caller may share it.
    """
    if s.is_plane:
        return SurfaceClass(s, -3)
    return SurfaceClass(s, -2, -(s.n + 2))


@cache
def k_squared(s: BaseSurface) -> int:
    """K^2: 9 for the plane, 8 for every F_n."""
    k = canonical_class(s)
    return intersect(k, k)


def nef_cone_generators(s: BaseSurface) -> tuple[SurfaceClass, ...]:
    """Extremal nef classes: (L) on the plane, (l, h + nl) on F_n."""
    if s.is_plane:
        return (SurfaceClass(s, 1),)
    return (SurfaceClass(s, 0, 1), SurfaceClass(s, 1, s.n))
