"""Chern-class calculus on projectivized bundles.

The central objects are projectivizations Y = P(E) of a rank-2 bundle E
over a base surface, carrying the tautological class D and the pullback
of divisors from the base.  The relative Euler sequence gives

    -K_Y = 2D + pi*(-K_S - c1(E)),

and the Grothendieck relation D^2 = D.pi*c1 - pi*c2 reduces every triple
product to intersection numbers on the base:

    D^3 = c1^2 - c2,   D^2.pi*B = c1.B,   D.(pi*B)^2 = B^2.

All arithmetic is exact: integers in, integers (or Fractions) out.

Rank-3 scrolls over the line are handled by the same mechanism one
rank up: for P(O(d1) (+) O(d2) (+) O(d3)) with tautological class M and
fiber F, the normalization d3 = 0 gives M^3 = d1 + d2 + d3 and
M^2.F = 1, with all higher powers of F vanishing.  Only their
anticanonical degree is needed, and it is 54 for every splitting type,
so `scroll_degree` takes the splitting triple as plain integers and
checks nothing about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surfaces import (
    BaseSurface,
    SurfaceClass,
    anticanonical_class,
    canonical_class,
    intersect,
    k_squared,
    nef_cone_generators,
)


@dataclass(frozen=True)
class RankTwoBundle:
    """Chern data (c1, c2) of a rank-2 bundle on a base surface.

    Only the Chern classes enter any computation here, so this is the
    whole bundle as far as intersection theory is concerned.
    """

    base: BaseSurface
    c1: SurfaceClass
    c2: int

    def __post_init__(self) -> None:
        if not (self.c1.surface is self.base or self.c1.surface == self.base):
            raise ValueError(f"c1 lives on {self.c1.surface}, not on the base {self.base}")

    def __str__(self) -> str:
        return f"E({self.base}; c1={self.c1}, c2={self.c2})"


@dataclass(frozen=True)
class BundleClass:
    """A divisor class a*D + pi*B on a projectivized rank-2 bundle.

    D is the tautological class, B a class on the base.
    """

    d_coeff: int
    pullback: SurfaceClass

    def __str__(self) -> str:
        a = self.d_coeff
        head = "" if a == 0 else f"{'' if a == 1 else '-' if a == -1 else a}D"
        b = self.pullback
        if b.is_zero():
            return head or "0"
        tail = f"pi*({b})"
        return f"{head} + {tail}" if head else tail


def p1_bundle_anticanonical(data: RankTwoBundle) -> BundleClass:
    """Anticanonical class of P(E): 2D + pi*(-K - c1).

    Args:
        data: Chern data of the rank-2 bundle.

    Returns:
        The class -K_Y as a BundleClass.
    """
    return BundleClass(2, anticanonical_class(data.base) - data.c1)


def triple_intersection(data: RankTwoBundle, cls: BundleClass) -> int:
    """Cube of a*D + pi*B on P(E).

    Expanding with the Grothendieck relation:

        (aD + pi*B)^3 = a^3 (c1^2 - c2) + 3 a^2 (c1.B) + 3 a (B^2).

    Args:
        data: Chern data of the bundle.
        cls: the divisor class to cube.

    Returns:
        The exact intersection number.
    """
    if cls.pullback.surface != data.base:
        raise ValueError("class and bundle live over different bases")
    a = cls.d_coeff
    b = cls.pullback
    c1_sq = intersect(data.c1, data.c1)
    return (
        a ** 3 * (c1_sq - data.c2)
        + 3 * a ** 2 * intersect(data.c1, b)
        + 3 * a * intersect(b, b)
    )


def degree_p1_bundle(data: RankTwoBundle) -> int:
    """Anticanonical degree (-K_Y)^3 of Y = P(E).

    Cubing 2D + pi*(-K - c1) and collecting terms gives the closed form

        (-K_Y)^3 = 6 K^2 + 2 c1^2 - 8 c2

    with K the canonical class of the base.
    """
    return 6 * k_squared(data.base) + 2 * intersect(data.c1, data.c1) - 8 * data.c2


def solve_c2_for_degree(
    base: BaseSurface, c1: SurfaceClass, target: int
) -> tuple[Fraction, bool]:
    """The unique c2 giving a prescribed anticanonical degree.

    Inverts the degree formula: c2 = (6 K^2 + 2 c1^2 - target) / 8.

    Args:
        base: the base surface.
        c1: first Chern class on the base.
        target: the desired (-K_Y)^3.

    Returns:
        (c2, integral): the exact rational solution and whether it is an
        integer.  A non-integral solution rules the case out, since c2
        of an actual bundle is an integer.
    """
    c2 = Fraction(6 * k_squared(base) + 2 * intersect(c1, c1) - target, 8)
    return c2, c2.denominator == 1


def chi_rank2(data: RankTwoBundle) -> Fraction:
    """Euler characteristic chi(S, E) by Riemann-Roch for rank 2.

    On a rational surface (chi(O) = 1):

        chi(E) = (c1^2 - 2 c2 - K.c1) / 2 + 2.
    """
    c1 = data.c1
    k = canonical_class(data.base)
    return Fraction(intersect(c1, c1) - 2 * data.c2 - intersect(k, c1) + 4, 2)


def twist(data: RankTwoBundle, b: SurfaceClass) -> RankTwoBundle:
    """Chern data of E (x) O(B).

    c1' = c1 + 2B and c2' = c2 + c1.B + B^2.  The projectivization is
    unchanged, so the anticanonical degree is invariant under twisting.
    """
    if not (b.surface is data.base or b.surface == data.base):
        raise ValueError("twisting class lives on a different surface")
    c2_new = data.c2 + intersect(data.c1, b) + intersect(b, b)
    return RankTwoBundle(data.base, data.c1 + 2 * b, c2_new)


def split_gap_bound_holds(d1: int, d2: int, z_self: int) -> bool:
    """Splitting-type gap bound on a movable rational curve.

    The restriction of E to a curve Z with Z^2 = z_self splits as
    O(d1) (+) O(d2) with |d1 - d2| <= 2 + Z^2 whenever Z moves in a
    covering family.  Returns whether the stated pair obeys the bound.
    """
    return abs(d1 - d2) <= 2 + z_self


def c1_nef_dominated(base: BaseSurface, c1: SurfaceClass) -> bool:
    """Whether c1.B <= -3K.B for every nef generator B of the base.

    This is the numerical threshold below which a globally generated
    rank-2 bundle with that c1 must be decomposable.
    """
    mk = anticanonical_class(base)
    return all(
        intersect(c1, b) <= 3 * intersect(mk, b) for b in nef_cone_generators(base)
    )


def scroll_degree(degrees: tuple[int, int, int]) -> int:
    """Anticanonical degree of the scroll P(O(d1) (+) O(d2) (+) O(d3)) over the line.

    With d = d1 + d2 + d3, -K = 3M + (2 - d)F, and since M^3 = d, M^2.F = 1:

        (-K)^3 = 27 d + 27 (2 - d) = 54

    for every rank-3 scroll.  The constant answer is the point: every
    such scroll has anticanonical degree 54.
    """
    d = sum(degrees)
    return 27 * d + 27 * (2 - d)


def rr_dim_anticanonical(degree: int) -> int:
    """dim |-K| = degree/2 + 2 for a threefold with at worst canonical
    Gorenstein singularities (Riemann-Roch plus vanishing)."""
    if degree < 0 or degree % 2 != 0:
        raise ValueError(f"degree must be even and non-negative, got {degree}")
    return degree // 2 + 2


def kg2_integral(degree: int) -> bool:
    """Whether degree/8 is an integer.

    A birational quadric-bundle structure forces K^2 of the base of the
    general elephant to equal one eighth of the anticanonical degree;
    non-divisibility by 8 is therefore an obstruction.
    """
    return degree % 8 == 0
