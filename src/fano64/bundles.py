"""Chern-class calculus on projectivized bundles.

The central objects are projectivizations Y = P(E) of a rank-2 bundle E
over a base surface, carrying the tautological class D and the pullback
of divisors from the base.  Only the Chern classes of E enter any
computation here, so a bundle is passed as its Chern data (c1, c2): a
SurfaceClass c1, whose surface is the base, and an integer c2.  The
relative Euler sequence gives

    -K_Y = 2D + pi*(-K_S - c1(E)),

and the Grothendieck relation D^2 = D.pi*c1 - pi*c2 reduces every triple
product to intersection numbers on the base:

    D^3 = c1^2 - c2,   D^2.pi*B = c1.B,   D.(pi*B)^2 = B^2.

All arithmetic is exact: integers in, integers (or Fractions) out.  The
Euler characteristic is an integer too: c1.(c1 - K) is even for every
divisor on a smooth surface, since Riemann-Roch for the line bundle
O(c1) makes it 2 (chi(O(c1)) - chi(O)).

Rank-3 scrolls over the line are handled by the same mechanism one
rank up: for P(O(d1) (+) O(d2) (+) O(d3)) with tautological class M and
fiber F, the normalization d3 = 0 gives M^3 = d1 + d2 + d3 and
M^2.F = 1, with all higher powers of F vanishing.  Only their
anticanonical degree is needed, and it is 54 for every splitting type,
so `scroll_degree` takes the splitting triple as plain integers and
checks nothing about it.
"""

from __future__ import annotations

from fractions import Fraction

from .surfaces import (
    SurfaceClass,
    anticanonical_class,
    canonical_class,
    intersect,
    k_squared,
    nef_cone_generators,
)


def p1_bundle_anticanonical(c1: SurfaceClass) -> str:
    """Anticanonical class of P(E): 2D + pi*(-K - c1), as text.

    Args:
        c1: first Chern class of the rank-2 bundle, on its base.

    Returns:
        "2D" when the pullback -K - c1 is zero, else "2D + pi*(B)" with
        B = -K - c1 written out.
    """
    b = anticanonical_class(c1.surface) - c1
    return "2D" if b.is_zero() else f"2D + pi*({b})"


def triple_intersection(c1: SurfaceClass, c2: int, a: int, b: SurfaceClass) -> int:
    """Cube of a*D + pi*B on P(E), for E with Chern data (c1, c2).

    Expanding with the Grothendieck relation:

        (aD + pi*B)^3 = a^3 (c1^2 - c2) + 3 a^2 (c1.B) + 3 a (B^2).

    Args:
        c1, c2: Chern data of the bundle.
        a: the coefficient of the tautological class D.
        b: the class B on the base; it must live on c1's surface.

    Returns:
        The exact intersection number.
    """
    return (
        a ** 3 * (intersect(c1, c1) - c2)
        + 3 * a ** 2 * intersect(c1, b)
        + 3 * a * intersect(b, b)
    )


def degree_p1_bundle(c1: SurfaceClass, c2: int) -> int:
    """Anticanonical degree (-K_Y)^3 of Y = P(E).

    Cubing 2D + pi*(-K - c1) and collecting terms gives the closed form

        (-K_Y)^3 = 6 K^2 + 2 c1^2 - 8 c2

    with K the canonical class of the base.
    """
    return 6 * k_squared(c1.surface) + 2 * intersect(c1, c1) - 8 * c2


def solve_c2_for_degree(c1: SurfaceClass, target: int) -> Fraction:
    """The unique c2 giving a prescribed anticanonical degree.

    Inverts the degree formula, which is linear in c2 with slope -8:
    c2 = (degree_p1_bundle(c1, 0) - target) / 8.

    Args:
        c1: first Chern class on the base.
        target: the desired (-K_Y)^3.

    Returns:
        The exact rational solution.  A non-integral one (denominator
        above 1) rules the case out, since c2 of an actual bundle is an
        integer.
    """
    return Fraction(degree_p1_bundle(c1, 0) - target, 8)


def chi_rank2(c1: SurfaceClass, c2: int) -> int:
    """Euler characteristic chi(S, E) by Riemann-Roch for rank 2.

    On a rational surface (chi(O) = 1):

        chi(E) = c1.(c1 - K) / 2 - c2 + 2.

    Raises ArithmeticError if c1.(c1 - K) is odd, which no divisor on a
    smooth surface allows.
    """
    twice = intersect(c1, c1 - canonical_class(c1.surface))
    if twice % 2:
        raise ArithmeticError(f"c1.(c1 - K) = {twice} is odd for c1 = {c1}")
    return twice // 2 - c2 + 2


def twist(c1: SurfaceClass, c2: int, b: SurfaceClass) -> tuple[SurfaceClass, int]:
    """Chern data (c1', c2') of E (x) O(B), for E with Chern data (c1, c2).

    c1' = c1 + 2B and c2' = c2 + c1.B + B^2.  The projectivization is
    unchanged, so the anticanonical degree is invariant under twisting.
    """
    return c1 + 2 * b, c2 + intersect(c1, b) + intersect(b, b)


def split_gap_bound_holds(d1: int, d2: int, z_self: int) -> bool:
    """Splitting-type gap bound on a movable rational curve.

    The restriction of E to a curve Z with Z^2 = z_self splits as
    O(d1) (+) O(d2) with |d1 - d2| <= 2 + Z^2 whenever Z moves in a
    covering family.  Returns whether the stated pair obeys the bound.
    """
    return abs(d1 - d2) <= 2 + z_self


def c1_nef_dominated(c1: SurfaceClass) -> bool:
    """Whether c1.B <= -3K.B for every nef generator B of c1's surface.

    This is the numerical threshold below which a globally generated
    rank-2 bundle with that c1 must be decomposable.
    """
    base = c1.surface
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
