"""Degree and genus bookkeeping for birational constructions.

For a Fano threefold with canonical Gorenstein singularities the
anticanonical degree and genus are tied by (-K)^3 = 2g - 2, and the
anticanonical model sits in P^(g+1).  The operations here take and
return plain numbers: `genus_of_degree` is the one genus formula, the
ambient dimension is that genus plus one, and the other two track how
the degree moves under linear projections and curve blow-ups.  They
are pure arithmetic, with the geometric hypotheses (birationality of
the projection, position of the center) recorded by the caller, not
verified here.
"""

from __future__ import annotations

from fractions import Fraction


def genus_of_degree(degree: int | Fraction) -> int | Fraction:
    """degree/2 + 1 exactly: an int when integral, else the Fraction."""
    g = Fraction(degree, 2) + 1
    return int(g) if g.denominator == 1 else g


def project_from_center(degree: int, center_dim: int) -> int:
    """Degree after linear projection from a k-dimensional center inside the variety.

    The ambient dimension drops by k+1, hence so does the genus, and the
    degree drops by 2(k+1).
    """
    if center_dim < 0:
        raise ValueError(f"center dimension must be non-negative, got {center_dim}")
    new_degree = degree - 2 * (center_dim + 1)
    if new_degree <= 0:
        raise ValueError(
            f"projection from a {center_dim}-dimensional center would drop the "
            f"degree to {new_degree}"
        )
    return new_degree


def blowup_curve_degree(degree: int, minus_k_dot_c: int, genus_c: int) -> int:
    """Degree after blowing up a curve C.

    new = old - 2(-K.C) - 2 + 2g(C), from expanding (-K - E)^3 with the
    standard normal-bundle identities for the exceptional divisor E.
    """
    new_degree = degree - 2 * minus_k_dot_c - 2 + 2 * genus_c
    if new_degree <= 0:
        raise ValueError(f"blow-up would drop the degree to {new_degree}")
    return new_degree
