"""Degree and genus bookkeeping for birational constructions.

For a Fano threefold with canonical Gorenstein singularities the
anticanonical degree and genus are tied by (-K)^3 = 2g - 2, and the
anticanonical model sits in P^(g+1).  The operations here track how
degree, genus and ambient dimension move under blow-ups and linear
projections; they are pure arithmetic, with the geometric hypotheses
(birationality of the projection, position of the center) recorded by
the caller, not verified here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FanoRecord:
    """degree = 2*genus - 2 and ambient_dim = genus + 1, always."""

    degree: int
    genus: int
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.degree <= 0 or self.degree % 2 != 0:
            raise ValueError(f"degree must be even and positive, got {self.degree}")
        if self.degree != 2 * self.genus - 2:
            raise ValueError(f"degree {self.degree} does not match genus {self.genus}")
        if self.ambient_dim != self.genus + 1:
            raise ValueError(
                f"ambient dimension {self.ambient_dim} does not match genus {self.genus}"
            )


def genus_of_degree(degree: int) -> FanoRecord:
    """Record with genus degree/2 + 1 and ambient dimension genus + 1."""
    if degree <= 0 or degree % 2 != 0:
        raise ValueError(f"degree must be even and positive, got {degree}")
    g = degree // 2 + 1
    return FanoRecord(degree, g, g + 1)


def project_from_center(rec: FanoRecord, center_dim: int) -> FanoRecord:
    """Linear projection from a k-dimensional center inside the variety.

    The ambient dimension drops by k+1, hence so does the genus, and the
    degree drops by 2(k+1).
    """
    if center_dim < 0:
        raise ValueError(f"center dimension must be non-negative, got {center_dim}")
    new_degree = rec.degree - 2 * (center_dim + 1)
    if new_degree <= 0:
        raise ValueError(
            f"projection from a {center_dim}-dimensional center would drop the "
            f"degree to {new_degree}"
        )
    return genus_of_degree(new_degree)


def blowup_curve_degree(degree: int, minus_k_dot_c: int, genus_c: int) -> int:
    """Degree after blowing up a curve C.

    new = old - 2(-K.C) - 2 + 2g(C), from expanding (-K - E)^3 with the
    standard normal-bundle identities for the exceptional divisor E.
    """
    new_degree = degree - 2 * minus_k_dot_c - 2 + 2 * genus_c
    if new_degree <= 0:
        raise ValueError(f"blow-up would drop the degree to {new_degree}")
    return new_degree
