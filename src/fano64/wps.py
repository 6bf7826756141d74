"""Weighted projective 3-space invariants.

P(a0,a1,a2,a3) with well-formed weights: degree, anticanonical index,
cyclic quotient types at vertices and along edges, and the Gorenstein
divisibility test.  Everything is elementary arithmetic on the weights;
no coordinate geometry is performed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, prod

class Weights(namedtuple("Weights", ["a0", "a1", "a2", "a3"])):
    """Weights of a weighted projective 3-space, stored sorted a0 >= a1 >= a2 >= a3.

    Well-formedness: every triple of weights is coprime (gcd 1).  Input
    order does not matter; the constructor sorts.  Ill-formed weights
    are rejected rather than normalized, since normalizing would change
    the reported singularities.
    """

    a0: int
    a1: int
    a2: int
    a3: int
    __slots__ = ()

    def __new__(cls, a0: int, a1: int, a2: int, a3: int) -> Weights:
        w = (a0, a1, a2, a3)
        if any(type(a) is not int or a <= 0 for a in w):
            raise ValueError(f"weights must be positive integers, got {w}")
        s = sorted(w, reverse=True)
        for i in range(4):
            others = s[:i] + s[i + 1 :]
            if gcd(*others) != 1:
                raise ValueError(
                    f"ill-formed weights {tuple(s)}: the weights other than "
                    f"index {i} share a common factor"
                )
        return tuple.__new__(cls, s)

    def __str__(self) -> str:
        return "P({},{},{},{})".format(*self)


class QuotientType(namedtuple("QuotientType", ["order", "residues"])):
    """A cyclic quotient singularity type 1/r(w1,...,wk), residues mod r."""

    order: int
    residues: tuple[int, ...]
    __slots__ = ()

    def __new__(cls, order: int, residues: tuple[int, ...]) -> QuotientType:
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        return tuple.__new__(cls, (order, tuple(w % order for w in residues)))

    @property
    def is_smooth(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        if self.is_smooth:
            return "smooth"
        return "1/{}({})".format(self.order, ",".join(str(w) for w in self.residues))


def wps_degree(w: Weights) -> Fraction:
    """Anticanonical degree (sum a)^3 / (prod a), exact."""
    return Fraction(sum(w) ** 3, prod(w))


def wps_anticanonical_index(w: Weights) -> int:
    """m with O(-K) = O(m), namely the sum of the weights."""
    return sum(w)


def wps_vertex_singularity(w: Weights, i: int) -> QuotientType:
    """Quotient type at the i-th coordinate vertex: 1/a_i(other weights mod a_i)."""
    r = w[i]
    others = tuple(a for j, a in enumerate(w) if j != i)
    return QuotientType(r, others)


def wps_edge_singularity(w: Weights, i: int, j: int) -> QuotientType:
    """Transversal quotient type along the edge x_i = x_j = 0 complement.

    With g = gcd(a_i, a_j) the generic point of the coordinate line
    through vertices i and j is a 1/g(a_k, a_l) point; g = 1 means the
    edge is generically smooth.
    """
    if i == j:
        raise ValueError("edge needs two distinct vertices")
    g = gcd(w[i], w[j])
    others = tuple(a for k, a in enumerate(w) if k not in (i, j))
    return QuotientType(g, others)


def wps_is_gorenstein(w: Weights) -> bool:
    """Gorenstein criterion: every weight divides the sum of the weights."""
    total = sum(w)
    return all(total % a == 0 for a in w)
