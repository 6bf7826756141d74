from fractions import Fraction

import pytest

from fano64.ledger import (
    blowup_curve_degree,
    genus_of_degree,
    project_from_center,
)


def test_genus_of_degree():
    # (-K)^3 = 2g - 2
    assert genus_of_degree(64) == 33
    assert genus_of_degree(72) == 37
    assert genus_of_degree(2) == 2
    assert type(genus_of_degree(Fraction(64))) is int
    assert genus_of_degree(65) == Fraction(67, 2)
    assert genus_of_degree(Fraction(1, 3)) == Fraction(7, 6)


def test_projection_drops_degree_by_twice_center_dim_plus_two():
    assert project_from_center(72, 3) == 64
    assert project_from_center(70, 2) == 64
    assert project_from_center(66, 0) == 64

    with pytest.raises(ValueError, match="must be non-negative"):
        project_from_center(66, -1)
    with pytest.raises(ValueError, match="drop the degree to -2"):
        project_from_center(2, 1)


def test_curve_blowup_chain():
    # repeated blow-ups along rational curves of growing anticanonical
    # degree: 54 -> 62 -> 66 -> 66
    d = 54
    for minus_k_dot_c in (-5, -3, -1):
        d = blowup_curve_degree(d, minus_k_dot_c, 0)
    assert d == 66
    assert blowup_curve_degree(54, -5, 0) == 62
    assert blowup_curve_degree(62, -3, 0) == 66
    assert blowup_curve_degree(70, 2, 0) == 64


def test_curve_blowup_uses_genus():
    # degree - 2(-K.C) - 2 + 2g(C)
    assert blowup_curve_degree(64, 4, 0) == 54
    assert blowup_curve_degree(64, 4, 1) == 56
    with pytest.raises(ValueError):
        blowup_curve_degree(10, 10, 0)


def test_only_a_positive_degree_is_returned():
    # a degree of 1 is still a degree; 0 is not, and both operations refuse it
    assert project_from_center(3, 0) == 1
    assert blowup_curve_degree(3, 0, 0) == 1
    with pytest.raises(ValueError, match="drop the degree to 0"):
        project_from_center(2, 0)
    with pytest.raises(ValueError, match="drop the degree to 0"):
        blowup_curve_degree(2, 0, 0)
