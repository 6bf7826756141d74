import pytest

from fano64.ledger import (
    FanoRecord,
    blowup_curve_degree,
    genus_of_degree,
    project_from_center,
)


def test_record_invariants():
    rec = FanoRecord(degree=64, genus=33, ambient_dim=34)
    assert rec.degree == 2 * rec.genus - 2
    assert rec.ambient_dim == rec.genus + 1
    with pytest.raises(ValueError):
        FanoRecord(degree=64, genus=32, ambient_dim=34)
    with pytest.raises(ValueError):
        FanoRecord(degree=64, genus=33, ambient_dim=35)
    with pytest.raises(ValueError):
        FanoRecord(degree=63, genus=33, ambient_dim=34)
    with pytest.raises(ValueError):
        FanoRecord(degree=-2, genus=0, ambient_dim=1)


def test_genus_of_degree():
    assert genus_of_degree(64) == FanoRecord(64, 33, 34)
    assert genus_of_degree(72) == FanoRecord(72, 37, 38)
    assert genus_of_degree(2).genus == 2
    with pytest.raises(ValueError):
        genus_of_degree(65)


def test_projection_drops_degree_by_twice_center_dim_plus_two():
    x72 = FanoRecord(degree=72, genus=37, ambient_dim=38)
    x64 = project_from_center(x72, 3)
    assert x64 == FanoRecord(degree=64, genus=33, ambient_dim=34)

    x70 = FanoRecord(degree=70, genus=36, ambient_dim=37)
    assert project_from_center(x70, 2).degree == 64

    x66 = FanoRecord(degree=66, genus=34, ambient_dim=35)
    assert project_from_center(x66, 0).degree == 64

    with pytest.raises(ValueError):
        project_from_center(x66, -1)
    with pytest.raises(ValueError):
        project_from_center(FanoRecord(2, 2, 3), 1)


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
