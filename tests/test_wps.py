from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano64.bundles import rr_dim_anticanonical
from fano64.ledger import genus_of_degree
from fano64.wps import (
    QuotientType,
    Weights,
    wps_anticanonical_index,
    wps_degree,
    wps_edge_singularity,
    wps_is_gorenstein,
    wps_vertex_singularity,
)


def well_formed(raw):
    if any(w <= 0 for w in raw):
        return False
    for i in range(4):
        others = [w for j, w in enumerate(raw) if j != i]
        if gcd(gcd(others[0], others[1]), others[2]) != 1:
            return False
    return True


weight_tuples = st.tuples(*(st.integers(min_value=1, max_value=9),) * 4).filter(
    well_formed
)


def test_weights_normalize_to_descending_order():
    w = Weights(1, 6, 4, 1)
    assert w == (6, 4, 1, 1)
    assert str(w) == "P(6,4,1,1)"


def test_ill_formed_weights_rejected():
    with pytest.raises(ValueError):
        Weights(2, 2, 2, 1)  # triple gcd 2
    with pytest.raises(ValueError):
        Weights(0, 1, 1, 1)
    with pytest.raises(ValueError):
        Weights(-1, 1, 1, 1)
    with pytest.raises(ValueError):
        Weights(1.0, 1, 1, 1)


def test_degrees():
    assert wps_degree(Weights(1, 1, 1, 1)) == 64
    assert wps_degree(Weights(3, 1, 1, 1)) == 72
    assert wps_degree(Weights(6, 4, 1, 1)) == 72
    assert wps_degree(Weights(2, 1, 1, 1)) == Fraction(125, 2)


@given(weight_tuples)
def test_degree_formula(raw):
    w = Weights(*raw)
    total = sum(raw)
    product = raw[0] * raw[1] * raw[2] * raw[3]
    assert wps_degree(w) == Fraction(total**3, product)
    assert wps_anticanonical_index(w) == total


def test_vertex_singularities():
    w = Weights(6, 4, 1, 1)
    assert str(wps_vertex_singularity(w, 0)) == "1/6(4,1,1)"
    assert str(wps_vertex_singularity(w, 1)) == "1/4(2,1,1)"
    assert wps_vertex_singularity(w, 2).is_smooth
    assert wps_vertex_singularity(w, 3).is_smooth


def test_edge_singularities():
    w = Weights(6, 4, 1, 1)
    assert str(wps_edge_singularity(w, 0, 1)) == "1/2(1,1)"
    assert wps_edge_singularity(w, 2, 3).is_smooth
    assert wps_edge_singularity(w, 1, 0) == wps_edge_singularity(w, 0, 1)
    with pytest.raises(ValueError):
        wps_edge_singularity(w, 1, 1)


def test_quotient_type_reduces_residues():
    q = QuotientType(4, (6, 5, 1))
    assert q.residues == (2, 1, 1)
    assert str(q) == "1/4(2,1,1)"
    assert str(QuotientType(1, (0, 0, 0))) == "smooth"


def test_quotient_type_refuses_a_non_positive_order():
    with pytest.raises(ValueError) as err:
        QuotientType(0, (1, 1))
    assert str(err.value) == "order must be positive, got 0"


def test_gorenstein_condition():
    assert wps_is_gorenstein(Weights(1, 1, 1, 1))
    assert wps_is_gorenstein(Weights(3, 1, 1, 1))
    assert wps_is_gorenstein(Weights(6, 4, 1, 1))
    assert not wps_is_gorenstein(Weights(5, 1, 1, 1))
    assert not wps_is_gorenstein(Weights(2, 1, 1, 1))


@given(weight_tuples)
def test_gorenstein_means_every_weight_divides_the_index(raw):
    w = Weights(*raw)
    total = wps_anticanonical_index(w)
    assert wps_is_gorenstein(w) == all(total % a == 0 for a in w)


@given(weight_tuples)
def test_gorenstein_vertex_residues_sum_to_zero(raw):
    # residues at vertex i are the other weights mod a_i, so their sum
    # is the anticanonical index mod a_i: zero exactly in the Gorenstein
    # case
    w = Weights(*raw)
    if not wps_is_gorenstein(w):
        return
    for i in range(4):
        q = wps_vertex_singularity(w, i)
        assert sum(q.residues) % q.order == 0


def monomial_count(weights, degree):
    """The number of monomials of weighted degree `degree`, by a DP over the weights."""
    counts = [1] + [0] * degree
    for q in weights:
        for t in range(q, degree + 1):
            counts[t] += counts[t - q]
    return counts[degree]


def test_sections_of_minus_mk_match_the_count_of_monomials():
    """h0(-mK) on a Gorenstein P(q) counts the monomials of weighted degree m * sum(q)."""
    found = [
        (a0, a1, a2, a3)
        for a0 in range(1, 43)
        for a1 in range(1, a0 + 1)
        for a2 in range(1, a1 + 1)
        for a3 in range(1, a2 + 1)
        if (a0 + a1 + a2 + a3) % a0 == 0
        and (a0 + a1 + a2 + a3) % a1 == 0
        and (a0 + a1 + a2 + a3) % a2 == 0
        and (a0 + a1 + a2 + a3) % a3 == 0
        and well_formed((a0, a1, a2, a3))
    ]
    assert len(found) == 14, found
    for raw in found:
        w = Weights(*raw)
        assert wps_is_gorenstein(w), raw
        d = wps_degree(w)
        for m in (1, 2, 3):
            count = monomial_count(raw, m * sum(raw))
            assert count == m * (m + 1) * (2 * m + 1) * d / 12 + 2 * m + 1, (raw, m)
        count = monomial_count(raw, sum(raw))
        assert d.denominator == 1, raw
        assert count == rr_dim_anticanonical(int(d)) + 1 == genus_of_degree(d) + 2, raw
