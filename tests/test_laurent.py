from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from knotbound.laurent import (
    AQPolynomial,
    LaurentPoly1,
    LaurentPoly2,
    ZeroPolynomial,
    a_degree_range,
    to_aq,
)
from conftest import reciprocal, scale

coeffs = st.integers(-9, 9)
exps = st.tuples(st.integers(-4, 4), st.integers(-3, 4))
poly2 = st.dictionaries(exps, coeffs, max_size=6).map(LaurentPoly2.from_dict)
poly2_pos_z = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(0, 4)), coeffs, max_size=5
).map(LaurentPoly2.from_dict)


def test_add_cancellation():
    p = LaurentPoly2.from_dict({(1, 0): 1, (-1, 0): 1})
    q = LaurentPoly2.from_dict({(-1, 0): -1})
    assert p + q == LaurentPoly2.monomial(1, 0)


def test_mul_monomials():
    z = LaurentPoly2.monomial(0, 1)
    assert z * z == LaurentPoly2.monomial(0, 2)


@given(poly2)
def test_zero_absorbs(p):
    assert LaurentPoly2(()) * p == LaurentPoly2(())


@given(poly2, poly2, poly2)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r


def test_to_aq_substitution():
    z = LaurentPoly2.monomial(0, 1)
    aq = to_aq(z)
    assert aq == AQPolynomial.from_dict({(0, 1): 1, (0, -1): -1}) and aq.clearing == 0


def test_to_aq_square():
    aq = to_aq(LaurentPoly2.monomial(0, 2))
    assert aq == AQPolynomial.from_dict({(0, 2): 1, (0, 0): -2, (0, -2): 1})


def test_to_aq_clearing():
    p = LaurentPoly2.from_dict({(1, -1): 1, (-1, -1): -1})
    aq = to_aq(p)
    assert aq.clearing == 1
    assert aq == AQPolynomial.from_dict({(1, 0): 1, (-1, 0): -1}, clearing=1)


@given(poly2_pos_z, poly2_pos_z)
def test_to_aq_multiplicative_on_polynomial_part(p, q):
    left = to_aq(p * q)
    pa, qa = to_aq(p), to_aq(q)
    assert pa.clearing == 0 and qa.clearing == 0 and left.clearing == 0
    product = {}
    for (a1, q1), c1 in pa.terms:
        for (a2, q2), c2 in qa.terms:
            k = (a1 + a2, q1 + q2)
            product[k] = product.get(k, 0) + c1 * c2
    assert left == AQPolynomial.from_dict(product)


def _to_aq_by_comb(p: LaurentPoly2) -> AQPolynomial:
    """Oracle: expand (q - q^-1)^k with math.comb afresh for every term."""
    if p.is_zero():
        return AQPolynomial((), 0)
    m = max(0, -p.z_span()[0])
    d = {}
    for (ea, ez), c in p.terms:
        k = ez + m
        for t in range(k + 1):
            key = (ea, k - 2 * t)
            d[key] = d.get(key, 0) + c * (-1) ** t * comb(k, t)
    return AQPolynomial.from_dict(d, m)


@given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-40, 60)),
                       st.integers(-10**6, 10**6), max_size=8)
       .map(LaurentPoly2.from_dict))
@example(LaurentPoly2.monomial(0, -30))
@example(LaurentPoly2.from_dict({(1, -2): 1, (1, 0): 2, (-1, 1597): 1}))
def test_to_aq_matches_per_term_binomials(p):
    assert to_aq(p) == _to_aq_by_comb(p)


@given(poly2)
def test_to_aq_round_trip_evaluation(p):
    aq = to_aq(p)
    a = Fraction(5, 3)
    value_z = p.evaluate(a, Fraction(3, 2))
    value_q = aq.evaluate(a, Fraction(2))  # q = 2 gives z = 3/2
    assert value_z == value_q


def test_a_degree_range_main_polynomial():
    from knotbound.verify import HOMFLY_MAIN

    assert a_degree_range(HOMFLY_MAIN) == (6, 8)


def test_a_degree_range_constant():
    assert a_degree_range(LaurentPoly2.one()) == (0, 0)


def test_a_degree_range_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        a_degree_range(LaurentPoly2(()))


@given(poly2, st.integers(-3, 3))
def test_a_degree_shift(p, s):
    if p.is_zero():
        return
    lo, hi = a_degree_range(p)
    assert a_degree_range(scale(p, s, 0)) == (lo + s, hi + s)


def test_render_groups_by_a_descending():
    from knotbound.verify import HOMFLY_MAIN

    assert HOMFLY_MAIN.render() == (
        "a^8*(-q^4 - 1 - q^-4) + a^6*(q^6 + q^2 + q^-2 + q^-6)"
    )


def test_triples_machine_rendering():
    aq = AQPolynomial.from_dict({(2, 1): 3, (0, -1): -1})
    assert aq.triples() == [[2, 1, 3], [0, -1, -1]]


def test_poly1_arithmetic_and_render():
    p = LaurentPoly1.from_dict({1: 1, -1: 1, 0: -1})
    assert reciprocal(p) == p
    assert p.evaluate(Fraction(-1)) == -3
