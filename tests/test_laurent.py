import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_weights import DivisionFailure, LaurentPolynomial
from siegel_weights.root_data import POSITIVE_ROOTS, WeightTriple


ONE = LaurentPolynomial({(0, 0, 0): 1})


def one_minus_inverse(beta):
    return LaurentPolynomial({(0, 0, 0): 1, (-beta.k1, -beta.k2, -beta.r): -1})


def random_poly(rng, n_terms=12, box=8):
    terms = {}
    for _ in range(n_terms):
        e = (rng.randint(-box, box), rng.randint(-box, box), rng.randint(-box, box))
        terms[e] = rng.randint(-5, 5)
    return LaurentPolynomial(terms)


def test_basic_arithmetic():
    x = LaurentPolynomial({(1, 0, 0): 1})
    y = LaurentPolynomial({(0, 1, 0): 3})
    assert list((x * y).items()) == [((1, 1, 0), 3)]
    assert (x * y).mass() == 3
    assert ONE.mass() == 1
    assert x * ONE == x
    assert x * LaurentPolynomial() == LaurentPolynomial()
    assert x != y


def test_zero_coefficients_are_never_stored():
    p = LaurentPolynomial({(0, 0, 0): 1, (1, 1, 1): 0})
    assert list(p.items()) == [((0, 0, 0), 1)]
    q = LaurentPolynomial({(1, 0, 0): 1, (-1, 0, 0): 1})
    assert list((q * one_minus_inverse(WeightTriple(2, 0, 0))).items()) == [
        ((-3, 0, 0), -1),
        ((1, 0, 0), 1),
    ]


def test_multiplication_adds_exponents_with_multiplicity():
    p = LaurentPolynomial({(1, 0, 0): 1, (-1, 0, 0): 1})
    sq = p * p
    assert dict(sq.items()) == {(-2, 0, 0): 1, (0, 0, 0): 2, (2, 0, 0): 1}
    assert sq.mass() == 4


@pytest.mark.parametrize("beta", POSITIVE_ROOTS)
def test_division_inverts_multiplication(beta):
    rng = random.Random(beta.k1 * 10 + beta.k2)
    for _ in range(25):
        p = random_poly(rng)
        product = p * one_minus_inverse(beta)
        assert product.divide_one_minus_inverse(beta) == p


def test_division_failure_on_nonmultiple():
    with pytest.raises(DivisionFailure):
        ONE.divide_one_minus_inverse((1, -1, 0))
    p = LaurentPolynomial({(0, 0, 0): 1, (-1, 1, 0): -1, (5, 5, 5): 3})
    with pytest.raises(DivisionFailure):
        p.divide_one_minus_inverse((1, -1, 0))


def test_division_by_zero_direction_fails():
    with pytest.raises(DivisionFailure):
        ONE.divide_one_minus_inverse((0, 0, 0))


def test_zero_divides_to_zero():
    zero = LaurentPolynomial()
    assert zero.divide_one_minus_inverse((0, 2, 0)) == zero


def test_division_handles_odd_residue_lines():
    # two terms on the same line of direction (0, 2, 0) through odd k2
    beta = (0, 2, 0)
    p = LaurentPolynomial({(1, 3, 0): 1, (1, 1, 0): -1})
    q = p.divide_one_minus_inverse(beta)
    # q * (1 - y^{-1}) = y^{t=1} - y^{t=0} along the line forces q = y^{t=1}
    assert q == LaurentPolynomial({(1, 3, 0): 1})


def test_weyl_denominator_collapses_to_one():
    product = ONE
    for beta in POSITIVE_ROOTS:
        product = product * one_minus_inverse(beta)
    for beta in reversed(POSITIVE_ROOTS):
        product = product.divide_one_minus_inverse(beta)
    assert product == ONE


small_ints = st.integers(-3, 3)
exponents = st.tuples(small_ints, small_ints, small_ints)
polys = st.dictionaries(exponents, st.integers(-4, 4), max_size=10).map(LaurentPolynomial)
directions = st.tuples(small_ints, small_ints, small_ints).filter(lambda b: b != (0, 0, 0))


@settings(derandomize=True, deadline=None)
@given(p=polys, q=polys, beta=directions)
def test_arithmetic_results_are_normalised(p, q, beta):
    # products and quotients skip the normalising constructor; their results
    # must still be what that constructor would build
    results = [
        p * q,
        (p * one_minus_inverse(WeightTriple(*beta))).divide_one_minus_inverse(beta),
    ]
    for result in results:
        terms = dict(result.items())
        assert all(c != 0 for c in terms.values())
        assert all(type(x) is int for e in terms for x in e)
        assert result == LaurentPolynomial(terms)
