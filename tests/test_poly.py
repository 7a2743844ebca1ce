import random
from fractions import Fraction as F
from math import comb

import pytest

from polymom import Poly, Series, monomials_of_degree, monomials_upto
from polymom.errors import DimensionError
from polymom.poly import grlex_key


def linear(dim, const, coeffs):
    terms = {(0,) * dim: F(const)}
    for k, c in enumerate(coeffs):
        exps = [0] * dim
        exps[k] = 1
        terms[tuple(exps)] = F(c)
    return Poly(dim, terms)


def random_poly(rng, dim, degree, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, degree) for _ in range(dim))
        terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(dim, terms)


def test_canonical_order_is_the_printed_one():
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("dim", range(1, 6))
def test_monomials_of_degree_come_sorted_by_grlex_key(dim):
    for degree in range(6):
        monos = list(monomials_of_degree(dim, degree))
        assert monos == sorted(set(monos), key=grlex_key)
        assert len(monos) == comb(degree + dim - 1, degree) and all(sum(e) == degree for e in monos)


def test_product_of_two_forms():
    l1 = linear(2, 1, [-1, 0])
    l2 = linear(2, 1, [-2, -1])
    expect = Poly(2, {(0, 0): 1, (1, 0): -3, (0, 1): -1, (2, 0): 2, (1, 1): 1})
    assert l1 * l2 == expect


def test_multiplicative_identity():
    rng = random.Random(3)
    p = random_poly(rng, 3, 3)
    assert p * Poly.constant(3, 1) == p


def test_truncate_binomial():
    p = Poly.constant(1, 1)
    for _ in range(3):
        p = p * (Poly.constant(1, 1) + Poly.monomial(1, (1,)))
    assert Series(p, 1).poly == Poly(1, {(0,): 1, (1,): 3})


def test_ring_axioms():
    rng = random.Random(29)
    for _ in range(8):
        a, b, c = (random_poly(rng, 2, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_truncated_product_law():
    rng = random.Random(31)
    for _ in range(8):
        a = random_poly(rng, 2, 4)
        b = random_poly(rng, 2, 4)
        k = rng.randint(0, 5)
        lhs = Series(a * b, k)
        rhs = Series(Series(a, k).poly * Series(b, k).poly, k)
        assert lhs == rhs


def homogenize(p, total):
    """Pad each term with a power of a fresh leading variable up to `total`."""
    assert p.degree() <= total
    return Poly(p.dim + 1, {(total - sum(e),) + e: c for e, c in p.terms.items()})


def test_homogenize_simple():
    p = linear(1, 1, [-1])  # 1 - u1
    assert homogenize(p, 2) == Poly(2, {(2, 0): 1, (1, 1): -1})


def test_homogenize_pentagon_product_column():
    l1l2 = linear(2, 1, [-1, 0]) * linear(2, 1, [-2, -1])
    expect = Poly(
        3, {(2, 0, 0): 1, (1, 1, 0): -3, (1, 0, 1): -1, (0, 2, 0): 2, (0, 1, 1): 1}
    )
    assert homogenize(l1l2, 2) == expect


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        Poly.monomial(2, (1, 0)) * Poly.monomial(3, (1, 0, 0))


@pytest.mark.parametrize("exponent", [1.5, F(1, 2)])
def test_non_integer_exponent_rejected(exponent):
    with pytest.raises(DimensionError):
        Poly(2, {(exponent, 0): 1})


def test_no_stored_zeros():
    p = Poly(2, {(1, 0): F(1)}) - Poly(2, {(1, 0): F(1)})
    assert p.terms == {} and p.is_zero()


@pytest.mark.parametrize("order", [True, False])
def test_series_refuses_a_bool_order(order):
    with pytest.raises(TypeError, match="^series order must be an integer, not bool$"):
        Series(Poly(1, {(0,): 1, (1,): 2}), order)


@pytest.mark.parametrize("order", [2.5, 2.0, F(2), "2"])
def test_series_refuses_a_non_integral_order(order):
    with pytest.raises(TypeError):
        Series(Poly(1, {(0,): 1, (1,): 2}), order)


def test_series_order_is_read_as_an_int():
    class Two:
        def __index__(self):
            return 2

    s = Series(Poly(1, {(0,): 1, (3,): 2}), Two())
    assert type(s.order) is int and s.order == 2 and s.poly == Poly(1, {(0,): 1})


def test_series_order_tracking():
    s = Series(Poly(1, {(0,): 1, (1,): 2, (2,): 3}), 2)
    assert s.truncate(1).order == 1
    with pytest.raises(DimensionError):
        s.truncate(4)
