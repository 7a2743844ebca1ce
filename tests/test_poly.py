import random
from fractions import Fraction as F

import pytest

from polymom import Poly, Series, monomials_upto
from polymom.errors import DimensionError


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
    p = (Poly.constant(1, 1) + Poly.variable(1, 0)) ** 3
    assert p.truncate(1).poly == Poly(1, {(0,): 1, (1,): 3})


def test_partial_simple():
    p = Poly(2, {(2, 1): 1})
    assert p.partial(0) == Poly(2, {(1, 1): 2})
    assert Poly.constant(2, 5).partial(1).is_zero()


def test_second_derivative_of_geometric_series():
    # d^2/du^2 of 1/(1-u) expanded to order 5 matches 2/(1-u)^3 to degree 3
    geo = Poly(1, {(k,): 1 for k in range(6)}).truncate(5)
    twice = geo.poly.partial(0).partial(0)
    expect = Poly(1, {(k,): (k + 1) * (k + 2) for k in range(4)})
    assert twice == expect


def test_partials_commute():
    rng = random.Random(17)
    for _ in range(10):
        p = random_poly(rng, 3, 4)
        assert p.partial(0).partial(1) == p.partial(1).partial(0)


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
        lhs = (a * b).truncate(k)
        rhs = (a.truncate(k).poly * b.truncate(k).poly).truncate(k)
        assert lhs == rhs


def test_homogenize_simple():
    p = linear(1, 1, [-1])  # 1 - u1
    assert p.homogenize(2) == Poly(2, {(2, 0): 1, (1, 1): -1})


def test_homogenize_round_trip():
    rng = random.Random(37)
    for _ in range(8):
        p = random_poly(rng, 2, 3)
        total = max(p.degree(), 0) + rng.randint(0, 2)
        assert p.homogenize(total).dehomogenize() == p


def test_homogenize_pentagon_product_column():
    l1l2 = linear(2, 1, [-1, 0]) * linear(2, 1, [-2, -1])
    expect = Poly(
        3, {(2, 0, 0): 1, (1, 1, 0): -3, (1, 0, 1): -1, (0, 2, 0): 2, (0, 1, 1): 1}
    )
    assert l1l2.homogenize(2) == expect


def test_homogenize_degree_overflow():
    with pytest.raises(DimensionError):
        Poly(1, {(3,): 1}).homogenize(2)


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        Poly.variable(2, 0) * Poly.variable(3, 0)


@pytest.mark.parametrize("exponent", [1.5, F(1, 2)])
def test_non_integer_exponent_rejected(exponent):
    with pytest.raises(DimensionError):
        Poly(2, {(exponent, 0): 1})


def test_no_stored_zeros():
    p = Poly(2, {(1, 0): F(1)}) - Poly(2, {(1, 0): F(1)})
    assert p.terms == {} and p.is_zero()


def test_series_order_tracking():
    s = Series(Poly(1, {(0,): 1, (1,): 2, (2,): 3}), 2)
    assert s.truncate(1).order == 1
    with pytest.raises(DimensionError):
        s.truncate(4)
