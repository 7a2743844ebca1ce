"""Ring laws of `Poly` arithmetic as hypothesis properties.

Runs derandomized, so a failure repeats from run to run.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymom import Poly  # noqa: E402

DIM = 2

coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 3)] * DIM)
polys = st.dictionaries(exponents, coefficients, max_size=5).map(lambda t: Poly(DIM, t))

laws = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@laws
@given(polys, polys, polys)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@laws
@given(polys, polys)
def test_multiplication_is_commutative(a, b):
    assert a * b == b * a


@laws
@given(polys, polys)
def test_addition_is_commutative(a, b):
    assert a + b == b + a


@laws
@given(polys, polys, polys)
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@laws
@given(polys)
def test_additive_inverse_and_identities(a):
    assert (a - a).is_zero()
    assert a + Poly.zero(DIM) == a
    assert a * Poly.constant(DIM, 1) == a
    assert (a * Poly.zero(DIM)).is_zero()
