"""Exact division by linear forms and denominator cancellation as
hypothesis properties.

The divisors are the two kinds `genfunc` divides by: vertex forms
1 - <v,u> (`RatFun.cancel`) and homogeneous edge pairings <w,u>
(`brion_genfunc`).  Runs derandomized, so a failure repeats from run to run.
"""

from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymom import LinearForm, Poly, RatFun, taylor  # noqa: E402
from polymom.genfunc import divide_linear  # noqa: E402

DIM = 3

coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 2)] * DIM)
polys = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(DIM, t))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
vectors = st.tuples(*[st.builds(F, st.integers(-3, 3), st.integers(1, 3))] * DIM).filter(any)
forms = vectors.map(LinearForm)
nonzero_constants = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))

properties = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@properties
@given(polys, forms)
def test_divide_vertex_form_recovers_quotient(p, form):
    g = form.poly()
    assert divide_linear(p * g, g) == p


@properties
@given(polys, forms)
def test_divide_edge_pairing_recovers_quotient(p, form):
    g = form.pairing()
    assert divide_linear(p * g, g) == p


@properties
@given(polys, forms, nonzero_constants, st.booleans())
def test_constant_remainder_is_not_divisible(p, form, c, homogeneous):
    g = form.pairing() if homogeneous else form.poly()
    assert divide_linear(p * g + c, g) is None


@properties
@given(nonzero_polys, st.lists(forms, max_size=3), forms)
def test_cancel_removes_a_dividing_form_and_keeps_the_expansion(p, denominator, f):
    cancelled = RatFun(p * f.poly(), denominator + [f]).cancel()
    assert len(cancelled.denominator) <= len(denominator)
    assert taylor(cancelled, 6) == taylor(RatFun(p, denominator), 6)
