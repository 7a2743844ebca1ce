"""Exact division by linear forms and denominator cancellation as
hypothesis properties.

The divisors are the two kinds `genfunc` divides by: vertex forms
1 - <v,u> (`RatFun.cancel`) and homogeneous edge pairings <w,u>
(`brion_genfunc`).  sympy's division is the independent reference for the
quotient and for exactness.  Runs derandomized, so a failure repeats from run
to run.
"""

from fractions import Fraction as F
from math import factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymom import LinearForm, Poly, RatFun, taylor  # noqa: E402
from polymom.genfunc import _normalizer, divide_linear, form_kernel  # noqa: E402
from polymom.geometry import homogeneous  # noqa: E402
from polymom.linalg import integer_vector  # noqa: E402
from polymom.poly import monomials_upto  # noqa: E402

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


U = sympy.symbols(f"u1:{DIM + 1}")


def to_sympy(p):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *U, domain="QQ")


def sympy_quotient(num, divisor):
    """The exact quotient by sympy's division, else None: one divisor is a
    Groebner basis of its ideal, so a zero remainder means it divides."""
    q, r = sympy.div(to_sympy(num), to_sympy(divisor))
    return Poly(DIM, {e: F(int(c.p), int(c.q)) for e, c in q.terms()}) if r.is_zero else None


@properties
@given(polys, forms, st.booleans(), polys)
def test_divide_linear_agrees_with_sympy(p, form, homogeneous, noise):
    g = form.pairing() if homogeneous else form.poly()
    num = p * g + noise
    assert divide_linear(num, g) == sympy_quotient(num, g)


form_pools = st.lists(forms, min_size=1, max_size=3)
picks = st.lists(st.integers(0, 2), min_size=1, max_size=4)


@properties
@given(nonzero_polys, form_pools, picks, picks)
def test_cancel_leaves_no_dividing_form_and_keeps_the_expansion(p, pool, on_top, below):
    num = p
    for i in on_top:
        num = num * pool[i % len(pool)].poly()
    f = RatFun(num, [pool[i % len(pool)] for i in below])
    cancelled = f.cancel()
    for form in set(cancelled.denominator):
        assert sympy_quotient(cancelled.numerator, form.poly()) is None
    assert taylor(cancelled, 6) == taylor(f, 6)


numerators = st.one_of(st.just(Poly.zero(DIM)), nonzero_constants.map(lambda c: Poly.constant(DIM, c)), polys)


@properties
@given(numerators, forms, st.booleans(), st.integers(0, 2))
def test_series_quotient_divides_exactly_when_divide_linear_does(p, form, on_top, slack):
    """`FormKernel.over` to degree D >= deg p leaves no term of degree D exactly when the vertex
    form divides p, and its series is then the quotient."""
    if on_top:
        p = p * form.poly()
    kernel = form_kernel(DIM, max(p.degree(), 0) + slack)
    vector, scale = kernel.over(integer_vector(map(p.coefficient, kernel.rows)), homogeneous(form.vertex))
    top = [x for e, x in zip(kernel.rows, vector) if sum(e) == kernel.degree]
    quotient = divide_linear(p, form.poly())
    assert (not any(top)) == (quotient is not None)
    if quotient is not None:
        assert kernel.poly((vector, scale)) == quotient


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_normalizer_is_the_integer_factorial_ratio(dim, extra):
    for exps in monomials_upto(dim, 8):
        expected = F(factorial(sum(exps) + dim + extra))
        for k in exps:
            expected /= factorial(k)
        value = _normalizer(exps, dim, extra)
        assert value == expected and value.denominator == 1
