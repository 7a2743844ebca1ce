"""Exact division by linear forms and denominator cancellation as
hypothesis properties.

The divisors are the two kinds `genfunc` divides by: vertex forms
1 - <v,u>, by `FormKernel.over` in `RatFun.cancel`, and homogeneous
direction forms -<g,u>, by `FormKernel.divide` in `brion_genfunc`.  sympy's
division is the independent reference for the quotient and for exactness.
`Poly` has no arithmetic, so the tests multiply and add term by term with
`polyops`.  Runs
derandomized, so a failure repeats from run to run.
"""

from fractions import Fraction as F
from math import factorial

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polymom import LinearForm, Poly, RatFun, taylor  # noqa: E402
from polymom.genfunc import form_kernel  # noqa: E402
from polymom.geometry import homogeneous  # noqa: E402
from polymom.linalg import integer_vector  # noqa: E402
from polymom.poly import _normalizer, monomials_upto  # noqa: E402
from polyops import pairing, plus, times, vertex_form  # noqa: E402

DIM = 3

coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 2)] * DIM)
polys = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(DIM, t))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
vectors = st.tuples(*[st.builds(F, st.integers(-3, 3), st.integers(1, 3))] * DIM).filter(any)
forms = vectors.map(LinearForm)
nonzero_constants = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))

properties = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _direction(form):
    """The direction row (0, W*v) of the form's vertex, and the form -<W*v, u> it stands for."""
    row = (0, *homogeneous(form.vertex)[1:])
    return row, pairing([-c for c in row[1:]])


def over_exactly(p, form):
    """p / (1 - <v, u>) as the series of `FormKernel.over` to degree D = deg p, or None when that
    series has a term of degree D: then the form does not divide p (see `RatFun.cancel`)."""
    kernel = form_kernel(p.dim, max(p.degree(), 0))
    vector, scale = kernel.over(integer_vector(map(p.coefficient, kernel.rows)), homogeneous(form.vertex))
    below = len(kernel.up[0])
    return None if any(vector[below:]) else Poly(p.dim, {e: F(x, scale) for e, x in zip(kernel.rows, vector[:below])})


def divided(p, row, degree=None):
    """p over the form of the direction row by `FormKernel.divide`, in the kernel of p's degree
    unless one is given, or None when a remainder is left."""
    kernel = form_kernel(p.dim, max(p.degree(), 0) if degree is None else degree)
    out = kernel.divide(integer_vector(map(p.coefficient, kernel.rows)), row)
    return None if out is None else Poly(p.dim, {e: F(x, out[1]) for e, x in zip(kernel.rows, out[0])})


@properties
@given(polys, forms)
def test_divide_vertex_form_recovers_quotient(p, form):
    assert over_exactly(times(p, vertex_form(form.vertex)), form) == p


@properties
@given(polys, forms)
def test_divide_edge_pairing_recovers_quotient(p, form):
    row, g = _direction(form)
    assert divided(times(p, g), row) == p


@properties
@given(polys, forms, nonzero_constants, st.booleans())
def test_constant_remainder_is_not_divisible(p, form, c, homogeneous):
    constant = Poly.constant(DIM, c)
    if homogeneous:
        row, g = _direction(form)
        assert divided(plus(times(p, g), constant), row) is None
    else:
        assert over_exactly(plus(times(p, vertex_form(form.vertex)), constant), form) is None


@properties
@given(nonzero_polys, st.lists(forms, max_size=3), forms)
def test_cancel_removes_a_dividing_form_and_keeps_the_expansion(p, denominator, f):
    cancelled = RatFun(times(p, vertex_form(f.vertex)), denominator + [f]).cancel()
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
@given(polys, forms, polys, st.integers(0, 2))
def test_kernel_division_agrees_with_sympy(p, form, noise, slack):
    """`FormKernel.divide` by a direction form, in a kernel of the numerator's degree or above,
    divides exactly when sympy's division leaves no remainder, and then to sympy's quotient."""
    row, g = _direction(form)
    num = plus(times(p, g), noise)
    assert divided(num, row, max(num.degree(), 0) + slack) == sympy_quotient(num, g)


form_pools = st.lists(forms, min_size=1, max_size=3)
picks = st.lists(st.integers(0, 2), min_size=1, max_size=4)


@properties
@given(nonzero_polys, form_pools, picks, picks)
def test_cancel_leaves_no_dividing_form_and_keeps_the_expansion(p, pool, on_top, below):
    num = p
    for i in on_top:
        num = times(num, vertex_form(pool[i % len(pool)].vertex))
    f = RatFun(num, [pool[i % len(pool)] for i in below])
    cancelled = f.cancel()
    for form in set(cancelled.denominator):
        assert sympy_quotient(cancelled.numerator, vertex_form(form.vertex)) is None
    assert taylor(cancelled, 6) == taylor(f, 6)


numerators = st.one_of(st.just(Poly(DIM)), nonzero_constants.map(lambda c: Poly.constant(DIM, c)), polys)


@properties
@given(numerators, forms, st.booleans(), st.integers(0, 2))
def test_series_quotient_divides_exactly_when_the_kernel_division_does(p, form, on_top, slack):
    """`FormKernel.over` to degree D >= deg p leaves no term of degree D exactly when the vertex
    form divides p, and its series is then the quotient.  The reference homogenizes: with a
    variable x0 in front, P = x0^D p(u/x0), and 1 - <v, u> divides p exactly when
    W*x0 - <W*v, u>, the form of the direction row (0, -W, W*v), divides P by `FormKernel.divide`;
    W times that quotient at x0 = 1 is p's."""
    if on_top:
        p = times(p, vertex_form(form.vertex))
    kernel = form_kernel(DIM, max(p.degree(), 0) + slack)
    vector, scale = kernel.over(integer_vector(map(p.coefficient, kernel.rows)), homogeneous(form.vertex))
    top = [x for e, x in zip(kernel.rows, vector) if sum(e) == kernel.degree]
    w, *wv = homogeneous(form.vertex)
    padded = Poly(DIM + 1, {(kernel.degree - sum(e), *e): c for e, c in p.terms.items()})
    quotient = divided(padded, (0, -w, *wv), kernel.degree)
    assert (not any(top)) == (quotient is not None)
    if quotient is not None:
        at_one = {}
        for e, c in quotient.terms.items():
            at_one[e[1:]] = at_one.get(e[1:], 0) + w * c
        assert kernel.poly((vector, scale)) == Poly(DIM, at_one)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_normalizer_is_the_integer_factorial_ratio(dim, extra):
    for exps in monomials_upto(dim, 8):
        expected = F(factorial(sum(exps) + dim + extra))
        for k in exps:
            expected /= factorial(k)
        value = _normalizer(exps, dim, extra)
        assert value == expected and value.denominator == 1
