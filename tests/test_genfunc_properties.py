"""Exact division by linear forms, denominator cancellation and the
measure's generating function as hypothesis properties.

The divisors are the two kinds `genfunc` divides by: vertex forms
1 - <v,u>, by `FormKernel.over` in `RatFun.cancel`, and homogeneous
direction forms -<g,u>, by `FormKernel.divide` in `brion_genfunc`.  sympy's
division is the independent reference for the quotient and for exactness.
`Poly` has no arithmetic, so the tests multiply and add term by term with
`polyops`.  Runs
derandomized, so a failure repeats from run to run.
"""

import random
from collections import Counter
from functools import reduce
from fractions import Fraction as F
from math import comb, factorial, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from polymom import LinearForm, Poly, RatFun, VertexSet, WeightedMeasure, measure_genfunc, taylor  # noqa: E402
from polymom.genfunc import _divided, form_kernel  # noqa: E402
from polymom.geometry import edge_det, homogeneous  # noqa: E402
from polymom.linalg import integer_vector  # noqa: E402
from polymom.poly import _normalizer, monomials_upto  # noqa: E402
from polymom.verify import random_point, random_rational, random_simplex_vertices  # noqa: E402
from polyops import pairing, plus, series_over, times, vertex_form  # noqa: E402

DIM = 3

coefficients = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 2)] * DIM)
polys = st.dictionaries(exponents, coefficients, max_size=4).map(lambda t: Poly(DIM, t))
nonzero_polys = polys.filter(lambda p: p.terms)
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


# the kernel degree per dimension 1-4, kept where the term-by-term reference stays quick
QUOTIENT_DEGREES = (6, 5, 4, 3)


@st.composite
def quotients(draw):
    """A kernel of dimension 1-4, an integer pair on its rows, and 0-4 vertices X / W with W
    up to 12, so each form's `homogeneous` W divides the drawn one."""
    dim = draw(st.integers(1, 4))
    kernel = form_kernel(dim, draw(st.integers(0, QUOTIENT_DEGREES[dim - 1])))
    n = len(kernel.rows)
    pair = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n)), draw(st.integers(1, 12))
    numerators = st.lists(st.integers(-12, 12), min_size=dim, max_size=dim)
    vertex = st.builds(lambda xs, w: tuple(F(x, w) for x in xs), numerators, st.integers(1, 12))
    return kernel, pair, draw(st.lists(vertex, max_size=4))


def check_series_over(kernel, pair, vertices):
    """`FormKernel.over` by all the vertices' rows at once, and by one row at a time, gives the
    series of p / prod of (1 - <v, u>) to the kernel's degree, as the term-by-term reference
    does, over the scale times lambda^degree, lambda the lcm of the rows' W."""
    rows = [homogeneous(v) for v in vertices]
    expected = series_over(kernel.poly(pair), vertices, kernel.degree)
    vector, scale = kernel.over(pair, *rows)
    assert len(vector) == len(kernel.rows)
    assert scale == pair[1] * lcm(*(w for w, *_ in rows)) ** kernel.degree
    assert kernel.poly((vector, scale)) == expected
    assert kernel.poly(reduce(kernel.over, rows, pair)) == expected


@properties
@given(quotients())
def test_series_quotient_by_forms_matches_the_term_by_term_reference(case):
    check_series_over(*case)


@pytest.mark.parametrize(
    "dim, degree, vector, vertices",
    [
        (2, 5, [3, -1, 2, 0, 5, 0], [(F(1, 3), F(-2, 3)), (F(1, 3), F(-2, 3)), (F(1, 4), 0)]),
        (3, 4, [1, 2, 0, -3, 0, 4], [(1, 0, -2), (0, 3, 1), (-1, -1, 0)]),
        (2, 4, [0, 0, 0], [(F(1, 6), F(5, 12)), (2, F(-1, 7))]),
        (4, 3, [2, -1, 1, 0, 3], []),
        (1, 6, [5], [(F(7, 12),), (F(7, 12),), (F(7, 12),)]),
    ],
    ids=["repeated-row", "all-w-one", "zero-pair", "no-rows", "one-dim-cube"],
)
def test_series_quotient_by_forms_at_named_cases(dim, degree, vector, vertices):
    """A repeated row, every W = 1, a zero pair, no rows at all, and one row three times in 1-d,
    each with its vector in full and stopping early, its missing rows zero."""
    kernel = form_kernel(dim, degree)
    check_series_over(kernel, (vector + [0] * (len(kernel.rows) - len(vector)), 7), vertices)
    check_series_over(kernel, (vector, 7), vertices)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_normalizer_is_the_integer_factorial_ratio(dim, extra):
    for exps in monomials_upto(dim, 8):
        expected = F(factorial(sum(exps) + dim + extra))
        for k in exps:
            expected /= factorial(k)
        value = _normalizer(exps, dim, extra)
        assert value == expected and value.denominator == 1


def _over_each(kernel, pair, forms):
    """The pair over the (`homogeneous` row, vertex) forms, a form divided out whenever
    `FormKernel.over` by it leaves no term of the kernel's degree, as `RatFun.cancel` argues:
    the kernel, the pair and the forms left."""
    remaining = []
    for row, vertex in forms if any(pair[0]) else ():
        vector, scale = kernel.over(pair, row)
        below = comb(kernel.degree - 1 + kernel.dim, kernel.dim)
        if any(vector[below:]):
            remaining.append((row, vertex))
        else:
            kernel, pair = form_kernel(kernel.dim, kernel.degree - 1), (vector[:below], scale)
    return kernel, pair, remaining


@st.composite
def divisions(draw):
    """A kernel of dimension 1-4, an integer pair on all its rows that is a drawn pair times 0-3
    vertex forms, plus, when asked, u_v times a drawn polynomial, which vanishes wherever u_v
    does, and the forms to divide by, as (`homogeneous` row, vertex): those on top and up to two
    more, in any order, with W up to 6."""
    dim = draw(st.integers(1, 4))
    kernel = form_kernel(dim, draw(st.integers(0, QUOTIENT_DEGREES[dim - 1])))
    numerators = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim).filter(any)
    vertex = st.builds(lambda xs, w: tuple(F(x, w) for x in xs), numerators, st.integers(1, 6))
    on_top = draw(st.lists(vertex, max_size=min(3, kernel.degree)))
    size = comb(kernel.degree - len(on_top) + dim, dim)
    pair = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size)), draw(st.integers(1, 9))
    pair = reduce(kernel.times, map(homogeneous, on_top), pair)
    vector = pair[0] + [0] * (len(kernel.rows) - len(pair[0]))
    if kernel.degree and draw(st.booleans()):
        up = kernel.up[draw(st.integers(0, dim - 1))]
        for q, x in zip(up, draw(st.lists(st.integers(-3, 3), min_size=len(up), max_size=len(up)))):
            vector[q] += x
    vertices = draw(st.permutations(on_top + draw(st.lists(vertex, max_size=2))))
    return kernel, (vector, pair[1]), [(homogeneous(v), v) for v in vertices]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(divisions())
def test_divided_equals_a_quotient_by_every_form(case):
    """`_divided` keeps the forms, and gives the pair, that a quotient by each form in turn does,
    on pairs with forms on top, on repeated forms, and on pairs that vanish on a coordinate plane,
    hence at a point of a form's hyperplane on an axis, without the form dividing them."""
    kernel, pair, forms = case
    kernel, pair, remaining = _over_each(kernel, pair, forms)
    assert _divided(*case) == RatFun._of(kernel, pair, [(row, LinearForm(v)) for row, v in remaining])


def _counter_measure_genfunc(m):
    """The measure's generating function through `Counter` multisets of `homogeneous` rows, the
    integer numerator read back by `FormKernel.poly`, and the checked `RatFun(Poly, forms)`."""
    vs = m.vertex_set
    rows = [homogeneous(p) for p in vs.points]
    denominators = [Counter(rows[i] for i in s if any(vs.points[i])) for s, _ in m.atoms]
    common = Counter()
    for counts in denominators:
        common |= counts
    missing = [common - counts for counts in denominators]
    kernel = form_kernel(vs.dim, max((sum(counts.values()) for counts in missing), default=0))
    parts = []
    for (_, w), counts in zip(m.atoms, missing):
        part = ([w.numerator] + [0] * (len(kernel.rows) - 1), w.denominator)
        for row in counts.elements():
            part = kernel.times(part, row)
        parts.append(part)
    scale = lcm(*(s for _, s in parts))
    pair = [sum(v[r] * (scale // s) for v, s in parts) for r in range(len(kernel.rows))], scale
    forms = {r: LinearForm(p) for r, p in zip(rows, vs.points)}
    kernel, pair, remaining = _over_each(kernel, pair, [(row, forms[row]) for row in common.elements()])
    return RatFun(kernel.poly(pair), [form for _, form in remaining])


def _atom_through(rng, vs, i):
    """A non-flat simplex of the vertex set through vertex i, or None after a few draws."""
    others = [j for j in range(len(vs)) if j != i]
    for _ in range(20):
        s = tuple(sorted([i, *rng.sample(others, vs.dim)]))
        if edge_det(s, vs):
            return s
    return None


def _measure(kind, dim, seed, origin, repeated):
    """A seeded measure in R^dim: a signed sum of 1-4 simplices on random points, the first through
    the origin and the second through a repeated point when asked; 20-40 signed simplices on 8-12
    shared points, the origin and a repeated point among them (`shared`), so that atoms with and
    without the origin's trivial form meet in one sum; a simplex fanned from an interior point at a
    random density (`dissection`); or that fan minus the simplex at the same density, whose weights
    cancel to the zero measure (`cancelling`).  The fans put a corner at the origin when asked."""
    rng = random.Random(seed)
    corners = list(random_simplex_vertices(rng, dim).points)
    if kind == "shared":
        extra = rng.randint(8, 12) - len(corners) - 2
        points = corners + [random_point(rng, dim, span=3, max_den=2) for _ in range(extra)]
        vs = VertexSet(dim, points + [(0,) * dim, points[0]])
        atoms, target = {_atom_through(rng, vs, i) for i in (len(points), len(points) + 1)}, rng.randint(20, 40)
        for _ in range(20 * target):
            if len(atoms - {None}) == target:
                break
            atoms.add(_atom_through(rng, vs, rng.randrange(len(vs))))
        return WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in sorted(atoms - {None})])
    if kind == "sum":
        points = corners + [random_point(rng, dim, span=3, max_den=2) for _ in range(rng.randint(0, 2))]
        if origin:
            points.append((0,) * dim)
        if repeated:
            points.append(points[0])
        vs = VertexSet(dim, points)
        through = [len(points) - 1 - repeated] if origin else []
        through += [len(points) - 1, 0] if repeated else []
        atoms = [_atom_through(rng, vs, i) for i in through]
        atoms += [_atom_through(rng, vs, rng.randrange(len(points))) for _ in range(rng.randint(1, 4 - len(atoms)))]
        return WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in atoms if s is not None])
    if origin:
        corners = [tuple(c - a for c, a in zip(p, corners[0])) for p in corners]
    bary = [rng.randint(1, 4) for _ in corners]
    centre = tuple(sum(b * p[k] for b, p in zip(bary, corners)) / sum(bary) for k in range(dim))
    vs = VertexSet(dim, corners + [centre])
    density = random_rational(rng) or 1
    fan = [tuple(j for j in range(dim + 2) if j != omit) for omit in range(dim + 1)]
    atoms = [(s, density * abs(edge_det(s, vs))) for s in fan]
    if kind == "cancelling":
        whole = tuple(range(dim + 1))
        atoms.append((whole, -density * abs(edge_det(whole, vs))))
    return WeightedMeasure(vs, atoms)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@example("shared", 3, 0, True, True)
@example("shared", 4, 0, True, True)
@example("shared", 4, 1, True, True)
@given(
    st.sampled_from(["sum", "shared", "dissection", "cancelling"]),
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.booleans(),
    st.booleans(),
)
def test_measure_genfunc_equals_the_counter_construction(kind, dim, seed, origin, repeated):
    """`measure_genfunc` gives the numerator, the denominator tuple and the text of the
    construction through `Counter` multisets and `RatFun(Poly, forms)`, in R^1 to R^4, on repeated
    points, a vertex at the origin, many atoms on shared points, dissections, whose interior form
    cancels, and weights that cancel to the zero measure, which keeps a zero numerator and no form."""
    m = _measure(kind, dim, seed, origin, repeated)
    f, expected = measure_genfunc(m), _counter_measure_genfunc(m)
    assert f.numerator == expected.numerator
    assert f.denominator == expected.denominator
    assert str(f) == str(expected) and f == expected
    if kind == "cancelling":
        assert not f.numerator.terms and f.denominator == ()
    if kind == "dissection":
        assert all(form.vertex != m.vertex_set.points[-1] for form in f.denominator)
