import json
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from polymom import (
    LinearForm,
    Poly,
    RatFun,
    Series,
    SimplePolytope,
    TangentCone,
    VertexSet,
    WeightedMeasure,
    axial_moment,
    brion_axial_moment,
    brion_genfunc,
    brion_identity_residuals,
    density_op,
    euler_op,
    measure_genfunc,
    measure_moments,
    moments_to_series,
    series_to_moments,
    simplex_genfunc,
    taylor,
    uniform_measure,
    volume,
)
from polymom.errors import DegenerateDirectionError, DegenerateSimplexError, DimensionError
from polymom import genfunc
from polymom.jsonio import measure_from_json, ratfun_to_json
from polymom.linalg import integer_vector
from polymom.poly import ZERO, FormKernel, monomials_of_degree, monomials_upto
from polymom.verify import (
    _nonzero_direction,
    box_polytope,
    random_point,
    random_rational,
    random_simplex_vertices,
    triangle_polytope,
)
from polyops import drop_above, pairing, plus, times, vertex_form


def form(*coords):
    return LinearForm([F(c) for c in coords])


# Products of simplices, each factor its vertex list: simple polytopes with known triangulations.
TRIANGLE = [(1, 1), (2, 5), (3, 2)]
STAIRCASE_FACTORS = {
    "tetrahedron": [[(1, 0, 0), (0, 2, 1), (1, 1, 3), (2, 1, F(1, 2))]],
    "triangle-x-segment": [TRIANGLE, [(F(1, 2),), (2,)]],
    "triangle-x-triangle": [TRIANGLE, [(0, 1), (2, 0), (F(1, 3), 2)]],
    "triangle-x-segment-x-segment": [TRIANGLE, [(F(1, 2),), (2,)], [(-1,), (F(1, 3),)]],
}


def _simplex_product(factors) -> SimplePolytope:
    """The product of the simplices: at a vertex, each factor's edges to its other vertices,
    padded with zeros in the other factors' coordinates."""
    dims = [len(points[0]) for points in factors]
    cones = []
    for corner in product(*(range(len(points)) for points in factors)):
        vertex, edges = [], []
        for k, (points, i) in enumerate(zip(factors, corner)):
            vertex += points[i]
            before, after = sum(dims[:k]), sum(dims[k + 1 :])
            for j in range(len(points)):
                if j != i:
                    edge = [F(b) - F(a) for a, b in zip(points[i], points[j])]
                    edges.append((0,) * before + tuple(edge) + (0,) * after)
        cones.append(TangentCone(vertex, edges))
    return SimplePolytope(sum(dims), cones)


def _staircase_measure(factors) -> WeightedMeasure:
    """The uniform measure on the staircase triangulation of the product of the simplices: one
    simplex per monotone lattice path through the factors' vertex indices, a step raising one."""
    corners = list(product(*(range(len(points)) for points in factors)))
    points = [sum((tuple(points[i]) for points, i in zip(factors, c)), ()) for c in corners]
    vs = VertexSet(len(points[0]), points)
    steps = [k for k, points in enumerate(factors) for _ in points[1:]]
    simplices = []
    for path in sorted(set(permutations(steps))):
        at = [0] * len(factors)
        chain = [corners.index(tuple(at))]
        for k in path:
            at[k] += 1
            chain.append(corners.index(tuple(at)))
        simplices.append(tuple(sorted(chain)))
    return uniform_measure(vs, simplices)


def _quotient(p, g, degree=None):
    """p over -<g, u>, the form of the direction row (0, g), by `FormKernel.divide` in the kernel
    of p's degree unless one is given; None when a remainder is left."""
    kernel = genfunc.form_kernel(p.dim, p.degree() if degree is None else degree)
    out = kernel.divide(integer_vector(map(p.coefficient, kernel.rows)), (0, *g))
    return None if out is None else Poly(p.dim, {e: F(x, out[1]) for e, x in zip(kernel.rows, out[0])})


class TestDivideLinear:
    """`FormKernel.divide`: the exact quotient by the linear form -<g, u> of a direction."""

    def test_exact_quotient(self):
        l1, l2 = pairing((-1, 0)), pairing((-2, -1))  # -u1, the form of (1, 0); -2u1 - u2
        assert _quotient(times(l1, l2), (1, 0)) == l2
        assert _quotient(times(l1, l2), (2, 1)) == l1

    def test_not_divisible(self):
        l1, l2 = pairing((-1, 0)), pairing((-2, -1))
        assert _quotient(plus(times(l1, l2), Poly.constant(2, 1)), (1, 0)) is None
        assert _quotient(plus(times(l1, l2), Poly.monomial(2, (0, 1))), (1, 0)) is None

    def test_homogeneous_divisor(self):
        """Only the divisor is homogeneous.  Its least entry, 2, is not 1, so the scale grows by 2^degree,
        and a kernel above the dividend's degree gives the same quotient."""
        p = times(pairing((-3, -2)), vertex_form((3, 7)))
        for degree in (2, 4):
            assert _quotient(p, (3, 2), degree) == vertex_form((3, 7))

    def test_zero_numerator(self):
        assert _quotient(Poly(2), (1, 1), 2) == Poly(2)


class TestSimplexGenfunc:
    def test_triangle(self, triangle_115232):
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        assert f.numerator == Poly.constant(2, 7)
        assert f.denominator == tuple(sorted([form(1, 1), form(2, 5), form(3, 2)]))

    def test_unit_interval(self):
        vs = VertexSet(1, [(0,), (1,)])
        f = simplex_genfunc((0, 1), vs, 1)
        # the origin form is the constant 1 and is dropped
        assert f.numerator == Poly.constant(1, 1)
        assert f.denominator == (form(1),)

    def test_pentagon_triangle(self, pentagon_set):
        f = simplex_genfunc((2, 3, 4), pentagon_set, 1)
        assert f.denominator == tuple(sorted([form(0, 1), form(1, 2)]))
        # series agrees with oracle moments of the unit-weight measure
        m = uniform_measure(pentagon_set, [(2, 3, 4)])
        assert series_to_moments(taylor(f, 3), 2) == measure_moments(m, 3)

    def test_degenerate_needs_flag(self, square_with_center):
        with pytest.raises(DegenerateSimplexError):
            simplex_genfunc((0, 2, 4), square_with_center, 1)
        f = simplex_genfunc((0, 2, 4), square_with_center, 1, allow_degenerate=True)
        assert len(f.denominator) == 2  # origin form dropped


class TestMeasureGenfunc:
    def test_single_atom(self, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        assert measure_genfunc(m) == simplex_genfunc((0, 1, 2), triangle_115232, 7)

    def test_steiner_point_cancels(self):
        vs = VertexSet(2, [(1, 0), (3, 1), (0, 3), (1, 1)])
        split = uniform_measure(vs, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
        f = measure_genfunc(split)
        assert f.denominator == tuple(sorted([form(1, 0), form(3, 1), form(0, 3)]))
        whole = uniform_measure(vs, [(0, 1, 2)])
        assert f == measure_genfunc(whole)

    def test_mirror_tetrahedra_shared_vertex_cancels(self):
        v = (1, 1, 1)
        pts = [v]
        for sgn in (1, -1):
            for i in range(3):
                pts.append(tuple(v[k] + sgn * (1 if k == i else 0) for k in range(3)))
        vs = VertexSet(3, pts)
        m = uniform_measure(vs, [(0, 1, 2, 3), (0, 4, 5, 6)])
        f = measure_genfunc(m)
        assert all(g.vertex != tuple(map(F, v)) for g in f.denominator)
        assert len(f.denominator) == 6

    def test_interior_form_cancels_without_dividing_by_a_direction(self, monkeypatch):
        """Cancellation divides by vertex forms alone: the golden dissection comes out whole with
        `FormKernel.divide`, Brion's division by edge directions, unavailable."""
        case = Path(__file__).parent / "data" / "genfunc_dissection"
        m = measure_from_json(json.loads((case / "measure.json").read_text(encoding="utf-8")))

        def refuse(*args):
            raise AssertionError("FormKernel.divide called")

        monkeypatch.setattr(FormKernel, "divide", refuse)
        f = measure_genfunc(m)
        assert f == RatFun(Poly.constant(2, 19), [form(1, 1), form(5, 2), form(2, 6)])
        assert form(F(8, 3), 3) not in f.denominator
        assert ratfun_to_json(f) == json.loads((case / "genfunc.json").read_text(encoding="utf-8"))

    def test_empty_measure(self, pentagon_set):
        m = uniform_measure(pentagon_set, [])
        f = measure_genfunc(m)
        assert not f.numerator.terms and f.denominator == ()


class TestTaylor:
    def test_triangle_series(self, triangle_115232):
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        s = taylor(f, 3)
        coeffs = [s.coefficient(e) for e in monomials_upto(2, 3)]
        assert coeffs == [7, 42, 56, 175, 455, 329, 630, 2387, 3367, 1750]

    def test_constant(self):
        f = RatFun(Poly.constant(2, F(5, 3)))
        assert taylor(f, 4).poly == Poly.constant(2, F(5, 3))

    def test_degree_six_coefficient(self, triangle_115232):
        # the u1^2 u2^4 coefficient is 7 * 153493 (a digit was doubled in print)
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        s = taylor(f, 6)
        assert s.coefficient((2, 4)) == 1074451


class TestSeriesMoments:
    def test_mass_normalization(self, triangle_115232):
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        t = series_to_moments(taylor(f, 0), 2)
        assert t[(0, 0)] == F(7, 2)

    def test_zero(self):
        t = series_to_moments(taylor(RatFun(Poly(2)), 2), 2)
        assert all(v == 0 for v in t.moments.values())

    def test_pentagon_series(self, pentagon_moments):
        s = moments_to_series(pentagon_moments)
        assert [s.coefficient(e) for e in monomials_upto(2, 2)] == [2, 12, 18, 48, 120, 72]

    def test_mutual_inverse(self, pentagon_moments):
        assert series_to_moments(moments_to_series(pentagon_moments), 2) == pentagon_moments

    def test_printed_m12_conflicts_resolved_by_oracle(self, triangle_115232):
        # series coefficient 3367 pins m12 = 3367/60; the oracle agrees
        from polymom import simplex_monomial_moment

        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        t = series_to_moments(taylor(f, 3), 2)
        assert t[(1, 2)] == F(3367, 60)
        assert simplex_monomial_moment((0, 1, 2), triangle_115232, (1, 2)) == F(3367, 60)

    @pytest.mark.parametrize(
        "vs, simplices, order",
        [
            (VertexSet(2, [(-1, 0), (1, 0), (0, 1), (0, F(1, 3))]), [(0, 1, 3), (1, 2, 3), (2, 0, 3)], 8),
            (VertexSet(3, [(-1, 0, 0), (1, 0, 0), (0, F(3, 2), 0), (0, 0, 1)]), [(0, 1, 2, 3)], 5),
        ],
    )
    def test_the_forward_path_forms_no_poly_and_no_fraction(self, monkeypatch, vs, simplices, order):
        """`measure_genfunc` hands `taylor` the kernel pair its `RatFun` holds, `taylor` hands
        `series_to_moments` its integer pair, and the table holds its own: with every way to a
        `Poly` refusing, no `Fraction` is formed from the measure to the table, nor by the oracle
        without a density, and the two tables are equal."""
        m = uniform_measure(vs, simplices)

        def refuse(*args, **kwargs):
            raise AssertionError("the forward path formed a Poly")

        made = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(FormKernel, "poly", refuse)
        monkeypatch.setattr(Poly, "_of", classmethod(refuse))
        monkeypatch.setattr(Poly, "__init__", refuse)
        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        table = series_to_moments(taylor(measure_genfunc(m), order), vs.dim)
        expected = measure_moments(m, order)
        monkeypatch.undo()
        assert made == [] and table == expected
        assert table.moments == expected.moments and any(v is ZERO for v in table.moments.values())


class TestBrion:
    def test_interval(self):
        p = SimplePolytope(1, [TangentCone((0,), [(1,)]), TangentCone((1,), [(-1,)])])
        for j in range(6):
            assert brion_axial_moment(p, (1,), j) == F(1, j + 1)

    def test_triangle_axials(self, triangle_115232):
        p = triangle_polytope(triangle_115232)
        assert brion_axial_moment(p, (1, 0), 0) == F(7, 2)
        assert brion_axial_moment(p, (1, 0), 1) == 7

    def test_residuals_vanish(self, triangle_115232):
        p = triangle_polytope(triangle_115232)
        for z in [(1, 0), (1, 3), (F(2, 3), F(-1, 5))]:
            assert brion_identity_residuals(p, z) == (0, 0)

    def test_degenerate_direction(self):
        p = box_polytope(2)
        with pytest.raises(DegenerateDirectionError):
            brion_axial_moment(p, (1, 0), 2)

    def test_square_equals_triangulation(self):
        p = box_polytope(2)
        vs = VertexSet(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
        for tris in ([(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]):
            m = uniform_measure(vs, tris)
            assert brion_genfunc(p) == measure_genfunc(m)

    def test_cube_equals_triangulation(self):
        p = box_polytope(3)
        pts = [tuple(F((i >> k) & 1) for k in range(3)) for i in range(8)]
        vs = VertexSet(3, pts)
        from itertools import permutations

        tets = []
        for perm in permutations(range(3)):
            idx, v = [0], [0, 0, 0]
            for axis in perm:
                v[axis] = 1
                idx.append(v[0] + 2 * v[1] + 4 * v[2])
            tets.append(tuple(sorted(idx)))
        assert brion_genfunc(p) == measure_genfunc(uniform_measure(vs, tets))

    def test_triangle_genfunc_is_simplex_formula(self, triangle_115232):
        p = triangle_polytope(triangle_115232)
        assert brion_genfunc(p) == simplex_genfunc((0, 1, 2), triangle_115232, 7)

    def test_bad_cone_data_rejected(self):
        # a flipped edge direction leaves an edge pairing uncancelled, which
        # is the built-in consistency check on user-supplied cone data
        from polymom.errors import PolymomError

        cones = [
            TangentCone((0, 0), [(1, 0), (0, 1)]),
            TangentCone((1, 0), [(-1, 0), (0, 1)]),
            TangentCone((1, 1), [(-1, 0), (0, -1)]),
            TangentCone((0, 1), [(1, 0), (0, 1)]),
        ]
        with pytest.raises(PolymomError):
            brion_genfunc(SimplePolytope(2, cones))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_box_equals_kuhn_triangulation(self, dim):
        assert brion_genfunc(box_polytope(dim)) == measure_genfunc(_kuhn_measure(dim))

    @pytest.mark.parametrize("factors", list(STAIRCASE_FACTORS.values()), ids=list(STAIRCASE_FACTORS))
    def test_product_of_simplices_equals_staircase_triangulation(self, factors):
        assert brion_genfunc(_simplex_product(factors)) == measure_genfunc(_staircase_measure(factors))

    def test_four_cube_within_budget(self):
        """The sum stands over the 4 edge directions, not over all 64 edge pairings."""
        p = box_polytope(4)
        start = time.perf_counter()
        brion_genfunc(p)
        assert time.perf_counter() - start < 2.0


class TestDensityOperators:
    def test_degree_zero_is_identity(self, triangle_115232):
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        s = taylor(f, 3)
        assert density_op(s, Poly.constant(2, 1)) == s

    def test_interval_weighted_by_x(self):
        vs = VertexSet(1, [(0,), (1,)])
        f = simplex_genfunc((0, 1), vs, 1)
        out = density_op(taylor(f, 7), Poly.monomial(1, (1,)))
        for i in range(7):
            assert out.coefficient((i,)) == i + 1

    def test_euler_matches(self):
        vs = VertexSet(1, [(0,), (1,)])
        m = uniform_measure(vs, [(0, 1)])
        table = measure_moments(m, 6, Poly.monomial(1, (1,)))
        out = euler_op(moments_to_series(table), 1, 1)
        for i in range(7):
            assert out.coefficient((i,)) == i + 1

    def test_printed_operator_range_fails_the_interval_check(self):
        # applying (sum u_k d_k + l) for l = d..d+delta-1 scales by |I|+1
        # instead of |I|+2 in one dimension; that contradicts the closed form
        vs = VertexSet(1, [(0,), (1,)])
        m = uniform_measure(vs, [(0, 1)])
        table = measure_moments(m, 6, Poly.monomial(1, (1,)))
        series = moments_to_series(table)
        wrong = {e: c * (sum(e) + 1) for e, c in series.poly.terms.items()}
        assert any(
            wrong.get((i,), 0) != i + 1 for i in range(7)
        )

    def test_operators_agree_on_random_simplices(self):
        rng = random.Random(101)
        rhos = [Poly.monomial(2, (1, 0)), Poly.monomial(2, (1, 1)), Poly.monomial(2, (2, 0))]
        for _ in range(5):
            vs = random_simplex_vertices(rng, 2)
            w = 2 * volume((0, 1, 2), vs)
            f = simplex_genfunc((0, 1, 2), vs, w)
            m = uniform_measure(vs, [(0, 1, 2)])
            for rho in rhos:
                delta = rho.degree()
                lhs = density_op(taylor(f, 4 + delta), rho)
                table = measure_moments(m, 4, rho)
                rhs = euler_op(moments_to_series(table), 2, delta)
                assert lhs == rhs.truncate(lhs.order)
                for e, value in table.moments.items():
                    scale = F(factorial(sum(e) + 2 + delta))
                    for k in e:
                        scale /= factorial(k)
                    assert lhs.coefficient(e) == scale * value

    def test_inhomogeneous_density_rejected(self, triangle_115232):
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        with pytest.raises(DimensionError):
            density_op(taylor(f, 3), Poly(2, {(0, 0): 1, (1, 0): 1}))


class TestSingularTerm:
    def test_point_mass_series(self):
        # with all d+1 forms at x0 the expansion carries the moments of the
        # weight-1 singular measure: (|I|+d)!/(d! prod i!) * x0^I
        x0 = (F(1, 2), F(1, 3))
        vs = VertexSet(2, [x0, x0, x0, (0, 1), (1, 0)])
        f = simplex_genfunc((0, 1, 2), vs, 1, allow_degenerate=True)
        s = taylor(f, 3)
        for e in monomials_upto(2, 3):
            expect = F(factorial(sum(e) + 2), factorial(2))
            for k in e:
                expect /= factorial(k)
            expect *= x0[0] ** e[0] * x0[1] ** e[1]
            assert s.coefficient(e) == expect

    def test_simplex_series_matches_oracle_randomly(self):
        rng = random.Random(55)
        for _ in range(20):
            dim = rng.choice([1, 2, 3])
            vs = random_simplex_vertices(rng, dim)
            s = tuple(range(dim + 1))
            w = factorial(dim) * volume(s, vs)
            f = simplex_genfunc(s, vs, w)
            m = uniform_measure(vs, [s])
            assert series_to_moments(taylor(f, 4), dim) == measure_moments(m, 4)


def _reference_taylor(f, order):
    """Expansion by truncated geometric-series powers, one product per form."""
    result = drop_above(f.numerator, order)
    for form in f.denominator:
        g = pairing(form.vertex)
        geo = Poly.constant(f.dim, 1)
        power = Poly.constant(f.dim, 1)
        for _ in range(order):
            power = drop_above(times(power, g), order)
            if not power.terms:
                break
            geo = plus(geo, power)
        result = drop_above(times(result, geo), order)
    return Series(result, order)


def test_taylor_matches_geometric_series_reference():
    rng = random.Random(71)
    for case in range(40):
        dim = rng.choice([1, 2, 3])
        order = case % 7
        points = [random_point(rng, dim) for _ in range(rng.randint(1, 4))]
        forms = [LinearForm(rng.choice(points)) for _ in range(rng.randint(1, 5))]
        numerator = Poly(dim, {
            tuple(rng.randint(0, order + 2) for _ in range(dim)): random_rational(rng)
            for _ in range(rng.randint(1, 6))
        })
        f = RatFun(numerator, forms)
        assert taylor(f, order) == _reference_taylor(f, order)


def test_shared_kernels_leave_no_trace_between_calls():
    """Two functions that share (dim, order) expand the same in either order, and again after
    the kernel memo is emptied; the shared kernel's tables are tuples."""
    rng = random.Random(29)
    fs = [
        RatFun(
            Poly(2, {(i, j): random_rational(rng) or 1 for i, j in [(0, 0), (1, 0), (1, 2)]}),
            [LinearForm(random_point(rng, 2)) for _ in range(3)],
        )
        for _ in range(2)
    ]
    first = [taylor(f, 6) for f in fs]
    second = [taylor(f, 6) for f in reversed(fs)][::-1]
    genfunc.form_kernel.cache_clear()
    assert first == second == [taylor(f, 6) for f in fs]
    kernel = genfunc.form_kernel(2, 6)
    assert kernel is genfunc.form_kernel(2, 6)
    assert isinstance(kernel.rows, tuple) and isinstance(kernel.up, tuple)
    assert kernel.degrees == tuple(map(sum, kernel.rows))
    assert all(isinstance(up_v, tuple) for up_v in kernel.up)
    with pytest.raises(TypeError):  # a float order does not read the shared kernel of 6
        taylor(fs[0], 6.0)


@pytest.mark.parametrize("order", [True, 2.5])
def test_taylor_refuses_a_bool_or_fractional_order(order):
    """1 / ((1 - u1)(1 - u2)) to order True once read 1 + u1 + u2 with order True."""
    f = RatFun(Poly.constant(2, 1), [LinearForm((1, 0)), LinearForm((0, 1))])
    with pytest.raises(TypeError):
        taylor(f, order)


@pytest.mark.parametrize(
    "numerator, forms, message",
    [
        (Poly.constant(2, 1), [(1, 0)], "^a denominator form must be a LinearForm, not tuple$"),
        (Poly.constant(2, 1), "ab", "^a denominator form must be a LinearForm, not str$"),
        ((1, 0), [LinearForm((1, 0))], "^a RatFun numerator must be a Poly, not tuple$"),
    ],
    ids=["tuple-form", "string-of-forms", "tuple-numerator"],
)
def test_checked_ratfun_refuses_what_is_not_a_poly_or_a_form(numerator, forms, message):
    """A form that is not a `LinearForm`, a string of forms and a numerator that is not a
    `Poly` once raised a bare AttributeError from deep in the constructor."""
    with pytest.raises(TypeError, match=message):
        RatFun(numerator, forms)


def test_checked_ratfun_checks_only_the_nontrivial_forms_dimension():
    """The constant form 1 is dropped before the dimension check, as it always was."""
    assert RatFun(Poly.constant(2, 3), [LinearForm((0, 0, 0))]) == RatFun(Poly.constant(2, 3))
    with pytest.raises(DimensionError, match="^denominator form dimension mismatch$"):
        RatFun(Poly.constant(2, 3), [LinearForm((1, 0, 0))])


def _reference_measure_genfunc(m):
    """Common-denominator numerator as a chain of `Poly` products, then `cancel`."""
    vs = m.vertex_set
    if not m.atoms:
        return RatFun(Poly(vs.dim))
    denominators = [
        Counter(f for f in (LinearForm(vs.points[i]) for i in s) if not f.is_trivial()) for s, _ in m.atoms
    ]
    common = Counter()
    for counts in denominators:
        common |= counts
    numerator = Poly(vs.dim)
    for (_, w), counts in zip(m.atoms, denominators):
        part = Poly.constant(vs.dim, w)
        for f in (common - counts).elements():
            part = times(part, vertex_form(f.vertex))
        numerator = plus(numerator, part)
    return RatFun(numerator, common.elements()).cancel()


def _random_measure(rng, dim):
    """A signed measure on random points, some repeated, some at the origin;
    every fourth one the uniform measure on a simplex fanned from an interior
    point, whose form cancels; some empty."""
    if rng.random() < 0.25:
        corners = random_simplex_vertices(rng, dim).points
        weights = [F(rng.randint(1, 4)) for _ in corners]
        centre = tuple(sum(w * p[k] for w, p in zip(weights, corners)) / sum(weights) for k in range(dim))
        vs = VertexSet(dim, list(corners) + [centre])
        fan = [tuple(sorted(set(range(dim + 1)) - {i})) + (dim + 1,) for i in range(dim + 1)]
        return uniform_measure(vs, fan)
    points = list(random_simplex_vertices(rng, dim).points)
    points += [random_point(rng, dim, span=3, max_den=2) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        points.append(rng.choice(points))
    if rng.random() < 0.4:
        points.append((0,) * dim)
    vs = VertexSet(dim, points)
    atoms = []
    for _ in range(rng.randint(0, 4)):
        s = tuple(sorted(rng.sample(range(len(points)), dim + 1)))
        if volume(s, vs):
            atoms.append((s, random_rational(rng)))
    return WeightedMeasure(vs, atoms)


def test_measure_genfunc_matches_poly_product_reference():
    rng = random.Random(83)
    seen = Counter()
    for case in range(60):
        m = _random_measure(rng, 1 + case % 3)
        f = measure_genfunc(m)
        assert f == _reference_measure_genfunc(m)
        points = m.vertex_set.points
        used = {i for s, _ in m.atoms for i in s}
        seen["empty"] += not m.atoms
        seen["origin"] += any(not any(points[i]) for i in used)
        seen["repeated"] += len({points[i] for i in used}) < len(used)
        seen["cancelled"] += len(f.denominator) < len({points[i] for i in used if any(points[i])})
    assert min(seen[k] for k in ("empty", "origin", "repeated", "cancelled")) >= 3, seen


def _reference_density_op(f, rho):
    """rho(d/du) term by term: one whole-polynomial partial derivative per unit of each exponent."""

    def partial(p, k):
        return Poly(p.dim, {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.terms.items() if e[k]})

    out = Poly(f.dim)
    for exps, coef in rho.terms.items():
        part = f.poly
        for k, n in enumerate(exps):
            for _ in range(n):
                part = partial(part, k)
        out = plus(out, times(part, Poly.constant(f.dim, coef)))
    return Series(out, f.order - sum(next(iter(rho.terms))))


def _random_series(rng, dim, order):
    monos = monomials_upto(dim, order)
    terms = {e: random_rational(rng) for e in rng.sample(monos, rng.randint(1, min(len(monos), 12)))}
    return Series(Poly(dim, terms), order)


def _random_density(rng, dim, degree):
    """A homogeneous density of the given degree with one to four terms, none zero."""
    monos = list(monomials_of_degree(dim, degree))
    return Poly(dim, {e: random_rational(rng) or 1 for e in rng.sample(monos, rng.randint(1, min(len(monos), 4)))})


def test_density_op_matches_term_by_term_reference():
    rng = random.Random(37)
    mixed = 0
    for case in range(72):
        dim, degree = 1 + case % 3, case % 4
        f = _random_series(rng, dim, degree + rng.randint(0, 4))
        rho = _random_density(rng, dim, degree)
        mixed += len(rho.terms) > 1 and any(sum(map(bool, e)) > 1 for e in rho.terms)
        assert density_op(f, rho) == _reference_density_op(f, rho)
    assert mixed >= 5, mixed


def test_density_op_composes():
    """(rho1 rho2)(d/du) is rho2(d/du) after rho1(d/du), for random homogeneous densities."""
    rng = random.Random(41)
    for case in range(45):
        dim = 1 + case % 3
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        rho1, rho2 = _random_density(rng, dim, d1), _random_density(rng, dim, d2)
        f = _random_series(rng, dim, d1 + d2 + rng.randint(0, 3))
        assert density_op(f, times(rho1, rho2)) == density_op(density_op(f, rho1), rho2)


def test_second_derivative_of_geometric_series():
    # d^2/du^2 of 1/(1-u) expanded to order 5 matches 2/(1-u)^3 to degree 3
    geo = Series(Poly(1, {(k,): 1 for k in range(6)}), 5)
    expect = Poly(1, {(k,): (k + 1) * (k + 2) for k in range(4)})
    assert density_op(geo, Poly.monomial(1, (2,))) == Series(expect, 3)


def test_euler_op_refuses_a_dimension_other_than_the_series():
    """On 1 + 2*u1 in two variables, a dimension of 3 once gave 4 + 10*u1 for 3 + 8*u1."""
    s = Series(Poly(2, {(0, 0): 1, (1, 0): 2}), 1)
    assert euler_op(s, 2, 1) == Series(Poly(2, {(0, 0): 3, (1, 0): 8}), 1)
    with pytest.raises(DimensionError, match="series has 2 variables, expected 3"):
        euler_op(s, 3, 1)


# (series dimension, dim, delta, error, message)
EULER_OP_REFUSALS = [
    (2, 2, -1, DimensionError, "delta must be non-negative, got -1"),
    (2, 2, True, TypeError, "not bool"),
    (1, True, 1, TypeError, "not bool"),
    (2, 2, 1.5, TypeError, "'float' object cannot be interpreted as an integer"),
    (2, 2.0, 1, TypeError, "'float' object cannot be interpreted as an integer"),
]


@pytest.mark.parametrize(
    "series_dim, dim, delta, error, message",
    EULER_OP_REFUSALS,
    ids=["negative-delta", "bool-delta", "bool-dim", "float-delta", "float-dim"],
)
def test_euler_op_checks_dim_and_delta_before_reading_a_term(series_dim, dim, delta, error, message):
    """Once a negative delta raised a bare ValueError from `math.perm`, True was read as 1, and on
    the zero series no check ran at all."""
    one = (0,) * series_dim
    for poly in (Poly(series_dim, {one: 1}), Poly(series_dim)):
        with pytest.raises(error, match=message):
            euler_op(Series(poly, 1), dim, delta)


def test_euler_op_reads_dim_and_delta_through_index():
    class Two:
        def __index__(self):
            return 2

    s = Series(Poly(2, {(0, 0): 1, (1, 0): 2}), 1)
    assert euler_op(s, Two(), Two()) == euler_op(s, 2, 2)
    assert euler_op(s, 2, 0) == s


def _kuhn_measure(dim):
    """The uniform measure on the unit box's d! Kuhn simplices, one per order of the axes."""
    vs = VertexSet(dim, [tuple((i >> k) & 1 for k in range(dim)) for i in range(2**dim)])
    simplices = [tuple(sum(1 << a for a in axes[:m]) for m in range(dim + 1)) for axes in permutations(range(dim))]
    return uniform_measure(vs, [tuple(sorted(s)) for s in simplices])


def test_brion_axial_moment_matches_the_oracle():
    """Brion's vertex sum against the oracle's cubature, on 20 random triangles and on the unit
    square and cube against their Kuhn triangulations, at j = 0..6 along random directions."""
    rng = random.Random(0)
    cases = []
    for _ in range(20):
        vs = random_simplex_vertices(rng, 2)
        cases.append((triangle_polytope(vs), uniform_measure(vs, [(0, 1, 2)])))
    cases += [(box_polytope(dim), _kuhn_measure(dim)) for dim in (2, 3)]
    for p, m in cases:
        z, _ = _nonzero_direction(rng, p)
        for j in range(7):
            assert brion_axial_moment(p, z, j) == axial_moment(m, z, j), (p, z, j)
