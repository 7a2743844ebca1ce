import random
from fractions import Fraction as F
from math import factorial

import pytest

from polymom import (
    LinearForm,
    Poly,
    RatFun,
    Series,
    SimplePolytope,
    TangentCone,
    VertexSet,
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
from polymom.genfunc import divide_linear
from polymom.poly import monomials_upto
from polymom.verify import (
    box_polytope,
    random_point,
    random_rational,
    random_simplex_vertices,
    triangle_polytope,
)


def form(*coords):
    return LinearForm([F(c) for c in coords])


class TestDivideLinear:
    def test_exact_quotient(self):
        l1 = form(1, 0).poly()
        l2 = form(2, 1).poly()
        assert divide_linear(l1 * l2, l1) == l2
        assert divide_linear(l1 * l2, l2) == l1

    def test_not_divisible(self):
        l1 = form(1, 0).poly()
        l2 = form(2, 1).poly()
        assert divide_linear(l1 * l2 + 1, l1) is None

    def test_homogeneous_divisor(self):
        u1 = Poly.variable(2, 0)
        p = u1 * form(3, 7).poly()
        assert divide_linear(p, u1) == form(3, 7).poly()

    def test_zero_numerator(self):
        assert divide_linear(Poly.zero(2), form(1, 1).poly()) == Poly.zero(2)


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

    def test_empty_measure(self, pentagon_set):
        m = uniform_measure(pentagon_set, [])
        f = measure_genfunc(m)
        assert f.numerator.is_zero() and f.denominator == ()


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
        t = series_to_moments(taylor(RatFun(Poly.zero(2)), 2), 2)
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
    result = f.numerator.drop_above(order)
    for form in f.denominator:
        g = form.pairing()
        geo = Poly.constant(f.dim, 1)
        power = Poly.constant(f.dim, 1)
        for _ in range(order):
            power = power.mul(g, order)
            if power.is_zero():
                break
            geo = geo + power
        result = result.mul(geo, order)
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
