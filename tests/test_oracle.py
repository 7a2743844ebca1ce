import random
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

from polymom import (
    MomentTable,
    Poly,
    VertexSet,
    WeightedMeasure,
    axial_moment,
    measure_moments,
    simplex_monomial_moment,
    uniform_measure,
)
from polymom.errors import DegenerateSimplexError, DimensionError
from polymom.geometry import edge_det, is_degenerate
from polymom.poly import monomials_upto
from polymom.verify import random_point, random_rational, random_simplex_vertices


def test_standard_simplex_closed_form():
    # integral of x^i y^j over the standard triangle is i! j! / (i+j+2)!
    vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
    for i in range(4):
        for j in range(4):
            expect = F(factorial(i) * factorial(j), factorial(i + j + 2))
            assert simplex_monomial_moment((0, 1, 2), vs, (i, j)) == expect


def test_triangle_values(triangle_115232):
    t = triangle_115232
    assert simplex_monomial_moment((0, 1, 2), t, (0, 0)) == F(7, 2)
    assert simplex_monomial_moment((0, 1, 2), t, (1, 0)) == 7
    assert simplex_monomial_moment((0, 1, 2), t, (2, 2)) == F(21217, 180)


def test_degenerate_rejected():
    vs = VertexSet(2, [(0, 0), (1, 1), (2, 2), (0, 1)])
    with pytest.raises(DegenerateSimplexError):
        simplex_monomial_moment((0, 1, 2), vs, (0, 0))


def test_interval_moments():
    vs = VertexSet(1, [(0,), (1,)])
    for j in range(7):
        assert simplex_monomial_moment((0, 1), vs, (j,)) == F(1, j + 1)


def test_unit_density_mass():
    vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
    m = uniform_measure(vs, [(0, 1, 2)])
    assert measure_moments(m, 0)[(0, 0)] == F(1, 2)


def test_pentagon_reconstruction_moments(pentagon_set):
    weights = [((2, 3, 4), 1), ((1, 3, 4), -22), ((1, 2, 4), 26),
               ((0, 3, 4), 15), ((0, 2, 4), -16), ((0, 1, 4), -2)]
    m = WeightedMeasure(pentagon_set, weights)
    table = measure_moments(m, 2)
    assert [table[e] for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]] == [
        1, 2, 3, 4, 5, 6,
    ]


def test_polynomial_density():
    vs = VertexSet(1, [(0,), (1,)])
    m = uniform_measure(vs, [(0, 1)])
    table = measure_moments(m, 5, Poly.monomial(1, (1,)))
    for i in range(6):
        assert table[(i,)] == F(1, i + 2)


def test_table_completeness_enforced():
    with pytest.raises(DimensionError):
        MomentTable(2, 1, {(0, 0): F(1)})


def test_negative_order_rejected(triangle_115232):
    with pytest.raises(DimensionError):
        MomentTable(2, -1, {})
    with pytest.raises(DimensionError):
        measure_moments(uniform_measure(triangle_115232, [(0, 1, 2)]), -1)


def test_additivity_under_dissection():
    # split a triangle through an interior point; moments add exactly
    vs = VertexSet(2, [(0, 0), (3, 0), (0, 3), (1, 1)])
    whole = uniform_measure(vs, [(0, 1, 2)])
    parts = uniform_measure(vs, [(0, 1, 3), (1, 2, 3), (0, 2, 3)])
    assert measure_moments(whole, 4) == measure_moments(parts, 4)


def test_scaling_law():
    rng = random.Random(3)
    pts = [(0, 0), (2, 1), (1, 3)]
    vs = VertexSet(2, pts)
    doubled = VertexSet(2, [(2 * x, 2 * y) for x, y in pts])
    for e in [(0, 0), (1, 0), (2, 1), (0, 3)]:
        lhs = simplex_monomial_moment((0, 1, 2), doubled, e)
        rhs = F(2) ** (sum(e) + 2) * simplex_monomial_moment((0, 1, 2), vs, e)
        assert lhs == rhs


class TestAxialMoments:
    def test_mass(self, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        assert axial_moment(m, (1, 0), 0) == F(7, 2)

    def test_first_moment(self, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        assert axial_moment(m, (1, 0), 1) == 7

    def test_interval(self):
        vs = VertexSet(1, [(0,), (1,)])
        m = uniform_measure(vs, [(0, 1)])
        for j in range(6):
            assert axial_moment(m, (1,), j) == F(1, j + 1)

    def test_matches_monomial_moment_on_basis_vector(self, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        for j in range(4):
            assert axial_moment(m, (0, 1), j) == simplex_monomial_moment(
                (0, 1, 2), triangle_115232, (0, j)
            )

    def test_general_direction_matches_expansion(self, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        z = (F(1, 2), F(-2, 3))
        table = measure_moments(m, 3)
        expect = sum(
            F(factorial(3), factorial(a) * factorial(b)) * z[0] ** a * z[1] ** b * table[(a, b)]
            for a in range(4)
            for b in range(4)
            if a + b == 3
        )
        assert axial_moment(m, z, 3) == expect


def _reference_measure_moments(m, order, rho=None):
    """The power-table oracle: every integrand a product of full coordinate powers."""
    vs = m.vertex_set
    d = vs.dim
    table = {e: F(0) for e in monomials_upto(d, order)}
    for s, w in m.atoms:
        base = vs.points[s[0]]
        coords = []
        for j in range(d):
            terms = {(0,) * d: base[j]}
            for i, v in enumerate(s[1:]):
                terms[tuple(int(k == i) for k in range(d))] = vs.points[v][j] - base[j]
            coords.append(Poly(d, terms))
        rho_t = Poly.constant(d, 1)
        if rho is not None:
            rho_t = Poly.zero(d)
            for exps, coef in rho.terms.items():
                term = Poly.constant(d, coef)
                for j, k in enumerate(exps):
                    term = term * coords[j] ** k
                rho_t = rho_t + term
        powers = [[Poly.constant(d, 1)] for _ in range(d)]
        for j in range(d):
            for _ in range(order):
                powers[j].append(powers[j][-1] * coords[j])
        for exps in table:
            integrand = rho_t
            for j, k in enumerate(exps):
                if k:
                    integrand = integrand * powers[j][k]
            integral = F(0)
            for t, c in integrand.terms.items():
                num = 1
                for k in t:
                    num *= factorial(k)
                integral += c * F(num, factorial(sum(t) + d))
            table[exps] += w * integral
    return MomentTable(d, order, table)


def test_measure_moments_match_power_table_reference():
    rng = random.Random(61)
    for case in range(24):
        dim = rng.choice([1, 2, 3])
        order = rng.randint(0, 5 if dim < 3 else 4)
        vs = VertexSet(dim, [random_point(rng, dim) for _ in range(dim + 3)])
        atoms = [
            (s, random_rational(rng))
            for s in combinations(range(dim + 3), dim + 1)
            if not is_degenerate(s, vs) and rng.random() < 0.5
        ]
        m = WeightedMeasure(vs, atoms)
        rho = None
        if case % 2:
            rho = Poly(dim, {
                tuple(rng.randint(0, 2) for _ in range(dim)): random_rational(rng)
                for _ in range(rng.randint(1, 3))
            })
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


class TestSympyCrossCheck:
    """The oracle against sympy's independent polytope integrator."""

    @staticmethod
    def _integrals(vs, order):
        """sympy's integral of every monomial of degree <= order over the simplex."""
        pytest.importorskip("sympy")
        from sympy import Point, Polygon, Rational, prod, symbols
        from sympy.integrals.intpoly import polytope_integrate

        xs = symbols("x y z")[: vs.dim]
        pts = [tuple(Rational(c.numerator, c.denominator) for c in p) for p in vs.points]
        monos = {e: prod(x**k for x, k in zip(xs, e)) for e in monomials_upto(vs.dim, order)}
        if vs.dim == 2:
            # sympy takes polygons clockwise; counter-clockwise negates every value
            if edge_det((0, 1, 2), vs) > 0:
                pts = [pts[0], pts[2], pts[1]]
            poly = Polygon(*[Point(*p) for p in pts])
        else:
            # each face counter-clockwise seen from outside, so normals point out
            faces = []
            for face in combinations(range(4), 3):
                (a, b, c), far = (pts[i] for i in face), next(i for i in range(4) if i not in face)
                n = cross(sub(b, a), sub(c, a))
                faces.append(list(face) if dot(n, sub(pts[far], a)) < 0 else [face[0], face[2], face[1]])
            poly = [pts] + faces
        got = polytope_integrate(poly, list(monos.values()), max_degree=order)
        return {e: got[m] for e, m in monos.items()}

    @pytest.mark.parametrize("dim, seed", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_random_simplex_moments(self, dim, seed):
        rng = random.Random(100 * dim + seed)
        vs = random_simplex_vertices(rng, dim)
        s = tuple(range(dim + 1))
        expect = self._integrals(vs, 4)
        table = measure_moments(uniform_measure(vs, [s]), 4)
        for e, value in expect.items():
            assert simplex_monomial_moment(s, vs, e) == value
            assert table[e] == value

    def test_unit_simplices(self):
        tri = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
        tet = VertexSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert self._integrals(tri, 3)[(2, 1)] == F(1, 60) == simplex_monomial_moment((0, 1, 2), tri, (2, 1))
        assert self._integrals(tet, 4)[(2, 1, 1)] == F(1, 2520)
        assert simplex_monomial_moment((0, 1, 2, 3), tet, (2, 1, 1)) == F(1, 2520)


def sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
