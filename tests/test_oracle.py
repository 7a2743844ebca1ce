import copy
import hashlib
import pickle
import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the properties below are skipped without hypothesis
    given = None

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
from polymom import oracle
from polymom.cli import main
from polymom.errors import DegenerateSimplexError, DimensionError, NotSpanningError
from polymom.geometry import edge_det
from polymom.poly import monomials_upto
from polymom.verify import random_point, random_rational, random_simplex_vertices
from polyops import plus, times


def test_standard_simplex_closed_form():
    # integral of x^i y^j over the standard triangle is i! j! / (i+j+2)!
    vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
    for i in range(4):
        for j in range(4):
            expect = F(factorial(i) * factorial(j), factorial(i + j + 2))
            assert simplex_monomial_moment((0, 1, 2), vs, (i, j)) == expect


def test_standard_triangle_to_order_24():
    """Every moment of the standard triangle to order 24 is i! j! / (i+j+2)!: one atom, its apex
    at the origin, through the facet rules up to index 12."""
    vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
    table = measure_moments(WeightedMeasure(vs, [((0, 1, 2), 1)]), 24)
    assert table.moments == {(i, j): F(factorial(i) * factorial(j), factorial(i + j + 2)) for i, j in monomials_upto(2, 24)}


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


@pytest.mark.parametrize("dim, order", [(2.0, 1), (2, 1.0), (True, 1), (2, True)])
def test_dim_and_order_must_be_integers(dim, order):
    moments = {(0, 0): F(1), (1, 0): F(1, 3), (0, 1): F(1, 3)}
    assert MomentTable(2, 1, moments).order == 1
    with pytest.raises(TypeError):
        MomentTable(dim, order, moments)


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
    """The pullback oracle: every integrand a product of full coordinate powers,
    integrated over the standard simplex term by term with the Dirichlet formula."""
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
            rho_t = Poly(d)
            for exps, coef in rho.terms.items():
                term = Poly.constant(d, coef)
                for j, k in enumerate(exps):
                    for _ in range(k):
                        term = times(term, coords[j])
                rho_t = plus(rho_t, term)
        powers = [[Poly.constant(d, 1)] for _ in range(d)]
        for j in range(d):
            for _ in range(order):
                powers[j].append(times(powers[j][-1], coords[j]))
        for exps in table:
            integrand = rho_t
            for j, k in enumerate(exps):
                if k:
                    integrand = times(integrand, powers[j][k])
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
            if edge_det(s, vs) and rng.random() < 0.5
        ]
        m = WeightedMeasure(vs, atoms)
        rho = None
        if case % 2:
            rho = Poly(dim, {
                tuple(rng.randint(0, 2) for _ in range(dim)): random_rational(rng)
                for _ in range(rng.randint(1, 3))
            })
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


LARGE = 10**12 + 39


def _dense_rho(dim):
    """A non-homogeneous density of degree 2 with pairwise different denominators."""
    terms = {(0,) * dim: F(1, 3), (1,) + (0,) * (dim - 1): F(-2, 5), (0,) * (dim - 1) + (2,): F(7, 11)}
    if dim > 1:
        terms[(1, 1) + (0,) * (dim - 2)] = F(5, 4)
    return Poly(dim, terms)


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_measure_without_atoms_is_zero_to_every_order(dim, dense):
    vs = VertexSet(dim, [tuple(int(i == j) for i in range(dim)) for j in range(-1, dim)])
    m = WeightedMeasure(vs, [])
    rho = _dense_rho(dim) if dense else None
    for order in range(4):
        table = measure_moments(m, order, rho)
        assert table == _reference_measure_moments(m, order, rho)
        assert set(table.moments.values()) == {0}


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
def test_atoms_over_pairwise_different_denominators(dense):
    """Vertex denominators 1, 3, 5, 7 and a large one, weight denominators 2,
    9, 10^9 + 7 and 4: the atoms' integer sums meet over one lcm per degree."""
    vs = VertexSet(2, [
        (0, 0), (F(1, 3), F(2, 3)), (F(7, 5), F(-1, 5)), (F(2, 7), F(9, 7)),
        (1 + F(5, LARGE), 2 - F(3, LARGE)),
    ])
    atoms = [((0, 1, 2), F(3, 2)), ((0, 2, 3), F(-5, 9)), ((1, 3, 4), F(7, 10**9 + 7)), ((0, 2, 4), F(11, 4))]
    m = WeightedMeasure(vs, atoms)
    rho = _dense_rho(2) if dense else None
    for order in range(5):
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
@pytest.mark.parametrize("dim, order, seed", [(2, 10, 1), (3, 6, 2)])
def test_forward_series_sizes(dim, order, seed, dense):
    """A signed sum of four simplices on d+3 shared rational points, at the
    largest order the forward-series benchmark asks in that dimension."""
    rng = random.Random(seed)
    vs = VertexSet(dim, [random_point(rng, dim) for _ in range(dim + 3)])
    simplices = [s for s in combinations(range(dim + 3), dim + 1) if edge_det(s, vs)]
    m = WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in rng.sample(simplices, 4)])
    rho = _dense_rho(dim) if dense else None
    assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
@pytest.mark.parametrize("dim, order, seed", [(1, 9, 3), (2, 8, 4), (3, 6, 5)])
def test_rules_of_four_to_six_groups(dim, order, seed, dense):
    """Orders whose rule has 4 to 6 groups (5 or 6 in 1-d and 2-d, 4 or 5 in 3-d, the
    density adding one), so that groups of every size down to the single centroid node
    meet in one table: three signed simplices on d+3 shared rational points."""
    rng = random.Random(seed)
    vs = VertexSet(dim, [random_point(rng, dim) for _ in range(dim + 3)])
    simplices = [s for s in combinations(range(dim + 3), dim + 1) if edge_det(s, vs)]
    m = WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in rng.sample(simplices, 3)])
    rho = _dense_rho(dim) if dense else None
    assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


def _odd_rho(dim, r):
    """A non-homogeneous density of odd degree r with pairwise different denominators: with
    it, the degree g + r that a block needs is odd at even g and even at odd g."""
    terms = {(0,) * dim: F(1, 3), (1,) + (0,) * (dim - 1): F(-2, 5), (0,) * (dim - 1) + (r,): F(7, 11)}
    if dim > 1 and r > 1:
        terms[(1, r - 1) + (0,) * (dim - 2)] = F(5, 4)
    return Poly(dim, terms)


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("dim, order, seed", [(1, 9, 6), (2, 8, 7), (3, 5, 8)])
def test_densities_of_odd_degree(dim, order, seed, r):
    """Three signed simplices on d+3 shared rational points, weighed by a density of degree
    1 or 3, against the reference at every degree of the table."""
    rng = random.Random(seed)
    vs = VertexSet(dim, [random_point(rng, dim) for _ in range(dim + 3)])
    simplices = [s for s in combinations(range(dim + 3), dim + 1) if edge_det(s, vs)]
    m = WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in rng.sample(simplices, 3)])
    rho = _odd_rho(dim, r)
    assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_axial_moment_at_seven_is_the_power_expansion(dim):
    """<x, z>^7 = sum over |I| = 7 of 7!/I! z^I x^I, against the table at order 7: the rule
    exact to degree 7 has 4 groups."""
    rng = random.Random(70 + dim)
    vs = VertexSet(dim, [random_point(rng, dim) for _ in range(dim + 2)])
    simplices = [s for s in combinations(range(dim + 2), dim + 1) if edge_det(s, vs)]
    m = WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in simplices[:2]])
    z = tuple(random_rational(rng) or F(1, 2) for _ in range(dim))
    table = measure_moments(m, 7)
    expect = 0
    for e in monomials_upto(dim, 7):
        if sum(e) == 7:
            coefficient = F(factorial(7))
            for c, k in zip(z, e):
                coefficient *= c**k / factorial(k)
            expect += coefficient * table[e]
    assert axial_moment(m, z, 7) == expect


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
@pytest.mark.parametrize("empty", [False, True], ids=["atoms", "empty"])
def test_negative_order_names_the_order(triangle_115232, empty, dense):
    m = WeightedMeasure(triangle_115232, [] if empty else [((0, 1, 2), F(7, 3))])
    rho = _dense_rho(2) if dense else None
    with pytest.raises(DimensionError) as exc:
        measure_moments(m, -1, rho)
    assert str(exc.value) == "moment order must be non-negative, got -1"


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _distinct_denominators(dim, atoms, seed):
    """A signed sum of `atoms` simplices on d+4 rational points: point k has every
    coordinate over the k-th prime, and atom a weighs over the (a+1)-th, so that no
    two points and no two weights share a denominator."""
    rng = random.Random(seed)
    while True:
        points = [tuple(F(rng.choice([-1, 1]) * (rng.randrange(1, 4 * p) * p + rng.randrange(1, p)), p)
                        for _ in range(dim)) for p in PRIMES[: dim + 4]]
        try:
            vs = VertexSet(dim, points)
        except NotSpanningError:
            continue
        simplices = [s for s in combinations(range(dim + 4), dim + 1) if edge_det(s, vs)]
        if len(simplices) >= atoms:
            break
    chosen = rng.sample(simplices, atoms)
    weights = [F(rng.choice([-1, 1]) * rng.randrange(1, 5 * q), q) for q in PRIMES[1 : atoms + 1]]
    return WeightedMeasure(vs, list(zip(chosen, weights)))


@pytest.mark.parametrize("r", [None, 1, 2, 3], ids=["plain", "r1", "r2", "r3"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_every_order_in_one_to_four_dimensions(dim, r):
    """Orders 0 to 7 (0 to 4 in 4-d), so both parities of every degree and the degrees 0
    and 1 are met, on 1 to 8 atoms over pairwise different denominators (fewer as the
    order grows), without a density and under densities of degree 1 to 3."""
    rho = None if r is None else _dense_rho(dim) if r == 2 else _odd_rho(dim, r)
    for order in range(8 if dim < 4 else 5):
        atoms = max(1, 8 - order * (dim // 2 + 1))
        m = _distinct_denominators(dim, atoms, 1000 * dim + 10 * order + (r or 0))
        assert len(m.atoms) == atoms
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


def _power_expansion(table, z, j):
    """The sum over |I| = j of j!/I! z^I m_I: the integral of <x, z>^j."""
    total = 0
    for e in monomials_upto(len(z), j):
        if sum(e) == j:
            coefficient = F(factorial(j))
            for c, k in zip(z, e):
                coefficient *= c**k / factorial(k)
            total += coefficient * table[e]
    return total


@pytest.mark.parametrize("atoms", [oracle.STACK + 1, 2 * oracle.STACK + 1])
@pytest.mark.parametrize("dim", [2, 3])
def test_more_atoms_than_one_stack(dim, atoms):
    """A measure of more atoms than one stack holds goes through in several: the table to
    order 4, plain and under a density, and the axial moments, against the reference."""
    m = _distinct_denominators(dim, atoms, 500 * dim + atoms)
    plain = _reference_measure_moments(m, 4)
    assert measure_moments(m, 4) == plain
    assert measure_moments(m, 4, _dense_rho(dim)) == _reference_measure_moments(m, 4, _dense_rho(dim))
    z = (F(2, 3), F(-1, 4), F(5, 7))[:dim]
    for j in range(5):
        assert axial_moment(m, z, j) == _power_expansion(plain, z, j)


def _apex_measure(dim, kind, seed):
    """A signed measure shaped by how its atoms share vertices, over rational points:
    - "apart": three atoms on pairwise disjoint vertices, so each atom is its own apex;
    - "origin": two atoms on the origin beside two on one far vertex, so one apex shifts by
      zero and the other by a vector of large numerators over small denominators;
    - "fan": STACK + 1 atoms that all hold vertex 0, so one apex takes more than one stack."""
    rng = random.Random(seed)
    while True:
        if kind == "apart":
            points = [random_point(rng, dim) for _ in range(3 * (dim + 1))]
            simplices = [tuple(range(a * (dim + 1), (a + 1) * (dim + 1))) for a in range(3)]
        elif kind == "origin":
            far = tuple(F(rng.choice([-1, 1]) * rng.randrange(10**6, 10**7), rng.randrange(1, 8)) for _ in range(dim))
            points = [(F(0),) * dim, far] + [random_point(rng, dim) for _ in range(4 * dim)]
            simplices = [(a // 2,) + tuple(range(2 + a * dim, 2 + (a + 1) * dim)) for a in range(4)]
        else:
            points = [random_point(rng, dim) for _ in range(oracle.STACK + 2)]
            faces = list(combinations(range(1, oracle.STACK + 2), dim))
            simplices = [(0,) + face for face in rng.sample(faces, min(len(faces), 3 * oracle.STACK))]
        try:
            vs = VertexSet(dim, points)
        except NotSpanningError:
            continue
        simplices = [s for s in simplices if edge_det(s, vs)]
        if kind == "fan":
            simplices = simplices[: oracle.STACK + 1]
        if len(simplices) == {"apart": 3, "origin": 4, "fan": oracle.STACK + 1}[kind]:
            return WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in simplices])


APEX_ORDERS = {1: 7, 2: 5, 3: 4, 4: 3}


@pytest.mark.parametrize("kind", ["apart", "origin", "fan"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_atoms_grouped_by_shared_vertex(dim, kind):
    """Atoms with no shared vertex, an apex at the origin beside a far one, and more atoms on
    one vertex than one stack holds, in one to four dimensions: the top order of the table,
    plain and under densities of degree 1, 2 and 3, against the reference."""
    m = _apex_measure(dim, kind, 100 * dim + len(kind))
    order = APEX_ORDERS[dim]
    for rho in (None, _odd_rho(dim, 1), _dense_rho(dim), _odd_rho(dim, 3)):
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


# an odd order per dimension; the test takes it and the even one above it
SPLIT_ORDERS = {1: 7, 2: 5, 3: 3}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_low_orders_and_both_parities_on_two_stack_sizes(dim):
    """Orders 0, 1 and 2, where a moment's monomial need not be split into two built rows (at
    orders 0 and 1 no degree is), and an odd and an even order above them, on STACK + 1 atoms
    of one apex, so stacks of STACK atoms and of one share each plan: every table, plain and
    under densities of degree 1 and 2, against the reference."""
    m = _apex_measure(dim, "fan", 900 + dim)
    odd = SPLIT_ORDERS[dim]
    for order in (0, 1, 2, odd, odd + 1):
        for rho in (None, _odd_rho(dim, 1), _dense_rho(dim)):
            assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)


def test_axial_moment_in_four_dimensions():
    """<x, z>^j for j = 0..4 in 4-d, against the power expansion of the reference table."""
    m = _distinct_denominators(4, 3, 4004)
    z = (F(1, 2), F(-2, 3), F(3, 5), F(-5, 7))
    table = _reference_measure_moments(m, 4)
    for j in range(5):
        assert axial_moment(m, z, j) == _power_expansion(table, z, j)


@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize(
    "z", [(F(0), F(0), F(0)), (F(0), F(2, 3), F(0)), (F(-1, 4), F(0), F(5, 7))], ids=["zero", "one-axis", "two-axes"]
)
def test_axial_moment_at_directions_with_zero_entries(z, j):
    """A direction with zero entries, z = 0 included, where <x, z>^0 is still 1."""
    m = _distinct_denominators(3, 3, 3003)
    table = _reference_measure_moments(m, 3)
    expect = _power_expansion(table, z, j)
    assert axial_moment(m, z, j) == expect
    if not any(z):
        assert expect == (table[(0, 0, 0)] if j == 0 else 0)


def test_segment_rules_are_symmetric_and_exact():
    """The 2-d plan's nodes come in Farey order, and its rule of index t = 0..12 is its first 2t+1
    nodes, distinct points of [0, 1] closed under u -> 1 - u with equal weights there, and
    integrates u^j exactly for j <= 2t+1.  Node i is the numerators (D - p, p) over D, and
    degree g holds w / (D^g (g + 2)) over its denominator, common / lift."""
    nodes, _, degrees, common, *_ = oracle._plan(2, 25)
    farey = [F(1, 2), 0, 1, F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(4, 5), F(2, 5), F(3, 5)]
    assert [F(p, a + p) for a, p in zip(*nodes)][:11] == farey
    for g, (lift, weights, *_) in enumerate(degrees):
        t = g // 2
        assert len(weights) == 2 * t + 1
        rule = {}
        for a, p, x in zip(*nodes, weights):
            rule[F(p, a + p)] = F(x * lift * (a + p) ** g * (g + 2), common)
        assert len(rule) == 2 * t + 1 and all(0 <= u <= 1 and rule[1 - u] == w for u, w in rule.items())
        for j in range(2 * t + 2):
            assert sum(w * u**j for u, w in rule.items()) == F(1, j + 1)


@pytest.mark.parametrize("order", range(31))
def test_segment_plan_keeps_one_node_per_degree_of_exactness(order):
    assert len(oracle._plan(2, order)[0][0]) == 2 * (order // 2) + 1


# sha256 of the repr of the plans to orders 0..top, the Grundmann-Moller rule one dimension down
GRUNDMANN_MOLLER_PLANS = {
    (1, 12): "e3a53e18b82a2d3802a075cc9f2987355fd77c9b2e25c883592816c274fe67c4",
    (3, 8): "834a1ce6c8eb40c5a63904217de2cb34a90fe2c7cca9e238acc3c5e8ca7d4523",
    (4, 6): "e629083125aa90618f3285451f22d9acf6a59891ef8b3c6c07a39a9548f267b4",
}


@pytest.mark.parametrize("dim, top", GRUNDMANN_MOLLER_PLANS)
def test_plans_off_the_plane_are_pinned(dim, top):
    """Only d = 2 takes the segment rule: the plans of d = 1, 3 and 4 are pinned, field for field."""
    plans = [oracle._plan(dim, order) for order in range(top + 1)]
    assert hashlib.sha256(repr(plans).encode()).hexdigest() == GRUNDMANN_MOLLER_PLANS[dim, top]


def _tuples_all_the_way(value):
    return not isinstance(value, (list, dict, set)) and (
        not isinstance(value, tuple) or all(map(_tuples_all_the_way, value))
    )


@pytest.mark.parametrize("dense", [False, True], ids=["plain", "density"])
def test_shared_plans_leave_no_trace_between_calls(dense):
    """Two measures that share (d, order) give the same tables in either order, and again
    after the plan and spread memos are emptied; every field of a plan, and of each stack
    size's spread weights and numerators, is a tuple."""
    rng = random.Random(43)
    measures = []
    for _ in range(2):
        vs = VertexSet(2, [random_point(rng, 2) for _ in range(5)])
        simplices = [s for s in combinations(range(5), 3) if edge_det(s, vs)]
        measures.append(WeightedMeasure(vs, [(s, random_rational(rng) or 1) for s in simplices[:3]]))
    rho = _dense_rho(2) if dense else None
    first = [measure_moments(m, 6, rho) for m in measures]
    second = [measure_moments(m, 6, rho) for m in reversed(measures)][::-1]
    oracle._plan.cache_clear()
    oracle._spreads.cache_clear()
    assert first == second == [measure_moments(m, 6, rho) for m in measures]
    assert oracle._spreads.cache_info().currsize > 0
    plan = oracle._plan(2, 6 + 2 * dense)
    assert plan is oracle._plan(2, 6 + 2 * dense)
    assert isinstance(plan, tuple) and _tuples_all_the_way(plan)
    for atoms in range(1, oracle.STACK + 1):
        spreads = oracle._spreads(2, 6 + 2 * dense, atoms)
        assert spreads is oracle._spreads(2, 6 + 2 * dense, atoms)
        assert isinstance(spreads, tuple) and _tuples_all_the_way(spreads)


def _refuse_work(monkeypatch):
    def work(*args):
        raise AssertionError("reached work")

    for name in ("_plan", "edge_det", "measure_moments"):
        monkeypatch.setattr(oracle, name, work)


@pytest.mark.parametrize("order", [True, False])
def test_bool_order_is_refused(triangle_115232, order):
    m = uniform_measure(triangle_115232, [(0, 1, 2)])
    for call in (lambda: measure_moments(m, order), lambda: axial_moment(m, (1, 0), order)):
        with pytest.raises(TypeError, match="^moment order must be an integer, not bool$"):
            call()


def test_orders_are_checked_before_any_work(triangle_115232, monkeypatch):
    m = uniform_measure(triangle_115232, [(0, 1, 2)])
    measure = oracle.measure_moments
    _refuse_work(monkeypatch)
    with pytest.raises(TypeError):
        measure(m, True)
    with pytest.raises(DimensionError, match="^moment order must be non-negative, got -2$"):
        measure(m, -2)
    with pytest.raises(TypeError):
        axial_moment(m, (1, 0), True)
    with pytest.raises(DimensionError, match="^moment order must be non-negative, got -1$"):
        axial_moment(m, (1, 0), -1)


@pytest.mark.parametrize("index", [(-1, 2), (1,), (0, 0, 1), [2, -1]])
def test_monomial_index_outside_the_plane_is_named_before_any_work(triangle_115232, monkeypatch, index):
    _refuse_work(monkeypatch)
    with pytest.raises(DimensionError) as exc:
        simplex_monomial_moment((0, 1, 2), triangle_115232, index)
    assert str(exc.value) == f"moment index {tuple(index)} is not in R^2"

if given is not None:
    rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
    nonzero_rationals = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    properties = settings(derandomize=True, database=None, deadline=None, max_examples=100)

    @st.composite
    def signed_measures(draw):
        """A signed measure on d+2 or d+3 rational points, d = 1, 2, 3, and an order."""
        dim = draw(st.sampled_from([1, 2, 3]))
        order = draw(st.integers(0, 6 if dim < 3 else 4))
        n = draw(st.integers(dim + 2, dim + 3))
        points = draw(st.lists(st.tuples(*[rationals] * dim), min_size=n, max_size=n))
        assume(len(set(points)) == n)
        try:
            vs = VertexSet(dim, points)
        except NotSpanningError:
            assume(False)
        simplices = [s for s in combinations(range(n), dim + 1) if edge_det(s, vs)]
        chosen = draw(st.lists(st.sampled_from(simplices), unique=True, min_size=1, max_size=4))
        return WeightedMeasure(vs, [(s, draw(nonzero_rationals)) for s in chosen]), order

    @st.composite
    def densities(draw, dim):
        """None, the zero polynomial, or a non-homogeneous one with rational coefficients."""
        kind = draw(st.sampled_from(["poly", "none", "zero"]))
        if kind == "none":
            return None
        if kind == "zero":
            return Poly(dim)
        exponents = st.tuples(*[st.integers(0, 2)] * dim).filter(lambda e: 1 <= sum(e) <= 2)
        terms = draw(st.dictionaries(exponents, nonzero_rationals, min_size=1, max_size=3))
        terms[(0,) * dim] = draw(nonzero_rationals)
        return Poly(dim, terms)

    @properties
    @given(st.data())
    def test_measure_moments_match_reference_property(data):
        m, order = data.draw(signed_measures())
        rho = data.draw(densities(m.vertex_set.dim))
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.sampled_from(["apart", "origin", "fan"]), st.integers(1, 4), st.integers(0, 10**6), st.data())
    def test_atoms_grouped_by_shared_vertex_property(kind, dim, seed, data):
        """`_apex_measure` at any seed and order, without a density or under one of degree 1 to 3."""
        m = _apex_measure(dim, kind, seed)
        order = data.draw(st.integers(0, APEX_ORDERS[dim]))
        r = data.draw(st.sampled_from([None, 1, 2, 3]))
        rho = None if r is None else _dense_rho(dim) if r == 2 else _odd_rho(dim, r)
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)

    @st.composite
    def planar_measures(draw):
        """A signed 2-d measure of 1-4 atoms on 5 or 6 rational points, the origin first, so that
        atoms share vertices; in a fan every atom holds the origin, so it is their apex."""
        n = draw(st.integers(5, 6))
        points = [(F(0), F(0)), *draw(st.lists(st.tuples(rationals, rationals), min_size=n - 1, max_size=n - 1))]
        assume(len(set(points)) == n)
        try:
            vs = VertexSet(2, points)
        except NotSpanningError:
            assume(False)
        fan = draw(st.booleans())
        simplices = [s for s in combinations(range(n), 3) if edge_det(s, vs) and (s[0] == 0 or not fan)]
        assume(simplices)
        chosen = draw(st.lists(st.sampled_from(simplices), unique=True, min_size=1, max_size=4))
        return WeightedMeasure(vs, [(s, draw(nonzero_rationals)) for s in chosen])

    @st.composite
    def planar_densities(draw):
        """A density of degree 1 or 2 in 2-d with rational coefficients, not homogeneous."""
        r = draw(st.integers(1, 2))
        exponents = st.tuples(st.integers(0, r), st.integers(0, r)).filter(lambda e: sum(e) <= r)
        terms = draw(st.dictionaries(exponents, nonzero_rationals, min_size=1, max_size=4))
        terms[draw(st.sampled_from([(r, 0), (r - 1, 1), (0, r)]))] = draw(nonzero_rationals)
        terms[(0, 0)] = draw(nonzero_rationals)
        return Poly(2, terms)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(planar_measures(), st.integers(7, 12), planar_densities())
    def test_planar_tables_at_high_orders_match_reference_property(m, order, rho):
        """2-d tables at orders 7-12, on atoms that share vertices, some fanned from an apex at the
        origin, under densities of degree 1 and 2, against the reference."""
        assert measure_moments(m, order, rho) == _reference_measure_moments(m, order, rho)

    @properties
    @given(signed_measures())
    def test_simplex_monomial_moment_is_the_one_atom_table(case):
        m, order = case
        vs = m.vertex_set
        s, _ = m.atoms[0]
        table = measure_moments(WeightedMeasure(vs, [(s, abs(edge_det(s, vs)))]), order)
        for e in monomials_upto(vs.dim, order):
            assert simplex_monomial_moment(s, vs, e) == table[e]


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

    @pytest.mark.parametrize("points, order", [
        ([(F(-5, 2), 3), (4, F(1, 3)), (F(2, 3), F(-7, 2))], 10),
        ([(0, 0, 0), (F(3, 2), 0, F(1, 2)), (F(1, 2), 2, 0), (0, F(1, 2), 1)], 6),
    ], ids=["2d-order10", "3d-order6"])
    def test_top_orders_of_the_forward_series_benchmark(self, points, order):
        """A simplex at the largest order the forward-series benchmark asks in its dimension,
        so that every group of the largest rule is weighed.  Small coordinates keep sympy's
        3-d integrator to seconds."""
        vs = VertexSet(len(points[0]), points)
        expect = self._integrals(vs, order)
        table = measure_moments(uniform_measure(vs, [tuple(range(len(points)))]), order)
        assert table.moments == expect

    def test_a_tetrahedron_off_the_origin(self):
        """A 3-d simplex with no vertex at the origin and every coordinate of its vertex 0 nonzero,
        to order 4: sympy's integrator slows sharply off the origin, so the order stays low."""
        vs = VertexSet(3, [(1, -1, 1), (F(5, 2), -1, F(3, 2)), (F(3, 2), 1, 1), (1, F(-1, 2), 2)])
        expect = self._integrals(vs, 4)
        assert measure_moments(uniform_measure(vs, [(0, 1, 2, 3)]), 4).moments == expect

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


def _oracle_tables():
    """Tables to order 5 of a weighted 2-d measure and a 3-d simplex, each plain and under `_dense_rho`."""
    rng = random.Random(37)
    plane = VertexSet(2, [random_point(rng, 2) for _ in range(5)])
    simplices = [s for s in combinations(range(5), 3) if edge_det(s, plane)][:3]
    measures = [
        WeightedMeasure(plane, [(s, random_rational(rng) or 1) for s in simplices]),
        uniform_measure(random_simplex_vertices(rng, 3), [(0, 1, 2, 3)]),
    ]
    return [measure_moments(m, 5, rho) for m in measures for rho in (None, _dense_rho(m.vertex_set.dim))]


class _One:
    """An index entry that reads as 1 but hashes apart from it."""

    def __index__(self):
        return 1


class TestTableValues:
    @pytest.mark.parametrize("case", range(4), ids=["2d-plain", "2d-density", "3d-plain", "3d-density"])
    def test_a_table_is_its_moments(self, case):
        """The checked table of an oracle table's moments equals it, and so do its pickle
        round trip and its copies."""
        table = _oracle_tables()[case]
        assert MomentTable(table.dim, table.order, dict(table.moments)) == table
        assert pickle.loads(pickle.dumps(table)) == table
        assert copy.copy(table) == table == copy.deepcopy(table)
        assert [table[e] for e in monomials_upto(table.dim, table.order)] == list(table.moments.values())

    @pytest.mark.parametrize("index", [(3, 0), (0, 0, 0), (-1, 1), (0,), (), ([1], 0)])
    def test_an_index_outside_the_table_is_a_key_error(self, index):
        table = MomentTable(2, 2, {e: F(i) for i, e in enumerate(monomials_upto(2, 2))})
        with pytest.raises(KeyError) as exc:
            table[index]
        assert exc.value.args == (index,)

    def test_an_int_like_index_finds_its_row(self):
        """An index entry read by `operator.index` keys its row, though it hashes apart from the int."""
        moments = {e: F(0) for e in monomials_upto(2, 2) if e != (1, 1)}
        table = MomentTable(2, 2, {**moments, (_One(), 1): F(3)})
        assert table[(1, 1)] == 3 and table == MomentTable(2, 2, {**moments, (1, 1): F(3)})

    def test_two_keys_for_one_index_leave_a_table_incomplete(self):
        """(1, 1) and an int-like key that reads as (1, 1) are one index, so the table of the
        expected size misses one, and the first missing is named."""
        moments = {e: F(0) for e in monomials_upto(2, 2) if e != (0, 2)}
        with pytest.raises(DimensionError, match=r": 5 of 6 moments, first missing \[\(0, 2\)\]$"):
            MomentTable(2, 2, {**moments, (_One(), 1): F(3)})

    def test_the_repr_lists_every_moment_in_canonical_order(self):
        table = MomentTable(2, 1, {(0, 0): F(0), (1, 0): F(1, 2), (0, 1): F(-3)})
        assert repr(table) == (
            "MomentTable(dim=2, order=1, moments={(0, 0): Fraction(0, 1), (1, 0): Fraction(1, 2), (0, 1): Fraction(-3, 1)})"
        )


class TestTableChecks:
    @pytest.mark.parametrize(
        "dim, moments, tail",
        [
            (
                2,
                {(0, 0): F(1)},
                f"1 of {(10**30 + 2) * (10**30 + 1) // 2} moments, first missing [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]",
            ),
            (0, {}, "0 of 1 moments, first missing [()]"),
        ],
    )
    def test_huge_order_is_rejected_without_enumeration(self, dim, moments, tail):
        start = time.perf_counter()
        with pytest.raises(DimensionError) as exc:
            MomentTable(dim, 10**30, moments)
        assert time.perf_counter() - start < 1
        message = str(exc.value)
        assert len(message) < 300
        assert message.endswith(f": {tail}")

    @pytest.mark.parametrize("dim, order, expected", [(10**6, 0, 1), (100, 2, 5151)])
    def test_large_dimension_gives_counts_only(self, dim, order, expected):
        start = time.perf_counter()
        with pytest.raises(DimensionError) as exc:
            MomentTable(dim, order, {})
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"moment table must be complete to order {order}: 0 of {expected} moments"

    @pytest.mark.parametrize("dim", [200, 10**5])
    def test_count_past_the_print_limit_exits_3_at_once(self, dim, tmp_path, capsys):
        """comb(10^30 + dim, dim) is not computed: it has thousands of digits and takes seconds."""
        vertices, moments = tmp_path / "v.json", tmp_path / "m.json"
        vertices.write_text('{"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
        moments.write_text('{"dim": %d, "order": %d, "moments": []}' % (dim, 10**30))
        start = time.perf_counter()
        assert main(["invert", str(vertices), str(moments)]) == 3
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and len(err) <= 300
        assert err == f"error: {moments}: moment table must be complete to order {10**30}: 0 of more than 10^100 moments\n"

    @pytest.mark.parametrize(
        "dim, order, holes",
        [(2, 2, [4]), (1, 9, range(4, 10)), (3, 6, [40, 41, 42, 50, 60, 70, 83]), (4, 4, range(70)), (5, 3, [52, 55])],
    )
    def test_first_missing_indices_come_in_canonical_order(self, dim, order, holes):
        rows = monomials_upto(dim, order)
        with pytest.raises(DimensionError) as exc:
            MomentTable(dim, order, {e: F(0) for i, e in enumerate(rows) if i not in holes})
        missing = [rows[i] for i in holes][:5]
        assert str(exc.value).endswith(f": {len(rows) - len(holes)} of {len(rows)} moments, first missing {missing}")

    @pytest.mark.parametrize("index", [(), (0,), 5, "ab"])
    def test_a_table_of_the_expected_size_in_a_huge_dimension_is_refused_at_once(self, index):
        """One moment is the size of a table to order 0 in R^(10^9): its index is checked
        before any index of that length is formed."""
        start = time.perf_counter()
        with pytest.raises((DimensionError, TypeError)) as exc:
            MomentTable(10**9, 0, {index: F(1)})
        assert time.perf_counter() - start < 1
        if isinstance(index, tuple):
            assert str(exc.value) == f"moment index {index} is not in R^1000000000 up to order 0"

    @pytest.mark.parametrize("half", [F(1, 2), 0.5], ids=["fraction", "float"])
    def test_a_non_integral_index_is_refused(self, half):
        """(1/2, 3/2) in place of (1, 1) keeps the count and the degree of a complete table;
        it once passed as complete, and `reconstruct` met a bare KeyError on it."""
        moments = {e: F(0) for e in monomials_upto(2, 2) if e != (1, 1)}
        moments[(half, 3 * half)] = F(0)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            MomentTable(2, 2, moments)

    @pytest.mark.parametrize("index", [(3, 0), (0, 0, 0), (-1, 1)])
    def test_index_outside_the_table_is_named(self, index):
        moments = {e: F(0) for e in monomials_upto(2, 2)}
        moments[index] = F(1)
        with pytest.raises(DimensionError, match=r"moment index \(.*\) is not in R\^2 up to order 2"):
            MomentTable(2, 2, moments)

    @pytest.mark.parametrize(
        "entry, message",
        [(True, "moment index entry must be an integer, not bool"), (1.0, "'float' object cannot be interpreted as an integer")],
        ids=["bool", "float"],
    )
    def test_an_index_entry_equal_to_an_int_is_refused(self, entry, message):
        """(True, 1) and (1.0, 1) equal (1, 1), so a complete table once passed as one with them."""
        moments = {e: F(0) for e in monomials_upto(2, 2) if e != (1, 1)}
        moments[(entry, 1)] = F(0)
        with pytest.raises(TypeError, match=message):
            MomentTable(2, 2, moments)

    @pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
    def test_a_float_or_bool_value_is_refused(self, value):
        moments = {e: F(0) for e in monomials_upto(2, 2)}
        moments[(1, 1)] = value
        with pytest.raises(TypeError, match=f"refusing {type(value).__name__} input"):
            MomentTable(2, 2, moments)
