import json
import random
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the product walk property is skipped without hypothesis
    given = None

from polymom import (
    Degeneracy,
    FormBasis,
    MomentTable,
    Poly,
    RatMat,
    VertexSet,
    WeightedMeasure,
    build_extended,
    classify,
    det_factor_report,
    dimension_and_basis,
    explicit_inverse,
    extended_columns,
    mat_inverse,
    measure_moments,
    product_matrix,
    reconstruct,
    recover_numerator,
    select_minor,
    strong_basis,
    uniform_measure,
)
from polymom import inverse, linalg
from polymom.genfunc import form_kernel
from polymom.geometry import homogeneous
from polymom.errors import (
    DimensionError,
    IncompleteMomentsError,
    NotSpanningError,
    NotStronglyNonDegenerateError,
    NotWeaklyNonDegenerateError,
)
from polymom.inverse import numerator_degree
from polyops import drop_above, times, vertex_form
from polymom.jsonio import vertex_set_from_json
from polymom.linalg import solve
from polymom.poly import monomials_upto
from polymom.verify import random_point, random_strong_set

PENTAGON_MAT = [
    [1, 1, 1, 1, 1, 1],
    [-3, -2, -1, -3, -2, -1],
    [-1, -2, -1, -3, -2, -3],
    [2, 1, 0, 2, 0, 0],
    [1, 2, 1, 5, 2, 1],
    [0, 0, 0, 2, 1, 2],
]

# rows of 4 * inverse of PENTAGON_MAT; the first row disagrees with the
# journal table in its last two signs, but only this value multiplies back
# to the identity and reproduces the listed weight formula
PENTAGON_INV4 = [
    [1, -1, 1, 1, -1, 1],
    [-4, 0, -4, 0, 0, -4],
    [9, 3, 3, 1, 1, 1],
    [1, 1, 1, 1, 1, 1],
    [-4, -4, 0, -4, 0, 0],
    [1, 1, -1, 1, -1, 1],
]

SQUARE_CENTER_EXT = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [-3, -3, -1, -1, -4, -2, -2, -2, -2, 0],
    [-1, -3, -3, -1, -2, -2, 0, -4, -2, -2],
    [2, 2, 0, 0, 4, 0, 0, 0, 0, 0],
    [2, 4, 2, 0, 4, 4, 0, 4, 0, 0],
    [0, 2, 2, 0, 0, 0, 0, 4, 0, 0],
]

# all columns as printed except the seventh: the journal shows (1,0,-2,0,0,0)
# there, duplicating the tenth, but that column is the product of the forms
# 1-2u1 and 1, i.e. (1,-2,0,0,0,0)
MULTISET_EXT = [
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [-2, -1, 0, 0, -3, -2, -2, -1, -1, 0],
    [0, -1, -2, 0, -1, -2, 0, -3, -1, -2],
    [0, 0, 0, 0, 2, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 4, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 2, 0, 0],
]

MULTISET_INV4 = [
    [0, -2, 0, -2, -1, 0],
    [0, 0, -2, 0, -1, -2],
    [4, 2, 2, 1, 1, 1],
    [0, 0, 0, 2, 0, 0],
    [0, 0, 0, -1, 1, -1],
    [0, 0, 0, 0, 0, 2],
]


class TestRecoverNumerator:
    def test_pentagon(self, pentagon_set, pentagon_moments):
        p = recover_numerator(pentagon_moments, pentagon_set)
        assert p == Poly(
            2, {(0, 0): 2, (1, 0): 4, (0, 1): 10, (2, 0): 10, (1, 1): 24, (0, 2): 10}
        )

    def test_zero_moments(self, pentagon_set):
        table = MomentTable(2, 2, {e: F(0) for e in monomials_upto(2, 2)})
        assert not recover_numerator(table, pentagon_set).terms

    def test_triangle_degree_zero(self, triangle_115232):
        table = MomentTable(2, 0, {(0, 0): F(7, 2)})
        assert recover_numerator(table, triangle_115232) == Poly.constant(2, 7)

    def test_incomplete_table_rejected(self, pentagon_set):
        table = MomentTable(2, 1, {(0, 0): F(1), (1, 0): F(2), (0, 1): F(3)})
        with pytest.raises(IncompleteMomentsError) as exc:
            recover_numerator(table, pentagon_set)
        assert (2, 0) in exc.value.missing

    def test_identity_on_full_denominator_measures(self, pentagon_set):
        # recovering from the series of the measure's own transform returns
        # its numerator, provided no vertex form cancelled
        from polymom import measure_genfunc, series_to_moments, taylor

        weights = [((2, 3, 4), 1), ((1, 3, 4), -22), ((1, 2, 4), 26),
                   ((0, 3, 4), 15), ((0, 2, 4), -16), ((0, 1, 4), -2)]
        m = WeightedMeasure(pentagon_set, weights)
        f = measure_genfunc(m)
        assert len(f.denominator) == 4  # all nontrivial vertex forms present
        table = series_to_moments(taylor(f, 2), 2)
        assert recover_numerator(table, pentagon_set) == f.numerator


def _reference_numerator(table, vs):
    """The numerator as N truncated `Poly` products over the forms, then one with the series."""
    from polymom.genfunc import moments_to_series

    k = numerator_degree(vs)
    phi = Poly.constant(vs.dim, 1)
    for p in vs.points:
        phi = drop_above(times(phi, vertex_form(p)), k)
    return drop_above(times(moments_to_series(table).poly, phi), k)


def _rational_multiset_any_dim(rng, dim, n):
    """n rational points spanning R^dim, one of them repeated."""
    while True:
        pts = [random_point(rng, dim, span=3, max_den=3) for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        pts[i] = pts[j]
        try:
            return VertexSet(dim, pts)
        except NotSpanningError:
            continue


def _random_table(rng, dim, order, base=None):
    """Arbitrary rational moments to the given order, agreeing with `base` where it has them."""
    moments = {e: F(rng.randint(-30, 30), rng.randint(1, 12)) for e in monomials_upto(dim, order)}
    moments.update(base.moments if base else {})
    return MomentTable(dim, order, moments)


class TestNumeratorProperties:
    def test_matches_reference_from_both_table_orders(self):
        """Seeded rational strong sets and multisets, d = 1..3, tables of order N-d-1 and N-d+1."""
        rng = random.Random(1010)
        solved = weak = 0
        for case in range(36):
            dim = 1 + case % 3
            n = rng.randint(dim + 2, dim + 4)
            if case % 2:
                vs = _rational_multiset_any_dim(rng, dim, n)
            else:
                vs = random_strong_set(rng, dim, n)
            k = numerator_degree(vs)
            low = _random_table(rng, dim, k)
            high = _random_table(rng, dim, k + 2, base=low)
            expected = _reference_numerator(low, vs)
            assert recover_numerator(low, vs) == expected
            assert recover_numerator(high, vs) == expected
            assert _reference_numerator(high, vs) == expected
            kind = classify(vs).kind
            if kind is Degeneracy.NEITHER:
                continue
            pivot = rng.randrange(n)
            assert reconstruct(high, vs, pivot).weights == reconstruct(low, vs, pivot).weights
            solved += 1
            weak += kind is Degeneracy.WEAK
        assert solved >= 24 and weak >= 6


class TestProductMatrix:
    def test_pentagon_matrix(self, pentagon_set):
        m = product_matrix(strong_basis(pentagon_set))
        assert m == RatMat.from_rows(PENTAGON_MAT)

    def test_l1l2_column(self, pentagon_set):
        m = product_matrix(strong_basis(pentagon_set))
        assert m.column(0) == (1, -3, -1, 2, 1, 0)

    def test_minimal_case_single_column(self):
        vs = VertexSet(1, [(0,), (1,), (3,)])  # N = d+2 = 3
        basis = strong_basis(vs)
        assert basis.columns == ((0,), (1,))
        m = product_matrix(basis)
        # columns are the single forms 1 (vertex 0) and 1 - u1
        assert m == RatMat.from_rows([[1, 1], [0, -1]])

    def test_column_matches_homogenized_product(self, pentagon_set):
        basis = strong_basis(pentagon_set)
        m = product_matrix(basis)
        k = numerator_degree(pentagon_set)
        for c, column in enumerate(basis.columns):
            prod = Poly.constant(2, 1)
            for i in column:
                prod = times(prod, vertex_form(pentagon_set.points[i]))
            # homogenized to degree k, x0^(k-|e|) x^e carries the coefficient of x^e
            assert prod.degree() <= k
            for r, exps in enumerate(monomials_upto(2, k)):
                assert m.at(r, c) == prod.coefficient(exps)


class TestExplicitInverse:
    def test_pentagon_rows(self, pentagon_set):
        inv = explicit_inverse(strong_basis(pentagon_set))
        assert inv == RatMat.from_rows([[F(x, 4) for x in row] for row in PENTAGON_INV4])

    def test_multiplies_to_identity(self, pentagon_set):
        basis = strong_basis(pentagon_set)
        assert explicit_inverse(basis).matmul(product_matrix(basis)) == RatMat.identity(6)

    def test_matches_generic_inverse_on_random_sets(self):
        rng = random.Random(71)
        for _ in range(5):
            vs = random_strong_set(rng, 2, 5)
            basis = strong_basis(vs)
            assert explicit_inverse(basis) == mat_inverse(product_matrix(basis))

    def test_requires_strong(self, square_with_center):
        with pytest.raises(NotStronglyNonDegenerateError):
            explicit_inverse(strong_basis(square_with_center))


class TestSolveStrong:
    def test_pentagon_weights(self, pentagon_set, pentagon_moments):
        rec = reconstruct(pentagon_moments, pentagon_set)
        assert rec.weight_vector() == (1, -22, 26, 15, -16, -2)
        assert not rec.is_singular
        got = dict((s, w) for s, w, _ in rec.weights)
        assert got[(2, 3, 4)] == 1 and got[(0, 1, 4)] == -2

    def test_moments_given_as_strings(self, pentagon_set, pentagon_moments):
        """The table reads each value by `rat`, so "1/2" is 1/2; it once stored the string, and
        `reconstruct` met a bare AttributeError on it."""
        half = MomentTable(2, 2, {**pentagon_moments.moments, (1, 1): F(1, 2)})
        strings = MomentTable(2, 2, {**{e: str(v) for e, v in pentagon_moments.moments.items()}, (1, 1): "1/2"})
        assert strings == half
        assert reconstruct(strings, pentagon_set) == reconstruct(half, pentagon_set)

    def test_single_simplex_round_trip(self, pentagon_set):
        basis = strong_basis(pentagon_set)
        target = basis.simplices()[2]
        m = WeightedMeasure(pentagon_set, [(target, 1)])
        rec = reconstruct(measure_moments(m, 2), pentagon_set)
        expect = tuple(1 if s == target else 0 for s in basis.simplices())
        assert rec.weight_vector() == expect

    def test_random_round_trip(self, pentagon_set):
        rng = random.Random(77)
        basis = strong_basis(pentagon_set)
        for _ in range(5):
            weights = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(6)]
            m = WeightedMeasure(pentagon_set, list(zip(basis.simplices(), weights)))
            rec = reconstruct(measure_moments(m, 2), pentagon_set)
            assert list(rec.weight_vector()) == weights


class TestExtended:
    def test_square_center_matrix(self, square_with_center):
        assert build_extended(square_with_center) == RatMat.from_rows(SQUARE_CENTER_EXT)

    def test_multiset_matrix(self, multiset_with_duplicate):
        assert build_extended(multiset_with_duplicate) == RatMat.from_rows(MULTISET_EXT)

    def test_extended_rank(self, square_with_center):
        m = build_extended(square_with_center)
        rows = [linalg.integer_vector(m.row(i))[0] for i in range(m.rows)]
        assert len(linalg.eliminate(zip(*rows), m.rows)[0]) == 6

    def test_select_minor_center_pivot_reproduces_journal_columns(self, square_with_center):
        sel = select_minor(square_with_center, pivot=0)
        cols = extended_columns(square_with_center)
        assert [cols.index(c) + 1 for c in sel.columns] == [5, 6, 7, 8, 9, 10]

    def test_select_minor_forces_degenerate_columns(self, square_with_center):
        sel = select_minor(square_with_center)  # default pivot: last vertex
        simplices = sel.simplices()
        assert (0, 2, 4) in simplices and (0, 1, 3) in simplices

    def test_select_minor_on_strong_set_is_through_pivot(self, pentagon_set):
        sel = select_minor(pentagon_set)
        assert sel.columns == strong_basis(pentagon_set).columns

    def test_not_weak_rejected(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
        with pytest.raises(NotWeaklyNonDegenerateError):
            select_minor(vs)


class TestSolveWeak:
    def test_square_center_weight_formulas(self, square_with_center):
        """Frozen closed forms for the journal's column set, pinned by the solver.

        The journal's printed inverse for this example is the transpose of
        the true one (its rows fail to multiply back against the printed
        matrix), and the weight formulas derived from it are off; the values
        below were computed independently and satisfy M w = a identically.
        """
        cols = extended_columns(square_with_center)
        paper_cols = [cols[i - 1] for i in (5, 6, 7, 8, 9, 10)]
        basis = FormBasis(square_with_center, 0, tuple(paper_cols))
        m = product_matrix(basis)
        inv = mat_inverse(m)
        assert inv.matmul(m) == RatMat.identity(6)

        def frozen(a00, a10, a01, a20, a11, a02):
            return (
                F(a20, 4),
                F(a11 - a20 - a02, 4),
                a00 + F(a01, 2) + F(a02, 4),
                F(a02, 4),
                -a00 - F(a10, 2) - F(a01, 2) - F(a20, 4) - F(a11, 4) - F(a02, 4),
                a00 + F(a10, 2) + F(a20, 4),
            )

        rng = random.Random(5)
        for _ in range(5):
            a = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
            weights = solve(m, a)
            assert weights == frozen(*a)

    def test_square_center_journal_inverse_is_transposed(self, square_with_center):
        """Document the transposition: the printed table equals inv(M).T * 4."""
        printed = RatMat.from_rows(
            [
                [0, 0, 4, 0, -4, 4],
                [0, 0, 0, 0, -2, 2],
                [0, 0, 2, 0, -2, 0],
                [1, -1, 0, 0, -1, 1],
                [0, 1, 0, 0, -1, 0],
                [0, -1, 1, 1, -1, 0],
            ]
        )
        cols = extended_columns(square_with_center)
        paper_cols = [cols[i - 1] for i in (5, 6, 7, 8, 9, 10)]
        basis = FormBasis(square_with_center, 0, tuple(paper_cols))
        inv = mat_inverse(product_matrix(basis))
        scaled = RatMat(6, 6, [4 * x for x in inv.entries])
        assert RatMat.from_rows(map(scaled.column, range(6))) == printed
        assert scaled != printed  # the table as printed is not the inverse

    def test_square_measure_has_no_singular_part(self, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        rec = reconstruct(table, square_with_center, pivot=0)
        weights = dict((s, w) for s, w, _ in rec.weights)
        assert not rec.is_singular
        assert weights[(0, 2, 4)] == 0 and weights[(0, 1, 3)] == 0
        non_deg = [w for s, w, dg in rec.weights if not dg]
        assert non_deg == [2, 2, 2, 2]

    def test_zero_moments(self, square_with_center):
        table = MomentTable(2, 2, {e: F(0) for e in monomials_upto(2, 2)})
        rec = reconstruct(table, square_with_center)
        assert all(w == 0 for w in rec.weight_vector())

    def test_multiset_paper_columns(self, multiset_with_duplicate):
        """The 1,3,4,5,6,8 column choice: inverse matches the printed table."""
        cols = extended_columns(multiset_with_duplicate)
        paper_cols = [cols[i - 1] for i in (1, 3, 4, 5, 6, 8)]
        basis = FormBasis(multiset_with_duplicate, 4, tuple(paper_cols))
        inv = mat_inverse(product_matrix(basis))
        assert RatMat(6, 6, [4 * x for x in inv.entries]) == RatMat.from_rows(MULTISET_INV4)

    def test_multiset_constraint_system(self, multiset_with_duplicate):
        """Vanishing degenerate weights pin the moment subspace of polygons.

        From the printed inverse (which is correct here) the constraints are
        a20 = 0, a02 = 0, a11 = a20 + a02 and 4 a00 + 2 a10 + 2 a01 + a20 +
        a11 + a02 = 0; the journal's listed system garbles two of them.  The
        uniform measure of the big triangle (0,0),(2,0),(0,2) satisfies this
        corrected system and not the listed one.
        """
        vs = multiset_with_duplicate
        big = uniform_measure(vs, [(1, 2, 4), (2, 3, 4)])
        numerator = recover_numerator(measure_moments(big, 2), vs)
        a = {e: numerator.coefficient(e) for e in monomials_upto(2, 2)}
        assert a[(2, 0)] == 0 and a[(0, 2)] == 0
        assert a[(1, 1)] == a[(2, 0)] + a[(0, 2)]
        assert 4 * a[(0, 0)] + 2 * a[(1, 0)] + 2 * a[(0, 1)] + a[(2, 0)] + a[(1, 1)] + a[(0, 2)] == 0
        # the journal's listed constraint a10 = a11 fails on this polygon
        assert a[(1, 0)] != a[(1, 1)]

    def test_multiset_big_triangle_weights(self, multiset_with_duplicate):
        vs = multiset_with_duplicate
        big = uniform_measure(vs, [(1, 2, 4), (2, 3, 4)])
        cols = extended_columns(vs)
        paper_cols = [cols[i - 1] for i in (1, 3, 4, 5, 6, 8)]
        rec = reconstruct(measure_moments(big, 2), vs, columns=paper_cols)
        weights = dict((s, w) for s, w, _ in rec.weights)
        assert weights[(2, 3, 4)] == 2 and weights[(1, 2, 4)] == 2
        assert all(w == 0 for s, w, dg in rec.weights if dg)

    def test_singular_flagged(self, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        bumped = dict(table.moments)
        bumped[(1, 1)] += 1
        rec = reconstruct(MomentTable(2, 2, bumped), square_with_center, pivot=0)
        assert rec.is_singular
        with pytest.raises(NotWeaklyNonDegenerateError):
            rec.to_measure()

    def test_forced_singular_set_is_a_precondition_error(self, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        singular = extended_columns(square_with_center)[:6]  # the journal's minor is 5..10
        with pytest.raises(NotWeaklyNonDegenerateError):
            reconstruct(table, square_with_center, columns=singular)


class TestDimensionAndBasis:
    def test_pentagon(self, pentagon_set):
        dim_space, basis = dimension_and_basis(pentagon_set)
        assert dim_space == 6
        assert sorted(basis) == sorted(strong_basis(pentagon_set).simplices())

    def test_square_with_center(self, square_with_center):
        dim_space, basis = dimension_and_basis(square_with_center)
        assert dim_space == comb(4, 2) - 2 == 4
        assert len(basis) == 4
        assert all(4 in s for s in basis)

    def test_random_strong(self):
        rng = random.Random(123)
        vs = random_strong_set(rng, 2, 6)
        dim_space, basis = dimension_and_basis(vs)
        assert dim_space == comb(5, 2) == len(basis)

    def test_weak_round_trip_on_pruned_basis(self, square_with_center):
        rng = random.Random(9)
        _, basis = dimension_and_basis(square_with_center)
        weights = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in basis]
        m = WeightedMeasure(square_with_center, list(zip(basis, weights)))
        table = measure_moments(m, 2)
        rec = reconstruct(table, square_with_center)
        assert not rec.is_singular
        assert measure_moments(rec.to_measure(), 2) == table


class TestDetFactor:
    def _full_strong_columns(self):
        from itertools import combinations

        return [c for c in combinations(range(4), 2)]

    def test_collinear_qualifying_triple_kills_det(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 3)])
        report = det_factor_report(vs, self._full_strong_columns())
        assert report.determinant == 0

    def test_ratio_constant_across_configurations(self):
        rng = random.Random(15)
        ratios = set()
        for _ in range(4):
            vs = random_strong_set(rng, 2, 5)
            report = det_factor_report(vs, self._full_strong_columns())
            assert report.ratio is not None
            ratios.add(report.ratio)
        assert len(ratios) == 1

    def test_degree_bookkeeping(self):
        # qualifying (d+1)-subsets for the full strong basis: those avoiding
        # the pivot form; (d+1) * count equals (N-d-1) * C(N-1, d)
        rng = random.Random(19)
        vs = random_strong_set(rng, 2, 5)
        report = det_factor_report(vs, self._full_strong_columns())
        assert len(report.qualifying) == 4
        assert 3 * len(report.qualifying) == 2 * comb(4, 2)


def _random_multiset(rng, dim, n, span=3):
    """Small-grid points, some repeated, that affinely span R^dim."""
    while True:
        pts = [tuple(rng.randint(-1, span - 2) for _ in range(dim)) for _ in range(n)]
        if rng.random() < 0.5:
            pts[rng.randrange(n)] = pts[rng.randrange(n)]
        try:
            return VertexSet(dim, pts)
        except NotSpanningError:
            continue


def _naive_column(column, vs):
    prod = Poly.constant(vs.dim, 1)
    for i in column:
        prod = times(prod, vertex_form(vs.points[i]))
    return [prod.coefficient(e) for e in monomials_upto(vs.dim, numerator_degree(vs))]


def _bucket_order(vs, pivot):
    """The extended columns, complementary to degenerate, then through-pivot, then other simplices."""
    n = len(vs)
    degenerate = set(classify(vs).degenerate)
    buckets = ([], [], [])
    for c in extended_columns(vs):
        s = tuple(sorted(set(range(n)) - set(c)))
        buckets[0 if s in degenerate else 1 if pivot in s else 2].append(c)
    return buckets[0] + buckets[1] + buckets[2]


def _greedy_minor_columns(vs, pivot):
    """Columns admitted one by one when independent of those before them."""
    target = comb(len(vs) - 1, vs.dim)
    echelon, chosen = [], []
    for c in _bucket_order(vs, pivot):
        v = _naive_column(c, vs)
        for lead, row in echelon:
            if v[lead] != 0:
                f = v[lead] / row[lead]
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a != 0), None)
        if lead is not None:
            echelon.append((lead, v))
            chosen.append(c)
            if len(chosen) == target:
                break
    return tuple(sorted(chosen))


class TestProductColumnsProperties:
    def test_product_matrix_equals_naive_products(self):
        rng = random.Random(2024)
        for _ in range(40):
            dim = rng.randint(1, 3)
            vs = _random_multiset(rng, dim, rng.randint(dim + 2, dim + 5))
            cols = list(extended_columns(vs))
            rng.shuffle(cols)
            cols = [tuple(reversed(c)) if rng.random() < 0.3 else c for c in cols[: rng.randint(1, len(cols))]]
            m = product_matrix(FormBasis(vs, len(vs) - 1, tuple(cols)))
            assert (m.rows, m.cols) == (comb(len(vs) - 1, dim), len(cols))
            for j, c in enumerate(cols):
                assert list(m.column(j)) == _naive_column(c, vs)

    def test_select_minor_matches_incremental_greedy(self):
        rng = random.Random(77)
        checked = weak = 0
        while checked < 40:
            dim = rng.choice((2, 3))
            vs = _random_multiset(rng, dim, rng.randint(dim + 2, dim + 4))
            kind = classify(vs).kind
            if kind is Degeneracy.NEITHER:
                continue
            pivot = rng.randrange(len(vs))
            assert select_minor(vs, pivot).columns == _greedy_minor_columns(vs, pivot)
            checked += 1
            weak += kind is Degeneracy.WEAK
        assert weak >= 10


def _formed_from_one(vs, column):
    """The product of the column's forms, formed from the constant 1 by `FormKernel.times`."""
    kernel = form_kernel(vs.dim, numerator_degree(vs))
    pair = ([1] + [0] * (len(kernel.rows) - 1), 1)
    for i in column:
        pair = kernel.times(pair, homogeneous(vs.points[i]))
    return pair


if given is not None:

    class TestProductWalkProperties:
        @settings(derandomize=True, database=None, deadline=None, max_examples=60)
        @given(
            st.integers(0, 2**32 - 1),
            st.sampled_from(("strong", "weak")),
            st.sampled_from(("shuffled", "descending", "repeated-prefix")),
        )
        def test_each_walked_product_is_its_forms_from_one(self, seed, kind, order):
            """Every column's pair, in any column order, equals its forms multiplied onto 1 one by one.

            Shuffled orders also reverse some columns; repeated-prefix orders are sorted draws with
            repeats, so consecutive columns share prefixes of every length, the whole column included.
            """
            rng = random.Random(seed)
            dim = rng.randint(1, 3)
            if kind == "strong":
                vs = random_strong_set(rng, dim, rng.randint(dim + 2, dim + 5))
            else:
                vs = _random_multiset(rng, dim, rng.randint(dim + 2, dim + 5))
            columns = list(extended_columns(vs))
            if order == "shuffled":
                rng.shuffle(columns)
                columns = [tuple(reversed(c)) if rng.random() < 0.3 else c for c in columns]
            elif order == "descending":
                columns.reverse()
            else:
                columns = sorted(rng.choices(columns, k=rng.randint(1, 2 * len(columns))))
            assert list(inverse._product_columns(vs, columns)) == [_formed_from_one(vs, c) for c in columns]


class TestSolverProperties:
    def test_planted_weights_come_back(self):
        rng = random.Random(404)
        checked = weak = 0
        while checked < 40:
            dim = rng.choice((2, 3))
            vs = _random_multiset(rng, dim, rng.randint(dim + 2, dim + 4))
            cls = classify(vs)
            if cls.kind is Degeneracy.NEITHER:
                continue
            pivot = rng.randrange(len(vs))
            simplices = select_minor(vs, pivot).simplices()
            planted = {
                s: F(rng.randint(-9, 9), rng.randint(1, 3))
                for s in simplices
                if s not in cls.degenerate
            }
            order = numerator_degree(vs)
            table = measure_moments(WeightedMeasure(vs, planted.items()), order)
            rec = reconstruct(table, vs, pivot)
            assert [s for s, _, _ in rec.weights] == simplices
            assert [w for _, w, _ in rec.weights] == [planted.get(s, 0) for s in simplices]
            assert {s for s, _, dg in rec.weights if dg} == set(cls.degenerate)
            assert measure_moments(rec.to_measure(), order) == table
            checked += 1
            weak += cls.kind is Degeneracy.WEAK
        assert weak >= 10


class TestStrongSolveProperties:
    def test_default_solve_equals_forced_strong_elimination(self):
        """On strong sets the default solve and basis equal the forced through-pivot elimination."""
        rng = random.Random(1313)

        def check(case, dim, n):
            vs = random_strong_set(rng, dim, n)
            pivot = rng.randrange(n)
            strong = strong_basis(vs, pivot)
            assert select_minor(vs, pivot) == strong
            k = numerator_degree(vs)
            if case % 2:
                planted = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in strong.columns]
                measure = WeightedMeasure(vs, list(zip(strong.simplices(), planted)))
                tables = [measure_moments(measure, order) for order in (k, k + 2)]
            else:
                tables = []
                for order in (k, k + 2):
                    values = {e: F(rng.randint(-99, 99), rng.randint(1, 9)) for e in monomials_upto(dim, order)}
                    tables.append(MomentTable(dim, order, values))
            for table in tables:
                rec = reconstruct(table, vs, pivot)
                assert rec == reconstruct(table, vs, pivot, strong.columns)
                assert [s for s, _, _ in rec.weights] == strong.simplices()
            if case % 2:
                assert list(rec.weight_vector()) == planted

        shapes = [(1, n) for n in (3, 4, 5, 6)] + [(2, n) for n in (4, 5, 6, 7)] + [(3, n) for n in (5, 6, 7)]
        for case in range(44):
            check(case, *shapes[case % len(shapes)])
        # high dimensions, where the cofactors are d+1 determinants each: a random and a planted table per shape
        for case, shape in enumerate([(4, 7), (4, 7), (6, 9), (6, 9), (8, 10), (8, 10)], 44):
            check(case, *shape)

    def test_forced_columns_on_strong_sets_keep_the_elimination(self, monkeypatch):
        """Forced columns eliminate once, even a strong set's; the default solve does not eliminate."""
        calls = []
        elimination = inverse.eliminate

        def counted(*args):
            calls.append(1)
            return elimination(*args)

        monkeypatch.setattr(inverse, "eliminate", counted)
        rng = random.Random(1314)
        for dim, n in [(1, 4), (2, 5), (2, 6), (3, 6)] * 3:
            vs = random_strong_set(rng, dim, n)
            pivot = rng.randrange(n)
            other = strong_basis(vs, (pivot + 1) % n)
            values = {e: F(rng.randint(-99, 99), rng.randint(1, 9)) for e in monomials_upto(dim, n - dim - 1)}
            table = MomentTable(dim, n - dim - 1, values)
            calls.clear()
            rec = reconstruct(table, vs, other.pivot)
            assert len(calls) == 0
            calls.clear()
            forced = reconstruct(table, vs, pivot, other.columns)
            assert len(calls) == 1
            assert (forced.pivot, forced.weights) == (pivot, rec.weights)


def _rational_multiset(rng, n):
    """n points of a 5 x 5 grid, one repeated, under a rational affine map.

    The map keeps every flat triple of the grid and gives every first
    coordinate a denominator of 3, 4, 6 or 12, so no vertex form has integer
    coefficients and every column scale exceeds 1.
    """
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    while True:
        pts = rng.sample(grid, n - 1)
        pts.append(rng.choice(pts))
        rng.shuffle(pts)
        a, b = rng.choice((2, 3)), rng.choice((2, 3))
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        try:
            return VertexSet(2, [(F(x + s, a) + F(1, a + 1), F(y + t, b)) for x, y in pts])
        except NotSpanningError:
            continue


class TestScaledColumnsProperties:
    def test_rational_multisets_across_blocks(self):
        """Minor and planted weights on rational multisets, many with a pivot past the first C(N-1, d)."""
        rng = random.Random(909)
        checked = several = 0
        while checked < 24:
            vs = _rational_multiset(rng, rng.randint(7, 9))
            cls = classify(vs)
            if cls.kind is Degeneracy.NEITHER:
                continue
            pivot = rng.randrange(len(vs))
            basis = select_minor(vs, pivot)
            assert basis.columns == _greedy_minor_columns(vs, pivot)
            simplices = basis.simplices()
            planted = {
                s: F(rng.randint(-9, 9), rng.randint(1, 3)) for s in simplices if s not in cls.degenerate
            }
            table = measure_moments(WeightedMeasure(vs, planted.items()), numerator_degree(vs))
            rec = reconstruct(table, vs, pivot)
            order = _bucket_order(vs, pivot)
            several += max(map(order.index, basis.columns)) >= len(basis.columns)
            assert [s for s, _, _ in rec.weights] == simplices
            assert [w for _, w, _ in rec.weights] == [planted.get(s, 0) for s in simplices]
            checked += 1
        assert several >= 8


def _square_moments():
    square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
    return measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)


@pytest.fixture
def solver_cases(pentagon_set, pentagon_moments, square_with_center):
    """(vertex set, moments, pivot, forced columns) on a strong, a weak and a forced input."""
    journal = [extended_columns(square_with_center)[i - 1] for i in (5, 6, 7, 8, 9, 10)]
    return [
        (pentagon_set, pentagon_moments, None, None),
        (square_with_center, _square_moments(), None, None),
        (square_with_center, _square_moments(), 0, journal),
    ]


class TestOneElimination:
    def test_form_basis_carries_no_solver_state(self, pentagon_set):
        assert FormBasis.__slots__ == ("vertex_set", "pivot", "columns")
        assert not hasattr(strong_basis(pentagon_set), "__dict__")

    def test_no_det_or_solve(self, solver_cases, monkeypatch):
        expected = [
            (select_minor(vs, pivot, forced), reconstruct(table, vs, pivot, forced))
            for vs, table, pivot, forced in solver_cases
        ]

        def fail(*args, **kwargs):
            raise AssertionError("the solver must not call det or solve")

        monkeypatch.setattr(inverse, "det", fail)
        monkeypatch.setattr(linalg, "solve", fail)
        for (vs, table, pivot, forced), (basis, rec) in zip(solver_cases, expected):
            assert select_minor(vs, pivot, forced) == basis
            assert reconstruct(table, vs, pivot, forced) == rec

    def test_one_elimination_beyond_classify(self, solver_cases, monkeypatch):
        calls = []
        elimination = inverse.eliminate

        def counted(*args):
            calls.append(1)
            return elimination(*args)

        monkeypatch.setattr(inverse, "eliminate", counted)
        # a default strong set is solved in closed form; weak and forced sets eliminate once
        for (vs, table, pivot, forced), eliminations in zip(solver_cases, (0, 1, 1)):
            calls.clear()
            reconstruct(table, vs, pivot, forced)
            assert len(calls) == eliminations
            calls.clear()
            select_minor(vs, pivot, forced)
            assert len(calls) == eliminations

    def test_the_minor_search_forms_no_product_after_its_last_pivot(self, monkeypatch):
        """26 of 56 products on weak_n8 and 35 of 84 on weak_n9; forced columns form C(N-1, d)."""
        formed = []
        walk = inverse._product_columns

        def counted(vs, columns):
            for pair in walk(vs, columns):
                formed.append(1)
                yield pair

        monkeypatch.setattr(inverse, "_product_columns", counted)
        for case, expected in (("weak_n8", 26), ("weak_n9", 35)):
            text = (Path(__file__).parent / "data" / case / "vertices.json").read_text(encoding="utf-8")
            vs = vertex_set_from_json(json.loads(text))
            formed.clear()
            basis = select_minor(vs)
            assert (len(formed), len(extended_columns(vs))) == (expected, comb(len(vs), len(vs) - 3))
            formed.clear()
            assert select_minor(vs, basis.pivot, basis.columns[::-1]).columns == basis.columns[::-1]
            assert len(formed) == comb(len(vs) - 1, 2)

    def test_moment_errors_come_before_a_singular_forced_minor(self, square_with_center):
        """A square forced set is only found singular by the elimination, after the moments."""
        singular = extended_columns(square_with_center)[:6]
        incomplete = MomentTable(2, 1, {e: F(0) for e in monomials_upto(2, 1)})
        wrong_dim = MomentTable(1, 2, {(i,): F(0) for i in range(3)})
        with pytest.raises(IncompleteMomentsError):
            reconstruct(incomplete, square_with_center, columns=singular)
        with pytest.raises(DimensionError):
            reconstruct(wrong_dim, square_with_center, columns=singular)
        with pytest.raises(NotWeaklyNonDegenerateError):  # a wrong size is found first
            reconstruct(incomplete, square_with_center, columns=singular[:2])


class _Index:
    """An integer type other than int, read through `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


PIVOT_CALLS = {
    "strong_basis": lambda vs, table, pivot: strong_basis(vs, pivot),
    "select_minor": lambda vs, table, pivot: select_minor(vs, pivot),
    "dimension_and_basis": lambda vs, table, pivot: dimension_and_basis(vs, pivot),
    "reconstruct": lambda vs, table, pivot: reconstruct(table, vs, pivot),
}


@pytest.mark.parametrize("pivot", [1.5, 4.0, F(4), True], ids=["half", "float", "fraction", "bool"])
@pytest.mark.parametrize("call", PIVOT_CALLS)
def test_a_pivot_that_is_not_an_integer_is_refused(call, pivot, pentagon_set, pentagon_moments):
    """On this strong 5-point set `reconstruct` once raised ZeroDivisionError at pivot 1.5, and
    kept 4.0 and True as the pivot, which the JSON writer would print as 4.0 and true."""
    with pytest.raises(TypeError):
        PIVOT_CALLS[call](pentagon_set, pentagon_moments, pivot)


def test_a_fractional_pivot_is_refused_on_a_weak_set(square_with_center, pentagon_moments):
    """Pivot 1.5 once 'succeeded' here, with no column through the pivot."""
    with pytest.raises(TypeError):
        reconstruct(pentagon_moments, square_with_center, 1.5)


def test_a_pivot_is_stored_as_an_int(pentagon_set, pentagon_moments):
    rec = reconstruct(pentagon_moments, pentagon_set, _Index(4))
    assert type(rec.pivot) is int
    assert rec == reconstruct(pentagon_moments, pentagon_set, 4)


@pytest.mark.parametrize(
    "pivot, error, message",
    [
        (9, DimensionError, "^pivot index 9 out of range for 5 vertices$"),
        (-1, DimensionError, "^pivot index -1 out of range for 5 vertices$"),
        (1.5, TypeError, None),
        (True, TypeError, "^pivot must be an integer, not bool$"),
    ],
    ids=["past-the-end", "negative", "half", "bool"],
)
def test_a_form_basis_checks_its_pivot(pentagon_set, pivot, error, message):
    """On this strong 5-point set `explicit_inverse` of a basis with pivot 9, -1 or 1.5 once
    raised ZeroDivisionError, and pivot True passed as vertex 1."""
    columns = strong_basis(pentagon_set).columns
    with pytest.raises(error, match=message):
        explicit_inverse(FormBasis(pentagon_set, pivot, columns))


def test_a_form_basis_stores_its_pivot_as_an_int(pentagon_set):
    basis = FormBasis(pentagon_set, _Index(4), strong_basis(pentagon_set).columns)
    assert type(basis.pivot) is int
    assert basis == strong_basis(pentagon_set)
