import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from polymom import (
    Degeneracy,
    VertexSet,
    WeightedMeasure,
    classify,
    density,
    measure_moments,
    rebase,
    uniform_measure,
    volume,
)
from polymom.errors import DegenerateSimplexError, NotSpanningError
from polymom.geometry import edge_det, homogeneous
from polymom.linalg import eliminate


def point_rank(vs, subset):
    """Pivot count of one elimination of the rows (1, p), each scaled to integers by its lcm."""
    rows = [[lcm(*(c.denominator for c in vs.points[i])) * x for x in (1, *vs.points[i])] for i in subset]
    return len(eliminate([[int(r[j]) for r in rows] for j in range(vs.dim + 1)], len(rows))[0])


class TestHomogeneous:
    DENOMINATORS = (1, 2, 3, 4, 6, 9, 10, 10**9 + 7, 10**12 + 39)

    @staticmethod
    def check(point):
        row = homogeneous(point)
        assert len(row) == len(point) + 1
        assert all(type(x) is int for x in row)
        assert row[0] == lcm(*(c.denominator for c in point)) > 0
        assert gcd(*row) == 1
        assert [F(x, row[0]) for x in row[1:]] == list(point)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_contract(self, dim):
        """(W, W*p) with W the lcm of the denominators, primitive, reading back p: random rational
        points with negative coordinates and large denominators, the zero point and integer points."""
        rng = random.Random(dim)
        self.check((F(0),) * dim)
        self.check(tuple(F(-k) for k in range(1, dim + 1)))
        self.check((F(-1, 10**12 + 39),) + (F(0),) * (dim - 1))
        for _ in range(60):
            point = tuple(
                F(rng.randint(-(10**13), 10**13) * rng.choice((0, 1, 1)), rng.choice(self.DENOMINATORS))
                for _ in range(dim)
            )
            self.check(point)


class TestVolume:
    def test_edge_det_matches_sympy_on_rational_simplices(self):
        """Signed edge determinants against sympy's `det` of the edge vectors, flat draws included."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(71)
        seen = set()
        for case in range(48):
            dim = case % 4 + 1
            grid = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(dim + 3)]
            pts = [tuple(rng.choice(grid) for _ in range(dim)) for _ in range(dim + 1)]
            if case % 12 >= 8:
                pts[-1] = pts[0]
            # the unit simplex after the drawn one makes every draw a spanning vertex set
            unit = [tuple(F(int(k == j)) for k in range(dim)) for j in range(-1, dim)]
            vs = VertexSet(dim, pts + unit)
            edges = [[sympy.Rational(str(c - b)) for c, b in zip(p, pts[0])] for p in pts[1:]]
            got = edge_det(range(dim + 1), vs)
            assert sympy.Rational(str(got)) == sympy.Matrix(edges).det()
            seen.add((dim, (got > 0) - (got < 0)))
        assert {(dim, sign) for dim in (1, 2, 3, 4) for sign in (-1, 0, 1)} <= seen

    def test_standard_simplex(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
        assert volume((0, 1, 2), vs) == F(1, 2)

    def test_area_seven_halves(self, triangle_115232):
        assert volume((0, 1, 2), triangle_115232) == F(7, 2)

    def test_pentagon_triangle(self, pentagon_set):
        # triangle on vertices 2,3,5 (1-based) has area 3/2
        assert volume((1, 2, 4), pentagon_set) == F(3, 2)

    def test_invariance_under_reorder_and_translation(self, triangle_115232):
        vs = triangle_115232
        base = volume((0, 1, 2), vs)
        assert volume((2, 0, 1), vs) == base
        shifted = VertexSet(2, [(x + 4, y - 3) for x, y in vs.points])
        assert volume((0, 1, 2), shifted) == base

    def test_degenerate_is_zero(self):
        vs = VertexSet(2, [(0, 0), (1, 1), (2, 2), (0, 1)])
        assert volume((0, 1, 2), vs) == 0


class TestClassify:
    def test_strong(self, pentagon_set):
        cls = classify(pentagon_set)
        assert cls.kind is Degeneracy.STRONG and cls.degenerate == ()

    def test_weak_square_with_center(self, square_with_center):
        cls = classify(square_with_center)
        assert cls.kind is Degeneracy.WEAK
        assert cls.degenerate == ((0, 1, 3), (0, 2, 4))

    def test_weak_multiset(self, multiset_with_duplicate):
        cls = classify(multiset_with_duplicate)
        assert cls.kind is Degeneracy.WEAK
        assert cls.degenerate == ((0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 3))

    def test_neither(self):
        # four collinear points break every (d+2)-subset through them
        vs = VertexSet(2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
        assert classify(vs).kind is Degeneracy.NEITHER

    def test_matches_brute_force_rank_classification(self):
        from itertools import combinations

        def flat(vs, s):
            return point_rank(vs, s) < vs.dim + 1

        rng = random.Random(31)
        kinds = set()
        for _ in range(60):
            dim = rng.randint(1, 3)
            n = rng.randint(dim + 1, dim + 4)
            pts = [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(n)]
            pts[rng.randrange(n)] = pts[rng.randrange(n)]
            try:
                vs = VertexSet(dim, pts)
            except NotSpanningError:
                continue
            degenerate = tuple(s for s in combinations(range(n), dim + 1) if flat(vs, s))
            if not degenerate:
                kind = Degeneracy.STRONG
            elif any(flat(vs, s) for s in combinations(range(n), dim + 2)):
                kind = Degeneracy.NEITHER
            else:
                kind = Degeneracy.WEAK
            cls = classify(vs)
            assert (cls.kind, cls.degenerate) == (kind, degenerate)
            kinds.add(kind)
        assert kinds == set(Degeneracy)

    def test_degenerate_subsets_match_spans_on_rational_multisets(self):
        """The integer determinants agree with sympy's rank on rational points, repeats included."""
        from itertools import combinations

        sympy = pytest.importorskip("sympy")

        def spans(vs, s):
            rows = [[1, *(sympy.Rational(c.numerator, c.denominator) for c in vs.points[i])] for i in s]
            return sympy.Matrix(rows).rank() == vs.dim + 1

        rng = random.Random(47)
        checked = set()
        for _ in range(90):
            dim = rng.randint(1, 3)
            n = rng.randint(dim + 1, dim + 4)
            grid = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(4)]
            pts = [tuple(rng.choice(grid) for _ in range(dim)) for _ in range(n)]
            for _ in range(rng.randint(0, 2)):
                pts[rng.randrange(n)] = pts[rng.randrange(n)]
            try:
                vs = VertexSet(dim, pts)
            except NotSpanningError:
                continue
            cls = classify(vs)
            assert cls.degenerate == tuple(s for s in combinations(range(n), dim + 1) if not spans(vs, s))
            checked.add((dim, bool(cls.degenerate), len(set(pts)) < n))
        assert {(dim, True, True) for dim in (1, 2, 3)} | {(dim, False, False) for dim in (2, 3)} <= checked

    def test_strong_implies_weak_criterion(self, pentagon_set):
        vs = pentagon_set
        for idx in __import__("itertools").combinations(range(5), 4):
            assert point_rank(vs, idx) == 3

    def test_not_spanning_rejected(self):
        with pytest.raises(NotSpanningError):
            VertexSet(2, [(0, 0), (1, 0), (2, 0)])


class TestRebase:
    def test_fixed_point_when_pivot_present(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, [((0, 1, 4), F(3, 2))])
        assert rebase(m, 4) == m

    @pytest.mark.parametrize("pivot", [1.5, 4.0, True])
    def test_pivot_must_be_an_integer(self, pentagon_set, pivot):
        m = WeightedMeasure(pentagon_set, [((0, 1, 4), F(3, 2))])
        with pytest.raises(TypeError):
            rebase(m, pivot)

    def test_interval_oracle(self):
        vs = VertexSet(1, [(0,), (1,), (2,)])
        m = WeightedMeasure(vs, [((1, 2), 1)])
        r = rebase(m, 0)
        assert all(0 in s for s, _ in r.atoms)
        # moments of the rebased measure still integrate x^i over [1, 2]
        table = measure_moments(r, 5)
        for i in range(6):
            assert table[(i,)] == (F(2) ** (i + 1) - 1) / (i + 1)

    def test_triangle_external_pivot_oracle(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        m = uniform_measure(vs, [(0, 1, 2)])
        r = rebase(m, 3)
        assert all(3 in s for s, _ in r.atoms)
        assert len(r.atoms) == 3
        assert measure_moments(r, 4) == measure_moments(m, 4)

    def test_idempotent(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        m = uniform_measure(vs, [(0, 1, 2)])
        r = rebase(m, 3)
        assert rebase(r, 3) == r

    def test_coplanar_face_skipped(self):
        # pivot on the line of one edge: that cone is dropped, moments survive
        vs = VertexSet(1, [(0,), (1,), (2,)])
        m = WeightedMeasure(vs, [((0, 1), 1)])
        r = rebase(m, 2)
        assert measure_moments(r, 4) == measure_moments(m, 4)

    def test_random_moment_preservation(self):
        rng = random.Random(41)
        for _ in range(10):
            dim = rng.choice([1, 2, 3])
            pts = []
            while True:
                pts = [
                    tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
                    for _ in range(dim + 2)
                ]
                try:
                    vs = VertexSet(dim, pts)
                except NotSpanningError:
                    continue
                if volume(tuple(range(dim + 1)), vs) != 0:
                    break
            m = WeightedMeasure(vs, [(tuple(range(dim + 1)), F(rng.randint(1, 5)))])
            order = {1: 5, 2: 4, 3: 3}[dim]
            r = rebase(m, dim + 1)
            assert measure_moments(r, order) == measure_moments(m, order)


class TestDensity:
    def test_unit_density(self):
        vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
        m = uniform_measure(vs, [(0, 1, 2)])
        assert density(m) == [((0, 1, 2), F(1))]

    def test_pentagon_densities(self, pentagon_set):
        weights = {
            (2, 3, 4): 1,
            (1, 3, 4): -22,
            (1, 2, 4): 26,
            (0, 3, 4): 15,
            (0, 2, 4): -16,
            (0, 1, 4): -2,
        }
        m = WeightedMeasure(pentagon_set, list(weights.items()))
        got = dict(density(m))
        assert got == {
            (2, 3, 4): F(1),
            (1, 3, 4): F(-11),
            (1, 2, 4): F(26, 3),
            (0, 3, 4): F(15),
            (0, 2, 4): F(-8),
            (0, 1, 4): F(-2),
        }

    def test_zero_weight_atom_vanishes(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, [((0, 1, 4), 0)])
        assert m.atoms == () and density(m) == []

    def test_duplicate_atoms_merge(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, [((0, 1, 4), 1), ((0, 1, 4), 2)])
        assert m.atoms == (((0, 1, 4), F(3)),)

    def test_degenerate_rejected(self, square_with_center):
        with pytest.raises(DegenerateSimplexError):
            WeightedMeasure(square_with_center, [((0, 2, 4), 1)])

    @pytest.mark.parametrize("index", [1.5, 1.0, F(1)], ids=["1.5", "1.0", "Fraction(1)"])
    def test_non_integer_simplex_index_rejected(self, pentagon_set, index):
        with pytest.raises(TypeError):
            WeightedMeasure(pentagon_set, [((0, index, 4), 1)])
