import random
from fractions import Fraction as F

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


class TestVolume:
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

        from polymom import RatMat, rank

        def flat(vs, s):
            return rank(RatMat.from_rows([(1,) + vs.points[i] for i in s])) < vs.dim + 1

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

    def test_strong_implies_weak_criterion(self, pentagon_set):
        vs = pentagon_set
        for idx in __import__("itertools").combinations(range(5), 4):
            assert vs.spans(idx)

    def test_not_spanning_rejected(self):
        with pytest.raises(NotSpanningError):
            VertexSet(2, [(0, 0), (1, 0), (2, 0)])


class TestRebase:
    def test_fixed_point_when_pivot_present(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, [((0, 1, 4), F(3, 2))])
        assert rebase(m, 4) == m

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

    def test_degenerate_atom_rejected(self):
        vs = VertexSet(2, [(0, 0), (1, 1), (2, 2), (0, 1)])
        m = WeightedMeasure(vs, [((0, 1, 2), 1)], allow_singular=True)
        with pytest.raises(DegenerateSimplexError):
            rebase(m, 3)

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

    def test_degenerate_rejected_without_flag(self, square_with_center):
        with pytest.raises(DegenerateSimplexError):
            WeightedMeasure(square_with_center, [((0, 2, 4), 1)])

    @pytest.mark.parametrize("index", [1.5, 1.0, F(1)], ids=["1.5", "1.0", "Fraction(1)"])
    def test_non_integer_simplex_index_rejected(self, pentagon_set, index):
        with pytest.raises(TypeError):
            WeightedMeasure(pentagon_set, [((0, index, 4), 1)])
