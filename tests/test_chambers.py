from fractions import Fraction as F
from itertools import combinations

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the properties below are skipped without hypothesis
    given = None

from polymom import VertexSet, WeightedMeasure, chambers, density, measure_moments, uniform_measure, volume
from polymom.chambers import (
    build_chambers,
    chamber_densities,
    convex_hull_2d,
    render_svg,
)
from polymom.errors import DimensionError, NotSpanningError

PENTAGON_WEIGHTS = {
    (2, 3, 4): 1,
    (1, 3, 4): -22,
    (1, 2, 4): 26,
    (0, 3, 4): 15,
    (0, 2, 4): -16,
    (0, 1, 4): -2,
}

# positions taken from the journal figure, density of the containing chamber;
# the central cell must carry -31/3 for mass to balance (the figure label
# dropped the sign: with +31/3 the chamber areas would not integrate to m00)
FIGURE_LABELS = [
    ((F(11, 20), F(1, 10)), F(5)),
    ((F(4, 5), F(11, 50)), F(-10)),
    ((F(27, 25), F(9, 25)), F(-2)),
    ((F(13, 10), F(6, 5)), F(26, 3)),
    ((F(11, 20), F(7, 10)), F(-31, 3)),
    ((F(23, 20), F(83, 100)), F(-7, 3)),
    ((F(37, 50), F(6, 5)), F(2, 3)),
    ((F(21, 50), F(6, 5)), F(1)),
    ((F(3, 10), F(7, 20)), F(14, 3)),
    ((F(1, 20), F(9, 20)), F(5)),
    ((F(9, 50), F(83, 100)), F(-10)),
]


def _chamber_at(cm, point):
    for ch in cm.chambers:
        values = []
        n = len(ch.polygon)
        for i in range(n):
            x1, y1 = ch.polygon[i]
            x2, y2 = ch.polygon[(i + 1) % n]
            values.append((x2 - x1) * (point[1] - y1) - (y2 - y1) * (point[0] - x1))
        nonzero = [v > 0 for v in values if v != 0]
        if all(nonzero) or not any(nonzero):
            return ch
    raise AssertionError(f"no chamber contains {point}")


def test_plain_triangle_single_chamber(triangle_115232):
    cm = build_chambers(triangle_115232)
    assert len(cm.chambers) == 1


def test_square_with_diagonals():
    vs = VertexSet(2, [(0, 0), (1, 0), (1, 1), (0, 1)])
    cm = build_chambers(vs)
    assert len(cm.chambers) == 4


def test_pentagon_chamber_count(pentagon_set):
    cm = build_chambers(pentagon_set)
    assert len(cm.chambers) == 11


def test_pentagon_figure_values(pentagon_set):
    m = WeightedMeasure(pentagon_set, list(PENTAGON_WEIGHTS.items()))
    cm = chamber_densities(build_chambers(pentagon_set), density(m))
    for point, value in FIGURE_LABELS:
        assert _chamber_at(cm, point).density == value


def test_mass_balance(pentagon_set):
    m = WeightedMeasure(pentagon_set, list(PENTAGON_WEIGHTS.items()))
    cm = chamber_densities(build_chambers(pentagon_set), density(m))
    total = sum(ch.area() * ch.density for ch in cm.chambers)
    assert total == measure_moments(m, 0)[(0, 0)] == 1


def test_chambers_independent_of_point_order(pentagon_set):
    shuffled = VertexSet(2, list(reversed(pentagon_set.points)))
    a = build_chambers(pentagon_set)
    b = build_chambers(shuffled)
    assert len(a.chambers) == len(b.chambers)
    assert [c.point for c in a.chambers] == [c.point for c in b.chambers]


def test_single_triangle_density():
    vs = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
    m = uniform_measure(vs, [(0, 1, 2)])
    cm = chamber_densities(build_chambers(vs), density(m))
    assert [ch.density for ch in cm.chambers] == [1]


def test_overlapping_triangles_add():
    # two unit-density triangles sharing a central lens: the overlap chamber
    # carries density 2
    vs = VertexSet(2, [(0, 0), (4, 0), (2, 3), (2, -1), (0, 2), (4, 2)])
    m = uniform_measure(vs, [(0, 1, 2), (3, 4, 5)])
    cm = chamber_densities(build_chambers(vs), density(m))
    assert max(ch.density for ch in cm.chambers) == 2
    center = _chamber_at(cm, (F(2), F(1)))
    assert center.density == 2


def test_density_at_random_interior_points_matches_sum(pentagon_set):
    m = WeightedMeasure(pentagon_set, list(PENTAGON_WEIGHTS.items()))
    dens = density(m)
    cm = chamber_densities(build_chambers(pentagon_set), dens)
    assert [ch.density for ch in cm.chambers] == _reference_densities(cm, dens)
    assert chamber_densities(build_chambers(pentagon_set), iter(dens)) == cm  # read in one pass


def test_one_line_derivation_per_point_pair(monkeypatch):
    """Triangle edges are looked up by index pair; only `build_chambers` derives lines."""
    vs = VertexSet(2, [(0, 0), (2, 0), (1, 1), (0, 2), (0, 0), (2, 2)])
    calls = []
    derive = chambers._canonical_line
    monkeypatch.setattr(chambers, "_canonical_line", lambda p, q: calls.append((p, q)) or derive(p, q))
    cm = build_chambers(vs)
    assert len(calls) == 14  # the 15 index pairs, less the repeated point's pair with itself
    assert cm.edges[(0, 3)] == cm.edges[(3, 4)] and (0, 4) not in cm.edges
    triangles = [s for s in combinations(range(6), 3) if volume(s, vs)]
    cm = chamber_densities(cm, [(s, F(1)) for s in triangles])
    assert len(calls) == 14
    assert [ch.density for ch in cm.chambers] == _reference_densities(cm, [(s, F(1)) for s in triangles])


def test_requires_two_dimensions():
    vs = VertexSet(1, [(0,), (1,)])
    with pytest.raises(DimensionError):
        build_chambers(vs)


def test_hull_is_counterclockwise(pentagon_set):
    hull = convex_hull_2d(pentagon_set.points)
    assert len(hull) == 5
    area2 = sum(
        hull[i][0] * hull[(i + 1) % 5][1] - hull[(i + 1) % 5][0] * hull[i][1]
        for i in range(5)
    )
    assert area2 > 0


def _assert_sign_vectors(cm):
    """Each chamber's recorded sides are the line signs at its centroid, and unique."""
    for ch in cm.chambers:
        for k, (a, b, c) in enumerate(cm.lines):
            value = a * ch.point[0] + b * ch.point[1] + c
            assert value != 0
            assert bool(ch.sides >> k & 1) == (value > 0)
    assert len({ch.sides for ch in cm.chambers}) == len(cm.chambers)


@pytest.mark.parametrize(
    "points",
    [
        [(1, 0), (2, 1), (1, 2), (0, 1), (0, 0)],
        [(1, 1), (2, 0), (2, 2), (0, 2), (0, 0)],
        [(0, 0), (2, 0), (1, 1), (0, 2), (0, 0)],
        [(0, 0), (4, 0), (2, 3), (2, -1), (0, 2), (4, 2)],
    ],
    ids=["pentagon", "square-with-center", "multiset", "two-triangles"],
)
def test_sign_vectors_match_centroids(points):
    _assert_sign_vectors(build_chambers(VertexSet(2, points)))


def _reference_densities(cm, simplex_densities):
    """Density of each chamber by testing its vertex centroid against every triangle."""
    points = cm.vertex_set.points
    out = []
    for ch in cm.chambers:
        n = len(ch.polygon)
        cx = sum(p[0] for p in ch.polygon) / n
        cy = sum(p[1] for p in ch.polygon) / n
        total = F(0)
        for s, d in simplex_densities:
            tri = [points[i] for i in s]
            values = []
            for i in range(3):
                x1, y1 = tri[i]
                x2, y2 = tri[(i + 1) % 3]
                values.append((x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1))
            nz = [v > 0 for v in values if v != 0]
            if all(nz) or not any(nz):
                total += d
        out.append(total)
    return out


if given is not None:
    # a 5 x 5 grid centred on the origin, as in the weak benchmark workload
    GRID = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    nonzero_rationals = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 3))

    def _has_collinear_triple(points):
        return any(
            (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])
            for p, q, r in combinations(points, 3)
        )

    @st.composite
    def grid_measures(draw):
        """A signed measure on a grid multiset with a repeated point and a flat triple."""
        n = draw(st.integers(5, 7))
        distinct = draw(st.lists(st.sampled_from(GRID), min_size=n - 1, max_size=n - 1, unique=True))
        assume(_has_collinear_triple(distinct))
        points = draw(st.permutations(distinct + [draw(st.sampled_from(distinct))]))
        try:
            vs = VertexSet(2, points)
        except NotSpanningError:
            assume(False)
        triangles = [s for s in combinations(range(n), 3) if volume(s, vs)]
        chosen = draw(st.lists(st.sampled_from(triangles), unique=True, min_size=1, max_size=6))
        return WeightedMeasure(vs, [(s, draw(nonzero_rationals)) for s in chosen])

    # coordinates in [-2, 2] with denominators 1 to 4, so cell vertices carry
    # a common denominator W > 1 and cut points need their gcd reduced
    RATIONALS = sorted({F(n, q) for q in range(1, 5) for n in range(-2 * q, 2 * q + 1)})

    @st.composite
    def rational_measures(draw):
        """A signed measure on rational points with a repeated point and a flat triple.

        The flat triple shares one coordinate, which keeps its denominators.
        """
        n = draw(st.integers(5, 7))
        x = draw(st.sampled_from(RATIONALS))
        ys = draw(st.lists(st.sampled_from(RATIONALS), min_size=3, max_size=3, unique=True))
        rest = st.tuples(st.sampled_from(RATIONALS), st.sampled_from(RATIONALS))
        distinct = [(x, y) for y in ys] + draw(st.lists(rest, min_size=n - 4, max_size=n - 4))
        if draw(st.booleans()):
            distinct = [(y, x) for x, y in distinct]
        assume(len(set(distinct)) == n - 1)
        points = draw(st.permutations(distinct + [draw(st.sampled_from(distinct))]))
        try:
            vs = VertexSet(2, points)
        except NotSpanningError:
            assume(False)
        triangles = [s for s in combinations(range(n), 3) if volume(s, vs)]
        chosen = draw(st.lists(st.sampled_from(triangles), unique=True, min_size=1, max_size=6))
        return WeightedMeasure(vs, [(s, draw(nonzero_rationals)) for s in chosen])

    @settings(derandomize=True, database=None, deadline=None, max_examples=160)
    @given(st.one_of(grid_measures(), rational_measures()))
    def test_densities_match_centroid_rule_and_balance_mass(m):
        dens = density(m)
        cm = chamber_densities(build_chambers(m.vertex_set), dens)
        _assert_sign_vectors(cm)
        assert [ch.density for ch in cm.chambers] == _reference_densities(cm, dens)
        mass = sum(ch.density * ch.area() for ch in cm.chambers)
        assert mass == sum(w for _, w in m.atoms) / 2 == measure_moments(m, 0)[(0, 0)]


def _fraction_color(t):
    """The fill colour by `Fraction` interpolation and `round`, as a reference."""
    lo, mid, hi = (69, 117, 180), (247, 247, 247), (215, 48, 39)
    ends, f = ((lo, mid), 2 * t) if t <= F(1, 2) else ((mid, hi), 2 * t - 1)
    return "#%02x%02x%02x" % tuple(round(a + f * (b - a)) for a, b in zip(*ends))


class TestSvg:
    @pytest.mark.parametrize("span", [0, 1, 2, 3, 8, 16, 40, 123])
    def test_color_matches_fraction_rounding(self, span):
        for offset in range(span + 1):
            t = F(offset, span) if span else F(1, 2)
            assert chambers._color(offset, span) == _fraction_color(t)

    def test_fixed_rounds_half_up_in_magnitude(self):
        for d in range(1, 9):
            for n in range(-250, 251):
                value = F(100 * n, d)
                q = int(abs(value)) + (abs(value) % 1 >= F(1, 2))
                assert chambers._fixed(n, d) == f"{'-' if n < 0 else ''}{q // 100}.{q % 100:02d}"

    def test_outline_only_without_densities(self, pentagon_set):
        svg = render_svg(build_chambers(pentagon_set))
        assert svg.startswith('<?xml version="1.0"')
        assert 'fill="none"' in svg and "<text" in svg

    def test_pentagon_labels_present(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, list(PENTAGON_WEIGHTS.items()))
        cm = chamber_densities(build_chambers(pentagon_set), density(m))
        svg = render_svg(cm)
        for label in ("-31/3", "26/3", "14/3", "-10", "-7/3"):
            assert f">{label}</text>" in svg

    def test_deterministic_bytes(self, pentagon_set):
        m = WeightedMeasure(pentagon_set, list(PENTAGON_WEIGHTS.items()))
        cm1 = chamber_densities(build_chambers(pentagon_set), density(m))
        cm2 = chamber_densities(build_chambers(pentagon_set), density(m))
        assert render_svg(cm1) == render_svg(cm2)
