"""The paper's closing claim in 2-d: on a weakly non-degenerate vertex set S, the uniform measure
on a polygon with vertices in S, convex or not, is a combination of simplices in S.  So
`reconstruct` on the polygon's moments finds no singular weight, and the chamber map of what
it returns has density 1 inside the polygon and 0 outside."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from polymom import inverse, oracle
from polymom.chambers import build_chambers, chamber_densities
from polymom.errors import NotSpanningError
from polymom.geometry import Degeneracy, VertexSet, WeightedMeasure, classify, density

GRID = [(x, y) for x in range(9) for y in range(9)]
CASES = 60


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _by_angle(points):
    """The points sorted counter-clockwise by their exact angle about their centroid, or None
    when a point is the centroid."""
    c = tuple(Fraction(sum(p[k] for p in points), len(points)) for k in range(2))
    if c in points:
        return None

    def half(p):  # 0 for angles in [0, pi), 1 for [pi, 2 pi)
        return 0 if p[1] > c[1] or (p[1] == c[1] and p[0] > c[0]) else 1

    def compare(p, q):
        return half(p) - half(q) or -_cross(c, p, q)

    return sorted(points, key=cmp_to_key(compare))


def _inside(q, polygon):
    """Whether q lies inside the polygon by an exact crossing count; q is on no edge."""
    crossings = 0
    for a, b in zip(polygon, polygon[1:] + polygon[:1]):
        if (a[1] > q[1]) != (b[1] > q[1]):
            crossings += q[0] < a[0] + (q[1] - a[1]) * Fraction(b[0] - a[0], b[1] - a[1])
    return crossings % 2 == 1


def _draw(rng):
    """A polygon on 4-7 grid points sorted by angle, and S: its vertices, then 0-3 more grid
    points.  None for a set that is neither strongly nor weakly non-degenerate, or a polygon
    with three consecutive collinear vertices."""
    k = rng.randint(4, 7)
    chosen = rng.sample(GRID, k + rng.randint(0, 3))
    polygon = _by_angle(chosen[:k])
    if polygon is None:
        return None
    if any(_cross(polygon[i - 2], polygon[i - 1], polygon[i]) == 0 for i in range(k)):
        return None
    try:
        vs = VertexSet(2, polygon + chosen[k:])
    except NotSpanningError:
        return None
    if classify(vs).kind is Degeneracy.NEITHER:
        return None
    return polygon, vs


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_polygon_comes_back_with_density_one_inside_and_zero_outside(seed):
    rng = random.Random(seed)
    cases = nonconvex = 0
    while cases < CASES:
        drawn = _draw(rng)
        if drawn is None:
            continue
        polygon, vs = drawn
        cases += 1
        # the signed fan from vertex 0: (0, i, i+1) weighs det(p_i - p_0, p_(i+1) - p_0)
        fan = [((0, i, i + 1), _cross(polygon[0], polygon[i], polygon[i + 1])) for i in range(1, len(polygon) - 1)]
        table = oracle.measure_moments(WeightedMeasure(vs, fan), len(vs) - 3)
        rec = inverse.reconstruct(table, vs)
        assert not rec.is_singular, (polygon, vs)
        cm = chamber_densities(build_chambers(vs), density(rec.to_measure()))
        for chamber in cm.chambers:
            assert chamber.density in (0, 1), (polygon, vs, chamber)
            assert (chamber.density == 1) == _inside(chamber.point, polygon), (polygon, vs, chamber)
        n = len(polygon)
        nonconvex += any(_cross(polygon[i - 2], polygon[i - 1], polygon[i]) < 0 for i in range(n))
    assert nonconvex >= CASES // 3
