"""Vertex sets, simplices and signed simplicial measures.

Vertex sets are ordered and may contain repeated points (a multiset); any
(d+1)-subset of indices whose points fail to span is degenerate, which covers
duplicates automatically.  A point, vertex, edge or direction is read by
`coordinates`, one `linalg.rat` per coordinate, and a string is refused.  All predicates are exact sign-of-determinant
tests, never epsilon comparisons.  Each point p is one primitive integer row
`homogeneous(p)` = (W, W*p), W > 0 the lcm of its denominators; the
`linalg.integer_det` of a simplex's rows, in the given order, over the
product of their W is d! times its signed volume.  The chamber map and the
vertex forms of `genfunc` and `inverse` read the same row.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .errors import DegenerateSimplexError, DimensionError, NotSpanningError
from .linalg import integer_det, integer_rank, integer_vector, rat
from .value import Value, integer


class Degeneracy(enum.Enum):
    STRONG = "strongly-non-degenerate"
    WEAK = "weakly-non-degenerate"
    NEITHER = "neither"


class VertexSet(Value):
    """Ordered, possibly repeating points with Fraction coordinates in R^d."""

    __slots__ = ("dim", "points")

    def __init__(self, dim, points):
        dim = integer(dim, "vertex set dimension")
        pts = tuple(coordinates(p, "point") for p in points)
        if any(len(p) != dim for p in pts):
            raise DimensionError(f"every point must have {dim} coordinates")
        self._fill(dim, pts)
        if integer_rank(map(homogeneous, pts)) != dim + 1:
            raise NotSpanningError(f"{len(pts)} points do not affinely span R^{dim}")

    def __len__(self):
        return len(self.points)


def coordinates(p, what) -> tuple:
    """The coordinates of a point or a vector as a tuple of Fractions, each read by `rat`.  A
    string is a TypeError: it iterates as its characters, so "10" would read as (1, 0).  `what`
    names the argument in the message."""
    if isinstance(p, str):
        raise TypeError(f"{what} must be a sequence of coordinates, not a string")
    return tuple(map(rat, p))


def homogeneous(point) -> tuple:
    """The primitive integer row (W, W*p_1, ..., W*p_d) of a point p, W > 0 the lcm of its denominators."""
    ints, w = integer_vector(point)
    return (w, *ints)


def simplex(indices) -> tuple:
    """Canonical simplex: a sorted tuple of vertex indices."""
    return tuple(sorted(integer(i, "vertex index", signed=True) for i in indices))


def check_simplex(s, vs: VertexSet):
    s = simplex(s)
    if len(s) != vs.dim + 1:
        raise DimensionError(f"a {vs.dim}-simplex needs {vs.dim + 1} vertices, got {len(s)}")
    if len(set(s)) != len(s) or s[0] < 0 or s[-1] >= len(vs):
        raise DimensionError(f"bad vertex indices {s}")
    return s


def edge_det(s, vs: VertexSet) -> Fraction:
    """Signed determinant of the edge vectors v_i - v_0 of the simplex, which is that of its rows (1, v_i)."""
    rows = [homogeneous(vs.points[i]) for i in check_simplex(s, vs)]
    return Fraction(integer_det(rows), prod(r[0] for r in rows))


def volume(s, vs: VertexSet) -> Fraction:
    """Euclidean volume |det|/d!; zero exactly when the simplex is degenerate."""
    return abs(edge_det(s, vs)) / factorial(vs.dim)


class Classification(Value):
    """The kind of a vertex set, with all its non-spanning (d+1)-index-subsets in canonical order."""

    __slots__ = ("kind", "degenerate")

    def __init__(self, kind: Degeneracy, degenerate: tuple):
        self._fill(kind, degenerate)


def classify(vs: VertexSet) -> Classification:
    """Sort the vertex set into the strong / weak / neither hierarchy.

    Strong: every (d+1)-subset spans.  Weak: some (d+1)-subset is flat but
    every (d+2)-subset still spans.  The degenerate list is exhaustive either
    way, which is what the dimension formula of the inverse solver consumes.
    A (d+1)-subset spans when the determinant of its `homogeneous` rows,
    each formed once, does not vanish.
    """
    d = vs.dim
    rows = [homogeneous(p) for p in vs.points]
    degenerate = tuple(
        s for s in combinations(range(len(vs)), d + 1) if integer_det(rows[i] for i in s) == 0
    )
    if not degenerate:
        return Classification(Degeneracy.STRONG, ())
    # d+2 points fail to span exactly when each d+1 of them is degenerate
    flat = set(degenerate)
    for s in combinations(range(len(vs)), d + 2):
        if all(f in flat for f in combinations(s, d + 1)):
            return Classification(Degeneracy.NEITHER, degenerate)
    return Classification(Degeneracy.WEAK, degenerate)


class WeightedMeasure(Value):
    """Finite signed combination of simplices with rational weights.

    The weight of a simplex is d! times the measure it carries, so a weight
    of d!*Vol corresponds to density 1.  Duplicate simplices are merged and
    exact-zero weights dropped.  Degenerate simplices are rejected.
    """

    __slots__ = ("vertex_set", "atoms")

    def __init__(self, vertex_set: VertexSet, atoms):
        merged = {}
        for s, w in atoms:
            s = check_simplex(s, vertex_set)
            w = rat(w)
            merged[s] = merged.get(s, Fraction(0)) + w
        clean = tuple(sorted((s, w) for s, w in merged.items() if w != 0))
        for s, _ in clean:
            if edge_det(s, vertex_set) == 0:
                raise DegenerateSimplexError(f"degenerate simplex {s} in measure")
        self._fill(vertex_set, clean)

    __hash__ = None

    def __repr__(self):
        return f"WeightedMeasure({self.atoms})"


def uniform_measure(vs: VertexSet, simplices) -> WeightedMeasure:
    """Density-1 measure on the given simplices (weight d!*Vol each)."""
    return WeightedMeasure(vs, [(s, abs(edge_det(s, vs))) for s in simplices])


def density(m: WeightedMeasure):
    """Per-simplex density w / (d! Vol), in atom order."""
    return [(s, w / abs(edge_det(s, m.vertex_set))) for s, w in m.atoms]


def check_pivot(pivot, n) -> int:
    """The pivot vertex index as an int in range(n); a bool or a non-integer is a TypeError."""
    pivot = integer(pivot, "pivot", signed=True)
    if not 0 <= pivot < n:
        raise DimensionError(f"pivot index {pivot} out of range for {n} vertices")
    return pivot


def rebase(m: WeightedMeasure, pivot: int) -> WeightedMeasure:
    """Rewrite the measure on simplices through the pivot vertex.

    Each atom not containing the pivot is replaced by signed cones from the
    pivot over its facets: facets whose hyperplane separates the pivot from
    the opposite vertex (visible ones) contribute with a minus sign, the
    others with a plus sign, and facets whose hyperplane passes through the
    pivot are skipped.  Densities transfer, so the moment table is preserved
    to every order.  With the facet's rows first, the cone's weight is
    w * det(facet, pivot) / det(facet, omitted vertex), in which the facet's
    W cancel: the sign of the ratio tells the sides apart and its size is the
    ratio of volumes.  The sign convention is the oracle-validated one; see
    the test suite for the 1-d and 2-d witnesses that fix it.
    """
    vs = m.vertex_set
    pivot = check_pivot(pivot, len(vs))
    rows = [homogeneous(p) for p in vs.points]
    out = []
    for s, w in m.atoms:
        if pivot in s:
            out.append((s, w))
            continue
        for omit in s:
            facet = [i for i in s if i != omit]
            cone = integer_det(rows[i] for i in facet + [pivot])
            if cone != 0:
                opposite = integer_det(rows[i] for i in facet + [omit])
                out.append((simplex(facet + [pivot]), w * Fraction(cone * rows[omit][0], opposite * rows[pivot][0])))
    return WeightedMeasure(vs, out)
