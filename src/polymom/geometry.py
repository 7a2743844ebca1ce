"""Vertex sets, simplices and signed simplicial measures.

Vertex sets are ordered and may contain repeated points (a multiset); any
(d+1)-subset of indices whose points fail to span is degenerate, which covers
duplicates automatically.  All predicates are exact sign-of-determinant
tests, never epsilon comparisons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import index

from .errors import DegenerateSimplexError, DimensionError, NotSpanningError
from .linalg import RatMat, det, rank, rat


class Degeneracy(enum.Enum):
    STRONG = "strongly-non-degenerate"
    WEAK = "weakly-non-degenerate"
    NEITHER = "neither"


class VertexSet:
    """Ordered, possibly repeating points with Fraction coordinates in R^d."""

    __slots__ = ("dim", "points")

    def __init__(self, dim, points):
        dim = index(dim)
        pts = tuple(tuple(rat(c) for c in p) for p in points)
        if any(len(p) != dim for p in pts):
            raise DimensionError(f"every point must have {dim} coordinates")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", pts)
        if self.affine_rank(range(len(pts))) != dim + 1:
            raise NotSpanningError(f"{len(pts)} points do not affinely span R^{dim}")

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, VertexSet) and self.dim == other.dim and self.points == other.points

    def __hash__(self):
        return hash((self.dim, self.points))

    def __repr__(self):
        return f"VertexSet(dim={self.dim}, points={self.points})"

    def affine_rank(self, indices) -> int:
        """Rank of the selected points viewed projectively (homogenized)."""
        cols = [(Fraction(1),) + self.points[i] for i in indices]
        if not cols:
            return 0
        return rank(RatMat.from_rows(cols))

    def spans(self, indices) -> bool:
        return self.affine_rank(indices) == self.dim + 1


def simplex(indices) -> tuple:
    """Canonical simplex: a sorted tuple of vertex indices."""
    return tuple(sorted(map(index, indices)))


def check_simplex(s, vs: VertexSet):
    s = simplex(s)
    if len(s) != vs.dim + 1:
        raise DimensionError(f"a {vs.dim}-simplex needs {vs.dim + 1} vertices, got {len(s)}")
    if len(set(s)) != len(s) or s[0] < 0 or s[-1] >= len(vs):
        raise DimensionError(f"bad vertex indices {s}")
    return s


def edge_det(s, vs: VertexSet) -> Fraction:
    """Signed determinant of the edge vectors v_i - v_0 of the simplex."""
    s = check_simplex(s, vs)
    base = vs.points[s[0]]
    rows = [[vs.points[i][k] - base[k] for k in range(vs.dim)] for i in s[1:]]
    return det(RatMat.from_rows(rows))


def volume(s, vs: VertexSet) -> Fraction:
    """Euclidean volume |det|/d!; zero exactly when the simplex is degenerate."""
    return abs(edge_det(s, vs)) / factorial(vs.dim)


def is_degenerate(s, vs: VertexSet) -> bool:
    return edge_det(s, vs) == 0


@dataclass(frozen=True)
class Classification:
    kind: Degeneracy
    degenerate: tuple  # all non-spanning (d+1)-index-subsets, canonical order


def classify(vs: VertexSet) -> Classification:
    """Sort the vertex set into the strong / weak / neither hierarchy.

    Strong: every (d+1)-subset spans.  Weak: some (d+1)-subset is flat but
    every (d+2)-subset still spans.  The degenerate list is exhaustive either
    way, which is what the dimension formula of the inverse solver consumes.
    """
    d = vs.dim
    degenerate = tuple(
        s for s in combinations(range(len(vs)), d + 1) if not vs.spans(s)
    )
    if not degenerate:
        return Classification(Degeneracy.STRONG, ())
    # d+2 points fail to span exactly when each d+1 of them is degenerate
    flat = set(degenerate)
    for s in combinations(range(len(vs)), d + 2):
        if all(f in flat for f in combinations(s, d + 1)):
            return Classification(Degeneracy.NEITHER, degenerate)
    return Classification(Degeneracy.WEAK, degenerate)


class WeightedMeasure:
    """Finite signed combination of simplices with rational weights.

    The weight of a simplex is d! times the measure it carries, so a weight
    of d!*Vol corresponds to density 1.  Duplicate simplices are merged and
    exact-zero weights dropped.  Degenerate simplices are rejected unless
    `allow_singular` is set (singular limit terms from the weak solver).
    """

    __slots__ = ("vertex_set", "atoms")

    def __init__(self, vertex_set: VertexSet, atoms, allow_singular=False):
        merged = {}
        for s, w in atoms:
            s = check_simplex(s, vertex_set)
            w = rat(w)
            merged[s] = merged.get(s, Fraction(0)) + w
        clean = tuple(sorted((s, w) for s, w in merged.items() if w != 0))
        if not allow_singular:
            for s, _ in clean:
                if is_degenerate(s, vertex_set):
                    raise DegenerateSimplexError(f"degenerate simplex {s} in measure")
        object.__setattr__(self, "vertex_set", vertex_set)
        object.__setattr__(self, "atoms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedMeasure is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, WeightedMeasure)
            and self.vertex_set == other.vertex_set
            and self.atoms == other.atoms
        )

    def __repr__(self):
        return f"WeightedMeasure({self.atoms})"


def uniform_measure(vs: VertexSet, simplices) -> WeightedMeasure:
    """Density-1 measure on the given simplices (weight d!*Vol each)."""
    d = vs.dim
    return WeightedMeasure(
        vs, [(s, factorial(d) * volume(s, vs)) for s in simplices]
    )


def density(m: WeightedMeasure):
    """Per-simplex density w / (d! Vol), in atom order."""
    d = m.vertex_set.dim
    out = []
    for s, w in m.atoms:
        vol = volume(s, m.vertex_set)
        if vol == 0:
            raise DegenerateSimplexError(f"degenerate simplex {s} has no density")
        out.append((s, w / (factorial(d) * vol)))
    return out


def _facet_side(facet_points, x):
    """Sign of x against the hyperplane through the facet points."""
    base = facet_points[0]
    rows = [[q[k] - base[k] for k in range(len(base))] for q in facet_points[1:]]
    rows.append([x[k] - base[k] for k in range(len(base))])
    return det(RatMat.from_rows(rows))


def rebase(m: WeightedMeasure, pivot: int) -> WeightedMeasure:
    """Rewrite the measure on simplices through the pivot vertex.

    Each atom not containing the pivot is replaced by signed cones from the
    pivot over its facets: facets whose hyperplane separates the pivot from
    the opposite vertex (visible ones) contribute with a minus sign, the
    others with a plus sign, and facets whose hyperplane passes through the
    pivot are skipped.  Densities transfer, so the moment table is preserved
    to every order.  The sign convention is the oracle-validated one; see the
    test suite for the 1-d and 2-d witnesses that fix it.
    """
    vs = m.vertex_set
    if not 0 <= pivot < len(vs):
        raise DimensionError(f"pivot index {pivot} out of range")
    p = vs.points[pivot]
    out = []
    for s, w in m.atoms:
        if is_degenerate(s, vs):
            raise DegenerateSimplexError(f"cannot rebase degenerate simplex {s}")
        if pivot in s:
            out.append((s, w))
            continue
        old_vol = volume(s, vs)
        for omit in s:
            facet = [i for i in s if i != omit]
            facet_pts = [vs.points[i] for i in facet]
            side_p = _facet_side(facet_pts, p)
            if side_p == 0:
                continue
            side_v = _facet_side(facet_pts, vs.points[omit])
            sign = 1 if (side_p > 0) == (side_v > 0) else -1
            new_simplex = simplex(facet + [pivot])
            out.append((new_simplex, sign * w * volume(new_simplex, vs) / old_vol))
    return WeightedMeasure(vs, out)
