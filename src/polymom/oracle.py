"""Exact moments by rational simplex cubature, the ground truth for every other module.

An atom (s, w) contributes w times the integral over the standard simplex
T_d of the pulled-back integrand x(t)^I rho(x(t)), computed with the
Grundmann-Moller rule (SIAM J. Numer. Anal. 15, 1978).  With index t the rule
is exact to degree 2t+1.  Its group i = 0..t has the nodes with barycentric
coordinates (2 beta_j + 1) / D, D = d+2t+1-2i and |beta| = t-i, and the weight
(-1)^i D^(2t+1) / (4^t i! (d+2t+1-i)!) on T_d.  All of these are rational, so
the result is exact.  The nodes of a group depend on D alone, so the rule of
index t uses exactly the node groups D = d+1, d+3, ..., d+2t+1: the rules are
nested.  A moment of degree g under a density of degree r needs the rule
exact to degree g+r, index t_g = (g+r)//2.  A table to order k computes the
nodes of the rule for k+r and sums each degree over those of its own rule.

Everything that does not depend on the atoms is one plan per (d, rule
degree, order), built once and kept (`_plan`): the nodes as one flat list
by ascending D, so that the nodes of every smaller rule are a prefix of it;
the monomials of the table in degree blocks, each its parent's in the block
below times one coordinate; and per degree a denominator and one integer
weight per node of its rule.  The arithmetic is in integers: the vertices of
a simplex are scaled once by their common denominator L, so a node is
X / (D L) with X an integer vector, and the nodes come as one integer column
per coordinate.  The values X^I follow the tree over the whole column, one
degree at a time, so only two degrees of rows are alive at once.  Each row
is dotted with its degree's weights, which stop at its rule's prefix; the top
block, the largest, is summed straight from its parents against the columns
times the top weights, so its rows are never built.  An atom of weight a/b
keeps its sums as integers over b L^(k+r) at degree k, the atoms meet over
the lcm of those per degree, and each moment takes one `Fraction` at the
end.  The oracle only evaluates monomials at points and shares no code with
`genfunc` or `inverse`, so it can arbitrate their results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, islice, repeat
from math import comb, factorial, lcm
from operator import add, index, mul

from .errors import DegenerateSimplexError, DimensionError
from .geometry import VertexSet, WeightedMeasure, edge_det
from .linalg import rat
from .poly import Poly, grlex_key, monomials_of_degree
from .value import Value


class MomentTable(Value):
    """All moments m_I with |I| <= order, zeros stored explicitly."""

    __slots__ = ("dim", "order", "moments")

    def __init__(self, dim: int, order: int, moments: dict):
        if isinstance(dim, bool) or isinstance(order, bool):
            raise TypeError("moment table dim and order must be integers, not bool")
        self._fill(index(dim), index(order), moments)
        if self.order < 0:
            raise DimensionError(f"moment order must be non-negative, got {self.order}")
        if self.dim < 0:
            raise DimensionError(f"moment table dimension must be non-negative, got {self.dim}")
        # comb(order + dim, dim) in partial products, which at least double: stop past 10^100 > len(moments)
        n, m, expected, cap = self.order + self.dim, min(self.order, self.dim), 1, 10**100
        for i in range(1, m + 1):
            expected = expected * (n - m + i) // i
            if expected > cap:
                break
        for e in self.moments:
            if len(e) != self.dim or min(e, default=0) < 0 or sum(e) > self.order:
                raise DimensionError(f"moment index {e} is not in R^{self.dim} up to order {self.order}")
        if len(self.moments) != expected:
            message = f"moment table must be complete to order {self.order}: "
            message += f"{len(self.moments)} of {expected if expected <= cap else 'more than 10^100'} moments"
            # every index is in range, so exactly expected - len(moments) are absent: stop at the last
            shown = min(5, expected - len(self.moments))
            # an index in R^dim prints in at least 3*dim characters: list the first absent
            # ones, after ", first missing ", only if the line can stay under 300
            if len(message) + 16 + shown * (3 * self.dim + 2) < 300:
                indices = (e for j in range(self.order + 1) for e in monomials_of_degree(self.dim, j))
                absent = (e for e in indices if e not in self.moments)
                message += f", first missing {list(islice(absent, shown))}"
            raise DimensionError(message)

    def __getitem__(self, index):
        return self.moments[tuple(index)]

    def sorted_items(self):
        return [(e, self.moments[e]) for e in sorted(self.moments, key=grlex_key)]


def _check_order(order) -> int:
    """A moment order as an int; a bool or a negative order is refused before any work."""
    if isinstance(order, bool):
        raise TypeError("moment table dim and order must be integers, not bool")
    order = index(order)
    if order < 0:
        raise DimensionError(f"moment order must be non-negative, got {order}")
    return order


@lru_cache(maxsize=16)
def _plan(d, degree, order):
    """What a table to `order` with the rule exact to `degree` needs apart from its atoms,
    built once per (d, degree, order); r = degree - order is the density's degree.

    Group i of the rule of index t has the nodes (2 beta + 1) / D, D = d+2t+1-2i and
    |beta| = t-i: they depend on D alone.  So the rule of index t uses exactly the node
    groups D = d+1, d+3, ..., d+2t+1, and listing the groups of the largest rule, index
    s = degree // 2, by ascending D makes the nodes of every rule t <= s a prefix of that
    list.  Degree g of the table takes the smallest exact rule, t_g = (g+r) // 2.

    Returns (dens, odd, depth, blocks, steps, weights), every sequence a tuple:
    - odd[j] holds the barycentric numerator 2 beta_j + 1 of vertex j at every node, the
      centroid first and then each group by ascending D;
    - depth holds each node's D, so a node is the barycentric point odd / D;
    - blocks[g] lists the monomials of degree g in canonical order;
    - steps[g-1] gives, for each monomial of blocks[g], its parent's position in
      blocks[g-1] and the variable x_j, its last one, that the parent is multiplied by;
    - dens[g] = (d+2t+1)! 4^t and weights[g] holds one integer per node of rule t = t_g,
      k_i D^(2t+1-r-g), k_i = (-1)^i C(d+2t+1, i): the rule weighs a node of group i
      by k_i D^(2t+1) over dens[g].
    """
    r = degree - order
    odd, depth = [[] for _ in range(d + 1)], []
    for h in range(degree // 2 + 1):
        for beta in combinations_with_replacement(range(d + 1), h):
            for j, column in enumerate(odd):
                column.append(2 * beta.count(j) + 1)
            depth.append(d + 1 + 2 * h)
    blocks = tuple(tuple(monomials_of_degree(d, g)) for g in range(order + 1))
    steps = []
    for below, block in zip(blocks, blocks[1:]):
        where = {e: p for p, e in enumerate(below)}
        step = []
        for e in block:
            j = max(v for v, k in enumerate(e) if k)
            step.append((where[e[:j] + (e[j] - 1,) + e[j + 1 :]], j))
        steps.append(tuple(step))
    dens, weights = [], []
    for g in range(order + 1):
        t = (g + r) // 2
        n = d + 2 * t + 1
        dens.append(factorial(n) * 4**t)
        # group i = (n - D) / 2 of rule t holds the nodes of depth D <= n, a prefix of depth
        weights.append(tuple((-1) ** ((n - D) // 2) * comb(n, (n - D) // 2) * D ** (2 * t + 1 - r - g)
                             for D in depth if D <= n))
    odd = tuple(map(tuple, odd))
    return tuple(dens), odd, tuple(depth), blocks, tuple(steps), tuple(weights)


def _nodes(odd, points):
    """The common denominator L of the points, and every node of the rule on their simplex
    as one integer column per coordinate: node X of depth D is the point X / (D L)."""
    scale = lcm(*(c.denominator for p in points for c in p))
    columns = []
    for coordinates in zip(*points):
        column = [0] * len(odd[0])
        for c, numerators in zip(coordinates, odd):
            if c:
                x = c.numerator * (scale // c.denominator)
                column = list(map(add, column, map(x.__mul__, numerators)))
        columns.append(column)
    return scale, columns


def simplex_monomial_moment(s, vs: VertexSet, index) -> Fraction:
    """Exact integral of x^I over the simplex, Lebesgue measure: the entry of
    the one-atom table whose weight is |det|."""
    index = tuple(index)
    if len(index) != vs.dim or min(index, default=0) < 0:
        raise DimensionError(f"moment index {index} is not in R^{vs.dim}")
    dvol = edge_det(s, vs)
    if dvol == 0:
        raise DegenerateSimplexError(f"degenerate simplex {s}")
    return measure_moments(WeightedMeasure(vs, [(s, abs(dvol))]), sum(index))[index]


def measure_moments(m: WeightedMeasure, order: int, rho: Poly | None = None) -> MomentTable:
    """Complete moment table of the measure (times an optional polynomial density).

    Per atom, density * |det| collapses to the weight, so the contribution of
    an atom to m_I is simply  w * integral over T_d of x(t)^I rho(x(t)) dt.
    """
    vs = m.vertex_set
    d = vs.dim
    if rho is None:
        rho = Poly.constant(d, 1)
    elif rho.dim != d:
        raise DimensionError(f"density has {rho.dim} variables, measure lives in R^{d}")
    order = _check_order(order)
    r = max(rho.degree(), 0)
    clear = lcm(*(c.denominator for c in rho.terms.values()))
    rho_ints = [(c.numerator * (clear // c.denominator), K, r - sum(K)) for K, c in rho.terms.items()]
    dens, odd, depth, blocks, steps, weights = _plan(d, order + r, order)
    atoms = []
    for simplex, w in m.atoms:
        scale, columns = _nodes(odd, [vs.points[v] for v in simplex])
        # clear * (D L)^r * rho(X / (D L)) at each node X: an integer form of degree r in X
        root = [0] * len(depth)
        for c, K, gap in rho_ints:
            term = map(mul, repeat(c), map(pow, map(scale.__mul__, depth), repeat(gap)))
            for column, k in zip(columns, K):
                if k:
                    term = map(mul, term, map(pow, column, repeat(k)))
            root = list(map(add, root, term))
        # the monomials of one degree from those of the degree below, two degrees held at
        # once; each row dotted with its degree's weights, which stop at the rule's prefix
        rows, sums = [root], []
        for g in range(order):
            if g:
                rows = [list(map(mul, rows[parent], columns[j])) for parent, j in steps[g - 1]]
            sums.append([sum(map(mul, weights[g], row)) for row in rows])
        # the top block, the largest, from its parents against the columns times its weights
        if order:
            top = [list(map(mul, weights[order], column)) for column in columns]
            sums.append([sum(map(mul, rows[parent], top[j])) for parent, j in steps[-1]])
        else:
            sums.append([sum(map(mul, weights[0], root))])
        # w times the sums, which stand over b L^(g+r) at degree g, b the weight's denominator
        atoms.append((sums, w, scale))
    moments = {}
    for g, block in enumerate(blocks):
        common = lcm(*(w.denominator * L ** (g + r) for _, w, L in atoms))
        total = [0] * len(block)
        for sums, w, L in atoms:
            lift = w.numerator * (common // (w.denominator * L ** (g + r)))
            total = list(map(add, total, map(lift.__mul__, sums[g])))
        moments.update(zip(block, (Fraction(t, dens[g] * clear * common) for t in total)))
    return MomentTable(d, order, moments)


def axial_moment(m: WeightedMeasure, z, j: int) -> Fraction:
    """Exact integral of <x, z>^j against the measure, by the rule exact to degree j: the
    order-0 table of the density <x, z>^j, read off the same plan."""
    z = [rat(c) for c in z]
    vs = m.vertex_set
    if len(z) != vs.dim:
        raise DimensionError(f"direction of length {len(z)} in R^{vs.dim}")
    j = _check_order(j)
    clear = lcm(*(c.denominator for c in z))
    z_ints = [c.numerator * (clear // c.denominator) for c in z]
    (den,), odd, depth, _, _, (weight,) = _plan(vs.dim, j, 0)
    total = Fraction(0)
    for simplex, w in m.atoms:
        scale, columns = _nodes(odd, [vs.points[v] for v in simplex])
        values = [0] * len(depth)
        for c, column in zip(z_ints, columns):
            values = list(map(add, values, map(c.__mul__, column)))
        num = sum(map(mul, weight, map(pow, values, repeat(j))))
        total += w * Fraction(num, den * (clear * scale) ** j)
    return total
