"""Exact moments by rational simplex cubature, the ground truth for every other module.

An atom (s, w) contributes w times the integral over the standard simplex
T_d of the pulled-back integrand x(t)^I rho(x(t)), computed with the
Grundmann-Moller rule (SIAM J. Numer. Anal. 15, 1978).  With index s the rule
is exact to degree 2s+1.  Its group i = 0..s has the nodes with barycentric
coordinates (2 beta_j + 1) / D_i, D_i = d+2s+1-2i and |beta| = s-i, and the
weight (-1)^i D_i^(2s+1) / (4^s i! (d+2s+1-i)!) on T_d.  All of these are
rational, so the result is exact.  A table to order k with a density of
degree r takes the smallest s with 2s+1 >= k + r.

The arithmetic is in integers: the vertices of a simplex are scaled once by
their common denominator L, so a node is X / (D_i L) with X an integer
vector.  The monomials of the table form a tree, built once per call, in
which each is its parent's times one coordinate; the values X^I follow it,
summed per group.  An atom of weight a/b keeps its sums as integers over
b L^(k+r) at degree k, the atoms meet over the lcm of those per degree, and
each moment takes one `Fraction` at the end.  The oracle only evaluates
monomials at points and shares no code with `genfunc` or `inverse`, so it
can arbitrate their results.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import comb, factorial, lcm, prod
from operator import add, index, mul

from .errors import DegenerateSimplexError, DimensionError
from .geometry import VertexSet, WeightedMeasure, edge_det
from .linalg import rat
from .poly import Poly, grlex_key, monomials_of_degree, monomials_upto
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


def _rule(d, degree):
    """The Grundmann-Moller rule on T_d exact to a degree 2s+1 >= `degree`.

    Returns 2s+1, the common denominator (d+2s+1)! 4^s of the weights, and
    the groups as (k_i, D_i, nodes): group i weighs k_i D_i^(2s+1) over that
    denominator, with k_i = (-1)^i C(d+2s+1, i), and lists each node by its
    barycentric numerators 2 beta + 1 over D_i.
    """
    s = max(degree, 0) // 2
    n = d + 2 * s + 1
    groups = []
    for i in range(s + 1):
        nodes = []
        for beta in combinations_with_replacement(range(d + 1), s - i):
            odd = [1] * (d + 1)
            for j in beta:
                odd[j] += 2
            nodes.append(odd)
        groups.append(((-1) ** i * comb(n, i), n - 2 * i, nodes))
    return 2 * s + 1, factorial(n) * 4**s, groups


def _atom_nodes(groups, simplex, vs: VertexSet):
    """The common denominator L of the simplex's vertices, and the rule's nodes
    on it as integer vectors X, one list per group: a node of group i is the
    point X / (D_i L)."""
    points = [vs.points[v] for v in simplex]
    scale = lcm(*(c.denominator for p in points for c in p))
    columns = [[c.numerator * (scale // c.denominator) for c in col] for col in zip(*points)]
    return scale, [
        [tuple(sum(map(mul, odd, col)) for col in columns) for odd in nodes] for _, _, nodes in groups
    ]


def simplex_monomial_moment(s, vs: VertexSet, index) -> Fraction:
    """Exact integral of x^I over the simplex, Lebesgue measure: the entry of
    the one-atom table whose weight is |det|."""
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
    r = max(rho.degree(), 0)
    clear = lcm(*(c.denominator for c in rho.terms.values()))
    rho_ints = [(c.numerator * (clear // c.denominator), K, r - sum(K)) for K, c in rho.terms.items()]
    exact, den, groups = _rule(d, order + r)
    monos = monomials_upto(d, order)
    degrees = list(map(sum, monos))
    # the tree: each monomial past 1 is its parent's times x_j, j its last variable
    where = {e: i for i, e in enumerate(monos)}
    tree = []
    for e in monos[1:]:
        j = max(i for i, k in enumerate(e) if k)
        tree.append((where[e[:j] + (e[j] - 1,) + e[j + 1 :]], j))
    # group i weighs the sum of its node values at degree g by k_i D_i^(exact - r - g)
    weights = [[k * D ** (exact - r - g) for g in degrees] for k, D, _ in groups]
    atoms = []
    for simplex, w in m.atoms:
        scale, nodes = _atom_nodes(groups, simplex, vs)
        sums = [0] * len(monos)
        for (_, D, _), xs, weight in zip(groups, nodes, weights):
            # clear * (D L)^r * rho(X / (D L)) is an integer form of degree r in X
            rows = [[
                sum(c * (D * scale) ** gap * prod(map(pow, X, K)) for c, K, gap in rho_ints) for X in xs
            ]]
            columns = list(zip(*xs))
            for parent, j in tree:
                rows.append(list(map(mul, rows[parent], columns[j])))
            sums = list(map(add, sums, map(mul, weight, map(sum, rows))))
        # w times the sums, which stand over b L^(g+r) at degree g, b the weight's denominator
        atoms.append((sums, w, scale))
    lcms = [lcm(*(w.denominator * L ** (g + r) for _, w, L in atoms)) for g in range(order + 1)]
    total = [0] * len(monos)
    for sums, w, L in atoms:
        lift = [w.numerator * (q // (w.denominator * L ** (g + r))) for g, q in enumerate(lcms)]
        total = [t + s * lift[g] for t, s, g in zip(total, sums, degrees)]
    return MomentTable(d, order, {
        e: Fraction(t, den * clear * lcms[g]) for e, t, g in zip(monos, total, degrees)
    })


def axial_moment(m: WeightedMeasure, z, j: int) -> Fraction:
    """Exact integral of <x, z>^j against the measure, by the rule exact to degree j."""
    z = [rat(c) for c in z]
    vs = m.vertex_set
    if len(z) != vs.dim:
        raise DimensionError(f"direction of length {len(z)} in R^{vs.dim}")
    if j < 0:
        raise DimensionError(f"moment order must be non-negative, got {j}")
    clear = lcm(*(c.denominator for c in z))
    z_ints = [c.numerator * (clear // c.denominator) for c in z]
    exact, den, groups = _rule(vs.dim, j)
    total = Fraction(0)
    for simplex, w in m.atoms:
        scale, nodes = _atom_nodes(groups, simplex, vs)
        num = sum(
            k * D ** (exact - j) * sum(sum(map(mul, X, z_ints)) ** j for X in xs)
            for (k, D, _), xs in zip(groups, nodes)
        )
        total += w * Fraction(num, den * (clear * scale) ** j)
    return total
