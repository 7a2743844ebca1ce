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
degree, order), built once and kept (`_plan`): the nodes as one flat list by
ascending D, so that the nodes of every smaller rule are a prefix of it; the
monomial rows to half the order, each its parent's times one coordinate; and
per degree a denominator, one integer weight per node of its rule and the
pair of rows each moment is read from.  The arithmetic is in integers and in
one pass over all atoms: the vertices are scaled by one common denominator
L, so a node is X / (D L) with X an integer vector, and the nodes of every
atom come as one integer column per coordinate, node-major and atom-minor,
so that each rule's nodes stay a prefix.  The atoms' weights, over their
common denominator, and the density at each node are folded into each
degree's weights.  A measure of many atoms goes through in stacks of at most
`STACK` atoms, which share the denominators, so their sums add.  A moment of
degree g splits as X^I = X^A X^B with |A| = g//2, so it is one dot of the
weighted row of X^A with the row of X^B: the rows are built only to degree
ceil(k/2), and every sum is cut to its rule's prefix.  At the end each
degree's sums are brought over the lcm of the degrees' denominators, so the
table is one integer vector in row order over one scale, and no `Fraction`
is formed.  The oracle only evaluates monomials at points and shares no
code with `genfunc` or `inverse`, so it can arbitrate their results; it
writes its tables as `poly.MomentTable` pairs through the unchecked
`MomentTable._of`, since their rows and values are canonical by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, cycle, repeat
from math import comb, factorial, lcm, prod
from operator import add, mul, sub

from .errors import DegenerateSimplexError, DimensionError
from .geometry import VertexSet, WeightedMeasure, coordinates, edge_det
from .linalg import integer_vector
from .poly import MomentTable, Poly, monomials_of_degree, monomials_upto
from .value import integer


@lru_cache(maxsize=16)
def _plan(d, degree, order):
    """What a table to `order` with the rule exact to `degree` needs apart from its atoms,
    built once per (d, degree, order); r = degree - order is the density's degree.

    Group i of the rule of index t has the nodes (2 beta + 1) / D, D = d+2t+1-2i and
    |beta| = t-i: they depend on D alone.  So the rule of index t uses exactly the node
    groups D = d+1, d+3, ..., d+2t+1, and listing the groups of the largest rule, index
    s = degree // 2, by ascending D makes the nodes of every rule t <= s a prefix of that
    list.  Degree g of the table takes the smallest exact rule, t_g = (g+r) // 2.

    Returns (odd, depth, steps, degrees), every sequence a tuple:
    - odd[j] holds the barycentric numerator 2 beta_j + 1 of vertex j at every node, the
      centroid first and then each group by ascending D;
    - depth holds each node's D, so a node is the barycentric point odd / D;
    - the rows are the monomials of degree <= ceil(order/2) in canonical order, row 0 the
      constant and rows 1..d the coordinates; steps gives, for each row after those, its
      parent's row and the variable x_j, its last one, that the parent is multiplied by;
    - degrees[g] = (den, weights, half, pairs): den = (d+2t+1)! 4^t and weights holds one
      integer per node of rule t = t_g, k_i D^(2t+1-r-g), k_i = (-1)^i C(d+2t+1, i), so the
      rule weighs a node of group i by k_i D^(2t+1) over den, and len(weights) is the rule's
      prefix; half lists the rows of degree g//2, and pairs holds, per monomial I of degree
      g in canonical order, the row of A, the first g//2 units of I, and the row of B = I - A.
    """
    r = degree - order
    odd, depth = [[] for _ in range(d + 1)], []
    for h in range(degree // 2 + 1):
        for beta in combinations_with_replacement(range(d + 1), h):
            for j, column in enumerate(odd):
                column.append(2 * beta.count(j) + 1)
            depth.append(d + 1 + 2 * h)
    rows = monomials_upto(d, (order + 1) // 2)
    where = {e: p for p, e in enumerate(rows)}
    steps = []
    for e in rows[d + 1 :]:
        j = max(v for v, k in enumerate(e) if k)
        steps.append((where[e[:j] + (e[j] - 1,) + e[j + 1 :]], j))
    degrees = []
    for g in range(order + 1):
        t = (g + r) // 2
        n = d + 2 * t + 1
        # group i = (n - D) / 2 of rule t holds the nodes of depth D <= n, a prefix of depth
        weights = tuple((-1) ** ((n - D) // 2) * comb(n, (n - D) // 2) * D ** (2 * t + 1 - r - g)
                        for D in depth if D <= n)
        half = tuple(map(where.get, monomials_of_degree(d, g // 2)))
        pairs = []
        for e in monomials_of_degree(d, g):
            a, rest = [], g // 2
            for k in e:
                a.append(min(k, rest))
                rest -= a[-1]
            pairs.append((where[tuple(a)], where[tuple(map(sub, e, a))]))
        degrees.append((factorial(n) * 4**t, weights, half, tuple(pairs)))
    odd = tuple(map(tuple, odd))
    return odd, tuple(depth), tuple(steps), tuple(degrees)


def _spread(values, times):
    """Each value repeated `times` times in a row: a per-node list laid over the atoms."""
    spread = [0] * (len(values) * times)
    for a in range(times):
        spread[a::times] = values
    return spread


# atoms stacked in one pass: the rows grow with the stack, so a measure of many atoms,
# such as a basis of C(N-1, d) simplices, goes through in stacks of at most this many
STACK = 8


def _nodes(odd, m: WeightedMeasure):
    """The common denominator L of the atoms' vertices, the common denominator q of their
    weights, and the atoms in stacks of at most STACK, each built when it is reached."""
    vs = m.vertex_set
    scale = lcm(*(c.denominator for s, _ in m.atoms for v in s for c in vs.points[v]))
    q = lcm(*(w.denominator for _, w in m.atoms))
    points = {v: [c.numerator * (scale // c.denominator) for c in vs.points[v]] for s, _ in m.atoms for v in s}
    stacks = (_stack(odd, points, q, vs.dim, m.atoms[i : i + STACK]) for i in range(0, len(m.atoms), STACK))
    return scale, q, stacks


def _stack(odd, points, q, dim, atoms):
    """Each atom's weight times q, and every node of the rule on every atom as one integer
    column per coordinate, in which node n of atom a, the point X / (D L), sits at
    n * len(atoms) + a, so that the nodes of every rule stay a prefix."""
    lifts = [w.numerator * (q // w.denominator) for _, w in atoms]
    spread = [_spread(numerators, len(atoms)) for numerators in odd]
    columns = []
    for j in range(dim):
        column = [0] * len(spread[0])
        # vertex k of every atom, times its barycentric numerator at every node
        for numerators, vertices in zip(spread, zip(*(s for s, _ in atoms))):
            xs = [points[v][j] for v in vertices]
            if any(xs):
                column = list(map(add, column, map(mul, numerators, cycle(xs))))
        columns.append(column)
    return lifts, columns


def simplex_monomial_moment(s, vs: VertexSet, index) -> Fraction:
    """Exact integral of x^I over the simplex, Lebesgue measure: the entry of
    the one-atom table whose weight is |det|."""
    index = tuple(integer(i, "moment index entry", signed=True) for i in index)
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
    if rho is not None and rho.dim != d:
        raise DimensionError(f"density has {rho.dim} variables, measure lives in R^{d}")
    order = integer(order, "moment order")
    terms = {(0,) * d: 1} if rho is None else rho.terms
    r = max(map(sum, terms), default=0)
    clear = lcm(*(c.denominator for c in terms.values()))
    rho_ints = [(c.numerator * (clear // c.denominator), K, r - sum(K)) for K, c in terms.items()]
    odd, depth, steps, degrees = _plan(d, order + r, order)
    scale, q, stacks = _nodes(odd, m)
    totals = [[0] * len(pairs) for *_, pairs in degrees]
    for lifts, columns in stacks:
        # clear * (D L)^r * rho(X / (D L)) at each node X, an integer form of degree r in X,
        # times the atom's lifted weight
        root = [0] * len(depth) * len(lifts)
        for c, K, gap in rho_ints:
            term = _spread([c * (scale * D) ** gap for D in depth], len(lifts))
            for column, k in zip(columns, K):
                if k:
                    term = map(mul, term, map(pow, column, repeat(k)))
            root = list(map(add, root, term))
        root = list(map(mul, root, cycle(lifts)))
        # the monomials to half the order, each its parent's row times one coordinate
        rows = [[1] * len(root), *columns]
        for parent, j in steps:
            rows.append(list(map(mul, rows[parent], columns[j])))
        # m_I for |I| = g is the dot of the weighted row of X^A with the row of X^B, all
        # cut to the prefix of rule t_g
        for sums, (_, weights, half, pairs) in zip(totals, degrees):
            folded = list(map(mul, _spread(weights, len(lifts)), root))
            weighted = {a: list(map(mul, folded, rows[a])) for a in half}
            sums[:] = map(add, sums, [sum(map(mul, weighted[a], rows[b])) for a, b in pairs])
    # the sums stand over den q L^(g+r) clear at degree g: bring every degree over their lcm
    dens = [den * q * scale ** (g + r) * clear for g, (den, *_) in enumerate(degrees)]
    common = lcm(*dens)
    return MomentTable._of(d, order, [t * (common // den) for sums, den in zip(totals, dens) for t in sums], common)


def axial_moment(m: WeightedMeasure, z, j: int) -> Fraction:
    """Exact integral of <x, z>^j against the measure: the order-0 table of the density
    <x, z>^j, whose coefficient at x^e, |e| = j, is j!/e! Z^e / L^j for z = Z / L, Z integer."""
    z = coordinates(z, "direction")
    vs = m.vertex_set
    if len(z) != vs.dim:
        raise DimensionError(f"direction of length {len(z)} in R^{vs.dim}")
    j = integer(j, "moment order")
    ints, scale = integer_vector(z)
    powers = {e: factorial(j) // prod(map(factorial, e)) * prod(map(pow, ints, e)) for e in monomials_of_degree(vs.dim, j)}
    rho = Poly(vs.dim, {e: Fraction(c, scale**j) for e, c in powers.items() if c})
    return measure_moments(m, 0, rho)[(0,) * vs.dim]
