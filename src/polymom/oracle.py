"""Exact moments by rational cubature on cones, the ground truth for every other module.

An atom (s, w) contributes w times the integral over the standard simplex T_d of the
pulled-back monomial x(t)^I.  Seen from one of its vertices, the apex a, the simplex is a
cone over the opposite facet, and y = x - a is linear in t.  A monomial y^J of degree g is
homogeneous there, so with t = s u, u on the facet's simplex T_(d-1) and dt = s^(d-1) ds du,

    integral over T_d of y^J dt = 1/(g+d) * integral over T_(d-1) of y(u)^J du,

the homogeneous reduction (Lasserre, Proc. AMS 126, 1998).  The facet integral is taken with
a rational rule of index t = g // 2, exact to degree 2t+1 >= g, so every moment is exact.  The
rules are nested: a table to order k computes the nodes of the rule of index k // 2, and each
degree sums over its own rule's prefix.  A node is barycentric numerators on the facet
vertices over their sum D, its depth, and only the nodes and weights depend on the facet:
- a point (d = 1) takes its one node;
- a segment (d = 2) takes the first 2t+1 nodes in Farey order, 1/2, 0, 1, 1/3, 2/3, 1/4, 3/4,
  1/5, 4/5, 2/5, 3/5, ..., p/D read as (D - p, p), with the weights that integrate their
  Lagrange basis over [0, 1]: exact to degree 2t, and to 2t+1 since the prefix is symmetric
  (`_segment`);
- a facet of d >= 3 takes the Grundmann-Moller rule (SIAM J. Numer. Anal. 15, 1978), whose
  group i = 0..t has the numerators 2 beta_j + 1, D = d+2t-2i and |beta| = t-i, and the weight
  (-1)^i D^(2t+1) / (4^t i! (d+2t-i)!) on T_(d-1).  A node whose numerators share an odd
  factor m is the point of the node of depth D/m, so each distinct point is kept once, at its
  first place, with its copies' weights: at most C(d+t, d) nodes (`_grundmann_moller`).  On a
  segment it would keep 9, 13, 17, 23, 31, 37 and 55 nodes at t = 3..8 and 10.

An atom's apex is its vertex that lies in the most atoms, the lowest index among equals, so
atoms that share a vertex share their apex.  The atoms of one apex give one table z of
y-moments, and one exact Taylor shift takes it back to x = y + a: m_I is the sum over J <= I
of C(I, J) a^(I-J) z_J, taken one variable at a time, and skipped at an apex at the origin.

Everything that does not depend on the atoms is one plan per (d, order), built once and
kept (`_plan`).  The arithmetic is in integers: the vertices are scaled by one common
denominator L, so a node is X / (D L) with X an integer vector; the nodes of the atoms of
one apex come as one integer column per coordinate, node-major and atom-minor, so that each
rule's nodes stay a prefix, and the atoms' weights, over their common denominator, are
folded into each degree's weights.  An apex's atoms go through in stacks of at most `STACK`
atoms, whose sums add.  The rows X^B are built to degree h = ceil(k/2), and a moment of
degree g splits as X^J = X^A X^B with |A| = max(0, g-h) and |B| = min(g, h), so it is one
dot of the weighted row of X^A with the row of X^B: weighted rows are formed only at degree
g - h, and at g <= h the weighted row is the folded weights themselves.  Each degree's
weights and each facet slot's numerators, laid over a stack of A atoms, are one more memo
per (d, order, A) (`_spreads`), shared by every stack of that size.  Before the shift every
degree is brought over the lcm of the degrees' denominators, which the plan holds, and the
shift runs on the apex times L, so the table is one integer vector in row order over one
scale, and no `Fraction` is formed.

A density rho of degree r goes through the plain table to order k + r: m_I(rho mu) is the
sum over K of rho_K m_(I+K)(mu), in integers along the plan's own row map.  The oracle only
evaluates monomials at points and shares no code with `genfunc` or `inverse`, nor reads the
kernels of `poly` they run on, so it can arbitrate their results; it writes its tables as
`poly.MomentTable` pairs through the unchecked `MomentTable._of`, since their rows and values
are canonical by construction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, cycle, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub

from .errors import DegenerateSimplexError, DimensionError
from .geometry import VertexSet, WeightedMeasure, coordinates, edge_det
from .linalg import integer_vector
from .poly import MomentTable, Poly, monomials_of_degree, monomials_upto
from .value import integer


def _grundmann_moller(d, order):
    """The facet rules of indices 0..order // 2 for d = 1 or d >= 3, as `_plan` reads them: the
    nodes' numerator columns, the centroid first and then each group by ascending D, and per
    degree g the pair (denominator, weights) of rule t = g // 2: k_i D^(2t+1-g), k_i = (-1)^i
    C(d+2t, i), at each node, plus k_i m^(2t+1) D^(2t+1-g) for each of its dropped copies of
    depth m D, over (d+2t)! 4^t (g+d)."""
    # sources[n] holds (D, m) for kept node n, m = 1, and for each dropped node of depth D
    # whose numerators are m times node n's
    nodes, depth, sources, place = [[] for _ in range(d)], [], [], {}
    for h in range(order // 2 + 1):
        for beta in combinations_with_replacement(range(d), h):
            numerators = tuple(2 * beta.count(j) + 1 for j in range(d))
            m = gcd(*numerators)
            at = place.get(tuple(x // m for x in numerators))
            if at is None:
                place[numerators] = len(depth)
                for column, x in zip(nodes, numerators):
                    column.append(x)
                depth.append(d + 2 * h)
                sources.append([(d + 2 * h, 1)])
            else:
                sources[at].append((d + 2 * h, m))
    rules = []
    for g in range(order + 1):
        t = g // 2
        n = d + 2 * t
        # group i = (n - D) / 2 of rule t holds the nodes of depth D <= n, a prefix of depth; a
        # node of depth D = m D' is the kept one's point, X = m X', so its weight k D^(2t+1-g) on
        # X^J is k m^(2t+1) D'^(2t+1-g) on X'^J
        weights = tuple(sum((-1) ** ((n - D) // 2) * comb(n, (n - D) // 2) * m ** (2 * t + 1)
                            for D, m in here if D <= n) * kept ** (2 * t + 1 - g)
                        for kept, here in zip(depth, sources) if kept <= n)
        rules.append((factorial(n) * 4**t * (g + d), weights))
    return nodes, rules


def _segment(order):
    """The facet rules of indices 0..order // 2 for d = 2, as `_grundmann_moller` returns its
    own: the first 2t+1 nodes p/D in Farey order, whose pairs p/D, 1 - p/D come by ascending
    D and p < D/2 prime to D, and each rule's Lagrange weights over [0, 1], by degree."""
    t = order // 2
    points, D = [(1, 2), (0, 1), (1, 1)], 2
    while len(points) < 2 * t + 1:
        D += 1
        points += [(q, D) for p in range(1, (D + 1) // 2) if gcd(p, D) == 1 for q in (p, D - p)]
    points = points[: 2 * t + 1]
    # on s = M u, M the lcm of the depths, node p/D is the integer p M / D, and u^j integrates
    # to M^j / (j + 1), here over T = lcm(1..2t+1); the Lagrange basis of node x is omega(s) /
    # (s - x) over its value at x, omega the product of (s - y) over the rule's nodes, and the
    # two nodes of a pair have one weight
    M, T = lcm(*(D for _, D in points)), lcm(*range(1, 2 * t + 2))
    xs = [p * (M // D) for p, D in points]
    powers = [M**j * (T // (j + 1)) for j in range(2 * t + 1)]
    omega, rules = [1], []
    for n in range(1, 2 * t + 2, 2):
        for x in xs[len(omega) - 1 : n]:
            omega = [a - x * b for a, b in zip([0, *omega], [*omega, 0])]
        sums, values = [], []
        for x in xs[:n:2]:
            total = c = 0
            # the quotient omega(s) / (s - x) from its top coefficient down, integrated
            for a, power in zip(reversed(omega[1:]), reversed(powers[:n])):
                c = a + x * c
                total += c * power
            sums.append(total)
            values.append(prod(x - y for y in xs[:n] if y != x))
        # the weights are A / (T B)
        B = lcm(*values)
        A = [a * (B // v) for a, v in zip(sums, values)]
        A[1:] = [a for a in A[1:] for _ in (0, 1)]
        for g in range(n - 1, min(n + 1, order + 1)):
            # node X / (D L) takes w / (D^g (g + 2)) = A (M/D)^g / (T B M^g (g + 2)) at degree g
            weights = [a * (M // D) ** g for a, (_, D) in zip(A, points)]
            den = T * B * M**g * (g + 2)
            c = gcd(den, *weights)
            rules.append((den // c, tuple(w // c for w in weights)))
    return [[D - p for p, D in points], [p for p, D in points]], rules


@lru_cache(maxsize=16)
def _plan(d, order):
    """What a table to `order` needs apart from its atoms, built once per (d, order).

    Returns (nodes, steps, degrees, common, shift, up), every sequence a tuple:
    - nodes[j], j < d, holds the barycentric numerator of facet vertex j at every node of the
      facet rule of index order // 2, from `_segment` for d = 2 and `_grundmann_moller`
      otherwise, so a node is the point nodes / D, D the sum of its numerators, and the nodes
      of each lower rule are a prefix;
    - the rows are the monomials of degree <= order in canonical order; those of degree <=
      ceil(order/2) come first, row 0 the constant and rows 1..d the coordinates, and steps
      gives, for each of them after those, its parent's row and the variable x_j, its last
      one, that the parent is multiplied by;
    - degrees[g] = (lift, weights, half, pairs): weights holds, per node of the rule of index
      t = g // 2, the node's weight over D^g (g+d), as X^J at the node X / D is over D^g, all
      over one denominator, and lift is common over that denominator, so common is their lcm;
      len(weights) is the rule's prefix.  With h = ceil(order/2) the top degree of the built
      rows, a monomial J of degree g splits as A of degree max(0, g-h), the first units of J,
      and B = J - A of degree min(g, h): half lists the rows of degree g-h, or the constant's
      row 0 when g <= h, and pairs holds the rows of A and B per J, in canonical order;
    - shift = (lines, back): along x_v the rows are laid out block by block by their exponent
      i of x_v, each block in row order, so the rest of the exponent sits at the same place in
      every block and block i is as long as a prefix of block i-1.  lines[v] = (into, rounds):
      into takes each place of that layout from the layout of x_(v-1), or from row order, and
      rounds holds, for k = 1..order, the place where block k starts and, for each place from
      there on, the place in the block below with the same rest; back takes each row from
      the layout of x_(d-1);
    - up[v][p] is the row of x_v times the monomial of row p, for the rows of degree < order.
    """
    nodes, rules = _segment(order) if d == 2 else _grundmann_moller(d, order)
    rows = monomials_upto(d, order)
    where = {e: p for p, e in enumerate(rows)}
    steps = []
    for e in rows[d + 1 : comb((order + 1) // 2 + d, d)]:
        j = max(v for v, k in enumerate(e) if k)
        steps.append((where[e[:j] + (e[j] - 1,) + e[j + 1 :]], j))
    degrees, h = [], (order + 1) // 2
    for g, (den, weights) in enumerate(rules):
        half = tuple(map(where.get, monomials_of_degree(d, max(0, g - h))))
        pairs = []
        for e in monomials_of_degree(d, g):
            a, rest = [], max(0, g - h)
            for k in e:
                a.append(min(k, rest))
                rest -= a[-1]
            pairs.append((where[tuple(a)], where[tuple(map(sub, e, a))]))
        degrees.append((den, weights, half, tuple(pairs)))
    common = lcm(*(den for den, *_ in degrees))
    degrees = tuple((common // den, *rest) for den, *rest in degrees)
    lines, place = [], range(len(rows))
    for v in range(d):
        blocks = [[p for p, e in enumerate(rows) if e[v] == i] for i in range(order + 1)]
        layout = [p for block in blocks for p in block]
        at = {p: n for n, p in enumerate(layout)}
        down = [at[p] for below, block in zip(blocks, blocks[1:]) for p in below[: len(block)]]
        starts = accumulate(map(len, blocks[:-1]))
        rounds = tuple((start, tuple(down[start - len(blocks[0]) :])) for start in starts)
        lines.append((tuple(map(place.__getitem__, layout)), rounds))
        place = at
    shift = tuple(lines), tuple(map(place.__getitem__, range(len(rows))))
    up = tuple(tuple(where[e[:v] + (e[v] + 1,) + e[v + 1 :]] for e in rows if sum(e) < order) for v in range(d))
    return tuple(map(tuple, nodes)), tuple(steps), degrees, common, shift, up


@lru_cache(maxsize=64)
def _spreads(d, order, atoms):
    """Each degree's weights and each facet slot's numerators of `_plan(d, order)`, laid over a
    stack of `atoms` atoms: every value repeated `atoms` times in a row, as tuples, built once
    per (d, order, atoms)."""
    nodes, _, degrees, *_ = _plan(d, order)

    def spread(values):
        return tuple(x for x in values for _ in range(atoms))

    return tuple(spread(weights) for _, weights, *_ in degrees), tuple(map(spread, nodes))


# atoms stacked in one pass: the rows grow with the stack, so a measure of many atoms,
# such as a basis of C(N-1, d) simplices, goes through in stacks of at most this many
STACK = 8


def _cones(order, m: WeightedMeasure):
    """The common denominator L of the atoms' vertices, the common denominator q of their
    weights, and per apex its point times L and its atoms in stacks of at most STACK, each
    built when it is reached.  An atom's apex is its vertex in the most atoms, the lowest
    index among equals; each distinct vertex is read once."""
    vs = m.vertex_set
    count = Counter(v for s, _ in m.atoms for v in s)
    scale = lcm(*(c.denominator for v in count for c in vs.points[v]))
    q = lcm(*(w.denominator for _, w in m.atoms))
    points = {v: [c.numerator * (scale // c.denominator) for c in vs.points[v]] for v in count}
    cones = {}
    for s, w in m.atoms:
        apex = min(s, key=lambda v: (-count[v], v))
        cones.setdefault(apex, []).append(([v for v in s if v != apex], w))
    stacks = ((points[apex], (_stack(order, points, points[apex], q, atoms[i : i + STACK])
                              for i in range(0, len(atoms), STACK))) for apex, atoms in cones.items())
    return scale, q, stacks


def _stack(order, points, apex, q, atoms):
    """Each atom's weight times q, every node of the facet rule on every atom's facet, seen
    from the apex, as one integer column per coordinate, in which node n of atom a, the point
    apex + X / (D L), sits at n * len(atoms) + a, so that the nodes of every rule stay a prefix,
    and each degree's weights laid over the same places."""
    lifts = [w.numerator * (q // w.denominator) for _, w in atoms]
    weights, nodes = _spreads(len(apex), order, len(atoms))
    columns = []
    for j, a in enumerate(apex):
        column = [0] * len(nodes[0])
        # facet vertex k of every atom, less the apex, times its barycentric numerator at every node
        for numerators, vertices in zip(nodes, zip(*(facet for facet, _ in atoms))):
            xs = [points[v][j] - a for v in vertices]
            if any(xs):
                column = list(map(add, column, map(mul, numerators, cycle(xs))))
        columns.append(column)
    return lifts, columns, weights


def _shift(vector, apex, shift):
    """The Taylor shift of a table of y-moments by the apex A, both over the same scale:
    m_I = sum over J <= I of C(I, J) A^(I-J) z_J, one variable at a time.  In the layout of
    x_v, round k adds A_v times block i-1 to block i for every i >= k at once, so after the
    last round block i holds the sum over j <= i of C(i, j) A_v^(i-j) times block j."""
    lines, back = shift
    for a, (into, rounds) in zip(apex, lines):
        vector = list(map(vector.__getitem__, into))
        if a:
            for start, down in rounds:
                vector[start:] = list(map(add, vector[start:], map(mul, map(vector.__getitem__, down), repeat(a))))
    return list(map(vector.__getitem__, back))


def _table(m: WeightedMeasure, order):
    """The plain table's integer vector in row order and its scale."""
    d = m.vertex_set.dim
    _, steps, degrees, common, shift, _ = _plan(d, order)
    scale, q, cones = _cones(order, m)
    total = [0] * comb(order + d, d)
    for apex, stacks in cones:
        sums = [[0] * len(pairs) for *_, pairs in degrees]
        for lifts, columns, weights in stacks:
            # the monomials to half the order, each its parent's row times one coordinate; the
            # constant's row 0 is never formed
            rows = [None, *columns]
            for parent, j in steps:
                rows.append(list(map(mul, rows[parent], columns[j])))
            # z_J for |J| = g is the dot of the weighted row of X^A with the row of X^B, all
            # cut to the prefix of rule g // 2: at A = 1 the weighted row is the folded weights,
            # and at B = 1 too (g = 0) the dot is their sum
            for s, spread, (_, _, half, pairs) in zip(sums, weights, degrees):
                folded = list(map(mul, spread, cycle(lifts)))
                weighted = {a: list(map(mul, folded, rows[a])) if a else folded for a in half}
                dots = [sum(map(mul, weighted[a], rows[b])) if b else sum(folded) for a, b in pairs]
                s[:] = map(add, s, dots)
        # degree g stands over common q L^g / lift: the table of z_J L^|J| common q, which the
        # shift by the apex times L takes to the table of m_I L^|I| common q
        z = [x * lift for (lift, *_), s in zip(degrees, sums) for x in s]
        total = list(map(add, total, _shift(z, apex, shift) if any(apex) else z))
    # bring every degree over common q L^order
    vector = []
    for g in range(order + 1):
        vector += map(mul, total[len(vector) : comb(g + d, d)], repeat(scale ** (order - g)))
    return vector, common * q * scale**order


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
    if rho is not None and not isinstance(rho, Poly):
        raise TypeError(f"a density must be a Poly, not {type(rho).__name__}")
    if rho is not None and rho.dim != d:
        raise DimensionError(f"density has {rho.dim} variables, measure lives in R^{d}")
    order = integer(order, "moment order")
    if rho is None:
        return MomentTable._of(d, order, *_table(m, order))
    # m_I(rho mu) = sum over K of rho_K m_(I+K)(mu), read from the plain table to order + r
    r = max(map(sum, rho.terms), default=0)
    vector, scale = _table(m, order + r)
    up = _plan(d, order + r)[-1]
    ints, clear = integer_vector(rho.terms.values())
    out = [0] * comb(order + d, d)
    for c, K in zip(ints, rho.terms):
        rows = range(len(out))
        for v, k in enumerate(K):
            for _ in range(k):
                rows = map(up[v].__getitem__, rows)
        out = list(map(add, out, map(mul, map(vector.__getitem__, rows), repeat(c))))
    return MomentTable._of(d, order, out, scale * clear)


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
