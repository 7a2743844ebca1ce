"""Rational moment generating functions of simplicial measures.

The normalized generating function of a measure mu collects the moments as

    F(u) = sum over I of (|I|+d)!/(i_1! ... i_d!) * m_I(mu) * u^I.

For the uniform measure on a simplex this is d!*Vol divided by the product
of the vertex forms 1 - <v, u>, which makes every function here rational
with denominator a sub-multiset of vertex forms.  Denominators are kept as
form multisets and never expanded.  `poly.FormKernel` multiplies and divides
by forms in integers, each the vertex's `geometry.homogeneous` row; `taylor`
expands into a `Series`, which holds the kernel's pair, `series_to_moments`
reads that pair into a `MomentTable`'s in integers, and `RatFun.cancel`
cancels with the kernel of `poly.form_kernel`.  `brion_genfunc` sums its vertex
cones in the same kernel, and divides out edge directions with `FormKernel.divide`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm, prod
from operator import mul

from .errors import (
    DegenerateDirectionError,
    DegenerateSimplexError,
    DimensionError,
    PolymomError,
)
from .geometry import VertexSet, WeightedMeasure, check_simplex, coordinates, edge_det, homogeneous
from .linalg import _integer_rows, integer_det, integer_vector, rat
from .poly import MomentTable, Poly, Series, form_kernel, normalizers
from .value import Value, integer


class LinearForm(Value):
    """The affine form 1 - <v, u> attached to a vertex v.

    The zero vertex stands for the constant form 1, which is dropped from
    canonical denominators since it never constrains anything.
    """

    __slots__ = ("vertex",)

    def __init__(self, vertex):
        self._fill(coordinates(vertex, "vertex"))

    @property
    def dim(self):
        return len(self.vertex)

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.vertex)

    def __lt__(self, other):
        return self.vertex < other.vertex

    def __repr__(self):
        return f"LinearForm({self.vertex})"


class RatFun(Value):
    """Polynomial numerator over a multiset of vertex linear forms."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Poly, denominator=()):
        denom = tuple(sorted(f for f in denominator if not f.is_trivial()))
        for f in denom:
            if f.dim != numerator.dim:
                raise DimensionError("denominator form dimension mismatch")
        if numerator.is_zero():
            denom = ()
        self._fill(numerator, denom)

    __hash__ = None

    @property
    def dim(self):
        return self.numerator.dim

    def __repr__(self):
        return f"RatFun({self})"

    def __str__(self):
        num = str(self.numerator)
        if not self.denominator:
            return num
        one = (0,) * self.dim
        units = [one[:k] + (1,) + one[k + 1 :] for k in range(self.dim)]
        forms = (Poly._of(self.dim, {one: 1, **{e: -c for e, c in zip(units, f.vertex) if c}}) for f in self.denominator)
        factors = "".join(f"({form})" for form in forms)
        return f"({num}) / {factors}" if " " in num else f"{num} / {factors}"

    def cancel(self) -> "RatFun":
        """Divide out every denominator form that exactly divides the numerator.

        With p of degree at most D and G the series p/f to degree D by
        `FormKernel.over` (a vertex form's W is never 0), f divides p exactly
        when G has no term of degree D.  If p = q*f, then G = q, of degree below
        D.  Conversely, G*f = p up to degree D, and both have degree at most D,
        so G*f = p.  The quotient stands on the rows below degree D, and D drops
        by one.
        Distinct vertex forms are coprime irreducibles, so dividing by one
        leaves the multiplicity of every other in the numerator unchanged,
        and one pass cancels each form as often as both sides hold it.
        """
        kernel = form_kernel(self.dim, self.numerator.degree())
        pair = kernel.pair(self.numerator)
        return _divided(kernel, pair, ((homogeneous(f.vertex), f) for f in self.denominator))


def _divided(kernel, pair, forms) -> RatFun:
    """The pair over the forms, given as (`homogeneous` row, form) pairs, with every form
    that exactly divides it divided out as in `RatFun.cancel`: the kernel's degree need
    only bound the numerator's.  A zero numerator keeps no form."""
    remaining = []
    for row, f in forms if any(pair[0]) else ():
        vector, scale = kernel.over(pair, row)
        below = comb(kernel.degree - 1 + kernel.dim, kernel.dim)
        if any(vector[below:]):
            remaining.append(f)
        else:
            kernel, pair = form_kernel(kernel.dim, kernel.degree - 1), (vector[:below], scale)
    return RatFun(kernel.poly(pair), remaining)


def simplex_genfunc(s, vs: VertexSet, weight, allow_degenerate=False) -> RatFun:
    """Generating function  w / prod of the d+1 vertex forms of the simplex.

    With w = d!*Vol this is the transform of the uniform measure; with
    `allow_degenerate` the same formula defines a degenerate simplex's
    singular limit measure (a point mass when its vertices coincide).
    """
    s = check_simplex(s, vs)
    if not allow_degenerate and edge_det(s, vs) == 0:
        raise DegenerateSimplexError(f"degenerate simplex {s}; pass allow_degenerate for singular terms")
    forms = [LinearForm(vs.points[i]) for i in s]
    return RatFun(Poly.constant(vs.dim, rat(weight)), forms)


def measure_genfunc(m: WeightedMeasure) -> RatFun:
    """Sum of the per-atom transforms over a common denominator, cancelled.

    The resulting denominator is always a sub-multiset of the vertex forms of
    the input; interior vertices introduced by a dissection cancel out.  The
    form multisets count `homogeneous` rows, the zero vertex's dropped.
    """
    vs = m.vertex_set
    rows = [homogeneous(p) for p in vs.points]
    denominators = [Counter(rows[i] for i in s if any(vs.points[i])) for s, _ in m.atoms]
    common = Counter()
    for counts in denominators:
        common |= counts
    missing = [common - counts for counts in denominators]
    kernel = form_kernel(vs.dim, max((sum(counts.values()) for counts in missing), default=0))
    parts = []
    for (_, w), counts in zip(m.atoms, missing):
        part = ([w.numerator] + [0] * (len(kernel.rows) - 1), w.denominator)
        for row in counts.elements():
            part = kernel.times(part, row)
        parts.append(part)
    scale = lcm(*(s for _, s in parts))
    numerator = [sum(v[r] * (scale // s) for v, s in parts) for r in range(len(kernel.rows))]
    forms = {r: LinearForm(p) for r, p in zip(rows, vs.points)}
    return _divided(kernel, (numerator, scale), ((r, forms[r]) for r in common.elements()))


def taylor(f: RatFun, order: int) -> Series:
    """Exact truncated expansion about the origin, as the series's pair: the `FormKernel.pair`
    of the numerator's terms of degree <= order, read on the rows to its own degree, which are
    a prefix of the order's, and padded with zeros; then one `FormKernel.over` per denominator form."""
    kernel = form_kernel(f.dim, order)
    vector, scale = form_kernel(f.dim, min(max(f.numerator.degree(), 0), kernel.degree)).pair(f.numerator)
    series = vector + [0] * (len(kernel.rows) - len(vector)), scale
    for form in f.denominator:
        series = kernel.over(series, homogeneous(form.vertex))
    return Series._of(f.dim, order, *series)


def series_to_moments(series: Series, dim: int) -> MomentTable:
    """Read a normalized generating series as a moment table.

    The coefficient at u^I is (|I|+d)!/prod(i_j!) * m_I, so the moment is the
    coefficient over that normalizer: with N the lcm of the normalizers, the
    table's pair is the series's vector times N/n, row by row, over the scale
    times N, in integers.  Inverse to `moments_to_series`.
    """
    dim = integer(dim, "dimension")
    if series.dim != dim:
        raise DimensionError(f"series has {series.dim} variables, expected {dim}")
    ns = normalizers(dim, series.order)
    common = lcm(*ns)
    vector = [x * (common // n) for x, n in zip(series.vector, ns)]
    return MomentTable._of(dim, series.order, vector, series.scale * common)


def moments_to_series(table: MomentTable) -> Series:
    """The series's pair is the table's vector times the normalizers, row by row, over its scale."""
    vector = list(map(mul, normalizers(table.dim, table.order), table.vector))
    return Series._of(table.dim, table.order, vector, table.scale)


class TangentCone(Value):
    """A vertex of a simple polytope with its d outgoing edge directions."""

    __slots__ = ("vertex", "edges")

    def __init__(self, vertex, edges):
        vertex = coordinates(vertex, "vertex")
        edges = tuple(coordinates(e, "edge") for e in edges)
        d = len(vertex)
        if len(edges) != d or any(len(e) != d for e in edges):
            raise DimensionError(f"a simple vertex in R^{d} needs exactly {d} edge vectors")
        self._fill(vertex, edges)
        if self.det_abs == 0:
            raise DegenerateSimplexError(f"edge vectors at vertex {vertex} are dependent")

    @property
    def det_abs(self) -> Fraction:
        """|det| of the edge vectors, from their `integer_vector` rows."""
        rows, scale = _integer_rows(self.edges)
        return abs(Fraction(integer_det(rows), scale))


class SimplePolytope(Value):
    """Vertex-and-edge description of a simple polytope, one cone per vertex."""

    __slots__ = ("dim", "cones")

    def __init__(self, dim, cones):
        cones = tuple(cones)
        if len(cones) < dim + 1:
            raise DimensionError(f"need at least {dim + 1} vertices, got {len(cones)}")
        for c in cones:
            if len(c.vertex) != dim:
                raise DimensionError("cone dimension mismatch")
        self._fill(dim, cones)


def brion_genfunc(p: SimplePolytope) -> RatFun:
    """Vertex-sum generating function, combined in the integer kernel and cancelled.

    The term of a vertex v with edges w_j is (-1)^d |det K_v| / (prod_j <w_j, u> * (1 - <v, u>)).
    Each edge is c_j * g_j, g_j its primitive integer direction with its first nonzero entry
    positive, and the d edges of a simple vertex have d distinct directions.  With -<g, u> the
    form that `FormKernel.times` multiplies by for the row (0, g), the term is |det K_v| /
    prod_j c_j over those d forms and v's vertex form.  So the sum stands over the m distinct
    directions and all N vertex forms.  Its numerator is, over the vertices, that weight times
    the other vertices' forms and the directions not at v: degree N-1+m-d.  The other forms are
    `FormKernel.over` of all N by v's, exact even where the kernel drops the product's top
    degree N, since the quotient stops at N-1.  Each direction must divide it exactly (`FormKernel.divide`); failing that
    is a hard error since it falsifies the input polytope data.  `RatFun.cancel` cancels the
    vertex forms.
    """
    d = p.dim
    rows = [homogeneous(c.vertex) for c in p.cones]
    at, weights = [], []
    for cone in p.cones:
        here, weight = set(), cone.det_abs
        for edge in cone.edges:
            ints, scale = integer_vector(edge)
            c = gcd(*ints) if next(filter(None, ints)) > 0 else -gcd(*ints)
            here.add((0, *(x // c for x in ints)))
            weight /= Fraction(c, scale)
        at.append(here)
        weights.append(weight)
    directions = sorted(set().union(*at))
    kernel = form_kernel(d, len(rows) - 1 + len(directions) - d)
    full = ([1] + [0] * (len(kernel.rows) - 1), 1)
    for row in rows:
        full = kernel.times(full, row)
    parts = []
    for row, here, weight in zip(rows, at, weights):
        vector, scale = kernel.over(full, row)
        for direction in directions:
            if direction not in here:
                vector, scale = kernel.times((vector, scale), direction)
        parts.append(([weight.numerator * x for x in vector], scale * weight.denominator))
    scale = lcm(*(s for _, s in parts))
    pair = [sum(v[r] * (scale // s) for v, s in parts) for r in range(len(kernel.rows))], scale
    for direction in directions:
        pair = kernel.divide(pair, direction)
        if pair is None:
            raise PolymomError("edge pairing failed to cancel; cone data does not describe a simple polytope")
        kernel = form_kernel(d, kernel.degree - 1)
    return RatFun(kernel.poly(pair), [LinearForm(c.vertex) for c in p.cones]).cancel()


def _vertex_pairings(p: SimplePolytope, z):
    z = coordinates(z, "direction")
    if len(z) != p.dim:
        raise DimensionError(f"direction of length {len(z)} in R^{p.dim}")
    data = []
    for cone in p.cones:
        vz = sum(a * b for a, b in zip(cone.vertex, z))
        edge_prod = Fraction(1)
        for e in cone.edges:
            pairing = sum(a * b for a, b in zip(e, z))
            if pairing == 0:
                raise DegenerateDirectionError(cone.vertex)
            edge_prod *= pairing
        data.append((vz, cone.det_abs / edge_prod))
    return data


def brion_axial_moment(p: SimplePolytope, z, j: int) -> Fraction:
    """Axial moment of <x,z>^j over the polytope via the vertex sum."""
    d, j = p.dim, integer(j, "moment order")
    data = _vertex_pairings(p, z)
    total = sum(vz ** (j + d) * dv for vz, dv in data)
    return (-1) ** d * Fraction(factorial(j), factorial(j + d)) * total


def brion_identity_residuals(p: SimplePolytope, z):
    """The d sums over vertices of <v,z>^j D_v(z), j = 0..d-1; all must vanish."""
    data = _vertex_pairings(p, z)
    return tuple(
        sum(vz**j * dv for vz, dv in data) for j in range(p.dim)
    )


def density_op(f: Series, rho: Poly) -> Series:
    """Apply rho(d/du) to the series of F_mu, yielding the series of F^rho_mu.

    The coefficients of the result are (|I|+d+deg rho)!/prod(i_j!) times the
    moments of the measure rho*mu.  By the power rule d^K u^E = E!/(E-K)! u^(E-K),
    a density term r u^K takes the series's row E = I+K, times r prod_j E_j!/(E_j-K_j)!,
    to the result's row I.  The result's rows are a prefix of the series's, and
    `FormKernel.up` reads the row of I+K; rho is cleared by `integer_vector`, so
    all of it is in integers.
    """
    delta = _homogeneous_degree(rho)
    if f.dim != rho.dim:
        raise DimensionError("density and series dimension mismatch")
    if f.order < delta:
        raise DimensionError(f"series order {f.order} too small for degree {delta} density")
    kernel, (ints, clear) = form_kernel(f.dim, f.order), integer_vector(rho.terms.values())
    out = [0] * comb(f.order - delta + f.dim, f.dim)
    for k, r in zip(rho.terms, ints):
        # at[q] is the series's row of the result's row q times u^K
        at = range(len(out))
        for up_v, power in zip(kernel.up, k):
            for _ in range(power):
                at = [up_v[q] for q in at]
        for q, e in enumerate(at):
            out[q] += r * f.vector[e] * prod(map(perm, kernel.rows[e], k))
    return Series._of(f.dim, f.order - delta, out, f.scale * clear)


def euler_op(f_rho_mu: Series, dim: int, delta: int) -> Series:
    """Renormalize the series of F_(rho mu) into the series of F^rho_mu.

    Applies the product over l = d+1 .. d+delta of (sum_k u_k d/du_k + l),
    which multiplies the coefficient at u^I by (|I|+d+1) ... (|I|+d+delta),
    row by row on the series's vector.  The printed range starting at l = d
    fails the 1-d uniform-measure check; the range used here is the one the
    identity actually satisfies.  dim and delta are read by `value.integer`
    before any row is.
    """
    dim, delta = integer(dim, "euler_op dim"), integer(delta, "euler_op delta")
    if dim != f_rho_mu.dim:
        raise DimensionError(f"series has {f_rho_mu.dim} variables, expected {dim}")
    rows = form_kernel(dim, f_rho_mu.order).rows
    vector = [x * perm(sum(e) + dim + delta, delta) for e, x in zip(rows, f_rho_mu.vector)]
    return Series._of(dim, f_rho_mu.order, vector, f_rho_mu.scale)


def _homogeneous_degree(rho: Poly) -> int:
    degrees = {sum(e) for e in rho.terms}
    if len(degrees) > 1:
        raise DimensionError("density polynomial must be homogeneous")
    return degrees.pop() if degrees else 0
