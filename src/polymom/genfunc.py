"""Rational moment generating functions of simplicial measures.

The normalized generating function of a measure mu collects the moments as

    F(u) = sum over I of (|I|+d)!/(i_1! ... i_d!) * m_I(mu) * u^I.

For the uniform measure on a simplex this is d!*Vol divided by the product
of the vertex forms 1 - <v, u>, which makes every function here rational
with denominator a sub-multiset of vertex forms.  Denominators are kept as
form multisets and never expanded.  `poly.FormKernel` multiplies and divides
by forms in integers, each the vertex's `geometry.homogeneous` row.  A `RatFun`
holds its numerator as the kernel's pair, as a `Series` and a `MomentTable` hold
theirs, with each form's row beside the form: `measure_genfunc` builds the pair
and forms a `LinearForm` only for each form it keeps, `taylor` expands the pair
by all those rows in one quotient into a `Series`, taken on F(lambda u), lambda
the lcm of the forms' W, so that every step is an integer product and the
series carries lambda^order where one form at a time carried each W^order, and
`series_to_moments` reads the series's pair into a `MomentTable`'s, so no
`Poly` and no `Fraction` is formed from the measure to the table.
`RatFun.cancel` cancels in the same kernel, and `brion_genfunc` sums its vertex
cones there and divides out edge directions with `FormKernel.divide`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm, prod
from itertools import repeat
from operator import add, mul

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
    """Polynomial numerator over a multiset of vertex linear forms, the numerator held as the
    kernel's pair.

    `vector` and `scale` are the content-free pair, scale > 0, of the numerator on
    `form_kernel(dim, degree)`, `degree` its degree (0 for the zero numerator), so equal
    functions have equal fields; `numerator` is formed on read.  `denominator` is the tuple of
    the nontrivial forms, sorted by vertex, and `rows` holds each one's `homogeneous` row in
    the same order; a zero numerator keeps no form.  `RatFun(poly, forms)` is for input: a
    numerator that is not a `Poly` or a form that is not a `LinearForm` is a TypeError, and a
    form of another dimension a DimensionError; the functions built here go through the
    unchecked `RatFun._of`.
    """

    __slots__ = ("dim", "degree", "vector", "scale", "denominator", "rows")

    def __init__(self, numerator: Poly, denominator=()):
        if not isinstance(numerator, Poly):
            raise TypeError(f"a RatFun numerator must be a Poly, not {type(numerator).__name__}")
        forms = []
        for f in denominator:
            if not isinstance(f, LinearForm):
                raise TypeError(f"a denominator form must be a LinearForm, not {type(f).__name__}")
            if not f.is_trivial():
                forms.append(f)
        if any(f.dim != numerator.dim for f in forms):
            raise DimensionError("denominator form dimension mismatch")
        kernel = form_kernel(numerator.dim, max(numerator.degree(), 0))
        self._hold(kernel, kernel.pair(numerator), [(homogeneous(f.vertex), f) for f in forms])

    @classmethod
    def _of(cls, kernel, pair, forms) -> "RatFun":
        """Unchecked constructor for a pair built here, see `_hold`."""
        f = object.__new__(cls)
        f._hold(kernel, pair, forms)
        return f

    def _hold(self, kernel, pair, forms):
        """Fill the fields from a pair on a kernel whose degree bounds the numerator's, its scale
        nonzero, and (`homogeneous` row, form) pairs of nontrivial forms in any order: the pair
        reduced by its gcd, signed so that the scale is positive, and cut to the rows of its
        own degree, and the forms sorted by vertex, the key `LinearForm.__lt__` reads."""
        vector, scale = pair
        last = len(vector) - 1
        while last and not vector[last]:
            last -= 1
        degree, g = sum(kernel.rows[last]), gcd(scale, *vector)
        if scale < 0:
            g = -g
        kept = sorted(forms, key=lambda form: form[1].vertex) if vector[last] else ()
        vector = [x // g for x in vector[: comb(degree + kernel.dim, kernel.dim)]]
        self._fill(kernel.dim, degree, vector, scale // g, tuple(f for _, f in kept), tuple(r for r, _ in kept))

    __hash__ = None

    @property
    def numerator(self) -> Poly:
        return form_kernel(self.dim, self.degree).poly((self.vector, self.scale))

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

    def __reduce__(self):
        return RatFun, (self.numerator, self.denominator)

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
        forms = zip(self.rows, (f.vertex for f in self.denominator))
        return _divided(form_kernel(self.dim, self.degree), (self.vector, self.scale), forms)


def _divided(kernel, pair, forms) -> RatFun:
    """The pair over the forms, given as (`homogeneous` row, vertex) pairs, with every form
    that exactly divides it divided out as in `RatFun.cancel`: the kernel's degree need
    only bound the numerator's.  A zero numerator keeps no form, and a `LinearForm` is
    formed only for each form kept."""
    remaining = []
    for row, vertex in forms if any(pair[0]) else ():
        vector, scale = kernel.over(pair, row)
        below = comb(kernel.degree - 1 + kernel.dim, kernel.dim)
        if any(vector[below:]):
            remaining.append((row, vertex))
        else:
            kernel, pair = form_kernel(kernel.dim, kernel.degree - 1), (vector[:below], scale)
    return RatFun._of(kernel, pair, [(row, LinearForm(vertex)) for row, vertex in remaining])


def simplex_genfunc(s, vs: VertexSet, weight, allow_degenerate=False) -> RatFun:
    """Generating function  w / prod of the d+1 vertex forms of the simplex.

    With w = d!*Vol this is the transform of the uniform measure; with
    `allow_degenerate` the same formula defines a degenerate simplex's
    singular limit measure (a point mass when its vertices coincide).
    """
    s = check_simplex(s, vs)
    if not allow_degenerate and edge_det(s, vs) == 0:
        raise DegenerateSimplexError(f"degenerate simplex {s}; pass allow_degenerate for singular terms")
    weight = rat(weight)
    forms = [(homogeneous(vs.points[i]), LinearForm(vs.points[i])) for i in s if any(vs.points[i])]
    return RatFun._of(form_kernel(vs.dim, 0), ([weight.numerator], weight.denominator), forms)


def measure_genfunc(m: WeightedMeasure) -> RatFun:
    """Sum of the per-atom transforms over a common denominator, cancelled.

    The resulting denominator is always a sub-multiset of the vertex forms of
    the input; interior vertices introduced by a dissection cancel out.  Each
    atom's form multiset is a count per `homogeneous` row, the zero vertex's
    dropped, and the common multiset takes each row's largest count.
    """
    vs = m.vertex_set
    rows = [homogeneous(p) for p in vs.points]
    counts, common, vertex = [], {}, {}
    for s, _ in m.atoms:
        here = {}
        for i in s:
            if any(vs.points[i]):
                here[rows[i]] = here.get(rows[i], 0) + 1
                vertex[rows[i]] = vs.points[i]
        for row, n in here.items():
            if n > common.get(row, 0):
                common[row] = n
        counts.append(here)
    total = sum(common.values())
    kernel = form_kernel(vs.dim, max((total - sum(here.values()) for here in counts), default=0))
    parts = []
    for (_, w), here in zip(m.atoms, counts):
        part = ([w.numerator] + [0] * (len(kernel.rows) - 1), w.denominator)
        for row, n in common.items():
            for _ in range(n - here.get(row, 0)):
                part = kernel.times(part, row)
        parts.append(part)
    scale = lcm(*(s for _, s in parts))
    numerator = [0] * len(kernel.rows)
    for v, s in parts:
        numerator = list(map(add, numerator, map(mul, v, repeat(scale // s))))
    forms = ((row, vertex[row]) for row, n in common.items() for _ in range(n))
    return _divided(kernel, (numerator, scale), forms)


def taylor(f: RatFun, order: int) -> Series:
    """Exact truncated expansion about the origin, as the series's pair: the numerator's rows
    to degree min(deg, order), a prefix of the order's, over its scale, then one
    `FormKernel.over` by every row it holds, which expands F(lambda u), lambda the lcm of the
    forms' W, so that no form divides."""
    kernel = form_kernel(f.dim, order)
    vector = f.vector[: comb(min(f.degree, kernel.degree) + f.dim, f.dim)]
    return Series._of(f.dim, order, *kernel.over((vector, f.scale), *f.rows))


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
    forms = [(row, LinearForm(c.vertex)) for row, c in zip(rows, p.cones) if any(c.vertex)]
    return RatFun._of(kernel, pair, forms).cancel()


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
