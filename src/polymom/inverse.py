"""The inverse moment problem on a known vertex set.

Given moments up to order N-d-1 of a signed simplicial measure on N known
vertices, the numerator of its generating function is the moment series
times all N vertex forms, truncated at degree N-d-1.  The weights solve an
exact linear system whose columns are products of N-d-1 vertex forms, on a
full-rank minor of the extended matrix (the through-pivot basis on a
strongly non-degenerate set), where columns complementary to degenerate
simplices carry singular limit measures.  The integer kernel
`poly.FormKernel` forms every product of forms, the numerator's included,
each form read from its vertex's `geometry.homogeneous` row.  A strong set
is solved in closed form, one numerator evaluation per weight; forced
columns and weak sets are eliminated once against the integer numerator,
forming no product after the column whose pivot fills every row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod
from operator import getitem, mul

from .errors import (
    DimensionError,
    IncompleteMomentsError,
    NotStronglyNonDegenerateError,
    NotWeaklyNonDegenerateError,
)
from .geometry import Degeneracy, VertexSet, WeightedMeasure, check_pivot, classify, edge_det, homogeneous
from .linalg import RatMat, det, eliminate, integer_det
from .poly import MomentTable, Poly, form_kernel, normalizers
from .value import Value, integer


def numerator_degree(vs: VertexSet) -> int:
    return len(vs) - vs.dim - 1


def simplex_for_column(column, n) -> tuple:
    """The (d+1)-simplex complementary to a product-column index subset."""
    return tuple(sorted(set(range(n)) - set(column)))


def _column(c) -> tuple:
    """A product column as a tuple of form indices, each read as an int."""
    return tuple(integer(i, "column entry", signed=True) for i in c)


class FormBasis(Value):
    """A choice of product columns indexing a (candidate) basis of measures.

    `columns` holds tuples of 0-based form indices, each of size N-d-1.
    """

    __slots__ = ("vertex_set", "pivot", "columns")

    def __init__(self, vertex_set: VertexSet, pivot: int, columns: tuple):
        self._fill(vertex_set, check_pivot(pivot, len(vertex_set)), tuple(map(_column, columns)))
        n = len(self.vertex_set)
        k = numerator_degree(self.vertex_set)
        for c in self.columns:
            if len(c) != k or len(set(c)) != len(c):
                raise DimensionError(f"column {c} is not a {k}-subset")
            if any(i < 0 or i >= n for i in c):
                raise DimensionError(f"column {c} out of range")
        if len(set(self.columns)) != len(self.columns):
            raise DimensionError("duplicate columns")

    def simplices(self):
        n = len(self.vertex_set)
        return [simplex_for_column(c, n) for c in self.columns]


def _check_pivot(pivot, n):
    return n - 1 if pivot is None else check_pivot(pivot, n)


def strong_basis(vs: VertexSet, pivot=None) -> FormBasis:
    """All products avoiding the pivot form: one column per through-pivot simplex."""
    n = len(vs)
    pivot = _check_pivot(pivot, n)
    others = [i for i in range(n) if i != pivot]
    cols = tuple(tuple(c) for c in combinations(others, numerator_degree(vs)))
    return FormBasis(vs, pivot, cols)


def extended_columns(vs: VertexSet):
    """All products of N-d-1 distinct forms, in ascending lexicographic order."""
    return tuple(tuple(c) for c in combinations(range(len(vs)), numerator_degree(vs)))


def _product_columns(vs: VertexSet, columns):
    """Yield the `FormKernel` pair of each column's form product, in the given order.

    Each product is formed when read, from the longest prefix it shares with
    the column before it, one form at a time; only the products along that
    prefix are held.  The scale is the product of the column's rows' W.
    """
    kernel = form_kernel(vs.dim, numerator_degree(vs))
    forms = [homogeneous(p) for p in vs.points]
    path, stack = (), [([1] + [0] * (len(kernel.rows) - 1), 1)]
    for column in columns:
        shared = next((j for j, (a, b) in enumerate(zip(path, column)) if a != b), len(path))
        del stack[shared + 1 :]
        for i in column[shared:]:
            stack.append(kernel.times(stack[-1], forms[i]))
        path = column
        yield stack[-1]


def product_matrix(basis: FormBasis) -> RatMat:
    """Coefficients of the form products, one column per basis column.

    Rows run over the monomials of degree <= N-d-1 in canonical graded-lex
    order, which reproduces the row order (1, u1, u2, u1^2, u1*u2, u2^2)
    used throughout the worked examples.
    """
    vs = basis.vertex_set
    columns = list(_product_columns(vs, basis.columns))
    rows = range(comb(len(vs) - 1, vs.dim))
    return RatMat.from_rows([[Fraction(v[r], scale) for v, scale in columns] for r in rows])


def build_extended(vs: VertexSet) -> RatMat:
    """The full coefficient matrix over all C(N, N-d-1) product columns."""
    return product_matrix(FormBasis(vs, len(vs) - 1, extended_columns(vs)))


def _closed_form(basis: FormBasis):
    """Per column J of a strong through-pivot basis: the monomials over `FormKernel.rows`
    homogenized to degree N-d-1 at the point c_J where the d non-pivot forms outside J vanish, and
    the product P_J of J's forms as the integer pair (P_J^h(c_J) * scale, scale), nonzero.  With
    h the integer cofactors of those forms' `homogeneous` rows (with a row x on top, their
    determinant is x . h; entry i is (-1)^i times the `integer_det` of the rows without entry i),
    a row r reads its form at c_J = (h0, -h1, ..., -hd) as r . h.  Every other column's product
    vanishes at c_J, so p has weight p^h(c_J) / P_J^h(c_J) on J."""
    vs = basis.vertex_set
    k = numerator_degree(vs)
    exponents = [(k - sum(e), *e) for e in form_kernel(vs.dim, k).rows]
    rows = [homogeneous(p) for p in vs.points]
    for column in basis.columns:
        others = [r for i, r in enumerate(rows) if i != basis.pivot and i not in column]
        h = [(-1) ** i * integer_det(r[:i] + r[i + 1 :] for r in others) for i in range(vs.dim + 1)]
        powers = [[x**t for t in range(k + 1)] for x in (h[0], *(-x for x in h[1:]))]
        values = [prod(map(getitem, powers, e)) for e in exponents]
        yield values, prod(sum(map(mul, rows[j], h)) for j in column), prod(rows[j][0] for j in column)


def explicit_inverse(basis: FormBasis) -> RatMat:
    """Closed-form inverse of the product matrix for strong bases: row J is `_closed_form` at c_J."""
    if classify(basis.vertex_set).kind is not Degeneracy.STRONG:
        raise NotStronglyNonDegenerateError("explicit inverse requires a strongly non-degenerate set")
    if any(basis.pivot in column for column in basis.columns):
        raise DimensionError("explicit inverse requires a strong through-pivot basis")
    return RatMat.from_rows([[Fraction(x * s, p) for x in v] for v, p, s in _closed_form(basis)])


def _numerator_pair(table: MomentTable, vs: VertexSet):
    """`recover_numerator`'s numerator as the `FormKernel` pair the solve reads."""
    if table.dim != vs.dim:
        raise DimensionError(f"moments in R^{table.dim} against vertices in R^{vs.dim}")
    kernel = form_kernel(vs.dim, numerator_degree(vs))
    if table.order < kernel.degree:
        missing = [e for e in kernel.rows if sum(e) > table.order]
        raise IncompleteMomentsError(f"need all moments up to order {kernel.degree}", missing)
    # the table's rows to the kernel's degree are a prefix of its own
    vector = list(map(mul, normalizers(vs.dim, kernel.degree), table.vector))
    g = gcd(table.scale, *vector)
    series = [x // g for x in vector], table.scale // g
    for p in vs.points:
        series = kernel.times(series, homogeneous(p))
    return series


def recover_numerator(table: MomentTable, vs: VertexSet) -> Poly:
    """Numerator of the generating function from moments up to order N-d-1.

    This is the truncation at degree N-d-1 of the normalized moment series
    times the product of all N vertex forms, which `FormKernel.times` forms
    in integers from the series scaled over one lcm (`_numerator_pair`).
    """
    return form_kernel(vs.dim, numerator_degree(vs)).poly(_numerator_pair(table, vs))


class Reconstruction(Value):
    """Solved weights, keyed by simplex, with degenerate ones marked.

    `weights` holds (simplex, weight, is_degenerate) triples in column order.
    `is_singular` is true exactly when some degenerate simplex carries nonzero
    weight, meaning the input moments do not come from a generalized-polytope
    measure on this vertex set.
    """

    __slots__ = ("vertex_set", "pivot", "weights")

    def __init__(self, vertex_set: VertexSet, pivot: int, weights: tuple):
        self._fill(vertex_set, pivot, weights)

    @property
    def singular_simplices(self):
        return tuple(s for s, w, dg in self.weights if dg and w != 0)

    @property
    def is_singular(self) -> bool:
        return bool(self.singular_simplices)

    def weight_vector(self):
        return tuple(w for _, w, _ in self.weights)

    def to_measure(self):
        """The non-degenerate weights as a WeightedMeasure; raises on a singular reconstruction."""
        if self.is_singular:
            raise NotWeaklyNonDegenerateError(
                f"reconstruction is singular on {self.singular_simplices}"
            )
        atoms = [(s, w) for s, w, dg in self.weights if not dg]
        return WeightedMeasure(self.vertex_set, atoms)


def _choose(vs: VertexSet, pivot, forced, table=None):
    """The column choice and solve behind `select_minor` and `reconstruct`.

    A forced set, its size C(N-1, d) included, is checked before any moment
    is read.  A strong set without them takes its through-pivot basis, each
    weight N^h(c_J) / P_J^h(c_J) by `_closed_form`, with N the integer pair
    `_numerator_pair` forms, read as is.  Otherwise the candidates are the
    forced columns, or else three buckets, each ascending: columns
    complementary to degenerate simplices (their singular measures are
    independent of everything else), then to through-pivot simplices, then
    the rest.

    One `eliminate` takes [candidates | N] on integer vectors over the same
    rows, the products as `_product_columns` yields them.  It reads the
    candidates one at a time, so a candidate is a pivot exactly when it is
    independent of all candidates before it; the right-hand side comes last,
    so it does not change that choice.  No product is formed once the pivots
    fill the C(N-1, d) rows; pivot columns are independent, so the pivot
    count, not a determinant, decides that the minor is square and does not
    vanish.  Each weight is the back-substituted value times its column's
    scale over N's.

    Returns the basis (forced order, else ascending), its weights (None
    without a table) and the degenerate simplices.
    """
    n = len(vs)
    pivot = _check_pivot(pivot, n)
    cls = classify(vs)
    if cls.kind is Degeneracy.NEITHER:
        raise NotWeaklyNonDegenerateError(
            "some d+2 points lie in a hyperplane; the product columns cannot reach full rank"
        )
    degenerate = frozenset(cls.degenerate)
    not_a_minor = "selected columns do not form a non-vanishing minor"
    size = comb(n - 1, vs.dim)
    if forced is not None:
        candidates = list(map(_column, forced))
        if len(set(candidates)) != len(candidates) or not set(candidates) <= set(extended_columns(vs)):
            raise DimensionError("forced column set is not a set of valid columns")
        if len(candidates) != size:
            raise NotWeaklyNonDegenerateError(not_a_minor)
    rhs, rhs_scale = [], 1
    if table is not None:
        vector, rhs_scale = _numerator_pair(table, vs)
        rhs.append(vector)
    if forced is None and cls.kind is Degeneracy.STRONG:
        basis = strong_basis(vs, pivot)
        if not rhs:
            return basis, None, degenerate
        weights = [Fraction(sum(map(mul, vector, v)) * s, rhs_scale * p) for v, p, s in _closed_form(basis)]
        return basis, weights, degenerate
    if forced is None:
        def bucket(c):
            s = simplex_for_column(c, n)
            return 0 if s in degenerate else 1 if pivot in s else 2
        candidates = sorted(extended_columns(vs), key=bucket)  # stable: ascending in each bucket
    pivots, solutions = eliminate((v for v, _ in _product_columns(vs, candidates)), size, rhs)
    if len(pivots) < size:
        raise NotWeaklyNonDegenerateError(not_a_minor)
    chosen = [candidates[j] for j in pivots]
    order = range(size) if forced is not None else sorted(range(size), key=lambda i: chosen[i])
    w = [homogeneous(p)[0] for p in vs.points]
    weights = [solutions[0][i] * prod(w[j] for j in chosen[i]) / rhs_scale for i in order] if rhs else None
    return FormBasis(vs, pivot, tuple(chosen[i] for i in order)), weights, degenerate


def select_minor(vs: VertexSet, pivot=None, forced=None) -> FormBasis:
    """Deterministic full-rank column choice for the extended matrix; see `_choose`."""
    return _choose(vs, pivot, forced)[0]


def reconstruct(table: MomentTable, vs: VertexSet, pivot=None, columns=None) -> Reconstruction:
    """Weights over the minor `select_minor` chooses, matching the moments.

    On a strongly non-degenerate set this is the through-pivot basis, solved
    in closed form unless columns are forced; otherwise degenerate columns
    carry the singular terms.
    """
    basis, weights, degenerate = _choose(vs, pivot, columns, table)
    entries = tuple((s, w, s in degenerate) for s, w in zip(basis.simplices(), weights))
    return Reconstruction(vs, basis.pivot, entries)


def dimension_and_basis(vs: VertexSet, pivot=None):
    """Dimension of the simplicial measure space, with a pruned simplex basis.

    The dimension is C(N-1, d) minus the number of degenerate (d+1)-subsets.
    The basis consists of the non-degenerate through-pivot simplices whose
    columns are independent of those before them in canonical simplex order.
    """
    basis = strong_basis(vs, pivot)
    cls = classify(vs)
    if cls.kind is Degeneracy.NEITHER:
        raise NotWeaklyNonDegenerateError("dimension formula requires a weakly non-degenerate set")
    dim_space = comb(len(vs) - 1, vs.dim) - len(cls.degenerate)
    candidates = sorted((s, c) for s, c in zip(basis.simplices(), basis.columns) if s not in cls.degenerate)
    columns = (v for v, _ in _product_columns(vs, [c for _, c in candidates]))
    chosen = [candidates[j][0] for j in eliminate(columns, len(basis.columns))[0]]
    if len(chosen) != dim_space:
        raise NotWeaklyNonDegenerateError(
            f"pruned basis has size {len(chosen)}, expected {dim_space}"
        )
    return dim_space, chosen


class DetFactorReport(Value):
    """Determinant of a chosen minor against the product of form minors.

    Over configurations with the same column combinatorics the ratio is a
    fixed constant, and the determinant vanishes exactly when some qualifying
    (d+1)-tuple of forms becomes dependent.  `qualifying` holds the
    (d+1)-index-subsets meeting every column; `ratio` is None when the minor
    product vanishes.
    """

    __slots__ = ("determinant", "qualifying", "minor_product", "ratio")

    def __init__(
        self, determinant: Fraction, qualifying: tuple, minor_product: Fraction, ratio: Fraction | None
    ):
        self._fill(determinant, qualifying, minor_product, ratio)


def det_factor_report(vs: VertexSet, columns) -> DetFactorReport:
    n = len(vs)
    columns = [tuple(c) for c in columns]
    basis = FormBasis(vs, n - 1, tuple(columns))
    m = product_matrix(basis)
    if m.rows != m.cols:
        raise DimensionError("determinant factorization needs a square minor")
    d_value = det(m)
    qualifying = [s for s in combinations(range(n), vs.dim + 1) if all(set(s) & set(c) for c in columns)]
    # the forms of s have the rows (1, -v), so their minor is (-1)^d times the rows (1, v)'s
    product = prod(((-1) ** vs.dim * edge_det(s, vs) for s in qualifying), start=Fraction(1))
    ratio = d_value / product if product != 0 else None
    return DetFactorReport(d_value, tuple(qualifying), product, ratio)
