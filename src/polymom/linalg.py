"""Exact dense linear algebra over arbitrary-precision rationals.

Values are `fractions.Fraction`, which already enforces the canonical reduced
form (positive denominator, gcd 1) in its constructor.  Determinant, solve
and inverse all run fraction-free on one Bareiss kernel: every row is
scaled to integers once up front, elimination then stays in integers with
exact divisions, back-substitution solves for each unknown times the last
pivot, again with exact divisions, and one `Fraction` per determinant or
unknown undoes the scaling at the end.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import DimensionError, SingularMatrixError
from .value import Value


def rat(value) -> Fraction:
    """Coerce ints, strings like "3/4" or "-2", and Fractions to Fraction; a float or bool is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"refusing {type(value).__name__} input; pass an int, string or Fraction")
    return Fraction(value)


def rat_str(value: Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" when q == 1."""
    return str(Fraction(value))


class RatMat(Value):
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(rat(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self._fill(rows, cols, entries)

    @classmethod
    def from_rows(cls, row_lists) -> "RatMat":
        row_lists = [list(r) for r in row_lists]
        if not row_lists:
            return cls(0, 0, ())
        cols = len(row_lists[0])
        if any(len(r) != cols for r in row_lists):
            raise DimensionError("ragged rows")
        return cls(len(row_lists), cols, [e for r in row_lists for e in r])

    @classmethod
    def identity(cls, n) -> "RatMat":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    def at(self, i, j) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def matmul(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                out.append(sum(r[k] * other.at(k, j) for k in range(self.cols)))
        return RatMat(self.rows, other.cols, out)

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RatMat({self.rows}x{self.cols}: {body})"


def integer_vector(values):
    """(ints, scale): the values, ints or Fractions, times the lcm of their denominators, and that lcm."""
    values = list(values)
    scale = lcm(*(e.denominator for e in values))
    return [e.numerator * (scale // e.denominator) for e in values], scale


def _integer_rows(rows):
    """Scale each row by `integer_vector`; return (int rows, product of scale factors).

    The scale product divides the determinant of the scaled matrix to recover
    the determinant of the original one.
    """
    scaled = [integer_vector(row) for row in rows]
    return [ints for ints, _ in scaled], prod(scale for _, scale in scaled)


def _bareiss_forward(rows, ncols):
    """Fraction-free elimination with row swaps and column skipping.

    Mutates `rows` into an upper echelon of exact integer minors.  Returns
    (sign, pivot positions).  Entry (i, j) after processing pivot k equals the
    minor on pivot rows/columns extended by row i, column j, divided by the
    previous pivot, so every division below is exact.
    """
    nrows = len(rows)
    sign = 1
    prev = 1
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            for j in range(c, ncols):
                rows[i][j] = (rows[i][j] * pivot - ric * rows[r][j]) // prev
        prev = pivot
        pivots.append((r, c))
        r += 1
    return sign, pivots


def det(m: RatMat) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    rows, scale = _integer_rows(map(m.row, range(m.rows)))
    return Fraction(integer_det(rows), scale)


def integer_det(rows) -> int:
    """Determinant of n integer rows of length n, eliminated on a copy; 1 for no rows."""
    rows = [list(r) for r in rows]
    if not rows:
        return 1
    sign, pivots = _bareiss_forward(rows, len(rows))
    return sign * rows[-1][-1] if len(pivots) == len(rows) else 0


def integer_rank(rows) -> int:
    """Rank of equally long integer rows, eliminated on a copy without scaling; 0 for no rows."""
    rows = [list(r) for r in rows]
    return len(_bareiss_forward(rows, len(rows[0]))[1]) if rows else 0


def eliminate(rows, rhs_list=()):
    """Eliminate [rows | rhs...] once; return (pivot columns, one solution per rhs).

    `rows` are the rows of a matrix m, as ints or Fractions.  The pivot
    columns are exactly the columns of m independent of those before them;
    the right-hand sides come last, so they do not change that choice.
    Solution k holds, pivot column by pivot column, the solution of the minor
    on the pivot columns for right-hand side k, found by back-substitution on
    those columns only.  It solves the full system when the pivots fill every
    row of m, which callers check.

    The last pivot is the determinant of that minor, so by Cramer's rule it
    times each unknown is an integer: back-substitution solves for those
    integers with exact divisions and forms one `Fraction` per unknown.
    """
    rows = list(rows)
    n = len(rows[0]) if rows else 0
    extra = list(zip(*rhs_list)) or [()] * len(rows)
    rows, _ = _integer_rows([*r, *e] for r, e in zip(rows, extra))
    _, pivots = _bareiss_forward(rows, n + len(rhs_list))
    cols = [c for _, c in pivots if c < n]
    last = rows[len(cols) - 1][cols[-1]] if cols else 1
    sols = []
    for b in range(n, n + len(rhs_list)):
        x = [0] * len(cols)
        for r in reversed(range(len(cols))):
            row = rows[r]
            later = sum(row[c] * x[s] for s, c in enumerate(cols[r + 1 :], r + 1))
            x[r] = (last * row[b] - later) // row[cols[r]]
        sols.append([Fraction(v, last) for v in x])
    return cols, sols


def solve(m: RatMat, b) -> tuple:
    """Solve m x = b exactly for square m; raises SingularMatrixError if singular."""
    if m.rows != m.cols:
        raise DimensionError(f"solve requires a square matrix, got {m.rows}x{m.cols}")
    b = [rat(v) for v in b]
    if len(b) != m.rows:
        raise DimensionError(f"right-hand side of length {len(b)} against {m.rows}x{m.rows} matrix")
    pivots, sols = eliminate(map(m.row, range(m.rows)), [b])
    if len(pivots) < m.rows:
        raise SingularMatrixError("matrix is singular", len(pivots))
    return tuple(sols[0])


def inverse(m: RatMat) -> RatMat:
    """Exact inverse; raises SingularMatrixError if singular."""
    if m.rows != m.cols:
        raise DimensionError(f"inverse requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    pivots, sols = eliminate(map(m.row, range(n)), [[int(i == j) for i in range(n)] for j in range(n)])
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular", len(pivots))
    return RatMat.from_rows(zip(*sols))
