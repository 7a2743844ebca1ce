"""Exact dense linear algebra over arbitrary-precision rationals.

Values are `fractions.Fraction`, which already enforces the canonical reduced
form (positive denominator, gcd 1) in its constructor.  Determinant, rank,
solve and inverse all run on one fraction-free Bareiss kernel (Math. Comp.
22, 1968) that takes integer columns one at a time and stops reading them
once its pivots fill every row.  `det`, `solve` and `inverse` scale rows to
integers once; elimination and back-substitution, which solves for each
unknown times the last pivot, stay in integers with exact divisions, and one
`Fraction` per determinant or unknown undoes the scaling.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import DimensionError, SingularMatrixError
from .value import Value, integer


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
        rows, cols, entries = integer(rows, "row count"), integer(cols, "column count"), tuple(map(rat, entries))
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


def _replay(column, steps):
    """Apply each step's row swap and Bareiss update to the column, in place, and return it."""
    prev = 1
    for k, (row, pivot_col, pivot) in enumerate(steps):
        column[k], column[row] = column[row], column[k]
        top = column[k]
        for i in range(k + 1, len(column)):
            column[i] = (column[i] * pivot - pivot_col[i] * top) // prev
        prev = pivot
    return column


def _bareiss(columns, nrows):
    """Fraction-free elimination of integer columns of length `nrows`, taken one at a time.

    Returns (pivot positions, steps).  Each column replays the steps so far and is a pivot when
    an entry at or below the next pivot row survives; its step is (the first such row, swapped
    in; the column as it then stands; its pivot).  Entry i > k after step k is a minor divided
    by the previous pivot, so every division is exact, and a pivot column's entries down to its
    pivot are final.  No column is read once the pivots fill every row.
    """
    steps, pivots = [], []
    for j, column in enumerate(columns if nrows else ()):
        column = _replay(list(column), steps)
        k = row = len(steps)
        while row < nrows and not column[row]:
            row += 1
        if row < nrows:
            column[k], column[row] = column[row], column[k]
            steps.append((row, column, column[k]))
            pivots.append(j)
            if len(steps) == nrows:
                break
    return pivots, steps


def det(m: RatMat) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    rows, scale = _integer_rows(map(m.row, range(m.rows)))
    return Fraction(integer_det(rows), scale)


def integer_det(rows) -> int:
    """Determinant of n integer rows of length n, which are not changed; 1 for no rows."""
    rows = list(rows)
    _, steps = _bareiss(zip(*rows), len(rows))
    if len(steps) < len(rows):
        return 0
    swaps = sum(row != k for k, (row, _, _) in enumerate(steps))
    return (-1) ** swaps * (steps[-1][2] if steps else 1)


def integer_rank(rows) -> int:
    """Rank of equally long integer rows, which are not changed and not scaled; 0 for no rows."""
    rows = list(rows)
    return len(_bareiss(zip(*rows), len(rows))[0])


def eliminate(columns, nrows, rhs_list=()):
    """Eliminate [columns | rhs...] once; return (pivot columns, one solution per rhs).

    `columns` are the integer columns of an `nrows`-row matrix m, read one
    at a time and none after the pivots fill every row; each rhs is an
    integer column.  The pivot columns are exactly the columns of m
    independent of those before them; each rhs only replays their steps, so
    it does not change that choice.  Solution k holds, pivot column by pivot
    column, the solution of the minor on the pivot columns for rhs k; it
    solves the full system when the pivots fill every row, which callers check.

    The last pivot is the determinant of that minor, so by Cramer's rule it
    times each unknown is an integer: back-substitution solves for those
    integers with exact divisions and forms one `Fraction` per unknown.
    """
    pivots, steps = _bareiss(columns, nrows)
    last = steps[-1][2] if steps else 1
    sols = []
    for rhs in rhs_list:
        y = _replay(list(rhs), steps)
        x = [0] * len(steps)
        for r in reversed(range(len(steps))):
            later = sum(steps[s][1][r] * x[s] for s in range(r + 1, len(steps)))
            x[r] = (last * y[r] - later) // steps[r][2]
        sols.append([Fraction(v, last) for v in x])
    return pivots, sols


def _solve_square(m: RatMat, rhs_list):
    """One solution of square m x = b per b, from the rows of [m | b...] scaled to integers once."""
    n = m.rows
    rows, _ = _integer_rows([*m.row(i), *(b[i] for b in rhs_list)] for i in range(n))
    columns = [[row[j] for row in rows] for j in range(n + len(rhs_list))]
    pivots, sols = eliminate(columns[:n], n, columns[n:])
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular", len(pivots))
    return sols


def solve(m: RatMat, b) -> tuple:
    """Solve m x = b exactly for square m; raises SingularMatrixError if singular."""
    if m.rows != m.cols:
        raise DimensionError(f"solve requires a square matrix, got {m.rows}x{m.cols}")
    b = [rat(v) for v in b]
    if len(b) != m.rows:
        raise DimensionError(f"right-hand side of length {len(b)} against {m.rows}x{m.rows} matrix")
    return tuple(_solve_square(m, [b])[0])


def inverse(m: RatMat) -> RatMat:
    """Exact inverse; raises SingularMatrixError if singular."""
    if m.rows != m.cols:
        raise DimensionError(f"inverse requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    return RatMat.from_rows(zip(*_solve_square(m, [[int(i == j) for i in range(n)] for j in range(n)])))
