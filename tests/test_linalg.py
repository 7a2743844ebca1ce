import random
from fractions import Fraction as F
from math import lcm

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the properties below are skipped without hypothesis
    given = None

from polymom import RatMat, det, mat_inverse, rat, rat_str, solve
from polymom.errors import DimensionError, SingularMatrixError
from polymom.linalg import _bareiss, eliminate, integer_det, integer_rank


def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


def integer_system(rows, ncols, rhs_list=()):
    """(columns, row count, rhs columns) of [rows | rhs...], each row times the lcm of its denominators.

    A positive scale per row keeps the pivot columns and every solution.
    """
    scaled = []
    for i, row in enumerate(rows):
        row = [F(e) for e in (*row, *(b[i] for b in rhs_list))]
        scale = lcm(*(e.denominator for e in row))
        scaled.append([int(e * scale) for e in row])
    columns = [[row[j] for row in scaled] for j in range(ncols + len(rhs_list))]
    return columns[:ncols], len(scaled), columns[ncols:]


def rank(m):
    """The number of pivot columns of the one elimination the package runs."""
    return len(eliminate(*integer_system(rows_of(m), m.cols))[0])


def matvec(m, x):
    return tuple(sum(a * b for a, b in zip(m.row(i), x)) for i in range(m.rows))


def cofactor_det(rows):
    """Independent oracle: textbook cofactor expansion; 1 for no rows."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def random_matrix(rng, n, span=5, max_den=3):
    return RatMat.from_rows(
        [
            [F(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n)
        if det(m) != 0:
            return m


class TestDet:
    def test_identity(self):
        assert det(RatMat.identity(3)) == 1

    def test_two_by_two(self):
        assert det(RatMat.from_rows([[1, 4], [2, 1]])) == -7

    def test_hilbert_matches_cofactor_oracle(self):
        rows = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
        m = RatMat.from_rows(rows)
        assert cofactor_det(rows) == F(1, 2160)
        assert det(m) == F(1, 2160)

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            assert det(a.matmul(b)) == det(a) * det(b)

    def test_agrees_with_cofactor_on_random(self):
        rng = random.Random(5)
        for _ in range(15):
            m = random_matrix(rng, 4)
            assert det(m) == cofactor_det(rows_of(m))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(RatMat.from_rows([[1, 2, 3], [4, 5, 6]]))


class TestSolve:
    def test_identity(self):
        b = [F(3), F(-1, 2), F(7)]
        assert solve(RatMat.identity(3), b) == tuple(b)

    def test_pentagon_system(self):
        # products of two of the forms 1-u1, 1-2u1-u2, 1-u1-2u2, 1-u2 over
        # the monomials (1, u1, u2, u1^2, u1u2, u2^2)
        m = RatMat.from_rows(
            [
                [1, 1, 1, 1, 1, 1],
                [-3, -2, -1, -3, -2, -1],
                [-1, -2, -1, -3, -2, -3],
                [2, 1, 0, 2, 0, 0],
                [1, 2, 1, 5, 2, 1],
                [0, 0, 0, 2, 1, 2],
            ]
        )
        b = [2, 4, 10, 10, 24, 10]
        assert solve(m, b) == (1, -22, 26, 15, -16, -2)

    def test_multiply_back(self):
        rng = random.Random(23)
        for _ in range(10):
            m = random_invertible(rng, 4)
            b = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
            assert list(matvec(m, solve(m, b))) == b

    def test_singular_reports_rank(self):
        m = RatMat.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError) as exc:
            solve(m, [1, 1])
        assert exc.value.rank == 1


class TestRankInverse:
    def test_zero_rank(self):
        assert rank(RatMat(3, 3, [0] * 9)) == 0

    def test_integer_rank_of_no_rows(self):
        assert integer_rank([]) == 0

    def test_rank_of_rectangular(self):
        m = RatMat.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
        assert rank(m) == 2

    def test_inverse_involution(self):
        rng = random.Random(7)
        for _ in range(5):
            m = random_invertible(rng, 5)
            assert mat_inverse(mat_inverse(m)) == m

    def test_inverse_times_matrix_is_identity(self):
        rng = random.Random(9)
        for _ in range(5):
            m = random_invertible(rng, 4)
            assert m.matmul(mat_inverse(m)) == RatMat.identity(4)

    def test_inverse_of_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_inverse(RatMat.from_rows([[1, 1], [1, 1]]))

    def test_kernel_reads_no_column_after_the_pivots_fill_every_row(self):
        columns = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 0], [5, 5, 5]]

        def feed(columns):
            yield from columns
            raise AssertionError("a column was read after the pivots filled every row")

        assert _bareiss(feed(columns), 3)[0] == [1, 3, 4]
        assert _bareiss(feed([]), 0) == ([], [])

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(13)
        m = random_matrix(rng, 4)
        r = rank(m)
        rows = rows_of(m)
        rows[0], rows[2] = rows[2], rows[0]
        rows[1] = [F(7, 3) * x for x in rows[1]]
        assert rank(RatMat.from_rows(rows)) == r


class TestRatStrings:
    def test_round_trip(self):
        for text in ("3/4", "-2", "0", "-7/5"):
            assert rat_str(rat(text)) == text

    def test_canonical_form(self):
        assert rat_str(F(2, -4)) == "-1/2"
        assert rat("6/4") == F(3, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            rat(True)


def reference_pivots(m):
    """Independent oracle: the pivot columns of Fraction Gauss-Jordan elimination to reduced echelon form."""
    rows = rows_of(m)
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        p = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def reference_rank(m):
    return len(reference_pivots(m))


def integer_reference_pivots(rows, ncols):
    """`reference_pivots` of integer rows, which may be none or empty."""
    return reference_pivots(RatMat(len(rows), ncols, [e for r in rows for e in r]))


if given is not None:
    rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    properties = settings(derandomize=True, database=None, deadline=None, max_examples=80)

    @st.composite
    def matrices(draw, square=False, plant=True):
        """Random rational matrices; with `plant`, some columns combine earlier ones."""
        n_rows = draw(st.integers(1, 5))
        n_cols = n_rows if square else draw(st.integers(1, 5))
        columns = []
        for _ in range(n_cols):
            if plant and columns and draw(st.booleans()):
                coeffs = draw(st.lists(rationals, min_size=len(columns), max_size=len(columns)))
                columns.append([sum(a * col[i] for a, col in zip(coeffs, columns)) for i in range(n_rows)])
            else:
                columns.append(draw(st.lists(rationals, min_size=n_rows, max_size=n_rows)))
        return RatMat.from_rows([[col[i] for col in columns] for i in range(n_rows)])

    @st.composite
    def integer_matrices(draw, square=False):
        """(rows, column count) of the shapes the solver eliminates.

        Up to 6 rows and 14 columns, as wide as a weak minor search; no rows
        or no columns; zero columns, planted combinations, and a first row
        whose leading entries are zero, so that a pivot needs a row swap.
        """
        n_rows = draw(st.integers(0, 6))
        n_cols = n_rows if square else draw(st.integers(0, 14))
        entries = st.integers(-9, 9)
        columns = []
        for _ in range(n_cols):
            kind = draw(st.sampled_from(("zero", "plant", "free", "free")))
            if kind == "zero":
                columns.append([0] * n_rows)
            elif kind == "plant" and columns:
                coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(columns), max_size=len(columns)))
                columns.append([sum(a * col[i] for a, col in zip(coeffs, columns)) for i in range(n_rows)])
            else:
                columns.append(draw(st.lists(entries, min_size=n_rows, max_size=n_rows)))
        rows = [[col[i] for col in columns] for i in range(n_rows)]
        if rows:
            for j in range(draw(st.integers(0, n_cols))):
                rows[0][j] = 0
        return rows, n_cols

    class TestIntegerKernelProperties:
        @properties
        @given(integer_matrices(square=True))
        def test_integer_det_matches_cofactor_expansion(self, shaped):
            rows, _ = shaped
            before = [list(r) for r in rows]
            assert integer_det(rows) == cofactor_det(rows)
            assert rows == before

        @properties
        @given(integer_matrices())
        def test_integer_rank_matches_gauss_jordan(self, shaped):
            rows, ncols = shaped
            before = [list(r) for r in rows]
            assert integer_rank(rows) == len(integer_reference_pivots(rows, ncols))
            assert rows == before

        @properties
        @given(integer_matrices(), st.data())
        def test_eliminate_finds_reference_pivots_and_planted_solution(self, shaped, data):
            rows, ncols = shaped
            pivots = integer_reference_pivots(rows, ncols)
            planted = data.draw(st.lists(rationals, min_size=len(pivots), max_size=len(pivots)))
            x = [F(0)] * ncols
            for c, v in zip(pivots, planted):
                x[c] = v
            b = [sum(a * v for a, v in zip(r, x)) for r in rows]
            assert eliminate(*integer_system(rows, ncols, [b])) == (pivots, [planted])

    class TestEliminationProperties:
        @properties
        @given(matrices())
        def test_rank_matches_gauss_jordan(self, m):
            assert rank(m) == reference_rank(m)

        @properties
        @given(matrices(square=True))
        def test_det_matches_cofactor_expansion(self, m):
            assert det(m) == cofactor_det(rows_of(m))

        @properties
        @given(matrices(), st.data())
        def test_eliminate_recovers_a_solution_on_the_pivot_columns(self, m, data):
            """Rank-deficient and wide systems: b = m x with x zero off the pivot columns gives x back."""
            pivots = reference_pivots(m)
            planted = data.draw(st.lists(rationals, min_size=len(pivots), max_size=len(pivots)))
            x = [F(0)] * m.cols
            for c, v in zip(pivots, planted):
                x[c] = v
            b = matvec(m, x)
            doubled = [2 * v for v in b]
            system = integer_system(rows_of(m), m.cols, [b, doubled])
            assert eliminate(*system) == (pivots, [planted, [2 * v for v in planted]])

        @properties
        @given(matrices(square=True, plant=False), st.data())
        def test_solve_recovers_planted_solution(self, m, data):
            assume(reference_rank(m) == m.rows)
            x = tuple(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
            assert solve(m, matvec(m, x)) == x

        @properties
        @given(matrices(square=True), st.data())
        def test_singular_error_carries_reference_rank(self, m, data):
            r = reference_rank(m)
            assume(r < m.rows)
            b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
            with pytest.raises(SingularMatrixError) as exc:
                solve(m, b)
            assert exc.value.rank == r
            with pytest.raises(SingularMatrixError) as exc:
                mat_inverse(m)
            assert exc.value.rank == r

        @properties
        @given(matrices(square=True, plant=False))
        def test_inverse_times_matrix_is_identity(self, m):
            assume(reference_rank(m) == m.rows)
            assert mat_inverse(m).matmul(m) == RatMat.identity(m.rows)
