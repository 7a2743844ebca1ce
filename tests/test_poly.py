import random
from fractions import Fraction as F
from math import comb
from operator import add

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the properties below are skipped without hypothesis
    given = None

from polymom import MomentTable, Poly, Series, monomials_of_degree, monomials_upto
from polymom.errors import DimensionError
from polymom.geometry import homogeneous
from polymom.linalg import integer_vector
from polymom.poly import form_kernel, grlex_key
from polyops import pairing, times


def random_poly(rng, dim, degree, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, degree) for _ in range(dim))
        terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(dim, terms)


def test_canonical_order_is_the_printed_one():
    assert monomials_upto(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("dim", range(1, 6))
def test_monomials_of_degree_come_sorted_by_grlex_key(dim):
    for degree in range(6):
        monos = list(monomials_of_degree(dim, degree))
        assert monos == sorted(set(monos), key=grlex_key)
        assert len(monos) == comb(degree + dim - 1, degree) and all(sum(e) == degree for e in monos)


# (1 - u1)(1 - 2u1 - u2)
PRODUCT = Poly(2, {(0, 0): 1, (1, 0): -3, (0, 1): -1, (2, 0): 2, (1, 1): 1})


def pair(kernel, p):
    """The kernel's (integer vector, scale) pair of a polynomial of degree at most its degree."""
    return integer_vector(map(p.coefficient, kernel.rows))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernel_pair_is_the_coefficients_on_its_rows(dim):
    """`FormKernel.pair` equals the pair of the coefficients read row by row, terms above the
    kernel's degree dropped, and `poly` reads back the polynomial truncated at that degree."""
    rng = random.Random(dim)
    for _ in range(12):
        p = random_poly(rng, dim, 4, nterms=rng.randint(0, 6))
        for degree in range(8):
            kernel = form_kernel(dim, degree)
            assert kernel.pair(p) == pair(kernel, p)
            assert kernel.poly(kernel.pair(p)) == Series(p, degree).poly


@pytest.mark.parametrize("dim, degree", [(1, 0), (2, 4), (3, 3)])
def test_kernel_rows_are_keyed_by_a_read_only_view(dim, degree):
    kernel = form_kernel(dim, degree)
    assert dict(kernel.where) == {e: r for r, e in enumerate(kernel.rows)}
    with pytest.raises(TypeError):
        kernel.where[kernel.rows[0]] = 1


def test_product_of_two_forms():
    kernel = form_kernel(2, 2)
    product = pair(kernel, Poly.constant(2, 1))
    for vertex in [(1, 0), (2, 1)]:
        product = kernel.times(product, homogeneous(vertex))
    assert kernel.poly(product) == PRODUCT


def test_product_by_a_direction():
    """The row (0, g) multiplies by -<g, u> and leaves the scale as it is; the scale was once W = 0."""
    kernel = form_kernel(2, 2)
    for pair in [([1, 0, 0, 0, 0, 0], 1), ([2, 1, 0, 0, 0, 0], 3)]:
        product = kernel.times(pair, (0, 1, 2))
        assert kernel.poly(product) == times(kernel.poly(pair), pairing((-1, -2)))


def test_multiplicative_identity():
    """The zero vertex's form is the constant 1."""
    rng = random.Random(3)
    p = random_poly(rng, 3, 3)
    kernel = form_kernel(3, p.degree())
    assert kernel.poly(kernel.times(pair(kernel, p), homogeneous((0, 0, 0)))) == p


def test_truncate_binomial():
    """(1 + u1)^3 to degree 1, truncated as it is multiplied."""
    kernel = form_kernel(1, 1)
    p = pair(kernel, Poly.constant(1, 1))
    for _ in range(3):
        p = kernel.times(p, homogeneous((-1,)))
    assert Series(kernel.poly(p), 1).poly == Poly(1, {(0,): 1, (1,): 3})


def test_ring_axioms():
    """The kernel's products by forms commute, and distribute over a sum of vectors on one scale."""
    rng = random.Random(29)
    kernel = form_kernel(2, 9)
    for _ in range(8):
        a, b = (pair(kernel, random_poly(rng, 2, 3)) for _ in range(2))
        f, g = (homogeneous([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]) for _ in range(2))
        assert kernel.poly(kernel.times(kernel.times(a, f), g)) == kernel.poly(kernel.times(kernel.times(a, g), f))
        (x, s), (y, t) = a, b
        x, y = [c * t for c in x], [c * s for c in y]
        (fx, _), (fy, _), (fxy, _) = (kernel.times((v, s * t), f) for v in (x, y, list(map(add, x, y))))
        assert fxy == list(map(add, fx, fy))


def test_truncated_product_law():
    """A product in the kernel of degree k is the full product truncated at k."""
    rng = random.Random(31)
    full = form_kernel(2, 9)
    for _ in range(8):
        a = random_poly(rng, 2, 4)
        f = homogeneous([F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)])
        k = rng.randint(0, 5)
        kernel = form_kernel(2, k)
        lhs = kernel.poly(kernel.times(pair(kernel, Series(a, k).poly), f))
        assert Series(lhs, k) == Series(full.poly(full.times(pair(full, a), f)), k)


def homogenize(p, total):
    """Pad each term with a power of a fresh leading variable up to `total`."""
    assert p.degree() <= total
    return Poly(p.dim + 1, {(total - sum(e),) + e: c for e, c in p.terms.items()})


def test_homogenize_simple():
    p = Poly(1, {(0,): 1, (1,): -1})  # 1 - u1
    assert homogenize(p, 2) == Poly(2, {(2, 0): 1, (1, 1): -1})


def test_homogenize_pentagon_product_column():
    expect = Poly(
        3, {(2, 0, 0): 1, (1, 1, 0): -3, (1, 0, 1): -1, (0, 2, 0): 2, (0, 1, 1): 1}
    )
    assert homogenize(PRODUCT, 2) == expect


def test_dimension_mismatch():
    for dim, exponents in [(2, (1, 0, 0)), (3, (1, 0))]:
        with pytest.raises(DimensionError, match="bad exponent tuple"):
            Poly(dim, {exponents: 1})


@pytest.mark.parametrize("exponent", [1.5, F(1, 2)])
def test_non_integer_exponent_rejected(exponent):
    with pytest.raises(DimensionError):
        Poly(2, {(exponent, 0): 1})


def test_no_stored_zeros():
    p = Poly(2, {(1, 0): F(1) - F(1), (0, 1): F(0)})
    assert p.terms == {} and p == Poly(2)
    assert form_kernel(2, 1).poly(([0, 2, 0], 3)).terms == {(1, 0): F(2, 3)}


@pytest.mark.parametrize("order", [True, False])
def test_series_refuses_a_bool_order(order):
    with pytest.raises(TypeError, match="^series order must be an integer, not bool$"):
        Series(Poly(1, {(0,): 1, (1,): 2}), order)


@pytest.mark.parametrize("order", [2.5, 2.0, F(2), "2"])
def test_series_refuses_a_non_integral_order(order):
    with pytest.raises(TypeError):
        Series(Poly(1, {(0,): 1, (1,): 2}), order)


def test_series_order_is_read_as_an_int():
    class Two:
        def __index__(self):
            return 2

    s = Series(Poly(1, {(0,): 1, (3,): 2}), Two())
    assert type(s.order) is int and s.order == 2 and s.poly == Poly(1, {(0,): 1})


def test_series_order_tracking():
    s = Series(Poly(1, {(0,): 1, (1,): 2, (2,): 3}), 2)
    assert s.truncate(1).order == 1
    with pytest.raises(DimensionError):
        s.truncate(4)


def test_truncation_reads_its_order_as_the_constructor_does():
    s = Series(Poly(2, {(0, 0): 4, (1, 0): 2, (1, 1): 3}), 2)
    assert s.truncate(1) == Series(Poly(2, {(0, 0): 4, (1, 0): 2}), 1)
    with pytest.raises(TypeError, match="^series order must be an integer, not bool$"):
        s.truncate(True)
    with pytest.raises(TypeError):
        s.truncate(1.0)
    with pytest.raises(DimensionError, match="^series order must be non-negative, got -1$"):
        s.truncate(-1)


@pytest.mark.parametrize("order", [5.0, "9"])
def test_truncation_reads_its_order_before_comparing_it(order):
    """Above the series's order, a float once read as an extension (DimensionError) and a string
    failed the comparison with a bare TypeError; both are refused as the constructor refuses them."""
    s = Series(Poly(1, {(0,): 1, (1,): 2, (3,): 3}), 3)
    with pytest.raises(TypeError, match="^'(float|str)' object cannot be interpreted as an integer$"):
        s.truncate(order)
    with pytest.raises(TypeError, match="^'(float|str)' object cannot be interpreted as an integer$"):
        Series(s.poly, order)


if given is not None:

    @st.composite
    def _series_args(draw):
        """(dim, order, poly): a polynomial in 1-3 variables with terms up to degree 7."""
        dim, order = draw(st.integers(1, 3)), draw(st.integers(0, 6))
        exponents = st.tuples(*[st.integers(0, 7 // dim) for _ in range(dim)])
        terms = draw(st.dictionaries(exponents, st.fractions(max_denominator=12), max_size=8))
        return dim, order, Poly(dim, terms)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(_series_args(), st.data())
    def test_truncating_a_series_is_building_it_to_the_lower_order(args, data):
        _, order, p = args
        lower = data.draw(st.integers(0, order))
        assert Series(p, order).truncate(lower) == Series(p, lower)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(_series_args(), st.data())
    def test_truncating_any_pair_is_the_series_of_its_polynomial(args, data):
        """A series from any pair truncates to the series of its polynomial at any lower order,
        reduced anew, and refuses a higher one."""
        dim, order, _ = args
        n = len(form_kernel(dim, order).rows)
        vector = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        s = Series._of(dim, order, vector, data.draw(st.integers(1, 60)))
        lower = data.draw(st.integers(0, order))
        assert s.truncate(lower) == Series(s.poly, lower)
        with pytest.raises(DimensionError, match=f"^cannot extend a series from order {order} to {order + 1}$"):
            s.truncate(order + 1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(_series_args(), st.data())
    def test_the_unchecked_series_is_the_reduced_pair(args, data):
        """`Series._of` reduces a pair by its common factor, so a pair and any positive multiple
        of it are one series, the one the checked constructor builds from its polynomial."""
        dim, order, _ = args
        n = len(form_kernel(dim, order).rows)
        vector = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
        scale, c = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 30))
        series = Series._of(dim, order, vector, scale)
        assert Series._of(dim, order, [c * x for x in vector], c * scale) == series
        assert series == Series(form_kernel(dim, order).poly((vector, scale)), order)

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(_series_args(), st.data())
    def test_the_unchecked_table_is_the_reduced_pair(args, data):
        """`MomentTable._of` reduces a pair by its common factor, so a pair and any positive multiple
        of it are one table, the one the checked constructor builds from its moments by row."""
        dim, order, _ = args
        rows = form_kernel(dim, order).rows
        vector = data.draw(st.lists(st.integers(-50, 50), min_size=len(rows), max_size=len(rows)))
        scale, c = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 30))
        table = MomentTable._of(dim, order, vector, scale)
        assert MomentTable._of(dim, order, [c * x for x in vector], c * scale) == table
        assert table == MomentTable(dim, order, {e: F(x, scale) for e, x in zip(rows, vector)})
