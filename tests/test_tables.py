"""Moment tables the package builds itself, by the oracle and from a generating series, are
tables the checked constructor accepts as they stand: complete, indexed by tuples of ints,
valued in Fractions, and equal after a pickle round trip.  The checked constructor accepts a
complete table whatever the order of its keys and the int type of its index entries, and refuses
one dropped index, one index past the order and one index entry that is no integer."""

import pickle
import re
from fractions import Fraction as F

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property below is skipped without hypothesis
    given = None

from polymom.errors import DimensionError

from polymom import Poly, Series, VertexSet, WeightedMeasure, measure_genfunc, measure_moments, uniform_measure
from polymom.genfunc import series_to_moments, taylor
from polymom.poly import MomentTable, monomials_upto

# per dimension, a measure symmetric under x_1 -> -x_1, so that every moment odd in x_1 is
# zero, and one with no symmetry
SYMMETRIC = {
    1: uniform_measure(VertexSet(1, [(-1,), (0,), (1,)]), [(0, 1), (1, 2)]),
    2: uniform_measure(VertexSet(2, [(-1, 0), (1, 0), (0, 1)]), [(0, 1, 2)]),
    3: uniform_measure(VertexSet(3, [(-1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]), [(0, 1, 2, 3)]),
}
SKEW = {
    1: WeightedMeasure(VertexSet(1, [(F(-1, 3),), (2,), (F(5, 2),)]), [((0, 1), F(3, 2)), ((1, 2), -2)]),
    2: WeightedMeasure(VertexSet(2, [(0, 0), (2, F(1, 3)), (F(-1, 2), 1), (1, 1)]), [((0, 1, 2), 3), ((1, 2, 3), F(-2, 5))]),
    3: WeightedMeasure(VertexSet(3, [(0, 0, 0), (1, 0, 0), (0, F(2, 3), 0), (0, 0, 1), (1, 1, 1)]),
                       [((0, 1, 2, 3), F(7, 4)), ((1, 2, 3, 4), 1)]),
}


def _density(dim):
    """A density of degree 2 with a constant term and rational coefficients."""
    unit = [(0,) * k + (1,) + (0,) * (dim - 1 - k) for k in range(dim)]
    square = tuple(2 * x for x in unit[0])
    return Poly(dim, {(0,) * dim: F(1, 2), unit[-1]: F(-1, 3), square: 2})


def _check(t: MomentTable):
    assert MomentTable(t.dim, t.order, dict(t.moments)) == t
    assert t.moments.keys() == set(monomials_upto(t.dim, t.order))
    assert all(type(e) is tuple and all(type(x) is int for x in e) for e in t.moments)
    assert all(type(v) is F for v in t.moments.values())
    assert pickle.loads(pickle.dumps(t)) == t


@pytest.mark.parametrize("dense", [False, True], ids=["uniform", "density"])
@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_oracle_tables_pass_the_checked_constructor(dim, order, dense):
    rho = _density(dim) if dense else None
    for m in SYMMETRIC[dim], SKEW[dim]:
        _check(measure_moments(m, order, rho))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_symmetric_oracle_table_holds_zero_moments(dim):
    t = measure_moments(SYMMETRIC[dim], 3)
    _check(t)
    odd = [e for e in t.moments if e[0] % 2]
    assert odd and all(t[e] == 0 for e in odd)
    assert all(t[e] != 0 for e in t.moments if not e[0] % 2 and all(x % 2 == 0 for x in e))


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_series_tables_with_absent_terms_pass_the_checked_constructor(dim, order):
    """The series of a symmetric measure has no term odd in u_1: each such moment is an absent term."""
    series = taylor(measure_genfunc(SYMMETRIC[dim]), order)
    assert order < 1 or any(e[0] % 2 for e in monomials_upto(dim, order) if series.coefficient(e) == 0)
    t = series_to_moments(series, dim)
    _check(t)
    assert t == measure_moments(SYMMETRIC[dim], order)


def test_a_series_of_a_few_terms_gives_zeros_elsewhere():
    series = Series(Poly(2, {(0, 0): 2, (2, 0): F(-6, 7), (1, 2): 5}), 4)
    t = series_to_moments(series, 2)
    _check(t)
    assert t[(0, 0)] == 1 and t[(2, 0)] == F(-6, 7) / 12 and t[(1, 2)] == F(5, 60)
    assert sum(v != 0 for v in t.moments.values()) == 3


def test_the_empty_series_gives_the_zero_table():
    t = series_to_moments(Series(Poly(3, {}), 2), 3)
    _check(t)
    assert set(t.moments.values()) == {0}


class Int(int):
    """A plain int subclass, which the checked constructor reads as the int it is."""


def _refused(dim, order, moments, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        MomentTable(dim, order, moments)


if given is not None:

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(st.integers(1, 3), st.integers(0, 6), st.data())
    def test_the_checked_constructor_reads_every_index_entry_by_one_rule(dim, order, data):
        """Accepted in any key order and with int-subclass entries; refused, by the first fault
        and with the message it has always had, when an index is dropped, when one is past the
        order, and when an entry is 1.0 or True."""
        indices = monomials_upto(dim, order)
        values = data.draw(st.lists(st.fractions(max_denominator=9), min_size=len(indices), max_size=len(indices)))
        canonical = MomentTable(dim, order, dict(zip(indices, values)))
        shuffled = data.draw(st.permutations(list(zip(indices, values))))
        assert MomentTable(dim, order, dict(shuffled)) == canonical
        assert MomentTable(dim, order, {tuple(map(Int, e)): v for e, v in shuffled}) == canonical

        k, n = data.draw(st.integers(0, len(indices) - 1)), len(indices)
        dropped, kept = shuffled[k][0], shuffled[:k] + shuffled[k + 1 :]
        missing = f"moment table must be complete to order {order}: {n - 1} of {n} moments, first missing [{dropped}]"
        _refused(dim, order, dict(kept), DimensionError, missing)
        past = (order + 1,) + (0,) * (dim - 1)
        message = f"moment index {past} is not in R^{dim} up to order {order}"
        _refused(dim, order, dict(kept + [(past, 0)]), DimensionError, message)
        j = data.draw(st.integers(0, dim - 1))
        as_float = dropped[:j] + (float(dropped[j]),) + dropped[j + 1 :]
        message = "'float' object cannot be interpreted as an integer"
        _refused(dim, order, dict(kept + [(as_float, 0)]), TypeError, message)
        ones = [e for e in indices if 1 in e]
        if ones:
            one = data.draw(st.sampled_from(ones))
            as_bool = tuple(True if x == 1 else x for x in one)
            table = {(as_bool if e == one else e): v for e, v in shuffled}
            _refused(dim, order, table, TypeError, "moment index entry must be an integer, not bool")
