"""The value classes: field order, repr text, equality by class, and which are frozen."""

import pickle
from fractions import Fraction as F

import pytest

from polymom import (
    Classification,
    Degeneracy,
    FormBasis,
    LinearForm,
    MomentTable,
    Poly,
    RatFun,
    Reconstruction,
    Series,
    SimplePolytope,
    TangentCone,
    VertexSet,
    classify,
    measure_moments,
    reconstruct,
    strong_basis,
    uniform_measure,
)
from polymom.chambers import Chamber, build_chambers
from polymom.errors import DimensionError
from polymom.inverse import det_factor_report
from polymom.verify import SuiteReport

TRIANGLE = VertexSet(2, [(0, 0), (1, 0), (0, 1)])
SQUARE_CENTER = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])


def _triangle_reconstruction():
    return reconstruct(measure_moments(uniform_measure(TRIANGLE, [(0, 1, 2)]), 0), TRIANGLE)


def _series():
    """1/2 + 3*u1 + u1^3 to order 2."""
    return Series(Poly(2, {(0, 0): F(1, 2), (1, 0): 3, (3, 0): 1}), 2)


def _ratfun():
    """(1/2 + 3*u1*u2) / ((1 - u2/3)(1 - u1)^2), the trivial form dropped."""
    forms = [LinearForm((1, 0)), LinearForm((0, F(1, 3))), LinearForm((0, 0)), LinearForm((1, 0))]
    return RatFun(Poly(2, {(0, 0): F(1, 2), (1, 1): 3}), forms)


class TestRepr:
    """The repr text of the dataclasses these classes were, byte for byte."""

    def test_moment_table(self):
        table = MomentTable(1, 1, {(0,): F(2), (1,): F(-1, 3)})
        assert repr(table) == "MomentTable(dim=1, order=1, moments={(0,): Fraction(2, 1), (1,): Fraction(-1, 3)})"

    def test_series_prints_its_polynomial_to_its_order(self):
        assert repr(_series()) == "Series(1/2 + 3*u1, order=2)"

    def test_reconstruction(self):
        assert repr(_triangle_reconstruction()) == (
            "Reconstruction(vertex_set=VertexSet(dim=2, points=((Fraction(0, 1), Fraction(0, 1)), "
            "(Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1)))), pivot=2, "
            "weights=(((0, 1, 2), Fraction(1, 1), False),))"
        )

    def test_classification(self):
        assert repr(classify(SQUARE_CENTER)) == (
            "Classification(kind=<Degeneracy.WEAK: 'weakly-non-degenerate'>, degenerate=((0, 2, 4), (1, 3, 4)))"
        )


class TestFields:
    def test_positional_and_keyword_construction_agree(self):
        table = MomentTable(1, 0, {(0,): F(1)})
        assert MomentTable(dim=1, order=0, moments={(0,): F(1)}) == table
        assert (table.dim, table.order, table.moments) == (1, 0, {(0,): F(1)})

    def test_defaults(self):
        a, b = SuiteReport("x"), SuiteReport("x")
        assert (a.cases, a.failures) == (0, [])
        a.failures.append("f")
        assert b.failures == []
        assert Chamber((), (0, 0), 0).density is None

    def test_checks_run_on_construction(self):
        with pytest.raises(DimensionError, match="moment order must be non-negative"):
            MomentTable(2, -1, {})
        with pytest.raises(DimensionError, match="duplicate columns"):
            FormBasis(TRIANGLE, 2, ((), ()))


class TestEquality:
    def test_equal_fields_of_different_classes_are_unequal(self):
        basis = FormBasis(TRIANGLE, 2, ())
        rec = Reconstruction(TRIANGLE, 2, ())
        assert basis._fields() == rec._fields()
        assert basis != rec and rec != basis
        assert Classification(Degeneracy.STRONG, ()) != (Degeneracy.STRONG, ())

    def test_equal_fields_of_one_class_are_equal(self):
        assert _triangle_reconstruction() == _triangle_reconstruction()

    def test_cones_compare_by_value_and_take_det_abs_from_the_edges(self):
        cone = TangentCone((1, 0), [(-1, 0), (-1, 1)])
        assert cone == TangentCone((F(1), 0), [(-1, 0), (-1, F(2, 2))])
        assert cone._fields() == ((1, 0), ((-1, 0), (-1, 1))) and cone.det_abs == 1


FROZEN = [
    lambda: classify(SQUARE_CENTER),
    lambda: strong_basis(SQUARE_CENTER),
    _triangle_reconstruction,
    lambda: det_factor_report(VertexSet(2, [(0, 0), (1, 0), (0, 1), (1, 2)]), [(0,), (1,), (2,)]),
    lambda: MomentTable(1, 0, {(0,): F(1)}),
    lambda: TRIANGLE,
    lambda: TangentCone((1, 0), [(-1, 0), (-1, 1)]),
    lambda: SimplePolytope(1, [TangentCone((0,), [(1,)]), TangentCone((1,), [(-1,)])]),
    _series,
    _ratfun,
    lambda: LinearForm((1, F(-1, 2))),
]


class TestFrozen:
    @pytest.mark.parametrize("make", FROZEN)
    def test_assignment_and_deletion_raise(self, make):
        value = make()
        name = type(value).__slots__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) is before

    @pytest.mark.parametrize("make", FROZEN)
    def test_equal_values_hash_alike(self, make):
        value = make()
        if isinstance(value, (MomentTable, RatFun, Series)):
            with pytest.raises(TypeError):  # a dict or list field, as with the dataclass
                hash(value)
        else:
            assert hash(value) == hash(make())

    @pytest.mark.parametrize("make", FROZEN)
    def test_pickle_round_trip(self, make):
        value = make()
        assert pickle.loads(pickle.dumps(value)) == value


class TestMutable:
    def test_chamber_map_and_suite_report_change_and_do_not_hash(self):
        cm = build_chambers(TRIANGLE)
        ch = cm.chambers[0]
        ch.density = F(3)
        cm.chambers = ()
        report = SuiteReport("x")
        report.cases += 1
        assert (ch.density, cm.chambers, report.cases) == (F(3), (), 1)
        for value in (cm, ch, report):
            with pytest.raises(TypeError):
                hash(value)
