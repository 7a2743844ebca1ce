"""Each documented refusal, by its error type: one table for the library, one for its integer
arguments and one for the CLI."""

import json
import random
import re
from pathlib import Path

import pytest

from polymom import (
    FormBasis,
    MomentTable,
    Poly,
    RatFun,
    RatMat,
    Series,
    SimplePolytope,
    TangentCone,
    VertexSet,
    WeightedMeasure,
    axial_moment,
    brion_axial_moment,
    density_op,
    det_factor_report,
    dimension_and_basis,
    euler_op,
    explicit_inverse,
    mat_inverse,
    measure_moments,
    monomials_of_degree,
    monomials_upto,
    rebase,
    select_minor,
    series_to_moments,
    simplex_genfunc,
    simplex_monomial_moment,
    solve,
    strong_basis,
    taylor,
    uniform_measure,
)
from polymom.cli import main
from polymom.errors import DegenerateSimplexError, DimensionError, NotWeaklyNonDegenerateError
from polymom.genfunc import LinearForm
from polymom.verify import box_polytope, random_strong_set

DATA = Path(__file__).parent / "data"
PENTAGON = VertexSet(2, [(1, 0), (2, 1), (1, 2), (0, 1), (0, 0)])
TRIANGLE = WeightedMeasure(VertexSet(2, [(0, 0), (1, 0), (0, 1)]), [((0, 1, 2), 1)])
SERIES = Series(Poly(2, {(0, 0): 1, (1, 1): 2}), 2)

LIBRARY = [
    ("series-negative-order", lambda: Series(Poly.constant(1, 1), -1), DimensionError, "non-negative"),
    ("series-to-moments-dim", lambda: series_to_moments(SERIES, 3), DimensionError, "series has 2 variables"),
    ("density-op-dim", lambda: density_op(SERIES, Poly.monomial(3, (1, 0, 0))), DimensionError, "mismatch"),
    ("density-op-order", lambda: density_op(SERIES, Poly.monomial(2, (2, 1))), DimensionError, "too small"),
    (
        "explicit-inverse-pivot-column",
        lambda: explicit_inverse(FormBasis(PENTAGON, 4, ((0, 4), (1, 2)))),
        DimensionError,
        "through-pivot",
    ),
    ("rebase-pivot-range", lambda: rebase(TRIANGLE, 3), DimensionError, "pivot index 3 out of range"),
    ("cone-edge-count", lambda: TangentCone((0, 0), [(1, 0)]), DimensionError, "exactly 2 edge"),
    ("cone-dependent-edges", lambda: TangentCone((0, 0), [(1, 2), (2, 4)]), DegenerateSimplexError, "depend"),
    ("polytope-cones", lambda: SimplePolytope(2, box_polytope(2).cones[:2]), DimensionError, "at least 3"),
    ("moment-table-dim", lambda: MomentTable(-1, 0, {}), DimensionError, "non-negative"),
    ("measure-moments-dim", lambda: measure_moments(TRIANGLE, 2, Poly.constant(3, 1)), DimensionError, "R\\^2"),
    ("axial-moment-direction", lambda: axial_moment(TRIANGLE, (1, 2, 3), 2), DimensionError, "length 3"),
    ("brion-axial-direction", lambda: brion_axial_moment(box_polytope(2), (1,), 2), DimensionError, "R\\^2"),
    ("form-basis-column", lambda: FormBasis(PENTAGON, 4, ((0, 5),)), DimensionError, "out of range"),
    ("det-factor-non-square", lambda: det_factor_report(PENTAGON, [(0, 1)]), DimensionError, "square minor"),
    ("ratfun-form-dim", lambda: RatFun(Poly.constant(2, 1), [LinearForm((1, 0, 0))]), DimensionError, "form dimension"),
    (
        "polytope-cone-dim",
        lambda: SimplePolytope(2, [*box_polytope(2).cones[:3], box_polytope(3).cones[0]]),
        DimensionError,
        "cone dimension",
    ),
    ("form-basis-column-size", lambda: FormBasis(PENTAGON, 4, ((0,),)), DimensionError, "not a 2-subset"),
    (
        "dimension-and-basis-flat",
        lambda: dimension_and_basis(VertexSet(2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])),
        NotWeaklyNonDegenerateError,
        "weakly non-degenerate",
    ),
    ("random-strong-set-count", lambda: random_strong_set(random.Random(0), 2, 2), DimensionError, "cannot span"),
    ("rat-mat-entries", lambda: RatMat(2, 2, [1, 2, 3]), DimensionError, "expected 4 entries"),
    ("rat-mat-ragged", lambda: RatMat.from_rows([[1, 2], [3]]), DimensionError, "ragged rows"),
    ("rat-mat-product", lambda: RatMat.identity(2).matmul(RatMat(1, 2, [1, 2])), DimensionError, "cannot multiply"),
    ("solve-non-square", lambda: solve(RatMat(1, 2, [1, 2]), [1]), DimensionError, "square matrix"),
    ("solve-rhs-length", lambda: solve(RatMat.identity(2), [1]), DimensionError, "right-hand side of length 1"),
    ("inverse-non-square", lambda: mat_inverse(RatMat(1, 2, [1, 2])), DimensionError, "square matrix"),
    ("vertex-set-string-point", lambda: VertexSet(1, ["5", "7"]), TypeError, "^point must be a sequence"),
    ("vertex-set-string-points", lambda: VertexSet(2, "10"), TypeError, "^point must be a sequence"),
    ("linear-form-string-vertex", lambda: LinearForm("10"), TypeError, "^vertex must be a sequence"),
    ("cone-string-vertex", lambda: TangentCone("00", [(1, 0), (0, 1)]), TypeError, "^vertex must be a sequence"),
    ("cone-string-edge", lambda: TangentCone((0, 0), ["10", (0, 1)]), TypeError, "^edge must be a sequence"),
    ("axial-moment-string-direction", lambda: axial_moment(TRIANGLE, "12", 2), TypeError, "^direction must be"),
    ("brion-axial-string-direction", lambda: brion_axial_moment(box_polytope(2), "12", 2), TypeError, "^direction"),
    ("measure-moments-string-density", lambda: measure_moments(TRIANGLE, 2, "x"), TypeError, "^a density must be a Poly, not str$"),
    ("density-op-dict-density", lambda: density_op(SERIES, {(1, 0): 1}), TypeError, "^a density must be a Poly, not dict$"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in LIBRARY], ids=[row[0] for row in LIBRARY])
def test_library_refusal(call, error, match):
    with pytest.raises(error, match=match):
        call()


RATFUN = RatFun(Poly.constant(2, 1), [LinearForm((1, 0)), LinearForm((0, 1))])

# Each public integer argument, as a call that passes it on
INTEGER_ARGUMENTS = [
    ("series-order", lambda x: Series(Poly.constant(1, 1), x)),
    ("moment-table-dim", lambda x: MomentTable(x, 0, {})),
    ("moment-table-order", lambda x: MomentTable(1, x, {})),
    ("measure-moments-order", lambda x: measure_moments(TRIANGLE, x)),
    ("axial-moment-order", lambda x: axial_moment(TRIANGLE, (1, 2), x)),
    ("brion-axial-order", lambda x: brion_axial_moment(box_polytope(2), (1, 2), x)),
    ("taylor-order", lambda x: taylor(RATFUN, x)),
    ("series-to-moments-dim", lambda x: series_to_moments(SERIES, x)),
    ("euler-op-dim", lambda x: euler_op(SERIES, x, 1)),
    ("euler-op-delta", lambda x: euler_op(SERIES, 2, x)),
    ("monomials-of-degree-dim", lambda x: monomials_of_degree(x, 2)),
    ("monomials-of-degree-degree", lambda x: monomials_of_degree(2, x)),
    ("monomials-upto-degree", lambda x: monomials_upto(2, x)),
    ("vertex-set-dim", lambda x: VertexSet(x, [(0, 0), (1, 0), (0, 1)])),
    ("poly-dim", lambda x: Poly(x, {})),
    ("uniform-measure-index", lambda x: uniform_measure(PENTAGON, [(x, 2, 3)])),
    ("weighted-measure-index", lambda x: WeightedMeasure(PENTAGON, [((x, 2, 3), 1)])),
    ("simplex-genfunc-index", lambda x: simplex_genfunc((x, 2, 3), PENTAGON, 1)),
    ("monomial-moment-index", lambda x: simplex_monomial_moment((0, 1, 2), PENTAGON, (x, 1))),
    ("rebase-pivot", lambda x: rebase(TRIANGLE, x)),
    ("form-basis-pivot", lambda x: FormBasis(PENTAGON, x, ())),
    ("form-basis-column-entry", lambda x: FormBasis(PENTAGON, 4, ((0, x),))),
    ("select-minor-column-entry", lambda x: select_minor(PENTAGON, 4, [(0, x), *strong_basis(PENTAGON).columns[1:]])),
    ("strong-basis-pivot", lambda x: strong_basis(PENTAGON, x)),
    ("random-strong-set-dim", lambda x: random_strong_set(random.Random(0), x, 3)),
    ("random-strong-set-count", lambda x: random_strong_set(random.Random(0), 2, x)),
    ("rat-mat-rows", lambda x: RatMat(x, 1, [1])),
    ("rat-mat-cols", lambda x: RatMat(1, x, [1])),
]

# (value, error): a bool is not read as 0 or 1, and where a negative value means nothing it is refused
INTEGER_VALUES = [(True, TypeError), (1.5, TypeError), ("1", TypeError), (-1, DimensionError)]


@pytest.mark.parametrize("value, error", INTEGER_VALUES, ids=[repr(v) for v, _ in INTEGER_VALUES])
@pytest.mark.parametrize("call", [row[1] for row in INTEGER_ARGUMENTS], ids=[row[0] for row in INTEGER_ARGUMENTS])
def test_integer_argument_refusal(call, value, error):
    with pytest.raises(error, match="must be an integer, not bool" if value is True else None):
        call(value)


@pytest.mark.parametrize("value", [value for value, _ in INTEGER_VALUES], ids=[repr(v) for v, _ in INTEGER_VALUES])
def test_polynomial_exponent_refusal(value):
    """An exponent that is no non-negative integer is a malformed term, a DimensionError."""
    with pytest.raises(DimensionError):
        Poly(2, {(value, 0): 1})


CLI = [
    ("pivot-range", ["vertices.json", "table.json", "--pivot", "99"], 3, "pivot index 99 out of range for 9 vertices"),
    ("missing-vertices", ["absent.json", "table.json"], 2, "cannot read {data}/absent.json: [^\\n]+"),
]


@pytest.mark.parametrize("args, code, message", [row[1:] for row in CLI], ids=[row[0] for row in CLI])
def test_cli_refusal(args, code, message, capsys):
    """`polymom invert` on the weak_n9 case exits with the code and the one stderr line given."""
    data = DATA / "weak_n9"
    assert main(["invert", *(str(data / a) if a.endswith(".json") else a for a in args)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"error: {message.format(data=re.escape(str(data)))}\n", captured.err), captured.err


# A point given as a string is malformed, not read one character per coordinate: "10" is not (1, 0).
STRING_POINTS = [("string-point", ["10", "01", "00"]), ("string-points", "10")]


@pytest.mark.parametrize("points", [row[1] for row in STRING_POINTS], ids=[row[0] for row in STRING_POINTS])
def test_cli_refuses_a_string_point(points, tmp_path, capsys):
    """`polymom moments` on a measure file whose points are strings exits 2, naming the file."""
    path = tmp_path / "measure.json"
    atoms = [{"simplex": [0, 1, 2], "weight": "1"}]
    path.write_text(json.dumps({"vertices": {"dim": 2, "points": points}, "atoms": atoms}))
    assert main(["moments", str(path), "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: point must be a sequence of coordinates, not a string\n"
