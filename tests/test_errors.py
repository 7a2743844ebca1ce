"""Each documented refusal, by its error type: one table for the library and one for the CLI."""

import re
from pathlib import Path

import pytest

from polymom import (
    FormBasis,
    MomentTable,
    Poly,
    Series,
    SimplePolytope,
    TangentCone,
    VertexSet,
    WeightedMeasure,
    axial_moment,
    brion_axial_moment,
    density_op,
    det_factor_report,
    explicit_inverse,
    measure_moments,
    rebase,
    series_to_moments,
)
from polymom.cli import main
from polymom.errors import DegenerateSimplexError, DimensionError
from polymom.verify import box_polytope

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
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in LIBRARY], ids=[row[0] for row in LIBRARY])
def test_library_refusal(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
