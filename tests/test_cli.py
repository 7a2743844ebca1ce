import json
from fractions import Fraction as F

import pytest

from polymom import (
    MomentTable,
    PolymomError,
    PreconditionError,
    VertexSet,
    WeightedMeasure,
    measure_moments,
    uniform_measure,
)
from polymom.cli import main
from polymom import errors, jsonio
from polymom.poly import monomials_upto


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def pentagon_files(tmp_path, pentagon_set, pentagon_moments):
    weights = [((2, 3, 4), 1), ((1, 3, 4), -22), ((1, 2, 4), 26),
               ((0, 3, 4), 15), ((0, 2, 4), -16), ((0, 1, 4), -2)]
    measure = WeightedMeasure(pentagon_set, weights)
    return {
        "vertices": write(tmp_path / "vertices.json", jsonio.vertex_set_to_json(pentagon_set)),
        "measure": write(tmp_path / "measure.json", jsonio.measure_to_json(measure)),
        "moments": write(tmp_path / "moments.json", jsonio.moment_table_to_json(pentagon_moments)),
        "tmp": tmp_path,
    }


class TestJsonRoundTrips:
    def test_measure(self, pentagon_set):
        m = uniform_measure(pentagon_set, [(0, 1, 4)])
        assert jsonio.measure_from_json(jsonio.measure_to_json(m)) == m

    def test_moment_table(self, pentagon_moments):
        data = jsonio.moment_table_to_json(pentagon_moments)
        assert jsonio.moment_table_from_json(data) == pentagon_moments

    def test_ratfun(self, triangle_115232):
        from polymom import simplex_genfunc

        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        assert jsonio.ratfun_from_json(jsonio.ratfun_to_json(f)) == f

    def test_polytope(self):
        from polymom.verify import box_polytope

        p = box_polytope(2)
        q = jsonio.polytope_from_json(jsonio.polytope_to_json(p))
        assert [c.vertex for c in q.cones] == [c.vertex for c in p.cones]

    def test_rationals_as_strings(self, pentagon_moments):
        data = jsonio.moment_table_to_json(pentagon_moments)
        assert all(isinstance(m["value"], str) for m in data["moments"])


class TestMoments:
    def test_pentagon_measure_moments(self, pentagon_files, capsys):
        out = pentagon_files["tmp"] / "table.json"
        code = main(["moments", pentagon_files["measure"], "--order", "2", "--out", str(out)])
        assert code == 0
        table = jsonio.moment_table_from_json(json.loads(out.read_text()))
        assert [table[e] for e in monomials_upto(2, 2)] == [1, 2, 3, 4, 5, 6]

    def test_empty_measure(self, tmp_path, pentagon_set):
        m = uniform_measure(pentagon_set, [])
        path = write(tmp_path / "empty.json", jsonio.measure_to_json(m))
        out = tmp_path / "table.json"
        assert main(["moments", path, "--order", "1", "--out", str(out)]) == 0
        table = jsonio.moment_table_from_json(json.loads(out.read_text()))
        assert all(v == 0 for v in table.moments.values())

    def test_triangle_order_two(self, tmp_path, triangle_115232):
        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        path = write(tmp_path / "tri.json", jsonio.measure_to_json(m))
        out = tmp_path / "table.json"
        assert main(["moments", path, "--order", "2", "--out", str(out)]) == 0
        table = jsonio.moment_table_from_json(json.loads(out.read_text()))
        assert table[(0, 2)] == F(329, 12)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["moments", str(bad), "--order", "1"]) == 2

    def test_non_integer_simplex_index(self, tmp_path, capsys, triangle_115232):
        data = jsonio.measure_to_json(uniform_measure(triangle_115232, [(0, 1, 2)]))
        data["atoms"][0]["simplex"] = [0, 1.5, 2]
        code = main(["moments", write(tmp_path / "m.json", data), "--order", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_negative_order(self, pentagon_files, capsys):
        code = main(["moments", pentagon_files["measure"], "--order", "-1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestGenfunc:
    def test_triangle(self, tmp_path, triangle_115232, capsys):
        from polymom import simplex_genfunc

        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        path = write(tmp_path / "tri.json", jsonio.measure_to_json(m))
        out = tmp_path / "f.json"
        assert main(["genfunc", path, "--out", str(out)]) == 0
        f = jsonio.ratfun_from_json(json.loads(out.read_text()))
        assert f == simplex_genfunc((0, 1, 2), triangle_115232, 7)

    def test_zero_measure(self, tmp_path, pentagon_set, capsys):
        m = uniform_measure(pentagon_set, [])
        path = write(tmp_path / "zero.json", jsonio.measure_to_json(m))
        assert main(["genfunc", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["numerator"]["terms"] == []


class TestInvert:
    def test_pentagon_end_to_end(self, pentagon_files, tmp_path):
        out = tmp_path / "rec.json"
        svg = tmp_path / "fig.svg"
        code = main([
            "invert", pentagon_files["vertices"], pentagon_files["moments"],
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        rec = json.loads(out.read_text())
        weights = {tuple(w["simplex"]): w["weight"] for w in rec["weights"]}
        assert weights[(2, 3, 4)] == "1" and weights[(1, 3, 4)] == "-22"
        assert rec["singular"] is False
        assert svg.read_text().startswith("<?xml")
        assert ">-31/3<" in svg.read_text()

    def test_weak_square_moments(self, tmp_path, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(square_with_center))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(table))
        out = tmp_path / "rec.json"
        assert main(["invert", vertices, moments, "--pivot", "0", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["singular"] is False
        degenerate = [w for w in rec["weights"] if w["degenerate"]]
        assert len(degenerate) == 2 and all(w["weight"] == "0" for w in degenerate)

    def test_singular_moments_exit_code(self, tmp_path, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        bumped = dict(table.moments)
        bumped[(1, 1)] += 1
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(square_with_center))
        moments = write(
            tmp_path / "m.json",
            jsonio.moment_table_to_json(MomentTable(2, 2, bumped)),
        )
        out = tmp_path / "rec.json"
        assert main(["invert", vertices, moments, "--out", str(out)]) == 4
        rec = json.loads(out.read_text())
        assert rec["singular"] is True

    def test_columns_override(self, tmp_path, multiset_with_duplicate):
        vs = multiset_with_duplicate
        big = uniform_measure(vs, [(1, 2, 4), (2, 3, 4)])
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(vs))
        moments = write(
            tmp_path / "m.json", jsonio.moment_table_to_json(measure_moments(big, 2))
        )
        out = tmp_path / "rec.json"
        code = main([
            "invert", vertices, moments, "--columns", "1,3,4,5,6,8", "--out", str(out),
        ])
        assert code == 0
        rec = json.loads(out.read_text())
        weights = {tuple(w["simplex"]): w["weight"] for w in rec["weights"]}
        assert weights[(2, 3, 4)] == "2" and weights[(1, 2, 4)] == "2"

    def test_incomplete_moments_exit_code(self, tmp_path, pentagon_set):
        table = MomentTable(2, 1, {(0, 0): F(1), (1, 0): F(0), (0, 1): F(0)})
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(pentagon_set))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(table))
        assert main(["invert", vertices, moments]) == 3

    def test_not_weak_exit_code(self, tmp_path):
        vs = VertexSet(2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
        table = MomentTable(2, 2, {e: F(0) for e in monomials_upto(2, 2)})
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(vs))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(table))
        assert main(["invert", vertices, moments]) == 3


class TestInvertMalformedInput:
    def _invert(self, tmp_path, capsys, vertices, moments):
        code = main([
            "invert", write(tmp_path / "v.json", vertices), write(tmp_path / "m.json", moments),
        ])
        return code, capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys, pentagon_moments):
        moments = jsonio.moment_table_to_json(pentagon_moments)
        code, err = self._invert(tmp_path, capsys, {"dim": 2}, moments)
        assert code == 2
        assert err.startswith("error:") and "points" in err and err.count("\n") == 1

    def test_float_moment_value(self, tmp_path, capsys, pentagon_set, pentagon_moments):
        moments = jsonio.moment_table_to_json(pentagon_moments)
        moments["moments"][0]["value"] = 1.0
        code, err = self._invert(tmp_path, capsys, jsonio.vertex_set_to_json(pentagon_set), moments)
        assert code == 2
        assert err.startswith("error:") and "float" in err and err.count("\n") == 1

    def test_duplicate_moment_index(self, tmp_path, capsys, pentagon_set, pentagon_moments):
        moments = jsonio.moment_table_to_json(pentagon_moments)
        moments["moments"].append({"index": [1, 1], "value": "0"})
        code, err = self._invert(tmp_path, capsys, jsonio.vertex_set_to_json(pentagon_set), moments)
        assert code == 2
        assert err.startswith("error:") and "(1, 1)" in err and err.count("\n") == 1

    def test_non_integer_dim(self, tmp_path, capsys, pentagon_set, pentagon_moments):
        vertices = jsonio.vertex_set_to_json(pentagon_set)
        vertices["dim"] = 2.0
        code, err = self._invert(tmp_path, capsys, vertices, jsonio.moment_table_to_json(pentagon_moments))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_integer_column_number(self, tmp_path, capsys, square_with_center, pentagon_moments):
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(square_with_center))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(pentagon_moments))
        assert main(["invert", vertices, moments, "--columns", "1,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'1,x'" in err and err.count("\n") == 1


class TestInvertUnwritableOutput:
    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_missing_directory(self, pentagon_files, tmp_path, capsys, flag):
        target = tmp_path / "missing" / "x"
        code = main(["invert", pentagon_files["vertices"], pentagon_files["moments"], flag, str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(target) in err and err.count("\n") == 1


class TestChambersCommand:
    def test_pentagon(self, pentagon_files, tmp_path, capsys):
        svg = tmp_path / "map.svg"
        out = tmp_path / "chambers.json"
        code = main([
            "chambers", pentagon_files["vertices"], pentagon_files["measure"],
            "--svg", str(svg), "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["chambers"]) == 11
        assert {c["density"] for c in data["chambers"]} == {
            "5", "-10", "-2", "26/3", "-31/3", "-7/3", "2/3", "1", "14/3",
        }


class TestVerifyCommand:
    def test_brion_suite(self, capsys):
        assert main(["verify", "brion", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("pass brion")

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2 and "invalid choice: 'bench'" in capsys.readouterr().err


def test_precondition_errors_share_one_base():
    for cls in (
        errors.DegenerateDirectionError,
        errors.DegenerateSimplexError,
        errors.DimensionError,
        errors.IncompleteMomentsError,
        errors.NotSpanningError,
        errors.NotStronglyNonDegenerateError,
        errors.NotWeaklyNonDegenerateError,
    ):
        assert issubclass(cls, PreconditionError)
    assert issubclass(PreconditionError, PolymomError)
    assert not issubclass(errors.SingularMatrixError, PreconditionError)


def test_moments_then_invert_round_trip(pentagon_files, tmp_path):
    table = tmp_path / "table.json"
    rec = tmp_path / "rec.json"
    assert main(["moments", pentagon_files["measure"], "--order", "2", "--out", str(table)]) == 0
    assert main(["invert", pentagon_files["vertices"], str(table), "--out", str(rec)]) == 0
    weights = {tuple(w["simplex"]): w["weight"] for w in json.loads(rec.read_text())["weights"]}
    original = json.loads(open(pentagon_files["measure"]).read())["atoms"]
    for atom in original:
        assert weights[tuple(atom["simplex"])] == atom["weight"]


def test_end_to_end_determinism(pentagon_files, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"rec_{tag}.json"
        svg = tmp_path / f"fig_{tag}.svg"
        assert main([
            "invert", pentagon_files["vertices"], pentagon_files["moments"],
            "--out", str(out), "--svg", str(svg),
        ]) == 0
        outs.append((out.read_bytes(), svg.read_bytes()))
    assert outs[0] == outs[1]
