import json
import time
from fractions import Fraction as F
from pathlib import Path

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

    def test_unexpected_exception_is_one_line_exit_5(self, pentagon_files, capsys, monkeypatch):
        from polymom import oracle

        def fail(*args, **kwargs):
            raise RuntimeError("oracle failed")

        monkeypatch.setattr(oracle, "measure_moments", fail)
        code = main(["moments", pentagon_files["measure"], "--order", "2"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "internal error: RuntimeError: oracle failed\n"
        assert "Traceback" not in captured.err

    def test_a_polymom_error_that_is_no_precondition_exits_5(self, pentagon_files, capsys, monkeypatch):
        """A `PolymomError` outside `PreconditionError` is a bug: exit 5 and its message alone."""
        from polymom import oracle

        def fail(*args, **kwargs):
            raise errors.SingularMatrixError("oracle failed", 5)

        monkeypatch.setattr(oracle, "measure_moments", fail)
        code = main(["moments", pentagon_files["measure"], "--order", "2"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "internal error: oracle failed (rank 5)\n"


class TestGenfunc:
    def test_triangle(self, tmp_path, triangle_115232, capsys):
        from polymom import simplex_genfunc

        m = uniform_measure(triangle_115232, [(0, 1, 2)])
        path = write(tmp_path / "tri.json", jsonio.measure_to_json(m))
        out = tmp_path / "f.json"
        assert main(["genfunc", path, "--out", str(out)]) == 0
        f = simplex_genfunc((0, 1, 2), triangle_115232, 7)
        assert json.loads(out.read_text()) == jsonio.ratfun_to_json(f)

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

    def test_huge_table_order_exits_3_at_once(self, tmp_path, capsys, pentagon_set):
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(pentagon_set))
        table = {"dim": 2, "order": 10**30, "moments": [{"index": [0, 0], "value": "1"}]}
        moments = write(tmp_path / "m.json", table)
        start = time.perf_counter()
        assert main(["invert", vertices, moments]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300

    def test_not_weak_exit_code(self, tmp_path):
        vs = VertexSet(2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
        table = MomentTable(2, 2, {e: F(0) for e in monomials_upto(2, 2)})
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(vs))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(table))
        assert main(["invert", vertices, moments]) == 3

    def test_empty_vertex_set_exits_3_in_one_line(self, tmp_path, capsys, pentagon_moments):
        vertices = write(tmp_path / "v.json", {"dim": 2, "points": []})
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(pentagon_moments))
        assert main(["invert", vertices, moments]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {vertices}: 0 points do not affinely span R^2\n"

    def test_svg_of_3d_set_writes_nothing(self, tmp_path, capsys):
        vs = VertexSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        table = measure_moments(uniform_measure(vs, [(0, 1, 2, 3)]), 1)
        vertices = write(tmp_path / "v.json", jsonio.vertex_set_to_json(vs))
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(table))
        assert main(["invert", vertices, moments]) == 0
        capsys.readouterr()
        svg, out = tmp_path / "map.svg", tmp_path / "rec.json"
        assert main(["invert", vertices, moments, "--svg", str(svg)]) == 3
        assert capsys.readouterr() == ("", "error: --svg requires a 2-d vertex set\n")
        assert main(["invert", vertices, moments, "--svg", str(svg), "--out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert not out.exists() and not svg.exists()


class TestInvertForcedColumns:
    """`--columns` on the square with its centre, which the fixture lists first."""

    @pytest.fixture
    def files(self, tmp_path, square_with_center):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        table = measure_moments(uniform_measure(square, [(0, 1, 2), (0, 2, 3)]), 2)
        return [
            write(tmp_path / "v.json", jsonio.vertex_set_to_json(square_with_center)),
            write(tmp_path / "m.json", jsonio.moment_table_to_json(table)),
        ]

    def test_journal_minor_solves(self, files, capsys):
        assert main(["invert", *files, "--columns", "5,6,7,8,9,10"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "columns",
        ["1,2,3,4,5,6", "1,2", "5,5,6,7,8,9", ",", "0,1", "5,6,7,8,9,11"],
        ids=["singular", "wrong-size", "repeated", "empty", "zero", "past-last"],
    )
    def test_rejected_set_exits_3_in_one_line(self, files, capsys, columns):
        assert main(["invert", *files, "--columns", columns]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


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

    @pytest.mark.parametrize("index", [[1.0, 0], [1.5, 0], ["1", "0"], [True, 0]])
    def test_non_integer_moment_index(self, tmp_path, capsys, pentagon_set, pentagon_moments, index):
        moments = jsonio.moment_table_to_json(pentagon_moments)
        assert moments["moments"][1]["index"] == [1, 0]
        moments["moments"][1]["index"] = index
        code, err = self._invert(tmp_path, capsys, jsonio.vertex_set_to_json(pentagon_set), moments)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_integer_dim(self, tmp_path, capsys, pentagon_set, pentagon_moments):
        vertices = jsonio.vertex_set_to_json(pentagon_set)
        vertices["dim"] = 2.0
        code, err = self._invert(tmp_path, capsys, vertices, jsonio.moment_table_to_json(pentagon_moments))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, reason",
        [
            (b'{"dim": 2, "points": [[%s, 0], [0, 1], [0, 0]]}' % (b"9" * 4400), "4400 digits"),
            (b'{"dim": 2, "points": [["\xff", 0]]}', "utf-8"),
        ],
        ids=["past-the-digit-limit", "not-utf-8"],
    )
    def test_plain_value_error_from_json_load(self, tmp_path, capsys, pentagon_moments, text, reason):
        """json.load raises a plain ValueError for a literal past 4 300 digits or bytes not in UTF-8."""
        vertices = tmp_path / "v.json"
        vertices.write_bytes(text)
        moments = write(tmp_path / "m.json", jsonio.moment_table_to_json(pentagon_moments))
        assert main(["invert", str(vertices), moments]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vertices}: ") and reason in err
        assert err.count("\n") == 1 and len(err) <= 300

    @pytest.mark.parametrize(
        "file, key, message",
        [
            ("m.json", "order", "moment order must be non-negative, got -1"),
            ("v.json", "dim", "vertex set dimension must be non-negative, got -1"),
        ],
    )
    def test_failed_precondition_in_a_file_names_the_file(
        self, tmp_path, capsys, pentagon_set, pentagon_moments, file, key, message
    ):
        """Exit 3, like exit 2, names the input file it refuses."""
        files = {"v.json": jsonio.vertex_set_to_json(pentagon_set), "m.json": jsonio.moment_table_to_json(pentagon_moments)}
        files[file][key] = -1
        code, err = self._invert(tmp_path, capsys, files["v.json"], files["m.json"])
        assert code == 3
        assert err == f"error: {tmp_path / file}: {message}\n"

    def test_failed_precondition_keeps_its_type(self, tmp_path, pentagon_moments):
        from polymom.cli import _decode

        moments = jsonio.moment_table_to_json(pentagon_moments)
        del moments["moments"][-1]
        path = write(tmp_path / "m.json", moments)
        with pytest.raises(errors.DimensionError) as caught:
            _decode(jsonio.moment_table_from_json, path)
        assert str(caught.value).startswith(f"{path}: moment table must be complete to order 2: 5 of 6 moments")

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

    def test_measure_on_other_vertices_exits_3(self, pentagon_files, tmp_path, capsys):
        square = VertexSet(2, [(0, 0), (2, 0), (2, 2), (0, 2)])
        measure = write(tmp_path / "square.json", jsonio.measure_to_json(uniform_measure(square, [(0, 1, 2)])))
        code = main(["chambers", pentagon_files["vertices"], measure, "--svg", str(tmp_path / "map.svg")])
        assert code == 3
        assert capsys.readouterr().err == "error: measure vertex set differs from the vertices file\n"
        assert not (tmp_path / "map.svg").exists()


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
    original = json.loads(Path(pentagon_files["measure"]).read_text())["atoms"]
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
