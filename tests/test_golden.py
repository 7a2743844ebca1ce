"""Byte pins of `polymom invert`, `genfunc`, `moments` and `chambers` on committed inputs.

Each invert case under tests/data holds `vertices.json` and `table.json` and
the expected bytes of one run per entry of RUNS: the `--out` JSON, the SVG
when `--svg` is given, stderr, and the exit code below.  The cases are a
strong 2-d set of 12 rational points (order 9); a weak grid multiset of 9
points, run with its chamber map, at pivot 0, and with forced columns (the
pivot-0 minor in descending order); a weak grid multiset of 8 points whose
minor admits its last column after the first C(7, 2) candidates; and a
singular grid multiset of 7 points, run with and without `--svg`.

Each genfunc case holds `measure.json` and the expected `--out` JSON and
stdout line of `polymom genfunc`, which exits 0 on all of them.  The cases
are a triangle dissected at an interior point, whose vertex form cancels; a
signed 2-d measure on a multiset with a repeated point; and a signed sum of
three tetrahedra in R^3, one vertex at the origin.  The same three measures
also hold `moments-<k>.json`, the moment table `polymom moments --order k`
writes, at orders 0, 3 and 8 (6 for the 3-d case).

The chambers case holds `vertices.json` and `measure.json` and the expected
`--svg` and `--out` bytes of `polymom chambers`.  Its seven points have
non-integer coordinates and one of them is repeated.  Two signed triangles
give chamber densities -3, 0, 2 and 5, so the uncovered chambers sit at 3/8
of the density span, where the fill's red and green channels fall on a tie.

Every run is replayed twice: through `main` in this process, which has
loaded every module, and as a fresh `python -S -m polymom.cli` child, which
loads only what its command imports and sees no site-packages.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polymom
from polymom.cli import main

DATA = Path(__file__).parent / "data"

# 1-based extended-matrix column numbers of the weak_n9 minor at pivot 0, descending
WEAK_N9_FORCED = "81,80,79,78,77,75,74,73,72,70,69,68,67,64,62,61,60,59,58,57,54,46,43,28,18,9,7,5"

# (case directory, run name, write an SVG, further options, expected exit code)
RUNS = [
    ("strong_d2n12", "invert", False, [], 0),
    ("weak_n9", "invert-svg", True, [], 0),
    ("weak_n9", "invert-pivot0", False, ["--pivot", "0"], 0),
    ("weak_n9", "invert-columns", False, ["--columns", WEAK_N9_FORCED], 0),
    ("weak_n8", "invert-svg", True, [], 0),
    ("singular_n7", "invert", False, [], 4),
    ("singular_n7", "invert-svg", True, [], 4),
]


@pytest.mark.parametrize("case, run, svg, options, code", RUNS, ids=[f"{c}-{r}" for c, r, _, _, _ in RUNS])
def test_invert_bytes(case, run, svg, options, code, tmp_path, capsys):
    inputs = DATA / case
    out, svg_path = tmp_path / "rec.json", tmp_path / "map.svg"
    argv = ["invert", str(inputs / "vertices.json"), str(inputs / "table.json"), "--out", str(out), *options]
    if svg:
        argv += ["--svg", str(svg_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (inputs / f"{run}.stderr").read_text(encoding="utf-8")
    assert out.read_bytes() == (inputs / f"{run}.json").read_bytes()
    expected_svg = inputs / f"{run}.svg"
    if expected_svg.exists():
        assert svg_path.read_bytes() == expected_svg.read_bytes()
    else:
        assert not svg_path.exists()


GENFUNC_CASES = ["genfunc_dissection", "genfunc_multiset_d2", "genfunc_signed_d3"]


@pytest.mark.parametrize("case", GENFUNC_CASES)
def test_genfunc_bytes(case, tmp_path, capsys):
    inputs = DATA / case
    out = tmp_path / "f.json"
    assert main(["genfunc", str(inputs / "measure.json"), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (inputs / "genfunc.stdout").read_text(encoding="utf-8")
    assert out.read_bytes() == (inputs / "genfunc.json").read_bytes()


MOMENTS_RUNS = [(case, k) for case in GENFUNC_CASES for k in (0, 3, 6 if case.endswith("d3") else 8)]


@pytest.mark.parametrize("case, order", MOMENTS_RUNS, ids=[f"{c}-{k}" for c, k in MOMENTS_RUNS])
def test_moments_bytes(case, order, tmp_path, capsys):
    inputs = DATA / case
    expected = (inputs / f"moments-{order}.json").read_text(encoding="utf-8")
    out = tmp_path / "m.json"
    argv = ["moments", str(inputs / "measure.json"), "--order", str(order)]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text(encoding="utf-8") == expected
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


def test_chambers_bytes(tmp_path, capsys):
    inputs = DATA / "chambers_rational"
    out, svg_path = tmp_path / "chambers.json", tmp_path / "map.svg"
    argv = ["chambers", str(inputs / "vertices.json"), str(inputs / "measure.json")]
    assert main(argv + ["--svg", str(svg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "")
    assert svg_path.read_bytes() == (inputs / "chambers.svg").read_bytes()
    assert out.read_bytes() == (inputs / "chambers.json").read_bytes()


def _child(*argv):
    """(exit code, stdout, stderr) of `python -S -m polymom.cli` with the argv, in a fresh
    interpreter without site-packages: the runtime needs only the standard library."""
    path = [str(Path(polymom.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-S", "-m", "polymom.cli", *map(str, argv)]
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case, run, svg, options, code", RUNS, ids=[f"{c}-{r}" for c, r, _, _, _ in RUNS])
def test_invert_bytes_in_a_child(case, run, svg, options, code, tmp_path):
    inputs = DATA / case
    out, svg_path = tmp_path / "rec.json", tmp_path / "map.svg"
    argv = ["invert", inputs / "vertices.json", inputs / "table.json", "--out", out, *options]
    if svg:
        argv += ["--svg", svg_path]
    assert _child(*argv) == (code, b"", (inputs / f"{run}.stderr").read_bytes())
    assert out.read_bytes() == (inputs / f"{run}.json").read_bytes()
    expected_svg = inputs / f"{run}.svg"
    assert (svg_path.read_bytes() if svg_path.exists() else None) == (
        expected_svg.read_bytes() if expected_svg.exists() else None
    )


@pytest.mark.parametrize("case", GENFUNC_CASES)
def test_genfunc_bytes_in_a_child(case, tmp_path):
    inputs = DATA / case
    out = tmp_path / "f.json"
    assert _child("genfunc", inputs / "measure.json", "--out", out) == (
        0, (inputs / "genfunc.stdout").read_bytes(), b""
    )
    assert out.read_bytes() == (inputs / "genfunc.json").read_bytes()


@pytest.mark.parametrize("case, order", MOMENTS_RUNS, ids=[f"{c}-{k}" for c, k in MOMENTS_RUNS])
def test_moments_bytes_in_a_child(case, order):
    expected = (DATA / case / f"moments-{order}.json").read_bytes()
    assert _child("moments", DATA / case / "measure.json", "--order", order) == (0, expected, b"")


def test_chambers_bytes_in_a_child(tmp_path):
    inputs = DATA / "chambers_rational"
    out, svg_path = tmp_path / "chambers.json", tmp_path / "map.svg"
    argv = ["chambers", inputs / "vertices.json", inputs / "measure.json", "--svg", svg_path, "--out", out]
    assert _child(*argv) == (0, b"", b"")
    assert svg_path.read_bytes() == (inputs / "chambers.svg").read_bytes()
    assert out.read_bytes() == (inputs / "chambers.json").read_bytes()
