"""Byte pins of `polymom invert` on three committed inputs.

Each case under tests/data holds `vertices.json` and `table.json` and the
expected bytes of one run per entry of RUNS: the `--out` JSON, the SVG when
`--svg` is given, stderr, and the exit code below.  The cases are a strong
2-d set of 12 rational points (order 9), a weak grid multiset of 9 points
with its chamber map, and a singular grid multiset of 7 points, run with
and without `--svg`.
"""

from pathlib import Path

import pytest

from polymom.cli import main

DATA = Path(__file__).parent / "data"

# (case directory, run name, write an SVG, expected exit code)
RUNS = [
    ("strong_d2n12", "invert", False, 0),
    ("weak_n9", "invert-svg", True, 0),
    ("singular_n7", "invert", False, 4),
    ("singular_n7", "invert-svg", True, 4),
]


@pytest.mark.parametrize("case, run, svg, code", RUNS, ids=[f"{c}-{r}" for c, r, _, _ in RUNS])
def test_invert_bytes(case, run, svg, code, tmp_path, capsys):
    inputs = DATA / case
    out, svg_path = tmp_path / "rec.json", tmp_path / "map.svg"
    argv = ["invert", str(inputs / "vertices.json"), str(inputs / "table.json"), "--out", str(out)]
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
