"""README.md stays runnable: its Python blocks run as written, and every
`polymom` command line it shows parses with the CLI's own parser."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from polymom.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
COMMAND_LINES = [
    line.strip()
    for lang, body in BLOCKS
    if lang != "python"
    for line in body.splitlines()
    if line.strip().startswith("polymom ")
]


def test_python_blocks_run_in_order():
    assert len(PYTHON_BLOCKS) >= 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for body in PYTHON_BLOCKS:
            exec(compile(body, "README.md", "exec"), namespace)
    assert out.getvalue().splitlines()[0] == "1 -22 26 15 -16 -2"


def test_command_lines_found():
    assert len(COMMAND_LINES) >= 6


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README shows a command the CLI rejects: {line}")
    assert args.command == argv[0]
