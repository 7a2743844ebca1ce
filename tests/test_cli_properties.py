"""Malformed input files through `cli.main` as a hypothesis property.

Each example takes the valid pentagon files of one command, changes one node
of one file (deletes it, duplicates a list entry, or replaces it by null, a
bool, a float, a huge int, "1/0", a digit string or nested lists) and runs
the command in process.  Whatever the change, the command must end with a
documented exit code and at most one bounded line on stderr, in bounded time.
A null, bool, float, "1/0" or nested-list value is valid nowhere in these
files, and a digit string nowhere a list is due (a point "10" is not the
point (1, 0)), so there it must exit exactly 2.  Runs derandomized, so a
failure repeats from run to run.
"""

import contextlib
import copy
import io
import json
import tempfile
import time
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from polymom import VertexSet, WeightedMeasure, jsonio, measure_moments  # noqa: E402
from polymom.cli import main  # noqa: E402

PENTAGON = VertexSet(2, [(1, 0), (2, 1), (1, 2), (0, 1), (0, 0)])
MEASURE = WeightedMeasure(PENTAGON, [((2, 3, 4), 1), ((1, 3, 4), -22), ((1, 2, 4), 26), ((0, 1, 4), -2)])
FILES = {
    "vertices": jsonio.vertex_set_to_json(PENTAGON),
    "measure": jsonio.measure_to_json(MEASURE),
    "table": jsonio.moment_table_to_json(measure_moments(MEASURE, 2)),
}
# each command: the files it reads, then its options; OUT and SVG stand for output paths
COMMANDS = {
    "invert": (["vertices", "table"], ["--out", "OUT", "--svg", "SVG"]),
    "moments": (["measure"], ["--order", "2", "--out", "OUT"]),
    "genfunc": (["measure"], ["--out", "OUT"]),
    "chambers": (["vertices", "measure"], ["--svg", "SVG", "--out", "OUT"]),
}
REPLACEMENTS = {
    "null": None, "bool": True, "float": 0.5, "huge int": 10**40, "1/0": "1/0", "digit string": "10",
    "nested lists": [[1, [2]]],
}
MUTATIONS = ["delete", "duplicate", *REPLACEMENTS]
MALFORMED = {"null", "bool", "float", "1/0", "nested lists"}


def nodes(data, path=()):
    """Every path into a JSON tree, the root's () included."""
    yield path
    children = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(data, path, mutation):
    if not path:
        return REPLACEMENTS[mutation]
    data = copy.deepcopy(data)
    parent, key = reduce(getitem, path[:-1], data), path[-1]
    if mutation == "delete":
        del parent[key]
    elif mutation == "duplicate":
        parent.insert(key, parent[key])
    else:
        parent[key] = REPLACEMENTS[mutation]
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_mutated_input_exits_documented_code_in_one_line(command, data):
    names, options = COMMANDS[command]
    target = data.draw(st.sampled_from(names))
    path = data.draw(st.sampled_from(list(nodes(FILES[target]))))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    assume(path or mutation in REPLACEMENTS)
    assume(mutation != "duplicate" or isinstance(reduce(getitem, path[:-1], FILES[target]), list))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for name in names:
            content = mutate(FILES[name], path, mutation) if name == target else FILES[name]
            argv.append(str(Path(tmp, f"{name}.json")))
            Path(argv[-1]).write_text(json.dumps(content))
        outputs = {"OUT": str(Path(tmp, "out.json")), "SVG": str(Path(tmp, "map.svg"))}
        argv += [outputs.get(o, o) for o in options]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    replaced = reduce(getitem, path, FILES[target])
    malformed = mutation in MALFORMED or (mutation == "digit string" and isinstance(replaced, list))
    assert code in ((2,) if malformed else (0, 2, 3, 4)), err.getvalue()
    assert err.getvalue().count("\n") <= 1 and len(err.getvalue()) <= 300, err.getvalue()
    assert elapsed < 5
