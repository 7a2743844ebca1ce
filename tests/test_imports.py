"""Every module of the package uses each name it imports and imports only
from the standard library, every name it defines has a reader in src or a
reason to stay, the oracle shares no code with the generating-function and
inverse modules, the package binds its public names on first use, and a CLI
child loads no module its command does not run."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import polymom

MODULES = sorted(p for p in Path(polymom.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for each import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every bare name the module reads, the bases of attribute chains included."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _absolute_imports(tree):
    """(top-level module, line) of each absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name.split(".")[0], node.lineno


def test_runtime_needs_only_the_standard_library():
    """Every absolute import of the package, `__init__` included, names a standard-library module."""
    outside = [
        f"{path.name}: {name} (line {line})"
        for path in sorted(Path(polymom.__file__).parent.glob("*.py"))
        for name, line in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    ]
    assert not outside, f"imports from outside the standard library: {', '.join(outside)}"


def _package_imports(path):
    """Sibling modules a module of the package imports, relatively or by full name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["polymom" if node.level else "", node.module]))
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(n.split(".")[1] for n in dotted if n.startswith("polymom."))
    return names


def test_oracle_reaches_neither_genfunc_nor_inverse():
    package = Path(polymom.__file__).parent
    reached, todo = set(), ["oracle"]
    while todo:
        name = todo.pop()
        if name not in reached and (package / f"{name}.py").exists():
            reached.add(name)
            todo.extend(_package_imports(package / f"{name}.py"))
    assert "oracle" in reached and len(reached) > 1
    shared = sorted(reached & {"genfunc", "inverse"})
    assert not shared, f"polymom.oracle reaches {shared}"


def _calls(tree, name):
    """The top-level functions and classes of the tree that call `name` as written, a bare or a
    dotted name, and "<module>" for a call outside them.  Blind spot: a call through an alias."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == name
    }


def _callers(name):
    """{module: the top-level names in it that call `name`} over the modules that call it."""
    callers = {path.stem: _calls(ast.parse(path.read_text(encoding="utf-8")), name) for path in MODULES}
    return {stem: names for stem, names in callers.items() if names}


def test_every_form_kernel_comes_from_the_one_memo():
    assert _callers("FormKernel") == {"poly": {"form_kernel"}}


def test_only_the_package_built_tables_skip_the_checks():
    """The unchecked `MomentTable._of` takes only the tables the oracle and the series build, whose
    indices and values are canonical by construction; no reader of user input (`jsonio`, `cli`)
    reaches it, so every file goes through the checked constructor."""
    assert _callers("MomentTable._of") == {"oracle": {"measure_moments"}, "genfunc": {"series_to_moments"}}


def test_only_the_package_built_series_skip_the_checks():
    """The unchecked `Series._of` takes only the pairs `taylor` expands, `moments_to_series`
    reads off a table, `density_op` and `euler_op` map row by row from a series, and
    `Series.truncate` cuts from its own pair; every polynomial from outside goes through
    `Series(poly, order)`."""
    assert _callers("Series._of") == {
        "genfunc": {"taylor", "moments_to_series", "density_op", "euler_op"},
        "poly": {"Series"},
    }


def test_only_the_package_built_ratfuns_skip_the_checks():
    """The unchecked `RatFun._of` takes only the pairs built here: what `_divided` leaves after
    cancelling, which `measure_genfunc` and `RatFun.cancel` reach, a simplex's weight over its
    forms, and Brion's vertex sum before it cancels; every polynomial from outside goes through
    `RatFun(poly, forms)`."""
    assert _callers("RatFun._of") == {"genfunc": {"_divided", "simplex_genfunc", "brion_genfunc"}}


def test_only_the_file_reader_builds_checked_tables():
    """In src, the checked `MomentTable(...)` reads only a table file, once per `invert`; tests and
    unpickling (`Value.__reduce__`, a call by type) are its other callers."""
    assert _callers("MomentTable") == {"jsonio": {"moment_table_from_json"}}


def test_oracle_scales_its_own_points():
    """The oracle reads no `homogeneous` row: its per-simplex scale keeps it apart from the kernels it checks."""
    tree = ast.parse((Path(polymom.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    assert "homogeneous" not in _used(tree) | {name for name, _ in _imported(tree)}


def test_oracle_keeps_its_own_row_maps():
    """The oracle reads none of the kernels it checks: its density fold and shift walk the rows of
    its own plan, not `FormKernel`'s row maps or the series normalizers."""
    tree = ast.parse((Path(polymom.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    names = _used(tree) | {name for name, _ in _imported(tree)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"form_kernel", "FormKernel", "normalizers"}


# A child that imports the CLI, then runs one command, and prints the modules each step added.
BUDGET_CHILD = """
import json, sys
before = set(sys.modules)
from polymom.cli import main
imported = set(sys.modules) - before
code = main(sys.argv[1:])
print(json.dumps([code, sorted(imported), sorted(set(sys.modules) - before)]))
"""

# loaded only by commands that need them, or by nothing in the package
NOT_AT_START = {"dataclasses", "inspect", "polymom.chambers", "polymom.verify"}


def _budget(tmp_path, case, *extra):
    """(exit code, modules `import polymom.cli` added, modules added after the run)."""
    data = Path(__file__).parent / "data" / case
    argv = ["invert", str(data / "vertices.json"), str(data / "table.json"), "--out", str(tmp_path / "rec.json")]
    code, imported, after = _child(BUDGET_CHILD, *argv, *extra)
    return code, set(imported), set(after)


def test_invert_imports_neither_dataclasses_nor_chambers_nor_verify(tmp_path):
    code, imported, after = _budget(tmp_path, "strong_d2n12")
    assert code == 0 and "polymom.cli" in imported
    assert not after & NOT_AT_START  # `after` includes what the import added


def test_invert_svg_loads_chambers_and_still_not_dataclasses(tmp_path):
    code, imported, after = _budget(tmp_path, "weak_n9", "--svg", str(tmp_path / "map.svg"))
    assert code == 0 and (tmp_path / "map.svg").exists()
    assert "polymom.chambers" in after and "polymom.chambers" not in imported
    assert not after & NOT_AT_START - {"polymom.chambers"}


# (case, draw the chamber map, exit code): a strong set, a weak one with its map, and a singular one
INVERT_BUDGET_RUNS = [("strong_d2n12", False, 0), ("weak_n9", True, 0), ("singular_n7", False, 4)]


@pytest.mark.parametrize("case, svg, expected", INVERT_BUDGET_RUNS, ids=[case for case, _, _ in INVERT_BUDGET_RUNS])
def test_invert_loads_neither_the_oracle_nor_genfunc(tmp_path, case, svg, expected):
    code, _, after = _budget(tmp_path, case, *(["--svg", str(tmp_path / "map.svg")] if svg else []))
    assert code == expected
    assert not after & {"polymom.oracle", "polymom.genfunc"}


@pytest.mark.parametrize(
    "command, loaded, absent",
    [
        (["genfunc"], "polymom.genfunc", "polymom.oracle"),
        (["moments", "--order", "3"], "polymom.oracle", "polymom.genfunc"),
    ],
    ids=["genfunc", "moments"],
)
def test_genfunc_and_moments_load_only_the_module_they_run(tmp_path, command, loaded, absent):
    measure = Path(__file__).parent / "data" / "genfunc_dissection" / "measure.json"
    code, _, after = _child(BUDGET_CHILD, *command, str(measure), "--out", str(tmp_path / "out.json"))
    assert code == 0 and loaded in after
    assert absent not in after
    assert "polymom.inverse" not in after


# Every name `from polymom import *` binds: the exports, SUITE_NAMES and the submodules they come from.
SUBMODULES = {"errors", "genfunc", "geometry", "inverse", "linalg", "oracle", "poly", "value"}
PUBLIC = SUBMODULES | {
    "Classification", "Degeneracy", "DegenerateDirectionError", "DegenerateSimplexError", "DimensionError",
    "FormBasis", "IncompleteMomentsError", "LinearForm", "MomentTable", "NotSpanningError",
    "NotStronglyNonDegenerateError", "NotWeaklyNonDegenerateError", "Poly", "PolymomError", "PreconditionError",
    "RatFun", "RatMat", "Reconstruction", "SUITE_NAMES", "Series", "SimplePolytope", "SingularMatrixError",
    "TangentCone", "VertexSet", "WeightedMeasure", "axial_moment", "brion_axial_moment", "brion_genfunc",
    "brion_identity_residuals", "build_extended", "classify", "density", "density_op", "det",
    "det_factor_report", "dimension_and_basis", "euler_op", "explicit_inverse", "extended_columns",
    "mat_inverse", "measure_genfunc", "measure_moments", "moments_to_series", "monomials_of_degree",
    "monomials_upto", "product_matrix", "rat", "rat_str", "rebase", "reconstruct", "recover_numerator",
    "select_minor", "series_to_moments", "simplex", "simplex_genfunc", "simplex_monomial_moment", "solve",
    "strong_basis", "taylor", "uniform_measure", "volume",
}

# A child that reads each public name from a freshly imported package, and prints, per name, the
# module and name of the object it got: (None, None) for a submodule, and "x" for anything else.
SURFACE_CHILD = """
import json, sys
import polymom
def where(name):
    value = getattr(polymom, name)
    if value is sys.modules.get("polymom." + name):
        return None, None
    if getattr(sys.modules.get(getattr(value, "__module__", None)), getattr(value, "__name__", ""), None) is value:
        return value.__module__, value.__name__
    return "x", repr(value)
try:
    polymom.no_such_name
    unknown = "no error"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([{name: where(name) for name in sys.argv[1:]}, unknown, sorted(set(sys.argv[1:]) - set(dir(polymom)))]))
"""


def _child(code, *argv):
    """The last line of a fresh interpreter's stdout running the code, read as JSON."""
    path = [str(Path(polymom.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_star_import_binds_exactly_the_public_names():
    code = "import json; names = {}; exec('from polymom import *', names); print(json.dumps(sorted(names)))"
    assert set(_child(code)) - {"__builtins__"} == PUBLIC


def test_each_public_name_is_the_object_its_module_defines():
    found, unknown, undir = _child(SURFACE_CHILD, *sorted(PUBLIC))
    assert {name for name, (module, _) in found.items() if module is None} == SUBMODULES
    assert found.pop("SUITE_NAMES") == ["x", repr(polymom.SUITE_NAMES)]
    assert found.pop("mat_inverse") == ["polymom.linalg", "inverse"]
    named = {name: where for name, where in found.items() if name not in SUBMODULES}
    assert all(module.startswith("polymom.") and attr == name for name, (module, attr) in named.items()), named
    assert unknown == "module 'polymom' has no attribute 'no_such_name'"
    assert undir == []


ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"

# names that no src path reads, each with the reason it stays
CALLED_ONLY_BY_TESTS = {
    "suite_*": "`verify.SUITES` looks each suite up by name, `suite_` plus the CLI's suite name",
    "measure_to_json": "writes the documented measure file format; the CLI tests build inputs with it",
    "axial_moment": "the oracle's axial moment, which the tests compare with `brion_axial_moment`",
    "brion_axial_moment": "Brion's axial moment, which the tests compare with the oracle's",
}


def _definitions(tree):
    """(name, node) of each top-level function or class and of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def _reads(tree):
    """Each name the tree reads, as a bare name, an attribute or an import, with its count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def test_every_src_name_has_a_src_reader_or_a_reason():
    """Each function, class and non-dunder method of the package is read by name somewhere in
    src outside its own definition and `__init__`, or by the acceptance tests, or has a reason
    in CALLED_ONLY_BY_TESTS.  Blind spots: dunders, which the language calls, and a name that a
    local variable, a parameter or an attribute elsewhere shares, which counts as read."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    reads = sum(map(_reads, trees), Counter())
    pinned = _reads(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    prefixes = tuple(name[:-1] for name in CALLED_ONLY_BY_TESTS if name.endswith("*"))
    unread = [
        f"{path.stem}.{name}"
        for path, tree in zip(MODULES, trees)
        for name, node in _definitions(tree)
        if reads[name] == _reads(node)[name]
        and name not in pinned
        and name not in CALLED_ONLY_BY_TESTS
        and not name.startswith(prefixes)
    ]
    assert not unread, f"no src path reads {', '.join(unread)}"
