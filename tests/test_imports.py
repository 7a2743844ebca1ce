"""Every module of the package uses each name it imports, and the oracle
shares no code with the generating-function and inverse modules."""

import ast
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
