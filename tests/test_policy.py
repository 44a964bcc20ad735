"""The package runs on the standard library alone and never on floats."""

import ast
import sys
from pathlib import Path

import pytest

import realcover

SOURCES = sorted(Path(realcover.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"plsim.py", "arcs.py", "cli.py", "__init__.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    imported = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float(path):
    floats = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float"
    ]
    assert floats == []
