"""No module of the package imports a name it never uses."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "singdet")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
EXEMPT = {"annotations"}  # from __future__ import annotations


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in EXEMPT:
                    bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("from fractions import Fraction\nimport os\nos.sep\n") == [
        "Fraction (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport a.b as c\nc\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []
