"""No module of the package imports a name it never uses, the Wall route
reaches no module but the two it is built on, the diagram oracles and
the corpus loader reach none of the routes they are checked against, and
`reference` holds only what the rest of the package runs: the oracles
that only the tests read live in `tests/oracles.py`."""

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


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, at any depth of its body."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("singdet."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module
            elif node.module == "singdet" or (node.module or "").startswith("singdet."):
                path = node.module.partition(".")[2]
            else:
                continue
            out.update([path.split(".")[0]] if path else (a.name for a in node.names))
    return out


def reached(start: str, sources: dict[str, str]) -> set[str]:
    """The modules that `start` imports, transitively; sources maps a module
    name to its source text."""
    seen, todo = set(), [start]
    while todo:
        for name in package_imports(sources[todo.pop()]) - seen:
            seen.add(name)
            if name in sources:
                todo.append(name)
    return seen - {start}


def test_the_check_follows_imports_inside_functions():
    planted = {
        "top": "from .mid import f\n",
        "mid": "def f():\n    from singdet import low\n    import singdet.deep.x\n",
        "low": "from . import top\nimport os\n",
        "deep": "",
    }
    assert reached("top", planted) == {"mid", "low", "deep"}
    assert reached("low", planted) == {"top", "mid", "deep"}


@pytest.fixture(scope="module")
def sources() -> dict[str, str]:
    out = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            out[module[:-3]] = fh.read()
    return out


def test_the_wall_route_reaches_only_its_kernels(sources):
    """linkform reads the linking form through exactlinalg and numtheory
    alone, so it cannot reach seifert's mod-p elimination, the definition
    route that the tests check it against."""
    assert reached("linkform", sources) == {"exactlinalg", "numtheory"}


def test_the_diagram_oracles_reach_no_route_they_check(sources):
    """The bracket and the Q skein in diagrams are checked against the
    closed forms of evaluate, which read seifert and linkform; diagrams
    reaches the rings and the matrix kernels alone, and no route reaches
    diagrams back."""
    assert reached("diagrams", sources) == {"rings", "exactlinalg", "numtheory"}
    for route in ("evaluate", "seifert", "linkform"):
        assert "diagrams" not in reached(route, sources), route


def test_the_rings_reach_only_the_kernels(sources):
    assert reached("rings", sources) <= {"exactlinalg", "numtheory"}


def test_the_corpus_loader_reaches_no_route(sources):
    """Loading a corpus entry parses a diagram or a matrix and builds its
    presentation, with no per-prime route on the way."""
    assert reached("corpus", sources) == {"diagrams", "rings", "exactlinalg", "numtheory"}


def definitions(source: str) -> dict[str, ast.AST]:
    return {node.name: node for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def reference_closure(sources: dict[str, str]) -> set[str]:
    """The top-level definitions of `reference` that the other modules
    import from it, and those that these name, transitively."""
    defs = definitions(sources["reference"])
    todo = [alias.name for module, text in sources.items() if module != "reference"
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, "reference"), (0, "singdet.reference"))
            for alias in node.names]
    seen = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [ref for node in ast.walk(defs[name])
                     if (ref := getattr(node, "id", None) or getattr(node, "attr", None)) in defs]
    return seen


def test_the_check_follows_the_reference_definitions():
    planted = {
        "reference": "def kept():\n    return helper()\n\ndef helper():\n    pass\n\n"
                     "class Run:\n    pass\n\ndef tested():\n    return kept()\n",
        "cli": "def suite():\n    from .reference import kept\n",
        "obstruct": "from singdet.reference import Run\n",
    }
    assert reference_closure(planted) == {"kept", "helper", "Run"}


def test_reference_holds_only_what_the_package_runs(sources):
    """Every definition of `reference` is reached from what the verify
    suites and the generator search import; a route that only the tests
    read belongs in `tests/oracles.py`."""
    assert sorted(set(definitions(sources["reference"])) - reference_closure(sources)) == []
