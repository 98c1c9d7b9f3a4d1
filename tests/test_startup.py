"""Importing `singdet.cli` compiles and builds only what the report commands
run: no module of the package imports `dataclasses`, none imports the
reference routes at module level, only three verify suites and the
generator search import them at all, and `invariants` and `obstruct` load
neither `singdet.reference` nor `dataclasses`, `fractions`, `random` or
`typing` on any bundled corpus file."""

import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PKG = os.path.join(SRC, "singdet")
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


def imports(source: str, module_level: bool) -> list[tuple[str, int]]:
    """(module, line) of each import in source, relative ones named under
    singdet; with module_level, only those that run when the module is
    imported, that is, outside function bodies."""
    out = []
    todo = [ast.parse(source)]
    while todo:
        node = todo.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "singdet" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            if node.module is None:  # from . import name: name is a module
                out += [(f"{module}.{alias.name}", node.lineno) for alias in node.names]
            else:
                out.append((module, node.lineno))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda item: item[1])


def read(module: str) -> str:
    with open(os.path.join(PKG, module)) as fh:
        return fh.read()


def test_the_check_sees_module_level_and_dataclass_imports():
    planted = ("from dataclasses import dataclass\nfrom . import reference\n"
               "class C:\n    from .reference import x\n"
               "def f():\n    import dataclasses\n    from .reference import y\n")
    assert imports(planted, module_level=True) == [
        ("dataclasses", 1), ("singdet.reference", 2), ("singdet.reference", 4)]
    assert [m for m, _ in imports(planted, module_level=False)].count("dataclasses") == 2


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    assert [line for name, line in imports(read(module), module_level=False) if name == "dataclasses"] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_the_reference_routes_at_module_level(module):
    assert [line for name, line in imports(read(module), module_level=True)
            if name == "singdet.reference"] == []


def reference_importers(source: str, stem: str) -> set[str]:
    """'stem.function' for each import of the reference routes in source,
    named by the innermost function around it ('stem.<module>' outside any)."""
    functions = sorted((node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(source))
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    out = set()
    for name, line in imports(source, module_level=False):
        if name == "singdet.reference":
            around = [f for start, end, f in functions if start <= line <= end]
            out.add(f"{stem}.{around[-1] if around else '<module>'}")
    return out


def test_only_the_verify_suites_and_the_generator_search_import_the_reference_routes():
    planted = ("from .reference import w\n"
               "def f():\n    def g():\n        from . import reference\n    from .reference import x\n")
    assert reference_importers(planted, "m") == {"m.<module>", "m.f", "m.g"}
    found = set().union(*(reference_importers(read(m), m[:-3]) for m in MODULES if m != "reference.py"))
    assert found == {"cli._suite_invariance", "cli._suite_endtoend", "obstruct._generator_form_value"}


SCRIPT = """
import json, sys
from singdet.cli import main
for path in sys.argv[1:]:
    for command in ("invariants", "obstruct"):
        if main([command, path]) != 0:
            raise SystemExit(f"{command} failed on {path}")
print(json.dumps(sorted(sys.modules)))
"""


def test_the_report_commands_load_no_reference_code(tmp_path):
    corpus = os.path.join(PKG, "corpus")
    bare = tmp_path / "bare.txt"
    bare.write_text("2\n-1 1\n0 -1\n")
    with open(os.path.join(corpus, "p3_3_3.txt")) as fh:
        text = fh.read()
    assert "seifert:" in text
    pd_only = tmp_path / "pd_only.txt"
    pd_only.write_text(next(line for line in text.splitlines() if line.startswith("pd:")) + "\n")
    bundled = sorted(os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".txt"))
    assert len(bundled) >= 39
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # -S: no site hooks, which may import any of these modules themselves
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT, str(bare), str(pd_only), *bundled],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"singdet.cli", "singdet.obstruct", "singdet.diagrams"} <= loaded
    assert {"singdet.reference", "dataclasses", "fractions", "random", "typing"} & loaded == set()
