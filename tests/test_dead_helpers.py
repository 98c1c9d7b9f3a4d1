"""No private helper of the package outlives its last caller.

Every module-level private function or class, and every private
non-dunder method, must be referenced by name somewhere in the package
outside its own definition: as a name, an attribute or an imported alias.
A helper that only calls itself, or is only called from helpers that are
themselves unreferenced, counts as unreferenced.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "singdet")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _references(tree) -> Counter:
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.split(".")[-1]] += 1
            if node.asname:
                refs[node.asname] += 1
    return refs


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """'module: name (line n)' for each private helper in sources (module
    name -> text) that no code outside its own definition names, where
    code found dead does not count as a reference either."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    helpers = {}
    for module, tree in trees.items():
        nodes = [node for node in tree.body if isinstance(node, DEFS)]
        nodes += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, DEFS)]
        helpers.update({f"{module}: {node.name} (line {node.lineno})": node
                        for node in nodes if _is_private(node.name)})
    dead: dict[str, ast.AST] = {}
    while True:
        live = refs - sum((_references(node) for node in dead.values()), Counter())
        found = {key: node for key, node in helpers.items()
                 if key not in dead and live[node.name] <= _references(node)[node.name]}
        if not found:
            return sorted(dead)
        dead.update(found)


def test_the_check_sees_an_unreferenced_helper():
    planted = {
        "a": "def _dead():\n    pass\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
             "def _used():\n    return 1\n\nclass _Kept:\n    def _gone(self):\n        pass\n"
             "    def _read(self):\n        pass\n    def __init__(self):\n        self._read()\n\n"
             "def _only_from_dead():\n    pass\n\ndef _dead_caller():\n    _only_from_dead()\n",
        "b": "from .a import _used as u, _Kept\n",
    }
    assert unreferenced_helpers(planted) == [
        "a: _dead (line 1)", "a: _dead_caller (line 21)", "a: _gone (line 11)", "a: _loop (line 4)",
        "a: _only_from_dead (line 18)"]


def test_every_private_helper_is_referenced():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name[:-3]] = fh.read()
    assert unreferenced_helpers(sources) == []
