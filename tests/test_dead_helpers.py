"""No private helper of the package outlives its last caller.

Every module-level private function or class, and every private
non-dunder method, must be referenced by name somewhere in the package
outside its own definition: as a name, an attribute or an imported alias.
A helper that only calls itself, or is only called from helpers that are
themselves unreferenced, counts as unreferenced.  Public functions,
classes and methods are held to the same rule, where references from the
tests and the benchmark count too: public contracts that tests use stay.
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
    return unreferenced(sources, [], _is_private)


def unreferenced_public(sources: dict[str, str], readers: list[str]) -> list[str]:
    """The same for each public function, class or method in sources,
    where the code in readers (the tests and the benchmark) refers too."""
    return unreferenced(sources, readers, lambda name: not name.startswith("_"))


def unreferenced(sources: dict[str, str], readers: list[str], checked) -> list[str]:
    """'module: name (line n)' for each definition in sources whose name
    passes `checked` and that no code in sources or readers names outside
    its own definition; code found dead does not count."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = sum((_references(ast.parse(text)) for text in readers), Counter())
    refs += sum((_references(tree) for tree in trees.values()), Counter())
    helpers = {}
    for module, tree in trees.items():
        nodes = [node for node in tree.body if isinstance(node, DEFS)]
        nodes += [item for node in tree.body if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, DEFS)]
        helpers.update({f"{module}: {node.name} (line {node.lineno})": node
                        for node in nodes if checked(node.name)})
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


def test_the_check_sees_an_unreferenced_public_name():
    planted = {
        "a": "def dead():\n    pass\n\ndef tested():\n    pass\n\ndef used():\n    return 1\n\n"
             "class Kept:\n    def gone(self):\n        pass\n    def __init__(self):\n        used()\n\n"
             "def only_from_dead():\n    pass\n\ndef dead_caller():\n    only_from_dead()\n",
        "b": "from .a import Kept\n",
    }
    assert unreferenced_public(planted, ["from a import tested\n"]) == [
        "a: dead (line 1)", "a: dead_caller (line 19)", "a: gone (line 11)", "a: only_from_dead (line 16)"]


def read_modules(folder: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                out[name[:-3]] = fh.read()
    return out


def test_every_public_name_is_referenced():
    root = os.path.join(SRC, "..", "..")
    readers = [text for folder in ("tests", "perfbench")
               for text in read_modules(os.path.join(root, folder)).values()]
    assert unreferenced_public(read_modules(SRC), readers) == []
