"""Dead-code check on the package source, with the standard library's ast.

An import that a module never reads, or a private module-level name
(one leading underscore) that neither its module nor another module of
the package reads, fails the test. So does a public module-level
function or class that no module of the package reads and __init__.py
does not export, unless ALLOWED names it with its reason. The imports
of __init__.py are its re-exports and are not checked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prelieder"

# public names the package itself does not read, each kept on purpose
ALLOWED = {
    "cohomology:partial_bracket": "the bracket route criterion 3 checks partial against",
    "cohomology:delta_bracket": "the bracket route criterion 3 checks delta against",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree) -> set:
    """Every name the module reads, plain or as the base of an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imports(tree):
    """(bound name, line) of every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _public_definitions(tree):
    """(name, line) of the module-level public functions and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno


def _private_definitions(tree):
    """(name, line) of the module-level private functions, classes and variables."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def dead_code(trees: dict, allowed=()) -> list:
    """'module:line name' for each unused import, unread private name and
    unread public function or class that allowed ('module:name') does
    not hold."""
    imported_from = {}  # module -> names other modules of the package import from it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported_from.setdefault(node.module, set()).update(a.name for a in node.names)
    found = []
    for module, tree in trees.items():
        read = _read_names(tree)
        if module != "__init__":
            found += [f"{module}:{line} import {name}" for name, line in _imports(tree) if name not in read]
        used = read | imported_from.get(module, set())
        found += [f"{module}:{line} {name}" for name, line in _private_definitions(tree) if name not in used]
        found += [
            f"{module}:{line} {name}"
            for name, line in _public_definitions(tree)
            if name not in used and f"{module}:{name}" not in allowed
        ]
    return found


def test_package_has_no_unused_imports_or_private_names():
    assert dead_code(_trees(), ALLOWED) == []


def test_every_allowed_name_is_still_unread():
    # an entry whose name the package now reads, or which is gone, is stale
    unread = {"{}:{}".format(f.split(":")[0], f.split()[-1]) for f in dead_code(_trees())}
    assert set(ALLOWED) <= unread


def test_dead_code_check_sees_each_kind():
    # the check itself: one unused import, one unread private function and
    # variable, and the forms it must accept
    source = {
        "a": "from __future__ import annotations\n"
        "import os\n"
        "from .b import _shared, unused\n"
        "import json\n"
        "_TABLE = 1\n"
        "def _helper():\n"
        "    from math import comb\n"
        "    return json.dumps(_shared)\n"
        "def public():\n"
        "    return _other()\n"
        "def _other():\n"
        "    return 2\n",
        "b": "_shared = 3\n_lonely = 4\n"
        "def inner():\n"
        "    return 5\n"
        "class Kept:\n"
        "    pass\n"
        "def unused():\n"
        "    return inner\n",
        "__init__": "from .a import public\n",
    }
    trees = {name: ast.parse(text) for name, text in source.items()}
    assert sorted(dead_code(trees, {"b:Kept": "why"})) == sorted(
        [
            "a:2 import os",
            "a:3 import unused",
            "a:5 _TABLE",
            "a:6 _helper",
            "a:7 import comb",
            "b:2 _lonely",
        ]
    )
    # without the allow-list entry the class is unread too
    assert "b:5 Kept" in dead_code(trees)
