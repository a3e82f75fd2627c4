"""Dead-code check on the package source, with the standard library's ast.

An import that a module never reads, or a private module-level name
(one leading underscore) that neither its module nor another module of
the package reads, fails the test. So does a public module-level
function or class that no module of the package reads and __init__.py
does not export, unless ALLOWED names it with its reason. The imports
of __init__.py are its re-exports and are not checked. A public method
of a package class fails too when no file under src/, tests/ or bench/
reads an attribute of its name off anything but an imported module.
The match is by name alone, so a data attribute of the same name, read
anywhere, keeps a method alive.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "prelieder"
READERS = ("src", "tests", "bench")  # the files whose attribute reads keep a method alive

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


def _public_methods(tree):
    """(class, name, line) of the public methods of the module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


def _attributes_read(tree) -> set:
    """The names the module reads as attributes, except those it reads
    off a module it imports (import m; m.name)."""
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    }


def unread_methods(trees: dict, readers) -> list:
    """'module:line Class.name' for each public method of a class in trees
    whose name no tree of readers reads as an attribute (_attributes_read)."""
    read = set().union(*map(_attributes_read, readers))
    return [
        f"{module}:{line} {cls}.{name}"
        for module, tree in trees.items()
        for cls, name, line in _public_methods(tree)
        if name not in read
    ]


def test_package_has_no_unused_imports_or_private_names():
    assert dead_code(_trees(), ALLOWED) == []


def test_every_public_method_is_read():
    readers = [ast.parse(p.read_text(), str(p)) for d in READERS for p in sorted((REPO / d).rglob("*.py"))]
    assert unread_methods(_trees(), readers) == []


def test_unread_method_check_sees_each_kind():
    # the check itself: a method read as an attribute anywhere in the
    # readers is kept; one only assigned to, named in a string or read
    # off an imported module is not; private methods, dunders and nested
    # classes are not checked
    package = ast.parse(
        "class A:\n"
        "    def read(self):\n"
        "        return self.elsewhere()\n"
        "    def elsewhere(self):\n"
        "        pass\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def prod(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        pass\n"
        "def outer():\n"
        "    class Inner:\n"
        "        def inner(self):\n"
        "            pass\n"
    )
    test = ast.parse("import exact as X\nA().read()\nA.stored = None\ngetattr(A, 'unread')\nX.prod()\n")
    assert unread_methods({"m": package}, [package, test]) == ["m:6 A.unread", "m:8 A.stored", "m:10 A.prod"]


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
