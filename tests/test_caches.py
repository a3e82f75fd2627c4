"""Every process-wide cache of the package, with the standard library's ast.

functools.cache and lru_cache keep their arguments and results for the
life of the process. A cache that held structure data or results would
keep every structure a caller passed alive and grow with them, so the
package caches only what depends on no structure, and ALLOWED names
each cache with what it holds. A cache that ALLOWED does not name fails
the test, and so does a name in ALLOWED that is no longer a cache.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prelieder"

# 'module:function' of every cached function, and what its cache holds
ALLOWED = {
    "io_cli:_build_parser": "the one argument parser; it takes no arguments",
    "cohomology:_block": "the basis keys and offsets of one block, keyed by SplitDims, MixedShape and target",
    "cohomology:_degree_plan": (
        "the specs, block layouts and dim of one C^n with 1 <= n <= dim g + 2, "
        "keyed by complex id, dim g, dim V and n"
    ),
}

CACHES = ("cache", "lru_cache")


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def caches(trees: dict) -> list:
    """'module:function' of each function decorated with functools.cache or
    lru_cache, and 'module:line' of each other use of either."""
    found = []
    for module, tree in trees.items():
        modules, names = set(), set()  # the names functools and its caches are bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                names |= {a.asname or a.name for a in node.names if a.name in CACHES}

        def is_cache(expr):
            if isinstance(expr, ast.Name):
                return expr.id in names
            return (
                isinstance(expr, ast.Attribute)
                and expr.attr in CACHES
                and isinstance(expr.value, ast.Name)
                and expr.value.id in modules
            )

        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    ref = dec.func if isinstance(dec, ast.Call) else dec
                    if is_cache(ref):
                        decorators.add(ref)
                        found.append(f"{module}:{node.name}")
        found += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and is_cache(node) and node not in decorators
        ]
    return found


def test_every_cache_is_allowed_and_every_allowed_name_is_a_cache():
    assert sorted(caches(_trees())) == sorted(ALLOWED)


def test_cache_check_sees_each_form():
    # the check itself: both import forms, aliases, the called form of
    # lru_cache, methods, and a cache applied without a decorator; other
    # decorators and a local name cache are not caches
    source = {
        "a": "import functools\n"
        "from functools import cache, lru_cache as memo, wraps\n"
        "@functools.cache\n"
        "def one():\n"
        "    return 1\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def two(x):\n"
        "    return x\n"
        "@cache\n"
        "def three(x):\n"
        "    return x\n"
        "class K:\n"
        "    @memo(None)\n"
        "    def four(self):\n"
        "        return 4\n"
        "    @property\n"
        "    def plain(self):\n"
        "        return 5\n"
        "five = functools.lru_cache(None)(one)\n",
        "b": "import functools as ft\n"
        "@ft.cache\n"
        "def six():\n"
        "    return 6\n"
        "@ft.wraps(six)\n"
        "def seven():\n"
        "    cache = {}\n"
        "    return cache\n",
    }
    trees = {name: ast.parse(text) for name, text in source.items()}
    assert sorted(caches(trees)) == sorted(["a:one", "a:two", "a:three", "a:four", "a:19", "b:six"])
