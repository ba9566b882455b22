"""Every cache that lives as long as a brauerkit module has a size limit.

This reads each module with the standard library's ast, as
test_imports does.  Outside function bodies (at module level and in
class bodies, decorators of top-level functions included), lru_cache
must be called with an integer maxsize, and functools.cache and
lru_cache(maxsize=None) may not appear at all.  Inside a function body
they are per-call memos that go away with the call, and are allowed.
"""

import ast
from pathlib import Path

import brauerkit

PACKAGE = Path(brauerkit.__file__).parent


def _name(node):
    # "cache" for cache, functools.cache and the like, else None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bounded(call):
    # an lru_cache(...) call whose maxsize is an integer constant
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return bool(sizes) and isinstance(sizes[0], ast.Constant) \
        and type(sizes[0].value) is int


def unbounded_caches(tree):
    """(line, text) of every cache outside function bodies without a size limit."""
    found = []

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators and defaults run where the function is defined
            outer = getattr(node, "decorator_list", []) + node.args.defaults \
                + [d for d in node.args.kw_defaults if d is not None]
            for child in outer:
                visit(child, in_function)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, True)
            return
        if not in_function:
            if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
                if not _bounded(node):
                    found.append((node.lineno, ast.unparse(node)))
                for child in node.args + [kw.value for kw in node.keywords]:
                    visit(child, in_function)
                return
            if _name(node) in ("cache", "lru_cache") and isinstance(node.ctx, ast.Load):
                found.append((node.lineno, ast.unparse(node)))
                return
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return sorted(found)


def test_unbounded_caches_are_found():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@functools.lru_cache(maxsize=64)\ndef d(): pass\n"
        "@lru_cache(8, typed=True)\ndef e(): pass\n"
        "class K:\n    @functools.cache\n    def f(self): pass\n"
        "g = lru_cache(maxsize=None)(len)\n"
        "def h():\n"
        "    memo = cache(lambda x: x)\n"
        "    @lru_cache(maxsize=None)\n    def inner(): pass\n"
    )
    assert unbounded_caches(tree) == [
        (3, "cache"), (5, "lru_cache(maxsize=None)"), (7, "lru_cache"),
        (14, "functools.cache"), (16, "lru_cache(maxsize=None)"),
    ]


def test_module_level_caches_are_bounded():
    found = {path.name: unbounded_caches(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
