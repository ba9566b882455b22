"""Every name a brauerkit module imports is used in that module.

No linter is a dependency, so this reads each module with the standard
library's ast: a name bound by an import statement must appear as a
Name, alone or as the base of an attribute chain.  No module declares
__all__, so nothing is imported only to be re-exported.
"""

import ast
from pathlib import Path

import brauerkit

PACKAGE = Path(brauerkit.__file__).parent


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nimport x.y\nx.y.z(c)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "e")]


def test_no_module_imports_an_unused_name():
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
