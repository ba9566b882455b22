"""Every name a brauerkit module imports is used in that module, and
every public name it defines is named outside its own definition.

No linter is a dependency, so this reads each module with the standard
library's ast: a name bound by an import statement must appear as a
Name, alone or as the base of an attribute chain.  No module declares
__all__, so nothing is imported only to be re-exported.

A public top-level function or class must be named somewhere else in
the package or in perfbench, whose span table names what it traces by
dotted strings; otherwise KEPT says why it stays.
"""

import ast
import re
from pathlib import Path

import brauerkit

PACKAGE = Path(brauerkit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that only tests call, each with the reason it stays
KEPT = {
    "brauer_algebra.br_add": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.br_scale": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.br_zero": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.br_tensor": "ROADMAP item 20 (loop forms)",
    "brauer_algebra.is_walled": "ROADMAP item 4 (the classical-group link)",
    "coloured.to_walled_normal_form": "ROADMAP item 4 (the classical-group link)",
    "coloured.cup_coloured": "test oracle for the compact closed laws",
    "coloured.dual_coloured": "test oracle for the compact closed laws",
    "coloured.reversed_omega": "test oracle for the compact closed laws",
    "graph.compose_morphisms": "test oracle for composites of etale maps",
    "graph.validate_embedding": "test oracle for the embeddings of graph substitution",
    "substitution.check_deletion_coherence": "test oracle for the deletion law",
    "substitution.identity_gog": "test oracle for the unit of substitution",
    "pairing.compose_pairings": "ROADMAP item 6 decides it; seed API",
    "pairing.pairing_to_json": "ROADMAP item 6 decides it; seed API",
    "pairing.pairing_from_json": "ROADMAP item 6 decides it; seed API",
    "species.contract_free_element": "ROADMAP item 10 (contraction on the free objects)",
    "species.species_to_json": "writes the species document the CLI reads",
    "species.presheaf_to_json": "writes the presheaf document the CLI reads",
    "substitution.gog_to_json": "writes the graph-of-graphs document the CLI reads",
    "wiring.one_point_algebra": "the terminal circuit algebra (ROADMAP, Settled)",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def names(node):
    """The names node mentions: identifiers, attributes, imported names,
    and the identifier-like words of its strings and docstrings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.update(WORD.findall(sub.value))
    return out


def unnamed_public(modules, others=()):
    """module.name of each public top-level def or class of modules that
    no other module, none of others and no other top-level statement of
    its own module names."""
    found = []
    for module, tree in modules.items():
        elsewhere = set().union(*(names(t) for m, t in modules.items() if m != module),
                                *map(names, others))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in elsewhere
                    and not any(node.name in names(top) for top in tree.body if top is not node)):
                found.append(f"{module}.{node.name}")
    return found


def test_unnamed_public_names_are_found():
    modules = {
        "a": ast.parse('"""Uses helper."""\ndef helper(): pass\ndef orphan(): pass\n'
                       "class Lonely: pass\ndef _private(): pass\n"
                       "def recursive(): return recursive()\n"),
        "b": ast.parse("from a import orphan as o\n"),
        "c": ast.parse("def traced(): pass\n"),
    }
    bench = ast.parse('SPANS = ["c.traced"]\n')
    assert unnamed_public(modules, [bench]) == ["a.Lonely", "a.recursive"]


def test_every_public_name_is_named_or_kept():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    found = set(unnamed_public(modules, bench))
    assert sorted(found - KEPT.keys()) == []  # give each a caller, delete it or keep it
    assert sorted(KEPT.keys() - found) == []  # named now: drop it from KEPT
