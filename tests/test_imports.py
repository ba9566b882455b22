"""Every name a brauerkit module imports is used in that module, and
every public name it defines is named outside its own definition.

No linter is a dependency, so this reads each module with the standard
library's ast: a name bound by an import statement must appear as a
Name, alone or as the base of an attribute chain.  No module declares
__all__, so nothing is imported only to be re-exported.

A public top-level function or class, and a public method or property
of a public class, must be named by an identifier somewhere outside its
own definition, in the package or in perfbench; perfbench's span table
also names what it traces by strings, "name" or "Class.member".  Words
inside other strings and docstrings do not count.  Otherwise KEPT says
why the name stays.
"""

import ast
from collections import Counter
from pathlib import Path

import brauerkit

PACKAGE = Path(brauerkit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that only tests call, each with the reason it stays
KEPT = {
    "brauer_algebra.br_add": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.br_scale": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.br_zero": "linear structure of Br_delta; oracle of the bilinearity tests",
    "brauer_algebra.BrElement.coefficient": "linear structure of Br_delta; the tests read it",
    "brauer_algebra.br_tensor": "ROADMAP item 20 (loop forms)",
    "brauer_algebra.is_walled": "ROADMAP item 4 (the classical-group link)",
    "coloured.to_walled_normal_form": "ROADMAP item 4 (the classical-group link)",
    "coloured.cup_coloured": "test oracle for the compact closed laws",
    "coloured.dual_coloured": "test oracle for the compact closed laws",
    "coloured.reversed_omega": "test oracle for the compact closed laws",
    "graph.Graph.inner_edges": "test oracle for the edge count of a substitution colimit",
    "graph.compose_morphisms": "test oracle for composites of etale maps",
    "graph.validate_embedding": "test oracle for the embeddings of graph substitution",
    "substitution.check_deletion_coherence": "test oracle for the deletion law",
    "substitution.identity_gog": "test oracle for the unit of substitution",
    "pairing.Pairing.apply": "ROADMAP item 6 decides it; seed API",
    "pairing.compose_pairings": "ROADMAP item 6 decides it; seed API",
    "pairing.pairing_to_json": "ROADMAP item 6 decides it; seed API",
    "pairing.pairing_from_json": "ROADMAP item 6 decides it; seed API",
    "species.contract_free_element": "ROADMAP item 10 (contraction on the free objects)",
    "species.species_to_json": "writes the species document the CLI reads",
    "species.presheaf_to_json": "writes the presheaf document the CLI reads",
    "substitution.gog_to_json": "writes the graph-of-graphs document the CLI reads",
    "wiring.one_point_algebra": "the terminal circuit algebra (ROADMAP, Settled)",
}


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


def identifiers(node):
    """The identifiers under node, with repeats: names, attributes and
    imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def public_defs(tree):
    """(name or Class.member, node) of each public top-level def or class
    of tree, and of each public method or property of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def unnamed_public(modules, others=()):
    """module.key of each public def of modules whose name no identifier
    outside its own definition, in modules or others, spells, and whose
    key no string of others is."""
    named = sum((identifiers(t) for t in (*modules.values(), *others)), Counter())
    strings = {sub.value for t in others for sub in ast.walk(t)
               if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    return [f"{module}.{key}"
            for module, tree in modules.items() for key, node in public_defs(tree)
            if named[node.name] == identifiers(node)[node.name] and key not in strings]


def test_unnamed_public_names_are_found():
    modules = {
        "a": ast.parse('"""Uses helper."""\ndef helper(): pass\ndef orphan(): pass\n'
                       "class Lonely: pass\ndef _private(): pass\n"
                       "def recursive(): return recursive()\n"
                       "def quoted(): pass\nLABEL = 'quoted'\n"),
        "b": ast.parse("from a import orphan as o\n"
                       "class Box:\n"
                       "    def used(self): return self.inner()\n"
                       "    def inner(self): pass\n"
                       "    def idle(self): return self.idle()\n"
                       "    @property\n"
                       "    def size(self): return 0\n"
                       "    def traced(self): pass\n"
                       "    def _hidden(self): pass\n"
                       "Box().used()\n"),
        "c": ast.parse("def traced(): pass\n"),
    }
    bench = ast.parse('SPANS = [("c", "traced"), ("b", "Box.traced")]\n')
    assert unnamed_public(modules, [bench]) == [
        "a.helper", "a.Lonely", "a.recursive", "a.quoted", "b.Box.idle", "b.Box.size"]


def test_every_public_name_is_named_or_kept():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    found = set(unnamed_public(modules, bench))
    assert sorted(found - KEPT.keys()) == []  # give each a caller, delete it or keep it
    assert sorted(KEPT.keys() - found) == []  # named now: drop it from KEPT
