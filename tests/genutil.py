"""Helpers shared by the test modules: seeded graph generators,
circuit-algebra tables renamed to plain labels, and in-process CLI runs."""

import json

from brauerkit.cli import run
from brauerkit.graph import empty, make_graph, make_xgraph
from brauerkit.substitution import make_gog
from brauerkit.wiring import TableCircuitAlgebra, enumerate_wirings, pairing_algebra, tabulate


def renamed(T):
    """T with every carrier element renamed to its index, so that the
    table serializes and violation details print without element reprs."""
    idx = {w: {x: i for i, x in enumerate(xs)} for w, xs in T.carriers.items()}
    carriers = {w: tuple(range(len(xs))) for w, xs in T.carriers.items()}
    entries = []
    for wd, rows in T.table.items():
        entries.append((wd, {
            tuple(idx[bw][x] for bw, x in zip(wd.block_types, combo)):
                idx[wd.output_word][out]
            for combo, out in rows.items()}))
    return TableCircuitAlgebra(T.palette, T.bound, carriers, entries)


def renamed_pairing_table(palette, bound=2):
    """pairing_algebra tabulated over its two-block enumerate_wirings
    universe, renamed to indices."""
    A = pairing_algebra(palette, bound)
    words = list(A.words())
    return renamed(tabulate(A, enumerate_wirings(palette, words, words, max_blocks=2)))


def random_graph(rng, max_vertices=4, max_orbits=5):
    """Arbitrary involutive graph; edges attach independently or stay ports."""
    nv = rng.randint(0, max_vertices)
    vertices = list(range(1, nv + 1))
    k = rng.randint(1, max_orbits)
    edges = list(range(1, 2 * k + 1))
    tau = [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    halves = []
    for e in edges:
        if vertices and rng.random() < 0.7:
            halves.append((e, rng.choice(vertices)))
    return make_graph(edges, tau, halves, vertices)


def random_connected_graph(rng, max_vertices=3, max_orbits=5):
    """Connected involutive graph: a single stick when it has no vertices,
    else a random spanning tree of inner orbits plus extra orbits, each
    a port or an inner orbit between any two vertices (loops and parallel
    edges included)."""
    nv = rng.randint(0, max_vertices)
    if nv == 0:
        return make_graph([1, 2], [(1, 2)], [], [])
    vertices = list(range(1, nv + 1))
    ends = [(v, rng.randint(1, v - 1)) for v in vertices[1:]]
    for _ in range(rng.randint(0 if ends else 1, max_orbits - len(ends))):
        port = rng.random() < 0.4
        ends.append((rng.choice(vertices), None if port else rng.choice(vertices)))
    edges, tau, halves = [], [], []
    for i, (u, w) in enumerate(ends):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [a, b]
        tau.append((a, b))
        halves.append((a, u))
        if w is not None:
            halves.append((b, w))
    return make_graph(edges, tau, halves, vertices)


def random_admissible(rng, x_labels, max_vertices=2, max_extra=2):
    """Admissible graph over the given port labels: one attached partner
    per port, plus some fully attached inner orbits."""
    xs = list(x_labels)
    if not xs and rng.random() < 0.3:
        return make_xgraph(empty(), {})
    nv = rng.randint(1, max_vertices)
    vertices = [("u", i) for i in range(1, nv + 1)]
    edges, tau, halves = [], [], []
    rho = {}
    for i, x in enumerate(xs, 1):
        p, q = ("p", i), ("q", i)
        edges.extend((p, q))
        tau.append((p, q))
        halves.append((q, rng.choice(vertices)))
        rho[p] = x
    lo = 0 if xs else 1
    for j in range(1, rng.randint(lo, max_extra) + 1):
        a, b = ("a", j), ("b", j)
        edges.extend((a, b))
        tau.append((a, b))
        halves.append((a, rng.choice(vertices)))
        halves.append((b, rng.choice(vertices)))
    g = make_graph(edges, tau, halves, vertices)
    return make_xgraph(g, rho)


def random_gog(rng, base, max_vertices=2, max_extra=2):
    assign = {
        v: random_admissible(rng, base.vertex_edges(v), max_vertices, max_extra)
        for v in base.vertices
    }
    return make_gog(base, assign)


def cli(capsys, *argv):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.splitlines() == [err.rstrip("\n")]
