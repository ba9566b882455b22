"""Seeded input generators.

Every input is built from brauerkit's public constructors and
serializers, from a `random.Random` seeded with a string, so the same
(seed, round, stream) gives the same inputs in every process and under
every hash seed.  Nothing here is timed: a workload calls these before
its timed operations.
"""

from __future__ import annotations

import random
from math import factorial, prod

from brauerkit.brauer import make_diagram
from brauerkit.brauer_algebra import ZPOLY, make_element
from brauerkit.coloured import make_coloured, monochrome_palette, oriented_palette
from brauerkit.graph import disjoint_union, is_connected, line, make_graph, make_xgraph, wheel
from brauerkit.species import make_operad_structure, species_from_circuit_algebra
from brauerkit.substitution import make_gog
from brauerkit.wiring import (
    TableCircuitAlgebra,
    enumerate_wirings,
    identity_wiring,
    pairing_algebra,
    tabulate,
)

MONO = monochrome_palette()
ORI = oriented_palette()


def rng_for(seed, round_index, stream):
    """Independent stream per (run seed, round, purpose)."""
    return random.Random(f"{seed}:{round_index}:{stream}")


# ---------------------------------------------------------------------------
# circuit-algebra tables


def pairing_table(palette, bound, rng=None):
    """The pairing algebra tabulated over its whole enumerate_wirings
    universe (two blocks, eight points), with carrier elements renamed to
    indices so the table serializes.  rng, when given, shuffles which
    element gets which index."""
    A = pairing_algebra(palette, bound)
    words = list(A.words())
    T = tabulate(A, enumerate_wirings(palette, words, words, max_blocks=2))
    index = {}
    for w, xs in T.carriers.items():
        order = list(range(len(xs)))
        if rng is not None:
            rng.shuffle(order)
        index[w] = dict(zip(xs, order))
    carriers = {w: tuple(range(len(xs))) for w, xs in T.carriers.items()}
    entries = []
    for wd, rows in T.table.items():
        entries.append((wd, {
            tuple(index[bw][x] for bw, x in zip(wd.block_types, combo)):
                index[wd.output_word][out]
            for combo, out in rows.items()}))
    return TableCircuitAlgebra(T.palette, T.bound, carriers, entries)


def corrupt_identity_row(T, rng):
    """A copy of T whose identity action on the longest word with at
    least two elements sends one seeded element to another.  The identity
    law is sampled on every word, so sampled checks still see it."""
    word = max((w for w, xs in T.carriers.items() if len(xs) >= 2), key=len)
    wd = identity_wiring(T.palette, word)
    rows = dict(T.table[wd])
    key = sorted(rows)[rng.randrange(len(rows))]
    rows[key] = rng.choice([x for x in T.carriers[word] if x != rows[key]])
    entries = [(w, rows if w == wd else r) for w, r in T.table.items()]
    return TableCircuitAlgebra(T.palette, T.bound, T.carriers, entries)


def instance_count(T):
    """Axiom instances of check_circuit_algebra over T's listed wirings:
    identity per element, block equivariance per (permutation, input),
    composition square per nested input.  Counted here from the table
    alone, independently of the checker."""
    sizes = {w: len(xs) for w, xs in T.carriers.items()}

    def domain(wd):
        return prod(sizes[w] for w in wd.block_types)

    by_output = {}
    for wd in T.table:
        by_output[wd.output_word] = by_output.get(wd.output_word, 0) + domain(wd)
    total = sum(sizes.values())
    for wd in T.table:
        total += factorial(len(wd.block_sizes)) * domain(wd)
        total += prod(by_output.get(w, 0) for w in wd.block_types)
    return total


# ---------------------------------------------------------------------------
# operad structures


def corrupted_operad(S, C):
    """C with one product row changed: the first row of the product of
    the empty word with the longest word that has two or more elements,
    sent to the next element.  The unit laws see it."""
    word = max((w for w, es in S.tables if len(es) >= 2), key=len)
    key = ((), word)
    rows = dict(C.box_map[key])
    row = min(rows)
    names = S.elements(word)
    rows[row] = names[(names.index(rows[row]) + 1) % len(names)]
    box = {k: dict(v) for k, v in C.box_map.items()}
    box[key] = rows
    return make_operad_structure(box, {k: dict(v) for k, v in C.zeta_map.items()},
                                 dict(C.epsilon_map), C.external_unit)


def small_operad():
    return species_from_circuit_algebra(pairing_algebra(MONO, 4))


# ---------------------------------------------------------------------------
# graphs


def _relabel(g, rng, tag):
    edge_ids = list(range(len(g.edges)))
    vertex_ids = list(range(len(g.vertices)))
    rng.shuffle(edge_ids)
    rng.shuffle(vertex_ids)
    em = {e: (tag, "e", i) for e, i in zip(g.edges, edge_ids)}
    vm = {v: (tag, "v", i) for v, i in zip(g.vertices, vertex_ids)}
    h = make_graph(
        list(em.values()),
        [(em[a], em[b]) for a, b in g.tau_pairs],
        [(em[e], vm[v]) for e, v in g.half_edges],
        list(vm.values()),
    )
    return h, em


def relabelled(g, rng, tag):
    """g under a seeded bijection onto fresh labels (tag, kind, i)."""
    return _relabel(g, rng, tag)[0]


def relabelled_x(xg, rng, tag):
    """A port-labelled graph relabelled like relabelled(), same port labels."""
    g, em = _relabel(xg.graph, rng, tag)
    return make_xgraph(g, None if xg.rho is None else {em[p]: x for p, x in xg.rho})


def tagged_x(xg, tag):
    """xg on fresh labels (tag, label), which keep the order of the old ones."""
    g = xg.graph
    h = make_graph([(tag, e) for e in g.edges],
                   [((tag, a), (tag, b)) for a, b in g.tau_pairs],
                   [((tag, e), (tag, v)) for e, v in g.half_edges],
                   [(tag, v) for v in g.vertices])
    return make_xgraph(h, None if xg.rho is None else {(tag, p): x for p, x in xg.rho})


def random_graph(rng, vertices, orbits):
    """Involutive graph of the given size; each edge attaches to a random
    vertex or, three times in ten, stays a port."""
    edges = list(range(1, 2 * orbits + 1))
    tau = [(2 * i - 1, 2 * i) for i in range(1, orbits + 1)]
    halves = [(e, rng.randint(1, vertices)) for e in edges if rng.random() < 0.7]
    return make_graph(edges, tau, halves, range(1, vertices + 1))


def random_connected_graph(rng, vertices, orbits):
    while True:
        g = random_graph(rng, vertices, orbits)
        if is_connected(g):
            return g


def random_admissible(rng, x_labels):
    """Port-labelled graph over x_labels on one or two vertices: each
    port's partner attaches to a vertex, plus up to two inner orbits."""
    nv = rng.randint(1, 2)
    vertices = [("u", i) for i in range(1, nv + 1)]
    edges, tau, halves, rho = [], [], [], {}
    for i, x in enumerate(x_labels, 1):
        p, q = ("p", i), ("q", i)
        edges += [p, q]
        tau.append((p, q))
        halves.append((q, rng.choice(vertices)))
        rho[p] = x
    for j in range(1, rng.randint(0 if x_labels else 1, 2) + 1):
        a, b = ("a", j), ("b", j)
        edges += [a, b]
        tau.append((a, b))
        halves += [(a, rng.choice(vertices)), (b, rng.choice(vertices))]
    return make_xgraph(make_graph(edges, tau, halves, vertices), rho)


def random_gog(rng, base):
    return make_gog(base, {v: random_admissible(rng, base.vertex_edges(v))
                           for v in base.vertices})


def non_isomorphic_pairs(rng, tag):
    """Same-size pairs that are not isomorphic: a wheel against two
    wheels of half its size, and two different splits of one cycle
    length.  Every size invariant iso() filters on agrees."""
    pairs = []
    for k in (4, 8, 16):
        pairs.append((relabelled(wheel(2 * k), rng, (tag, "w", k)),
                      relabelled(disjoint_union(wheel(k), wheel(k)), rng, (tag, "ww", k))))
    for total in (10, 14):
        a = rng.randint(1, total // 2 - 1)
        b = rng.randint(a + 1, total // 2)
        pairs.append((relabelled(disjoint_union(wheel(a), wheel(total - a)), rng, (tag, "a", total)),
                      relabelled(disjoint_union(wheel(b), wheel(total - b)), rng, (tag, "b", total))))
    return pairs


def labelled_line(k, labels=(1, 2)):
    g = line(k)
    return make_xgraph(g, dict(zip(g.ports, labels)))


# ---------------------------------------------------------------------------
# Brauer diagrams


def random_open(rng, m, n):
    """Uniform perfect matching on the m + n boundary points."""
    points = [f"s{i}" for i in range(1, m + 1)] + [f"t{j}" for j in range(1, n + 1)]
    rng.shuffle(points)
    return make_diagram(m, n, list(zip(points[::2], points[1::2])))


def random_oriented(rng, src_colours):
    """Random oriented n -> n diagram with the given source colouring:
    cups between opposite sources, through strands, and as many caps."""
    n = len(src_colours)
    flip = {"+": "-", "-": "+"}
    plus = [i for i in range(1, n + 1) if src_colours[i - 1] == "+"]
    minus = [i for i in range(1, n + 1) if src_colours[i - 1] == "-"]
    rng.shuffle(plus)
    rng.shuffle(minus)
    cups = rng.randint(0, min(len(plus), len(minus)))
    targets = list(range(1, n + 1))
    rng.shuffle(targets)
    pairs = [(f"s{a}", f"s{b}") for a, b in zip(plus[:cups], minus[:cups])]
    colours = {f"s{i}": c for i, c in enumerate(src_colours, 1)}
    through = plus[cups:] + minus[cups:]
    for i, j in zip(through, targets):
        pairs.append((f"s{i}", f"t{j}"))
        colours[f"t{j}"] = flip[src_colours[i - 1]]
    rest = targets[len(through):]
    for a, b in zip(rest[::2], rest[1::2]):
        pairs.append((f"t{a}", f"t{b}"))
        c = rng.choice("+-")
        colours[f"t{a}"], colours[f"t{b}"] = c, flip[c]
    return make_coloured(ORI, make_diagram(n, n, pairs), colours)


def random_oriented_word(rng, n, factors):
    """Composable oriented n -> n diagrams f1, ..., fk."""
    flip = {"+": "-", "-": "+"}
    word = [random_oriented(rng, [rng.choice("+-") for _ in range(n)])]
    while len(word) < factors:
        last = word[-1]
        word.append(random_oriented(rng, [flip[last.colour(f"t{j}")] for j in range(1, n + 1)]))
    return tuple(word)


def random_poly(rng):
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    if not any(coeffs):
        coeffs[0] = 1
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def random_br_element(rng, n=4, terms=60):
    """terms distinct open basis diagrams of Br_n with Z[t] coefficients."""
    basis = {}
    while len(basis) < terms:
        d = random_open(rng, n, n)
        basis.setdefault(d, random_poly(rng))
    return make_element(ZPOLY, n, n, basis)
