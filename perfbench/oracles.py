"""Reference answers the benchmark checks brauerkit against.

These are small independent implementations on plain Python data:
Brauer composition as a walk over integer boundary points, Z[t]
arithmetic on coefficient lists, the isomorphism conditions on a graph
morphism, and the networkx VF2 encoding of a graph.  They read only the
public fields of brauerkit's values.
"""

from __future__ import annotations

from math import prod


class WrongAnswer(Exception):
    """A result that fails its check; the operation counts as failed."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


def double_factorial(k):
    """(k)!! for odd k; 1 for k <= 0."""
    return prod(range(k, 0, -2)) if k > 0 else 1


# ---------------------------------------------------------------------------
# Brauer diagrams


def partner_array(d):
    """Partner of each boundary point: sources are 0..m-1, targets follow."""
    def point(label):
        return int(label[1:]) - 1 + (d.m if label[0] == "t" else 0)

    out = [None] * (d.m + d.n)
    for a, b in d.pairs:
        out[point(a)], out[point(b)] = point(b), point(a)
    return out


def compose_reference(f, g):
    """Stack g below f: (frozenset of label pairs, loops born on the seam).

    f's targets and g's sources are the seam points 0..k-1.  An open
    strand is walked from an end, alternating f and g partners across
    the seam; seam points no walk reaches lie on closed loops."""
    pf, pg = partner_array(f), partner_array(g)
    m, k = f.m, f.n
    seen = set()

    def walk(side, p):
        while True:
            if side == "f":
                q = pf[p]
                if q < m:
                    return f"s{q + 1}"
                side, p = "g", q - m
            else:
                q = pg[p]
                if q >= k:
                    return f"t{q - k + 1}"
                side, p = "f", m + q
            seen.add(p if side == "g" else p - m)

    pairs, done = set(), set()
    ends = [("f", p, f"s{p + 1}") for p in range(m)]
    ends += [("g", k + j, f"t{j + 1}") for j in range(g.n)]
    for side, p, start in ends:
        if start not in done:
            end = walk(side, p)
            done.update((start, end))
            pairs.add(frozenset((start, end)))
    loops = 0
    for j in range(k):
        if j in seen:
            continue
        loops += 1
        p = j
        while True:
            q = pg[p]
            seen.update((p, q))
            p = pf[m + q] - m
            if p == j:
                break
    return frozenset(pairs), loops


class Diagram:
    """A Brauer diagram as plain data: arities, label pairs, closed loops."""

    def __init__(self, m, n, pairs, closed):
        self.m, self.n, self.pairs, self.closed = m, n, tuple(pairs), closed


def chain_reference(factors):
    """The composite f1 ; f2 ; ... ; fk by the reference walk."""
    acc = factors[0]
    for g in factors[1:]:
        pairs, loops = compose_reference(acc, g)
        acc = Diagram(acc.m, g.n, [tuple(p) for p in pairs], acc.closed + g.closed + loops)
    return acc


def tensor_reference(factors):
    """f1 (x) f2 (x) ... (x) fk, shifting each factor's labels past the others."""
    pairs, m, n, closed = [], 0, 0, 0
    for f in factors:
        for a, b in f.pairs:
            pairs.append(tuple(f"s{int(x[1:]) + m}" if x[0] == "s" else f"t{int(x[1:]) + n}"
                               for x in (a, b)))
        m, n, closed = m + f.m, n + f.n, closed + f.closed
    return Diagram(m, n, pairs, closed)


def pair_set(d):
    return frozenset(frozenset(p) for p in d.pairs)


def check_same(got, want, what):
    expect((got.m, got.n) == (want.m, want.n), f"{what}: arity {(got.m, got.n)}")
    expect(pair_set(got) == pair_set(want), f"{what}: pairs differ from the reference")
    expect(got.closed == want.closed, f"{what}: closed {got.closed} != {want.closed}")


def check_compose_coloured(factors, h):
    check_same(h.base, chain_reference([f.base for f in factors]), "coloured composite")
    first, last = dict(factors[0].boundary_colour), dict(factors[-1].boundary_colour)
    for label, colour in h.boundary_colour:
        want = first[label] if label[0] == "s" else last[label]
        expect(colour == want, f"colour at {label} is {colour!r}, expected {want!r}")
    expect(len(h.bubbles) == h.base.closed, "one bubble colour per closed component")


# ---------------------------------------------------------------------------
# Z[t]


def poly_strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_strip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n))


def poly_mul(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_strip(out)


def br_compose_reference(a, b):
    """Product in Br over Z[t] with delta = t, keyed by pair sets."""
    acc = {}
    for f, cf in a.terms:
        for g, cg in b.terms:
            pairs, loops = compose_reference(f, g)
            c = poly_mul(poly_mul(cf, cg), (0,) * loops + (1,))
            acc[pairs] = poly_add(acc.get(pairs, ()), c)
    return {k: v for k, v in acc.items() if v}


def check_br_compose(a, b, h):
    want = br_compose_reference(a, b)
    got = {pair_set(d): tuple(c) for d, c in h.terms}
    expect(got == want, f"{len(got)} terms against {len(want)} in the reference product")


# ---------------------------------------------------------------------------
# graphs


def check_isomorphism(w, g, h):
    """w is a GraphMorphism g -> h that is bijective and preserves tau and s."""
    em, vm = w.edge_map, w.vertex_map
    expect(w.source == g and w.target == h, "witness between the wrong graphs")
    expect(set(em) == set(g.edges) and sorted(map(repr, em.values())) ==
           sorted(map(repr, h.edges)), "edge map is not a bijection")
    expect(set(vm) == set(g.vertices) and sorted(map(repr, vm.values())) ==
           sorted(map(repr, h.vertices)), "vertex map is not a bijection")
    tau_g, tau_h = g.tau_map, h.tau_map
    expect(all(tau_h[em[e]] == em[tau_g[e]] for e in g.edges), "tau not preserved")
    halves_h = set(h.half_edges)
    expect(len(g.half_edges) == len(halves_h)
           and all((em[e], vm[v]) in halves_h for e, v in g.half_edges),
           "half-edges not preserved")


def graph_doc_nodes(doc):
    """A Graph document as (nodes with kinds, links) for VF2: one node per
    edge and per vertex, tau links between edge nodes, one link per
    half-edge.  Each edge node meets at most one vertex, so the simple
    graph loses nothing."""
    key = repr
    nodes = [(("e", key(e)), "edge") for e in doc["edges"]]
    nodes += [(("v", key(v)), "vertex") for v in doc["vertices"]]
    links = [(("e", key(a)), ("e", key(b))) for a, b in doc["tau"]]
    links += [(("e", key(h["edge"])), ("v", key(h["vertex"]))) for h in doc["half_edges"]]
    return nodes, links


def vf2_isomorphic(doc_g, doc_h):
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

    graphs = []
    for doc in (doc_g, doc_h):
        G = nx.Graph()
        nodes, links = graph_doc_nodes(doc)
        for node, kind in nodes:
            G.add_node(node, kind=kind)
        G.add_edges_from(links)
        graphs.append(G)
    return GraphMatcher(*graphs, node_match=categorical_node_match("kind", None)).is_isomorphic()
