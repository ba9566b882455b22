"""Combinatorial graphs with involutive edges.

A graph is a diagram of finite sets

    E <--s-- H --t--> V

where s is injective and tau is an involution on E without fixed
points.  An edge and its tau-partner form one geometric edge; edges
not hit by s are ports.  Because s is injective, a half-edge is
determined by the edge it sits on, so half-edges are stored as
(edge, vertex) pairs.

Everything here is label bookkeeping on immutable values: etale and
embedding checks, port gluing, connected components, the element
category (one stick per tau-orbit, one corolla per vertex), and a
canonical form used for isomorphism testing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .labels import (decode_label, decode_labels, decode_pairs, encode_label, label_key,
                     read_field, read_rows, sort_labels)


class InvalidParameter(ValueError):
    pass


class NotAMorphism(ValueError):
    pass


class NotAPort(ValueError):
    pass


class SamePort(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Edges, a fixed-point-free involution, half-edges, vertices.

    tau_pairs lists each orbit once, smaller label first.  half_edges
    are (edge, vertex) pairs with distinct edges (s injective), sorted
    by edge label.
    """

    edges: tuple
    tau_pairs: tuple
    half_edges: tuple
    vertices: tuple

    @cached_property
    def tau_map(self):
        out = {}
        for a, b in self.tau_pairs:
            out[a] = b
            out[b] = a
        return out

    def tau(self, e):
        return self.tau_map[e]

    @cached_property
    def edge_vertex(self):
        # edge -> vertex of the half-edge sitting on it; ports are absent
        return {e: v for e, v in self.half_edges}

    @cached_property
    def ports(self):
        return tuple(e for e in self.edges if e not in self.edge_vertex)

    @cached_property
    def inner_edges(self):
        # largest tau-closed subset of im(s)
        ev = self.edge_vertex
        return tuple(e for e in self.edges if e in ev and self.tau(e) in ev)

    @cached_property
    def stick_components(self):
        ev = self.edge_vertex
        return tuple((a, b) for a, b in self.tau_pairs
                     if a not in ev and b not in ev)

    @cached_property
    def vertex_edges_map(self):
        out = {v: [] for v in self.vertices}
        for e, v in self.half_edges:
            out[v].append(e)
        return {v: tuple(es) for v, es in out.items()}

    def vertex_edges(self, v):
        return self.vertex_edges_map[v]

    def valency(self, v):
        return len(self.vertex_edges_map[v])


def make_graph(edges, tau_pairs, half_edges, vertices):
    edges = list(edges)
    vertices = list(vertices)
    for x in edges + vertices:
        label_key(x)
    if len(set(edges)) != len(edges):
        raise InvalidParameter("duplicate edge labels")
    if len(set(vertices)) != len(vertices):
        raise InvalidParameter("duplicate vertex labels")
    edge_set = set(edges)

    tau_pairs = list(tau_pairs)
    seen = set()
    for a, b in tau_pairs:
        if a == b:
            raise InvalidParameter(f"tau fixes {a!r}")
        if a not in edge_set or b not in edge_set:
            raise InvalidParameter(f"tau pair ({a!r}, {b!r}) leaves the edge set")
        if a in seen or b in seen:
            raise InvalidParameter(f"edge repeated in tau pairs near ({a!r}, {b!r})")
        seen.update((a, b))
    if seen != edge_set:
        missing = sort_labels(edge_set - seen)
        raise InvalidParameter(f"tau undefined on {missing!r}")

    halves = []
    hit = set()
    vertex_set = set(vertices)
    for e, v in half_edges:
        if e not in edge_set:
            raise InvalidParameter(f"half-edge on unknown edge {e!r}")
        if v not in vertex_set:
            raise InvalidParameter(f"half-edge at unknown vertex {v!r}")
        if e in hit:
            raise InvalidParameter(f"two half-edges on edge {e!r}")
        hit.add(e)
        halves.append((e, v))
    return _graph(edges, tau_pairs, halves, vertices)


def _graph(edges, tau_pairs, half_edges, vertices):
    # internal constructor: the caller guarantees the carrier invariants
    pairs = []
    for a, b in tau_pairs:
        if label_key(a) > label_key(b):
            a, b = b, a
        pairs.append((a, b))
    return Graph(
        tuple(sort_labels(edges)),
        tuple(sorted(pairs, key=lambda p: label_key(p[0]))),
        tuple(sorted(half_edges, key=lambda h: label_key(h[0]))),
        tuple(sort_labels(vertices)),
    )


# ---------------------------------------------------------------------------
# constructors


def empty():
    return Graph((), (), (), ())


def stick():
    return _graph((1, 2), ((1, 2),), (), ())


def isolated_vertex():
    return _graph((), (), (), ("v",))


def port_labels(x):
    """A port set given as a count k (the labels 1..k) or as distinct labels."""
    if isinstance(x, bool):
        raise InvalidParameter("boolean is not a port set")
    if isinstance(x, int):
        if x < 0:
            raise InvalidParameter(f"negative port count {x}")
        return tuple(range(1, x + 1))
    labels = tuple(x)
    for lab in labels:
        label_key(lab)
    if len(set(labels)) != len(labels):
        raise InvalidParameter("port labels repeat")
    return labels


def corolla(x):
    """One vertex, one port per element of x, dagger partners inside."""
    labels = port_labels(x)
    edges = list(labels) + [("dag", p) for p in labels]
    tau = [(p, ("dag", p)) for p in labels]
    halves = [(("dag", p), "v") for p in labels]
    return make_graph(edges, tau, halves, ("v",))


def wheel(m):
    """Closed cycle of m vertices; no ports, every edge inner."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidParameter(f"wheel size must be a positive integer, got {m!r}")
    edges = range(1, 2 * m + 1)
    tau = [(2 * i, 2 * i + 1) for i in range(1, m)] + [(2 * m, 1)]
    halves = []
    for i in range(1, m + 1):
        halves.append((2 * i - 1, i))
        halves.append((2 * i, i))
    return _graph(edges, tau, halves, range(1, m + 1))


def line(k):
    """Open chain of k bivalent vertices; line(0) is the stick."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParameter(f"line length must be a non-negative integer, got {k!r}")
    edges = range(1, 2 * k + 3)
    tau = [(2 * i + 1, 2 * i + 2) for i in range(0, k + 1)]
    halves = []
    for i in range(1, k + 1):
        halves.append((2 * i, i))
        halves.append((2 * i + 1, i))
    return _graph(edges, tau, halves, range(1, k + 1))


def disjoint_union(g, h):
    # components are tagged so repeated labels never clash
    edges = [("l", e) for e in g.edges] + [("r", e) for e in h.edges]
    tau = [(("l", a), ("l", b)) for a, b in g.tau_pairs]
    tau += [(("r", a), ("r", b)) for a, b in h.tau_pairs]
    halves = [(("l", e), ("l", v)) for e, v in g.half_edges]
    halves += [(("r", e), ("r", v)) for e, v in h.half_edges]
    vertices = [("l", v) for v in g.vertices] + [("r", v) for v in h.vertices]
    return _graph(edges, tau, halves, vertices)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class GraphMorphism:
    source: Graph
    target: Graph
    edge_pairs: tuple
    vertex_pairs: tuple

    @cached_property
    def edge_map(self):
        return dict(self.edge_pairs)

    @cached_property
    def vertex_map(self):
        return dict(self.vertex_pairs)


def make_morphism(source, target, edge_map, vertex_map):
    em = dict(edge_map)
    vm = dict(vertex_map)
    if set(em) != set(source.edges):
        raise InvalidParameter("edge map domain is not the source edge set")
    if set(vm) != set(source.vertices):
        raise InvalidParameter("vertex map domain is not the source vertex set")
    tgt_edges = set(target.edges)
    tgt_vertices = set(target.vertices)
    for e, img in em.items():
        if img not in tgt_edges:
            raise InvalidParameter(f"edge {e!r} maps outside the target")
    for v, img in vm.items():
        if img not in tgt_vertices:
            raise InvalidParameter(f"vertex {v!r} maps outside the target")
    return GraphMorphism(
        source, target,
        tuple(sorted(em.items(), key=lambda p: label_key(p[0]))),
        tuple(sorted(vm.items(), key=lambda p: label_key(p[0]))),
    )


def compose_morphisms(g, f):
    """g after f: source of g must be the target of f."""
    if f.target != g.source:
        raise InvalidParameter("middle graphs disagree")
    em = {e: g.edge_map[f.edge_map[e]] for e in f.source.edges}
    vm = {v: g.vertex_map[f.vertex_map[v]] for v in f.source.vertices}
    return make_morphism(f.source, g.target, em, vm)


def is_morphism(f):
    """True iff the edge and vertex maps commute with tau, s and t."""
    src, tgt = f.source, f.target
    em, vm = f.edge_map, f.vertex_map
    for a, b in src.tau_pairs:
        if tgt.tau(em[a]) != em[b]:
            return False
    tv = tgt.edge_vertex
    for e, v in src.half_edges:
        w = tv.get(em[e])
        if w is None or w != vm[v]:
            return False
    return True


def validate_etale(f):
    """True iff every vertex neighbourhood maps bijectively onto its image's."""
    if not is_morphism(f):
        raise NotAMorphism("structure squares do not commute")
    em, vm = f.edge_map, f.vertex_map
    for v in f.source.vertices:
        fibre = [em[e] for e in f.source.vertex_edges(v)]
        if len(set(fibre)) != len(fibre):
            return False
        if sorted(fibre, key=label_key) != list(f.target.vertex_edges(vm[v])):
            return False
    return True


def validate_embedding(f):
    """Etale, injective on vertices and half-edges, with the stick part
    injective and disjoint from the image of the vertexful part."""
    try:
        if not validate_etale(f):
            return False
    except NotAMorphism:
        return False
    em, vm = f.edge_map, f.vertex_map
    src = f.source
    stick_edges = set()
    for a, b in src.stick_components:
        stick_edges.update((a, b))
    img_stick = [em[e] for e in stick_edges]
    if len(set(img_stick)) != len(img_stick):
        return False
    img_core = {em[e] for e in src.edges if e not in stick_edges}
    if img_core & set(img_stick):
        return False
    # no half-edge test: equal images force one vertex, whose fibre is injective
    vs = [vm[v] for v in src.vertices]
    return len(set(vs)) == len(vs)


def ch(g, e):
    """The stick morphism picking out edge e: 1 -> e, 2 -> tau(e)."""
    if e not in g.tau_map:
        raise InvalidParameter(f"unknown edge {e!r}")
    return make_morphism(stick(), g, {1: e, 2: g.tau(e)}, {})


# ---------------------------------------------------------------------------
# gluing


def glue(g, e1, e2):
    """Join two ports, making their orbit partners meet.

    When e1 and e2 already form a stick component the colimit is the
    graph itself, returned unchanged.
    """
    ports = set(g.ports)
    if e1 not in ports:
        raise NotAPort(f"{e1!r} is not a port")
    if e2 not in ports:
        raise NotAPort(f"{e2!r} is not a port")
    if e1 == e2:
        raise SamePort(f"cannot glue {e1!r} to itself")
    if g.tau(e1) == e2:
        return g

    # each merge class becomes its least label, and the two form one new orbit
    rep = {e: least for least, cls in merge_classes(g, e1, e2) for e in cls}
    edges = [e for e in g.edges if e not in rep] + [rep[e1], rep[e2]]
    tau = [(a, b) for a, b in g.tau_pairs if a not in rep]
    tau.append((rep[e1], rep[e2]))
    halves = [(rep.get(e, e), v) for e, v in g.half_edges]
    return _graph(edges, tau, halves, g.vertices)


def merge_classes(g, e1, e2):
    """The two classes of edges that glue(g, e1, e2) merges, {e1, tau e2}
    and {e2, tau e1}, each as (its least label, which the glued graph
    keeps; its two members)."""
    return [(min(cls, key=label_key), cls) for cls in ((e1, g.tau(e2)), (e2, g.tau(e1)))]


# ---------------------------------------------------------------------------
# element category


@dataclass(frozen=True)
class Element:
    kind: str        # "stick" or "corolla"
    anchor: object   # orbit representative edge, or vertex label
    shape: Graph
    into: GraphMorphism


@dataclass(frozen=True)
class ElementArrow:
    half_edge: tuple
    stick_index: int
    corolla_index: int
    map: GraphMorphism


def vertex_element(g, v):
    """The corolla neighbourhood of v and its essential morphism.

    The dagger copy of an incident edge lands on the edge itself; the
    port copy lands on its tau-partner.  For a loop both copies of the
    orbit land on it, so the morphism need not be injective on edges.
    """
    incident = g.vertex_edges(v)
    shape = corolla(incident)
    edge_map = {}
    for e in incident:
        edge_map[("dag", e)] = e
        edge_map[e] = g.tau(e)
    into = make_morphism(shape, g, edge_map, {"v": v})
    return Element("corolla", v, shape, into)


def elements(g):
    """One stick per tau-orbit, one corolla per vertex, in label order."""
    out = []
    for a, _ in g.tau_pairs:
        out.append(Element("stick", a, stick(), ch(g, a)))
    for v in g.vertices:
        out.append(vertex_element(g, v))
    return tuple(out)


def element_arrows(g):
    """One arrow per half-edge, from the edge's stick to the vertex's corolla."""
    orbit_index = {a: i for i, (a, _) in enumerate(g.tau_pairs)}
    vertex_index = {v: len(g.tau_pairs) + i for i, v in enumerate(g.vertices)}
    shapes = {v: corolla(g.vertex_edges(v)) for v in g.vertices}
    arrows = []
    for e, v in g.half_edges:
        rep = e if e in orbit_index else g.tau(e)
        if e == rep:
            edge_map = {1: ("dag", e), 2: e}
        else:
            edge_map = {1: e, 2: ("dag", e)}
        arrows.append(ElementArrow(
            (e, v),
            orbit_index[rep],
            vertex_index[v],
            make_morphism(stick(), shapes[v], edge_map, {}),
        ))
    return tuple(arrows)


# ---------------------------------------------------------------------------
# connectivity


def classes(nodes, links) -> dict:
    """The classes of the equivalence relation on nodes that the pairs in
    links generate, as {node: representative}, in the order of nodes.
    Two nodes share a class exactly when they share a representative;
    which member represents a class is not part of the contract."""
    parent = {x: x for x in nodes}
    for a, b in links:
        a, b = _root(parent, a), _root(parent, b)
        if a != b:
            parent[a] = b
    return {x: _root(parent, x) for x in parent}


def _root(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def connected_components(g):
    """Split along tau-orbits and shared vertices; the empty graph has none."""
    nodes = [("e", e) for e in g.edges] + [("v", v) for v in g.vertices]
    links = [(("e", a), ("e", b)) for a, b in g.tau_pairs]
    links += [(("e", e), ("v", v)) for e, v in g.half_edges]
    groups = {}
    for node, rep in classes(nodes, links).items():
        groups.setdefault(rep, []).append(node)

    comps = []
    for members in groups.values():
        edges = [x for kind, x in members if kind == "e"]
        vertices = [x for kind, x in members if kind == "v"]
        edge_set = set(edges)
        tau = [(a, b) for a, b in g.tau_pairs if a in edge_set]
        halves = [(e, v) for e, v in g.half_edges if e in edge_set]
        comps.append(_graph(edges, tau, halves, vertices))

    def comp_key(c):
        return min(label_key(x) for x in c.edges + c.vertices)

    return sorted(comps, key=comp_key)


def is_connected(g):
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# canonical form and isomorphism
#
# The certificate is the graph renumbered by the least leaf of a search
# tree of ordered partitions, as in nauty and Traces (B. McKay and
# A. Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
# 2014).  Edges are the nodes 0..E-1 and vertices E..n-1.  An edge's
# neighbours are its tau partner and its vertex, a vertex's are its
# edges; edges and vertices never share a cell, so the two cells tell
# which kind a link is and one count per node suffices.
#
# A partition is the array `lab` cut into cells, each named by its start
# index.  The first cells are the colour tokens in order: attached edges,
# ports (by seed label, when seeded), then vertices by valency.
# Refinement pops a splitter cell from a queue, counts each node's
# neighbours inside it, and splits every touched cell into fragments in
# ascending count.  It queues each fragment but the first largest, or
# all of them when the old cell was still queued: the counts against
# the one left out are the old cell's minus the others'.  Each step
# reads only cell positions and counts, never node numbers, so an
# isomorphism carries one graph's refined partition onto the other's
# cell for cell: the cell order is an isomorphism invariant.
#
# The search individualises each node of the first non-singleton cell in
# turn, in label order, and refines again.  A discrete partition is a
# leaf; numbering the edges and vertices by their places gives its
# certificate, and the least certificate over the leaves depends only on
# the isomorphism class (and on the port labels, when seeded).  Two
# leaves with one certificate give an automorphism, which maps the
# first leaf's path onto the second's and fixes the nodes individualised
# above the point where they part.  A subtree that an automorphism maps
# onto an explored one repeats its certificates, which prunes in two ways:
# - every automorphism found while a tree node is open fixes the node's
#   individualised prefix, so a child in the orbit of a tried child
#   under those automorphisms is skipped.  The first path (the nodes
#   opened before the first leaf) prunes by all of them;
# - a leaf equal to an earlier leaf maps the earlier leaf's branch at
#   their common ancestor, which is explored, onto the later leaf's, so
#   the search goes back to that ancestor.  For the first leaf this is
#   the later leaf's last ancestor on the first path.
# Pruning only on the first path, and returning only from leaves equal
# to the first, left a repeated-component graph beside one odd pair of
# components (six wheel(3) with wheel(2) and wheel(4)) searching every
# order of the repeated ones below each branch that starts at the pair.


class _Orbits:
    """Orbits of the automorphisms found since some point of the search:
    a union-find that joins each automorphism when it is first read."""

    __slots__ = ("parent", "start", "joined")

    def __init__(self, n, start):
        self.parent, self.start, self.joined = list(range(n)), start, start

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def meets(self, x, tried, gens):
        """Join the automorphisms found since the last call, then tell
        whether x lies in the orbit of a node in tried."""
        for lab_a, lab_b in gens[self.joined:]:
            for a, b in zip(lab_a, lab_b):
                ra, rb = self.find(a), self.find(b)
                if ra != rb:
                    self.parent[ra] = rb
        self.joined = len(gens)
        if self.joined == self.start:
            return False
        rx = self.find(x)
        return any(self.find(u) == rx for u in tried)


class _Node:
    """A node of the search tree: its refined partition, the candidates
    it branches on, the children tried so far, and the orbits of the
    automorphisms found since it was opened."""

    __slots__ = ("state", "cands", "next", "tried", "orbits")

    def __init__(self, state, cands, orbits):
        self.state, self.cands, self.orbits = state, cands, orbits
        self.next, self.tried = 0, []


@lru_cache(maxsize=4096)
def _canonical_data(g, port_seed):
    edges, vertices, ev = g.edges, g.vertices, g.edge_vertex
    n_e = len(edges)
    n = n_e + len(vertices)
    eid = {e: i for i, e in enumerate(edges)}
    vid = {v: n_e + i for i, v in enumerate(vertices)}
    tau = [eid[g.tau(e)] for e in edges]
    at = [vid[ev[e]] if e in ev else None for e in edges]
    adj = [[tau[x]] if at[x] is None else [tau[x], at[x]] for x in range(n_e)]
    adj += [[eid[e] for e in g.vertex_edges(v)] for v in vertices]

    seed = dict(port_seed) if port_seed else {}
    tokens = [("edge", 0, (0, 0)) if e in ev
              else ("edge", 1, label_key(seed[e]) if e in seed else (0, 0))
              for e in edges]
    tokens += [("vertex", 2, (g.valency(v), 0)) for v in vertices]
    lab = sorted(range(n), key=tokens.__getitem__)
    pos, cell, end = [0] * n, [0] * n, [0] * n
    starts = []
    for i, x in enumerate(lab):
        pos[x] = i
        if not i or tokens[x] != tokens[lab[i - 1]]:
            starts.append(i)
        cell[x] = starts[-1]
    for a, b in zip(starts, starts[1:] + [n]):
        end[a] = b

    def refine(lab, pos, cell, end, queue):
        queued = set(queue)
        while queue:
            w = queue.pop()
            queued.discard(w)
            count = {}
            for y in lab[w:end[w]]:
                for x in adj[y]:
                    count[x] = count.get(x, 0) + 1
            touched = {}
            for x in count:
                touched.setdefault(cell[x], []).append(x)
            for s in sorted(touched):
                xs, e = touched[s], end[s]
                if len(xs) == e - s and len({count[x] for x in xs}) == 1:
                    continue
                # move the touched nodes behind the untouched ones, then
                # order them by count
                t = e
                for x in xs:
                    t -= 1
                    p, y = pos[x], lab[t]
                    lab[p], pos[y] = y, p
                    lab[t], pos[x] = x, t
                xs.sort(key=count.__getitem__)
                lab[t:e] = xs
                frags = [s] if t > s else []
                last = None
                for i, x in enumerate(xs, t):
                    pos[x] = i
                    if count[x] != last:
                        last = count[x]
                        frags.append(i)
                    cell[x] = frags[-1]
                sizes = [b - a for a, b in zip(frags, frags[1:] + [e])]
                for a, size in zip(frags, sizes):
                    end[a] = a + size
                if s in queued:
                    new = frags[1:]
                else:
                    big = sizes.index(max(sizes))
                    new = frags[:big] + frags[big + 1:]
                queue.extend(new)
                queued.update(new)

    def individualise(state, x):
        lab, pos, cell, end = (list(a) for a in state)
        s, p = cell[x], pos[x]
        y = lab[s]
        lab[s], lab[p] = x, y
        pos[x], pos[y] = s, p
        end[s + 1] = end[s]
        end[s] = s + 1
        for i in range(s + 1, end[s + 1]):
            cell[lab[i]] = s + 1
        refine(lab, pos, cell, end, [s])
        return lab, pos, cell, end

    def candidates(state):
        # the first non-singleton cell in label order, None at a leaf
        lab, end = state[0], state[3]
        s = 0
        while s < n:
            if end[s] - s > 1:
                return sorted(lab[s:end[s]])
            s = end[s]
        return None

    def certificate(state):
        lab, pos = state[0], state[1]
        partner = [pos[tau[x]] for x in lab[:n_e]]
        tau_c = tuple((i + 1, j + 1) for i, j in enumerate(partner) if i < j)
        halves = tuple((i + 1, pos[at[x]] - n_e + 1)
                       for i, x in enumerate(lab[:n_e]) if at[x] is not None)
        return (n_e, tau_c, halves, n - n_e)

    root = (lab, pos, cell, end)
    refine(lab, pos, cell, end, list(starts))
    seen = {}     # certificate -> (lab, path) of the first leaf that had it
    gens = []     # automorphisms, each as the two leaf arrays it maps between
    opened = {}   # len(gens) -> the orbits shared by nodes opened then

    def open_node(state, cands):
        k = len(gens)
        if k not in opened:
            opened[k] = _Orbits(n, k)
        return _Node(state, cands, opened[k])

    cands = candidates(root)
    if cands is None:
        seen[certificate(root)] = (lab, ())
    stack = [] if cands is None else [open_node(root, cands)]
    while stack:
        node = stack[-1]
        if node.next == len(node.cands):
            stack.pop()
            continue
        x = node.cands[node.next]
        node.next += 1
        if node.orbits.meets(x, node.tried, gens):
            continue
        node.tried.append(x)
        child = individualise(node.state, x)
        below = candidates(child)
        if below is not None:
            stack.append(open_node(child, below))
            continue
        path = tuple(f.cands[f.next - 1] for f in stack)
        cert = certificate(child)
        if cert not in seen:
            seen[cert] = (child[0], path)
            continue
        old_lab, old_path = seen[cert]
        gens.append((old_lab, child[0]))
        common = 0
        while old_path[common] == path[common]:
            common += 1
        del stack[common + 1:]
    cert = min(seen)
    lab = seen[cert][0]
    edge_num = {edges[x]: i + 1 for i, x in enumerate(lab[:n_e])}
    vert_num = {vertices[x - n_e]: i + 1 for i, x in enumerate(lab[n_e:])}
    return cert, edge_num, vert_num


def canonical_form(g):
    cert, _, _ = _canonical_data(g, None)
    n_edges, tau, halves, n_vertices = cert
    return _graph(range(1, n_edges + 1), tau, halves, range(1, n_vertices + 1))


def _witness(g, h, seed_g, seed_h):
    cg, eg, vg = _canonical_data(g, seed_g)
    chh, eh, vh = _canonical_data(h, seed_h)
    if cg != chh:
        return None
    inv_e = {n: e for e, n in eh.items()}
    inv_v = {n: v for v, n in vh.items()}
    return make_morphism(
        g, h,
        {e: inv_e[eg[e]] for e in g.edges},
        {v: inv_v[vg[v]] for v in g.vertices},
    )


def iso(g, h):
    """An isomorphism witness, or None."""
    if (len(g.edges) != len(h.edges) or len(g.vertices) != len(h.vertices)
            or len(g.half_edges) != len(h.half_edges)
            or len(g.ports) != len(h.ports)):
        return None
    if sorted(g.valency(v) for v in g.vertices) != \
            sorted(h.valency(v) for v in h.vertices):
        return None
    return _witness(g, h, None, None)


# ---------------------------------------------------------------------------
# port-labelled graphs


@dataclass(frozen=True)
class XGraph:
    """A graph with its ports labelled by a finite set.

    rho is a tuple of (port, label) pairs, or None for the unlabelled
    stick produced by collapsing a closed graph.
    """

    graph: Graph
    rho: object

    @cached_property
    def rho_map(self):
        return None if self.rho is None else dict(self.rho)

    @cached_property
    def x_labels(self):
        if self.rho is None:
            return ()
        return tuple(sort_labels(self.rho_map.values()))


def make_xgraph(graph, rho):
    if rho is None:
        return XGraph(graph, None)
    rho = dict(rho)
    if set(rho) != set(graph.ports):
        raise InvalidParameter("rho domain is not the port set")
    values = list(rho.values())
    for x in values:
        label_key(x)
    if len(set(values)) != len(values):
        raise InvalidParameter("rho is not injective")
    return XGraph(graph, tuple(sorted(rho.items(), key=lambda p: label_key(p[0]))))


def x_iso(x1, x2):
    """An isomorphism preserving the port labelling, or None."""
    r1, r2 = x1.rho_map, x2.rho_map
    if (r1 is None) != (r2 is None):
        return None
    if r1 is None:
        return iso(x1.graph, x2.graph)
    if x1.x_labels != x2.x_labels:
        return None
    g, h = x1.graph, x2.graph
    if len(g.edges) != len(h.edges) or len(g.vertices) != len(h.vertices):
        return None
    seed_g = tuple(sorted(r1.items(), key=lambda p: label_key(p[0])))
    seed_h = tuple(sorted(r2.items(), key=lambda p: label_key(p[0])))
    return _witness(g, h, seed_g, seed_h)


def x_certificate(x):
    """Hashable key with x_certificate(a) == x_certificate(b) iff x_iso(a, b).

    The seeded certificate only sees the relative order of the port
    labels, so the label set itself is part of the key.
    """
    if x.rho is None:
        return ("closed", _canonical_data(x.graph, None)[0])
    return ("labelled", x.x_labels, _canonical_data(x.graph, x.rho)[0])


# ---------------------------------------------------------------------------
# serialization


def graph_to_json(g):
    return {
        "edges": [encode_label(e) for e in g.edges],
        "tau": [[encode_label(a), encode_label(b)] for a, b in g.tau_pairs],
        "half_edges": [
            {"id": encode_label(e), "edge": encode_label(e),
             "vertex": encode_label(v)}
            for e, v in g.half_edges
        ],
        "vertices": [encode_label(v) for v in g.vertices],
    }


def graph_from_json(data):
    edges = read_field(data, "edges", decode_labels, InvalidParameter, "graph")
    tau = read_field(data, "tau", decode_pairs, InvalidParameter, "graph")
    halves = read_rows(data, "half_edges", (("edge", decode_label), ("vertex", decode_label)),
                       InvalidParameter, "graph")
    vertices = read_field(data, "vertices", decode_labels, InvalidParameter, "graph")
    return make_graph(edges, tau, halves, vertices)


def xgraph_to_json(xg):
    """{"graph": graph, "rho": {JSON text of an encoded port: encoded
    label}}; the unlabelled stick of a closed graph has no "rho"."""
    doc = {"graph": graph_to_json(xg.graph)}
    if xg.rho is not None:
        doc["rho"] = {json.dumps(encode_label(p)): encode_label(lab) for p, lab in xg.rho}
    return doc


def xgraph_from_json(doc):
    g = read_field(doc, "graph", graph_from_json, InvalidParameter, "port-labelled graph")
    if doc.get("rho") is None:
        return make_xgraph(g, None)
    return make_xgraph(g, read_field(doc, "rho", _read_rho, InvalidParameter,
                                     "port-labelled graph"))


def _read_rho(rho):
    return {decode_label(json.loads(k)): decode_label(v) for k, v in rho.items()}


def _dot_id(prefix, label):
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{prefix}:{text}"'


def _dot_text(label):
    text = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def graph_to_dot(g):
    """Undirected dot rendering: one drawn edge per tau-orbit, ports as stubs."""
    lines = ["graph diagram {", "  node [shape=circle];"]
    for v in g.vertices:
        lines.append(f"  {_dot_id('v', v)} [label={_dot_text(v)}];")
    ends = {}
    for e in g.edges:
        v = g.edge_vertex.get(e)
        if v is None:
            name = _dot_id("port", e)
            lines.append(f'  {name} [shape=point, label=""];')
            ends[e] = name
        else:
            ends[e] = _dot_id("v", v)
    for a, b in g.tau_pairs:
        lines.append(f"  {ends[a]} -- {ends[b]} [label={_dot_text((a, b))}];")
    lines.append("}")
    return "\n".join(lines)
