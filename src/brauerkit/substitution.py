"""Graph substitution: plug a port-labelled graph into every vertex.

A graph of graphs carries, for each vertex v of a base graph, a graph
whose ports are identified with the edges incident to v.  Its colimit
welds each assigned graph into the hole left by its vertex: every base
edge absorbs the port orbits it meets, inner orbits of the assignments
survive untouched, and the ports of the base are left alone.

Vertex deletion is the degenerate substitution that replaces a bivalent
or isolated vertex with bare wire.  Deleting across a whole line
splices it down to the stick on its own ports; a fully deleted wheel or
isolated vertex leaves a fresh closed stick with no port labels to
remember.  Graphs reachable from one another by such deletions are
similar, and the terminal representative (no bivalent or isolated
vertices) decides similarity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .graph import (
    Graph,
    InvalidParameter,
    XGraph,
    connected_components,
    corolla,
    graph_from_json,
    graph_to_json,
    is_connected,
    iso,
    make_graph,
    make_morphism,
    make_xgraph,
    x_iso,
)
from .labels import decode_label, encode_label, label_key, sort_labels


class DegenerateSubstitution(ValueError):
    pass


class BoundaryMismatch(ValueError):
    pass


class NotDeletable(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class GraphOfGraphs:
    """A base graph plus one port-labelled graph per vertex.

    Stick pieces of the base carry sticks and nothing else, so only the
    vertex assignments are stored.  Rows are (vertex, XGraph) in vertex
    label order; each XGraph's labels are exactly the edges at its
    vertex.
    """

    base: Graph
    assignment: tuple

    @cached_property
    def assignment_map(self):
        return dict(self.assignment)

    @property
    def non_degenerate(self):
        return all(not xg.graph.stick_components for _, xg in self.assignment)


@dataclass(frozen=True)
class ColimitBookkeeping:
    """Provenance for every edge and vertex of a substitution colimit.

    edge_origin pairs each colimit edge with ("base", e) or with
    ("inner", v, x) for an inner orbit edge of the graph assigned to v.
    vertex_pairs project colimit vertices onto the base vertices they
    refine.  embeddings hold, per base vertex, the morphism from the
    assigned graph into the colimit.
    """

    edge_origin: tuple
    vertex_pairs: tuple
    embeddings: tuple

    @cached_property
    def edge_origin_map(self):
        return dict(self.edge_origin)

    @cached_property
    def vertex_map(self):
        return dict(self.vertex_pairs)

    @cached_property
    def embedding_map(self):
        return dict(self.embeddings)


@dataclass(frozen=True)
class SimilarityRecord:
    source: Graph
    target: Graph
    deleted: tuple
    special_case: str  # generic | line_collapse | wheel_collapse | isolated_z


def make_gog(base, assignment):
    amap = dict(assignment)
    if set(amap) != set(base.vertices):
        raise InvalidParameter("assignment keys must be exactly the base vertices")
    rows = []
    for v in base.vertices:
        xg = amap[v]
        if not isinstance(xg, XGraph) or xg.rho is None:
            raise BoundaryMismatch(f"vertex {v!r} needs a port-labelled graph")
        if set(xg.x_labels) != set(base.vertex_edges(v)):
            raise BoundaryMismatch(
                f"ports assigned to {v!r} are not labelled by its incident edges")
        rows.append((v, xg))
    return GraphOfGraphs(base, tuple(rows))


def identity_gog(g):
    """Assign to every vertex its own corolla with the identity labelling."""
    assign = {}
    for v in g.vertices:
        incident = g.vertex_edges(v)
        assign[v] = make_xgraph(corolla(incident), {e: e for e in incident})
    return make_gog(g, assign)


def _fresh(candidate, used):
    out = candidate
    n = 2
    while out in used:
        out = candidate + (n,)
        n += 1
    used.add(out)
    return out


def colimit(gog):
    """Weld the assigned graphs into the base; returns (graph, bookkeeping).

    Every colimit edge class contains exactly one base edge (it keeps
    that bare label, so ports survive on the nose) or is a single inner
    edge of one assignment, tagged ("sub", v, x).  Vertices are tagged
    ("sub", v, w).
    """
    base = gog.base
    for v, xg in gog.assignment:
        if xg.graph.stick_components:
            raise DegenerateSubstitution(
                f"graph assigned to {v!r} has a stick component")

    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in base.edges:
        parent[("b", e)] = ("b", e)
    for v, xg in gog.assignment:
        for x in xg.graph.edges:
            parent[("s", v, x)] = ("s", v, x)

    # a base edge arriving at v continues into the assigned graph along
    # the port labelled by it; its far side continues out of the port
    inverse_rho = {v: {lab: p for p, lab in xg.rho} for v, xg in gog.assignment}
    for a, v in base.half_edges:
        inner = gog.assignment_map[v].graph
        p = inverse_rho[v][a]
        union(("b", a), ("s", v, inner.tau(p)))
        union(("b", base.tau(a)), ("s", v, p))

    # base classes keep their bare labels; leftover singletons are the
    # inner orbits of the assignments
    edge_label = {}
    origin = []
    used = set(base.edges)
    for e in base.edges:
        edge_label[find(("b", e))] = e
        origin.append((e, ("base", e)))
    for v, xg in gog.assignment:
        for x in xg.graph.edges:
            root = find(("s", v, x))
            if root not in edge_label:
                lab = _fresh(("sub", v, x), used)
                edge_label[root] = lab
                origin.append((lab, ("inner", v, x)))

    def partner(root):
        kind = root[0]
        if kind == "b":
            return find(("b", base.tau(root[1])))
        _, v, x = root
        return find(("s", v, gog.assignment_map[v].graph.tau(x)))

    tau = []
    done = set()
    for root in edge_label:
        if root in done:
            continue
        other = partner(root)
        done.update((root, other))
        tau.append((edge_label[root], edge_label[other]))

    halves = []
    vertices = []
    vertex_pairs = []
    for v, xg in gog.assignment:
        for w in xg.graph.vertices:
            tag = ("sub", v, w)
            vertices.append(tag)
            vertex_pairs.append((tag, v))
        for x, w in xg.graph.half_edges:
            halves.append((edge_label[find(("s", v, x))], ("sub", v, w)))

    out = make_graph(edge_label.values(), tau, halves, vertices)

    embeddings = []
    for v, xg in gog.assignment:
        emb = make_morphism(
            xg.graph, out,
            {x: edge_label[find(("s", v, x))] for x in xg.graph.edges},
            {w: ("sub", v, w) for w in xg.graph.vertices},
        )
        embeddings.append((v, emb))

    bookkeeping = ColimitBookkeeping(
        tuple(origin), tuple(vertex_pairs), tuple(embeddings))
    return out, bookkeeping


def delete_vertices(g, w):
    """Remove bivalent and isolated vertices, splicing tau across the gaps.

    A fully deleted closed component leaves a fresh stick: a wheel
    forgets its cycle down to ("kappa", least-edge, 1/2), an isolated
    vertex to ("z", vertex, 1/2).  A fully deleted line lands on the
    stick made of its own two ports.
    """
    deleted = []
    seen = set()
    vertex_set = set(g.vertices)
    for v in w:
        if v in seen:
            continue
        seen.add(v)
        if v not in vertex_set:
            raise NotDeletable(f"{v!r} is not a vertex")
        if g.valency(v) not in (0, 2):
            raise NotDeletable(f"vertex {v!r} has valency {g.valency(v)}")
        deleted.append(v)
    deleted = tuple(sort_labels(deleted))
    wset = set(deleted)

    special = "generic"
    if g.vertices and wset == vertex_set and is_connected(g):
        if not g.edges:
            special = "isolated_z"
        elif g.ports:
            special = "line_collapse"
        else:
            special = "wheel_collapse"

    fresh_sticks = []
    for c in connected_components(g):
        cset = set(c.vertices)
        if cset and cset <= wset and not c.ports:
            if c.edges:
                fresh_sticks.append(("kappa", min(c.edges, key=label_key)))
            else:
                fresh_sticks.append(("z", c.vertices[0]))

    deleted_edges = set()
    other = {}
    for v in deleted:
        ev = g.vertex_edges(v)
        deleted_edges.update(ev)
        if len(ev) == 2:
            other[ev[0]] = ev[1]
            other[ev[1]] = ev[0]

    def splice(e):
        cur = g.tau(e)
        while cur in deleted_edges:
            cur = g.tau(other[cur])
        return cur

    survivors = [e for e in g.edges if e not in deleted_edges]
    tau = []
    done = set()
    for e in survivors:
        if e in done:
            continue
        p = splice(e)
        done.update((e, p))
        tau.append((e, p))

    edges = list(survivors)
    used = set(survivors)
    for tag in fresh_sticks:
        a = _fresh(tag + (1,), used)
        b = _fresh(tag + (2,), used)
        edges.extend((a, b))
        tau.append((a, b))

    target = make_graph(
        edges, tau,
        [(e, v) for e, v in g.half_edges if e not in deleted_edges],
        [v for v in g.vertices if v not in wset],
    )
    return SimilarityRecord(g, target, deleted, special)


def terminal_representative(xg):
    """Delete every bivalent and isolated vertex; one pass suffices.

    Deletion never changes a survivor's valency, so no new deletable
    vertices appear.  A closed collapse (wheel or isolated vertex)
    forgets the port labelling; an open one keeps it.
    """
    g = xg.graph
    if not is_connected(g):
        raise InvalidParameter("terminal representative needs a connected graph")
    w = [v for v in g.vertices if g.valency(v) in (0, 2)]
    if not w:
        return xg
    rec = delete_vertices(g, w)
    if xg.rho is None or rec.special_case in ("wheel_collapse", "isolated_z"):
        return XGraph(rec.target, None)
    return make_xgraph(rec.target, dict(xg.rho))


def _stick_reading(xg):
    return tuple(xg.rho_map[e] for e in sort_labels(xg.graph.edges))


def similar(x1, x2):
    """Joined by a zig-zag of vertex deletions and labelled isomorphisms.

    Decided on terminal representatives.  Collapsed sticks are rigid:
    a labelled stick matches only a stick whose labelling reads the
    same way along the edge order, since the end-swapping flip is not a
    deletion of anything.  Unlabelled sticks (closed collapses) are all
    alike.  Everything else compares by labelled isomorphism.
    """
    t1 = terminal_representative(x1)
    t2 = terminal_representative(x2)
    if t1.rho is None or t2.rho is None:
        return x_iso(t1, t2) is not None
    if not t1.graph.vertices and not t2.graph.vertices:
        return _stick_reading(t1) == _stick_reading(t2)
    return x_iso(t1, t2) is not None


def check_substitution_associativity(outer, inners):
    """Substituting in two stages agrees with collapsing the stages first.

    outer is a graph of graphs; inners gives, per base vertex, a graph
    of graphs whose base is the graph assigned to that vertex.  The
    outside-in order takes the outer colimit and re-roots every inner
    assignment along its embedding; the inside-out order collapses each
    vertex fibre before substituting.  Both land on graphs with the
    base's own ports, compared as port-labelled graphs.
    """
    imap = dict(inners)
    if set(imap) != set(outer.base.vertices):
        raise ShapeMismatch("inner bases must be indexed by the outer base vertices")
    for v, xg in outer.assignment:
        if imap[v].base != xg.graph:
            raise ShapeMismatch(
                f"inner base at {v!r} differs from the outer assignment")

    colim1, bk = colimit(outer)
    assign1 = {}
    for v, xg in outer.assignment:
        emb = bk.embedding_map[v]
        for u, inner_xg in imap[v].assignment:
            rho = {p: emb.edge_map[lab] for p, lab in inner_xg.rho}
            assign1[emb.vertex_map[u]] = make_xgraph(inner_xg.graph, rho)
    left = colimit(make_gog(colim1, assign1))[0]

    assign2 = {}
    for v, xg in outer.assignment:
        inner_colim = colimit(imap[v])[0]
        assign2[v] = make_xgraph(inner_colim, dict(xg.rho))
    right = colimit(make_gog(outer.base, assign2))[0]

    if set(left.ports) != set(right.ports):
        return False
    lx = make_xgraph(left, {p: p for p in left.ports})
    rx = make_xgraph(right, {p: p for p in right.ports})
    return x_iso(lx, rx) is not None


def check_deletion_coherence(source, w, deleted_gog):
    """Substituting then deleting agrees with deleting then substituting.

    deleted_gog lives on the graph obtained by deleting w from source.
    The left route pads it back to a graph of graphs on source by
    assigning identity corollas to the doomed vertices, takes the
    colimit, and deletes their images; the right route is the plain
    colimit over the deleted base.
    """
    rec = delete_vertices(source, w)
    if deleted_gog.base != rec.target:
        raise ShapeMismatch("assignment base must be the deleted graph")
    wset = set(rec.deleted)

    assign = {}
    for v in source.vertices:
        if v in wset:
            incident = source.vertex_edges(v)
            assign[v] = make_xgraph(corolla(incident), {e: e for e in incident})
        else:
            # survivors keep their incident edges through the deletion,
            # so the assignment transfers unchanged
            assign[v] = deleted_gog.assignment_map[v]
    colim, bk = colimit(make_gog(source, assign))
    images = [cv for cv, v in bk.vertex_pairs if v in wset]
    left = delete_vertices(colim, images).target

    right = colimit(deleted_gog)[0]

    if set(left.ports) == set(right.ports):
        lx = make_xgraph(left, {p: p for p in left.ports})
        rx = make_xgraph(right, {p: p for p in right.ports})
        return x_iso(lx, rx) is not None
    # a collapsed isolated vertex names its fresh stick after a tagged
    # image on the left, so fall back to unlabelled comparison
    return iso(left, right) is not None


# ---------------------------------------------------------------------------
# serialization


def gog_to_json(gog):
    assign = {}
    for v, xg in gog.assignment:
        assign[json.dumps(encode_label(v))] = {
            "graph": graph_to_json(xg.graph),
            "rho": {json.dumps(encode_label(p)): encode_label(lab)
                    for p, lab in xg.rho},
        }
    return {"base": graph_to_json(gog.base), "assign": assign}


def gog_from_json(data):
    try:
        base = graph_from_json(data["base"])
        assign = {}
        for key, entry in data["assign"].items():
            v = decode_label(json.loads(key))
            rho = {decode_label(json.loads(p)): decode_label(lab)
                   for p, lab in entry["rho"].items()}
            assign[v] = make_xgraph(graph_from_json(entry["graph"]), rho)
    except (KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
        raise InvalidParameter(f"malformed graph-of-graphs document: {exc}") from exc
    return make_gog(base, assign)


def record_to_json(rec):
    return {
        "source": graph_to_json(rec.source),
        "target": graph_to_json(rec.target),
        "deleted": [encode_label(v) for v in rec.deleted],
        "special_case": rec.special_case,
    }
