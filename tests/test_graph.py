"""Graphs: constructors, etale maps, gluing, elements, isomorphism.

The etale and embedding validators are exercised on the hand-sized
menagerie (sticks, corollas, wheels, lines) where every fibre can be
checked by eye, and the canonical form is stressed with scrambled
relabellings, repeated components, and the networkx VF2 matcher as an
independent oracle.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher, categorical_node_match

from brauerkit.graph import (
    InvalidParameter,
    NotAMorphism,
    NotAPort,
    SamePort,
    canonical_form,
    ch,
    compose_morphisms,
    connected_components,
    corolla,
    disjoint_union,
    element_arrows,
    elements,
    empty,
    glue,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    identity_morphism,
    is_connected,
    is_morphism,
    iso,
    isolated_vertex,
    line,
    make_graph,
    make_morphism,
    make_xgraph,
    stick,
    validate_embedding,
    validate_etale,
    vertex_element,
    wheel,
    x_certificate,
    x_iso,
)
from brauerkit import graph
from genutil import random_admissible, random_connected_graph, random_graph


def _relabel(g, edge_map, vertex_map):
    return make_graph(
        [edge_map[e] for e in g.edges],
        [(edge_map[a], edge_map[b]) for a, b in g.tau_pairs],
        [(edge_map[e], vertex_map[v]) for e, v in g.half_edges],
        [vertex_map[v] for v in g.vertices],
    )


def _scrambled(g, rng):
    # a copy on shuffled string labels, and where each edge went
    edge_targets = [f"e{i}" for i in range(len(g.edges))]
    vertex_targets = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(edge_targets)
    rng.shuffle(vertex_targets)
    edge_map = dict(zip(g.edges, edge_targets))
    return _relabel(g, edge_map, dict(zip(g.vertices, vertex_targets))), edge_map


def _scramble(g, rng):
    return _scrambled(g, rng)[0]


# ---------------------------------------------------------------------------
# constructors


def test_stick_presentation():
    s = stick()
    assert len(s.edges) == 2 and not s.half_edges and not s.vertices
    assert s.ports == s.edges
    assert not s.inner_edges
    assert s.stick_components == ((1, 2),)


def test_corolla_presentation():
    c = corolla(3)
    assert len(c.edges) == 6 and len(c.half_edges) == 3
    assert c.vertices == ("v",)
    assert c.ports == (1, 2, 3)
    assert not c.inner_edges
    assert c.valency("v") == 3
    assert corolla(0) == isolated_vertex()


def test_corolla_arbitrary_labels():
    c = corolla(["a", "b"])
    assert c.ports == ("a", "b")
    assert c.tau("a") == ("dag", "a")


def test_wheel_presentation():
    for m in range(1, 5):
        w = wheel(m)
        assert len(w.edges) == 2 * m
        assert len(w.half_edges) == 2 * m
        assert len(w.vertices) == m
        assert not w.ports
        assert w.inner_edges == w.edges
    assert wheel(1).tau(1) == 2
    assert wheel(1).edge_vertex == {1: 1, 2: 1}


def test_line_presentation():
    for k in range(0, 4):
        ln = line(k)
        assert len(ln.edges) == 2 * k + 2
        assert len(ln.half_edges) == 2 * k
        assert len(ln.vertices) == k
        assert ln.ports == (1, 2 * k + 2)
    assert line(0) == stick()
    # the inner part of a one-vertex line is empty: both orbits touch a port
    assert line(1).inner_edges == ()


def test_constructor_errors():
    with pytest.raises(InvalidParameter):
        wheel(0)
    with pytest.raises(InvalidParameter):
        line(-1)
    with pytest.raises(InvalidParameter):
        corolla(-1)
    with pytest.raises(InvalidParameter):
        corolla(True)


def test_corolla_refuses_bad_port_labels():
    with pytest.raises(InvalidParameter):
        corolla(["a", "a"])
    with pytest.raises(TypeError):
        corolla([True])


def test_make_graph_validation():
    with pytest.raises(InvalidParameter):
        make_graph([1, 1], [(1, 1)], [], [])
    with pytest.raises(InvalidParameter):
        make_graph([1, 2], [(1, 1)], [], [])
    with pytest.raises(InvalidParameter):
        make_graph([1, 2], [], [], [])
    with pytest.raises(InvalidParameter):
        make_graph([1, 2, 3], [(1, 2)], [], [])
    with pytest.raises(InvalidParameter):
        make_graph([1, 2], [(1, 2)], [(1, "v"), (1, "v")], ["v"])
    with pytest.raises(InvalidParameter):
        make_graph([1, 2], [(1, 2)], [(3, "v")], ["v"])


def test_valency_grading():
    for g in (wheel(3), line(2), corolla(4), disjoint_union(stick(), wheel(1))):
        covered = set(g.ports) | set(g.edge_vertex)
        assert covered == set(g.edges)
        assert sum(g.valency(v) for v in g.vertices) == len(g.half_edges)


# ---------------------------------------------------------------------------
# morphisms


def test_ch_is_etale_and_counts_edges():
    g = disjoint_union(wheel(2), stick())
    picks = []
    for e in g.edges:
        f = ch(g, e)
        assert validate_etale(f)
        picks.append(f)
    # a stick maps into g in exactly one way per choice of image for edge 1
    assert len({f.edge_pairs for f in picks}) == len(g.edges)


def test_vertex_element_is_etale():
    for g in (wheel(1), wheel(3), line(2), corolla(3)):
        for v in g.vertices:
            el = vertex_element(g, v)
            assert validate_etale(el.into)
            assert validate_embedding(el.into)


def test_not_a_morphism_raises():
    w = wheel(2)
    broken = make_morphism(w, w, {e: e for e in w.edges}, {1: 2, 2: 1})
    assert not is_morphism(broken)
    with pytest.raises(NotAMorphism):
        validate_etale(broken)


def test_etale_fibre_failures():
    thin = make_morphism(
        corolla(1), corolla(2),
        {1: 1, ("dag", 1): ("dag", 1)}, {"v": "v"})
    assert is_morphism(thin)
    assert not validate_etale(thin)

    collapsing = make_morphism(
        corolla(2), corolla(1),
        {1: 1, 2: 1, ("dag", 1): ("dag", 1), ("dag", 2): ("dag", 1)},
        {"v": "v"})
    assert is_morphism(collapsing)
    assert not validate_etale(collapsing)


def test_loop_neighbourhood_embeds_without_edge_injectivity():
    w = wheel(1)
    el = vertex_element(w, 1)
    images = [el.into.edge_map[e] for e in el.shape.edges]
    assert len(set(images)) < len(images)
    assert validate_embedding(el.into)


def test_double_cover_is_etale_but_not_embedding():
    cover = make_morphism(
        wheel(2), wheel(1),
        {1: 1, 2: 2, 3: 1, 4: 2}, {1: 1, 2: 1})
    assert validate_etale(cover)
    assert not validate_embedding(cover)


def test_component_inclusion_embeds():
    g = disjoint_union(wheel(1), stick())
    inc = make_morphism(wheel(1), g, {1: ("l", 1), 2: ("l", 2)}, {1: ("l", 1)})
    assert validate_embedding(inc)
    tick = make_morphism(stick(), g, {1: ("r", 1), 2: ("r", 2)}, {})
    assert validate_embedding(tick)


def test_two_sticks_onto_one_not_embedding():
    pair = disjoint_union(stick(), stick())
    fold = make_morphism(
        pair, stick(),
        {("l", 1): 1, ("l", 2): 2, ("r", 1): 1, ("r", 2): 2}, {})
    assert validate_etale(fold)
    assert not validate_embedding(fold)


def test_etale_and_embedding_closed_under_composition():
    g = disjoint_union(wheel(1), stick())
    inc = make_morphism(wheel(1), g, {1: ("l", 1), 2: ("l", 2)}, {1: ("l", 1)})
    el = vertex_element(wheel(1), 1)
    comp = compose_morphisms(inc, el.into)
    assert validate_etale(comp)
    assert validate_embedding(comp)


# ---------------------------------------------------------------------------
# gluing


def test_glue_corolla_gives_wheel():
    g = glue(corolla(2), 1, 2)
    assert iso(g, wheel(1)) is not None
    assert not g.ports
    assert g.inner_edges == g.edges


def test_glue_stick_returns_same_graph():
    assert glue(stick(), 1, 2) == stick()


def test_glue_two_corollas():
    d = disjoint_union(corolla(2), corolla(2))
    g = glue(d, ("l", 1), ("r", 1))
    assert len(g.vertices) == 2
    assert len(g.ports) == len(d.ports) - 2
    assert len(g.inner_edges) == 2


def test_glue_errors():
    with pytest.raises(NotAPort):
        glue(corolla(2), ("dag", 1), 1)
    with pytest.raises(SamePort):
        glue(corolla(2), 1, 1)
    with pytest.raises(NotAPort):
        glue(stick(), 3, 1)


def test_glue_drops_two_ports():
    d = disjoint_union(corolla(3), corolla(1))
    for p in (("l", 1), ("l", 2), ("l", 3)):
        g = glue(d, p, ("r", 1))
        assert len(g.ports) == len(d.ports) - 2


def test_glue_commutes_with_disjoint_union():
    g, h = corolla(3), wheel(1)
    both = disjoint_union(g, h)
    left = glue(both, ("l", 1), ("l", 3))
    right = disjoint_union(glue(g, 1, 3), h)
    assert left == right


def test_line_buildup():
    for k in range(0, 4):
        grown = glue(disjoint_union(line(k), corolla(2)),
                     ("l", 2 * k + 2), ("r", 1))
        assert iso(grown, line(k + 1)) is not None


# ---------------------------------------------------------------------------
# element category


def test_elements_counts():
    for g in (stick(), wheel(1), wheel(3), line(2), corolla(3),
              disjoint_union(wheel(2), stick())):
        objs = elements(g)
        assert len(objs) == len(g.tau_pairs) + len(g.vertices)
        arrows = element_arrows(g)
        assert len(arrows) == len(g.half_edges)


def test_elements_stick():
    objs = elements(stick())
    assert len(objs) == 1 and objs[0].kind == "stick"
    assert not element_arrows(stick())


def test_elements_wheel_one():
    objs = elements(wheel(1))
    kinds = [o.kind for o in objs]
    assert kinds == ["stick", "corolla"]
    assert len(objs[1].shape.ports) == 2
    assert len(element_arrows(wheel(1))) == 2


def test_element_arrows_commute():
    for g in (wheel(1), wheel(2), line(3), corolla(2),
              glue(disjoint_union(corolla(3), corolla(1)), ("l", 1), ("r", 1))):
        objs = elements(g)
        for arrow in element_arrows(g):
            through = compose_morphisms(objs[arrow.corolla_index].into, arrow.map)
            assert through == objs[arrow.stick_index].into
            assert validate_etale(arrow.map)


# ---------------------------------------------------------------------------
# connectivity


def test_components():
    assert len(connected_components(disjoint_union(stick(), wheel(2)))) == 2
    assert connected_components(empty()) == []
    assert not is_connected(empty())
    for k in range(0, 3):
        assert is_connected(line(k))
    for m in range(1, 4):
        assert is_connected(wheel(m))
    assert is_connected(isolated_vertex())


def test_component_pieces_match():
    g = disjoint_union(disjoint_union(wheel(1), line(1)), corolla(2))
    comps = connected_components(g)
    assert len(comps) == 3
    assert sorted(len(c.edges) for c in comps) == [2, 4, 4]
    assert sum(len(c.vertices) for c in comps) == len(g.vertices)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def test_canonical_form_stable_under_relabelling():
    rng = random.Random(7)
    for g in (wheel(3), line(2), corolla(4),
              glue(disjoint_union(corolla(3), corolla(3)), ("l", 1), ("r", 2))):
        base = canonical_form(g)
        for _ in range(5):
            assert canonical_form(_scramble(g, rng)) == base


def test_iso_witness_valid():
    rng = random.Random(11)
    g = glue(disjoint_union(corolla(3), corolla(2)), ("l", 2), ("r", 1))
    h = _scramble(g, rng)
    f = iso(g, h)
    assert f is not None
    assert is_morphism(f)
    assert validate_etale(f)
    assert sorted(f.edge_map.values(), key=repr) == sorted(h.edges, key=repr)


def test_iso_distinguishes():
    assert iso(wheel(2), line(2)) is None
    assert iso(wheel(2), wheel(3)) is None
    # a one-vertex line is exactly a bivalent corolla
    assert iso(corolla(2), line(1)) is not None
    assert iso(corolla(3), line(1)) is None
    assert iso(line(1), line(1)) is not None


def test_iso_wheel_relabelled():
    rng = random.Random(3)
    for _ in range(4):
        h = _scramble(wheel(3), rng)
        assert iso(wheel(3), h) is not None


def test_canonical_cache_is_bounded():
    assert graph._canonical_data.cache_info().maxsize is not None
    rng = random.Random(5)
    pairs = [(wheel(3), _scramble(wheel(3), rng)), (wheel(3), line(3)),
             (line(4), _scramble(line(4), rng))]
    before = [iso(g, h) is not None for g, h in pairs]
    graph._canonical_data.cache_clear()
    assert [iso(g, h) is not None for g, h in pairs] == before == [True, False, True]


def test_x_iso_respects_labels():
    c = corolla(2)
    a = make_xgraph(c, {1: 1, 2: 2})
    b = make_xgraph(c, {1: 2, 2: 1})
    # the corolla's port swap extends to an automorphism, so a label swap
    # is still x-isomorphic here
    f = x_iso(a, b)
    assert f is not None
    assert b.rho_map[f.edge_map[1]] == a.rho_map[1]


def test_x_iso_blocked_by_rigid_ports():
    # one port hangs off a bivalent vertex, the other two off a trivalent
    # one, so only the trivalent pair can be swapped by an automorphism
    g = glue(disjoint_union(corolla(2), corolla(3)), ("l", 1), ("r", 1))
    low, hi1, hi2 = ("l", 2), ("r", 2), ("r", 3)
    assert set(g.ports) == {low, hi1, hi2}
    a = make_xgraph(g, {low: 1, hi1: 2, hi2: 3})
    across = make_xgraph(g, {low: 2, hi1: 1, hi2: 3})
    within = make_xgraph(g, {low: 1, hi1: 3, hi2: 2})
    assert iso(g, g) is not None
    assert x_iso(a, a) is not None
    assert x_iso(a, across) is None
    assert x_iso(a, within) is not None


def test_x_iso_port_count_mismatch():
    a = make_xgraph(line(1), {1: 1, 4: 2})
    b = make_xgraph(corolla(3), {1: 1, 2: 2, 3: 3})
    assert x_iso(a, b) is None


def test_xgraph_validation():
    with pytest.raises(InvalidParameter):
        make_xgraph(line(1), {1: 1})
    with pytest.raises(InvalidParameter):
        make_xgraph(line(1), {1: 1, 4: 1})
    assert make_xgraph(wheel(2), {}).admissible
    assert not make_xgraph(stick(), {1: 1, 2: 2}).admissible
    assert not make_xgraph(wheel(1), None).admissible


# ---------------------------------------------------------------------------
# the networkx VF2 oracle
#
# A graph becomes a simple graph with one node per edge and per vertex:
# tau links two edge nodes and each half-edge links an edge node to its
# vertex.  An edge node meets one tau partner and at most one vertex, so
# the kind-preserving isomorphisms of the encoding are exactly the graph
# isomorphisms.  A port label joins the kind of its edge node for x_iso.


def _vf2_encoding(g, rho):
    G = nx.Graph()
    G.add_nodes_from((("e", e), {"colour": ("edge", rho.get(e))}) for e in g.edges)
    G.add_nodes_from((("v", v), {"colour": ("vertex",)}) for v in g.vertices)
    G.add_edges_from((("e", a), ("e", b)) for a, b in g.tau_pairs)
    G.add_edges_from((("e", e), ("v", v)) for e, v in g.half_edges)
    return G


def _vf2(g, h, rho_g=None, rho_h=None):
    matcher = GraphMatcher(_vf2_encoding(g, rho_g or {}), _vf2_encoding(h, rho_h or {}),
                           node_match=categorical_node_match("colour", None))
    return matcher.is_isomorphic()


def _assert_isomorphism(f, g, h, rho_g=None, rho_h=None):
    em, vm = f.edge_map, f.vertex_map
    assert f.source == g and f.target == h
    assert sorted(map(repr, em.values())) == sorted(map(repr, h.edges))
    assert sorted(map(repr, vm.values())) == sorted(map(repr, h.vertices))
    assert all(h.tau(em[e]) == em[g.tau(e)] for e in g.edges)
    assert {(em[e], vm[v]) for e, v in g.half_edges} == set(h.half_edges)
    if rho_g is not None:
        assert all(rho_h[em[p]] == lab for p, lab in rho_g.items())


def _rewired(g, rng):
    # the vertices of two half-edges exchanged: the valencies stay, so
    # iso's cheap invariants pass and the canonical search decides
    halves = list(g.half_edges)
    if len(halves) >= 2:
        i, j = rng.sample(range(len(halves)), 2)
        (a, u), (b, w) = halves[i], halves[j]
        halves[i], halves[j] = (a, w), (b, u)
    return make_graph(g.edges, g.tau_pairs, halves, g.vertices)


def _copies(*parts):
    # the disjoint union of the parts, each tagged by its place
    return make_graph(
        [(i, e) for i, g in enumerate(parts) for e in g.edges],
        [((i, a), (i, b)) for i, g in enumerate(parts) for a, b in g.tau_pairs],
        [((i, e), (i, v)) for i, g in enumerate(parts) for e, v in g.half_edges],
        [(i, v) for i, g in enumerate(parts) for v in g.vertices],
    )


# many equal components: without automorphism pruning the search tries
# every order of them.  Each partner has the same size, and the last
# passes every count and valency test that iso makes before the search.
SYMMETRIC = {
    "32 isolated vertices": (_copies(*[isolated_vertex()] * 32),
                             _copies(*[isolated_vertex()] * 30, wheel(2))),
    "24 sticks": (_copies(*[stick()] * 24), _copies(*[stick()] * 22, wheel(2))),
    "8 wheel(3)": (_copies(*[wheel(3)] * 8), _copies(*[wheel(3)] * 6, wheel(2), wheel(4))),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_iso_on_repeated_components(name):
    g, partner = SYMMETRIC[name]
    rng = random.Random(13)
    for _ in range(2):
        h = _scramble(g, rng)
        f = iso(g, h)
        assert f is not None
        _assert_isomorphism(f, g, h)
        assert iso(g, _scramble(partner, rng)) is None
    assert canonical_form(g) != canonical_form(partner)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=58)
@example(seed=193)
def test_canonical_form_of_repeated_pieces_ignores_labels(seed):
    # repeated pieces give the search many equal leaves to return from;
    # returning past the right ancestor makes the form depend on labels,
    # as it does at seeds 58 and 193 when the search goes back one level
    # too far
    rng = random.Random(seed)
    pieces = [random_connected_graph(rng, max_vertices=3, max_orbits=4)
              for _ in range(rng.randint(1, 3))]
    g = _copies(*pieces * rng.randint(2, 4))
    for _ in range(3):
        h = _scramble(g, rng)
        f = iso(g, h)
        assert f is not None
        _assert_isomorphism(f, g, h)
        assert canonical_form(h) == canonical_form(g)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["copy", "rewired", "other"]))
def test_iso_agrees_with_vf2(seed, kind):
    rng = random.Random(seed)
    make = rng.choice([random_graph, random_connected_graph])
    nv = rng.randint(1, 6)
    size = {"max_vertices": nv, "max_orbits": rng.randint(nv, 8)}
    g = make(rng, **size)
    h = {"copy": g, "rewired": _rewired(g, rng), "other": make(rng, **size)}[kind]
    h = _scramble(h, rng)
    want = _vf2(g, h)
    f = iso(g, h)
    assert (f is not None) == want
    if f is not None:
        _assert_isomorphism(f, g, h)
    assert (canonical_form(g) == canonical_form(h)) == want
    assert (x_certificate(make_xgraph(g, None)) == x_certificate(make_xgraph(h, None))) == want
    assert canonical_form(_scramble(g, rng)) == canonical_form(g)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["copy", "ports moved", "other"]))
def test_x_iso_agrees_with_vf2(seed, kind):
    rng = random.Random(seed)
    labels = tuple(range(1, rng.randint(0, 4) + 1))
    x = random_admissible(rng, labels, max_vertices=3, max_extra=3)
    y = x
    if kind == "other":
        y = random_admissible(rng, labels, max_vertices=3, max_extra=3)
    elif kind == "ports moved":
        moved = list(labels)
        rng.shuffle(moved)
        y = make_xgraph(x.graph, {p: moved[lab - 1] for p, lab in x.rho})
    h, edge_map = _scrambled(y.graph, rng)
    y = make_xgraph(h, {edge_map[p]: lab for p, lab in y.rho})
    want = _vf2(x.graph, y.graph, x.rho_map, y.rho_map)
    f = x_iso(x, y)
    assert (f is not None) == want
    if f is not None:
        _assert_isomorphism(f, x.graph, y.graph, x.rho_map, y.rho_map)
    assert (x_certificate(x) == x_certificate(y)) == want


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for g in (empty(), stick(), wheel(2), line(3), corolla(2),
              glue(disjoint_union(corolla(2), corolla(2)), ("l", 1), ("r", 2))):
        assert graph_from_json(graph_to_json(g)) == g


def test_json_rejects_garbage():
    with pytest.raises(InvalidParameter):
        graph_from_json({"edges": [1, 2]})
    doc = graph_to_json(line(1))
    for tau in ("xy", [["x"]]):
        with pytest.raises(InvalidParameter, match="malformed graph document"):
            graph_from_json(dict(doc, tau=tau))


def test_dot_output():
    text = graph_to_dot(line(1))
    assert text.startswith("graph")
    assert text.count("--") == len(line(1).tau_pairs)
    assert "point" in text
    assert "point" not in graph_to_dot(wheel(2))


def test_identity_morphism_is_embedding():
    for g in (wheel(2), line(2), corolla(3)):
        assert validate_embedding(identity_morphism(g))
