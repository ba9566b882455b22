import json
import random

import pytest

from brauerkit.graph import (
    InvalidParameter,
    corolla,
    disjoint_union,
    empty,
    glue,
    is_connected,
    iso,
    isolated_vertex,
    line,
    make_graph,
    make_xgraph,
    stick,
    validate_embedding,
    wheel,
    x_iso,
)
from brauerkit.substitution import (
    BoundaryMismatch,
    DegenerateSubstitution,
    NotDeletable,
    ShapeMismatch,
    check_deletion_coherence,
    check_substitution_associativity,
    colimit,
    delete_vertices,
    gog_from_json,
    gog_to_json,
    identity_gog,
    make_gog,
    record_to_json,
    similar,
    terminal_representative,
)
from genutil import random_gog, random_graph


# ---------------------------------------------------------------------------
# identity substitution


def test_identity_gog_reproduces_base():
    for g in (stick(), wheel(2), corolla(3), line(2)):
        gog = identity_gog(g)
        colim, bk = colimit(gog)
        assert iso(colim, g) is not None
        assert set(colim.ports) == set(g.ports)
        assert set(bk.vertex_map.values()) == set(g.vertices)


def test_identity_gog_on_vertex_free_base():
    g = disjoint_union(stick(), stick())
    colim, bk = colimit(identity_gog(g))
    assert colim == g
    assert bk.vertex_pairs == ()


# ---------------------------------------------------------------------------
# colimits


def test_single_vertex_substitution():
    base = corolla(3)
    slots = base.vertex_edges("v")  # the dagger edges
    inner = glue(disjoint_union(corolla(2), corolla(3)), ("l", 1), ("r", 1))
    rho = dict(zip(sorted(inner.ports, key=str), slots))
    gog = make_gog(base, {"v": make_xgraph(inner, rho)})
    colim, _ = colimit(gog)
    assert iso(colim, inner) is not None


def test_bivalent_substitution_into_wheel():
    base = wheel(1)
    for k, expected in ((1, wheel(1)), (2, wheel(2)), (3, wheel(3))):
        inner = line(k)
        gog = make_gog(base, {1: make_xgraph(inner, {1: 1, 2 * k + 2: 2})})
        colim, bk = colimit(gog)
        assert iso(colim, expected) is not None
        assert len(colim.edges) == len(base.edges) + len(inner.inner_edges)
        assert validate_embedding(bk.embedding_map[1])


def test_line_buildup_via_identity_substitution():
    for k in range(3):
        g = glue(disjoint_union(line(k), corolla(2)), ("l", 2 * k + 2), ("r", 1))
        colim, _ = colimit(identity_gog(g))
        assert iso(colim, line(k + 1)) is not None


def test_colimit_bookkeeping_seeded():
    rng = random.Random(7)
    for _ in range(25):
        base = random_graph(rng)
        gog = random_gog(rng, base)
        colim, bk = colimit(gog)

        inner_total = sum(len(xg.graph.inner_edges) for _, xg in gog.assignment)
        assert len(colim.edges) == len(base.edges) + inner_total
        assert set(colim.ports) == set(base.ports)

        origins = [origin for _, origin in bk.edge_origin]
        assert len(bk.edge_origin) == len(colim.edges)
        assert sum(1 for o in origins if o[0] == "base") == len(base.edges)

        populated = {v for v, xg in gog.assignment if xg.graph.vertices}
        assert set(bk.vertex_map.values()) == populated

        for v, emb in bk.embeddings:
            assert emb.source == gog.assignment_map[v].graph
            assert emb.target == colim
            assert validate_embedding(emb)


def test_loop_substitution_embeds_without_edge_injectivity():
    gog = identity_gog(wheel(1))
    colim, bk = colimit(gog)
    emb = bk.embedding_map[1]
    images = [emb.edge_map[e] for e in emb.source.edges]
    assert len(set(images)) < len(images)
    assert validate_embedding(emb)


def test_empty_assignment_drops_isolated_vertex():
    base = disjoint_union(isolated_vertex(), stick())
    gog = make_gog(base, {("l", "v"): make_xgraph(empty(), {})})
    colim, bk = colimit(gog)
    assert colim.vertices == ()
    assert iso(colim, stick()) is not None
    assert bk.vertex_pairs == ()


def test_inner_edge_named_after_a_taken_base_label_gets_a_suffix():
    # the base's own edge ("sub", 1, 3) is the name inner edge 3 of vertex 1
    # would take, so that edge is named ("sub", 1, 3, 2)
    taken = ("sub", 1, 3)
    base = make_graph([taken, "p"], [(taken, "p")], [(taken, 1)], [1])
    inner = make_graph([1, 2, 3, 4], [(1, 2), (3, 4)], [(2, "w"), (3, "w"), (4, "w")], ["w"])
    colim, bk = colimit(make_gog(base, {1: make_xgraph(inner, {1: taken})}))
    assert set(colim.edges) == {taken, "p", ("sub", 1, 3, 2), ("sub", 1, 4)}
    assert dict(bk.edge_origin)[("sub", 1, 3, 2)] == ("inner", 1, 3)
    assert colim.tau(("sub", 1, 3, 2)) == ("sub", 1, 4)


def test_colimit_rejects_stick_assignment():
    base = corolla(2)
    bad = disjoint_union(stick(), wheel(1))
    xg = make_xgraph(bad, {("l", 1): ("dag", 1), ("l", 2): ("dag", 2)})
    gog = make_gog(base, {"v": xg})
    assert xg.graph.stick_components
    with pytest.raises(DegenerateSubstitution):
        colimit(gog)


def test_make_gog_validates_boundaries():
    base = corolla(2)
    with pytest.raises(BoundaryMismatch):
        make_gog(base, {"v": make_xgraph(corolla(2), {1: 1, 2: 2})})
    with pytest.raises(BoundaryMismatch):
        make_gog(base, {"v": make_xgraph(stick(), None)})
    with pytest.raises(InvalidParameter):
        make_gog(base, {})


# ---------------------------------------------------------------------------
# vertex deletion


def test_delete_line_to_stick_keeps_ports():
    rec = delete_vertices(line(3), [1, 2, 3])
    assert rec.special_case == "line_collapse"
    assert set(rec.target.edges) == {1, 8}
    assert rec.target.vertices == ()
    assert iso(rec.target, stick()) is not None


def test_delete_wheel_to_stick():
    rec = delete_vertices(wheel(2), [1, 2])
    assert rec.special_case == "wheel_collapse"
    assert iso(rec.target, stick()) is not None
    assert set(rec.target.edges) == {("kappa", 1, 1), ("kappa", 1, 2)}


def test_delete_one_wheel_vertex():
    rec = delete_vertices(wheel(2), [2])
    assert rec.special_case == "generic"
    assert iso(rec.target, wheel(1)) is not None


def test_delete_isolated_vertex():
    rec = delete_vertices(isolated_vertex(), ["v"])
    assert rec.special_case == "isolated_z"
    assert iso(rec.target, stick()) is not None


def test_fresh_stick_beside_a_taken_name_gets_a_suffix():
    # the loop's fresh stick would be ("kappa", 1, 1), the name of the
    # stick beside it, so it takes ("kappa", 1, 1, 2) and ("kappa", 1, 2)
    beside = (("kappa", 1, 1), ("z",))
    g = make_graph([1, 2, *beside], [(1, 2), beside], [(1, 1), (2, 1)], [1])
    rec = delete_vertices(g, [1])
    assert rec.special_case == "generic" and rec.deleted == (1,)
    assert rec.target.edges == (("kappa", 1, 1), ("kappa", 1, 1, 2), ("kappa", 1, 2), ("z",))
    assert rec.target.tau(("kappa", 1, 1, 2)) == ("kappa", 1, 2)


def test_a_repeated_vertex_is_deleted_once():
    rec = delete_vertices(line(2), [1, 1])
    assert rec.deleted == (1,)
    assert rec.target == delete_vertices(line(2), [1]).target


def test_delete_rejects_wrong_valency():
    with pytest.raises(NotDeletable):
        delete_vertices(corolla(3), ["v"])
    with pytest.raises(NotDeletable):
        delete_vertices(wheel(1), [99])


def test_delete_preserves_components_and_ports():
    g = disjoint_union(wheel(3), line(2))
    rec = delete_vertices(g, [("l", 2), ("r", 1)])
    assert rec.special_case == "generic"
    assert set(rec.target.ports) == set(g.ports)
    from brauerkit.graph import connected_components
    assert len(connected_components(rec.target)) == 2

    noop = delete_vertices(g, [])
    assert noop.target == g


def test_delete_mixed_full_components():
    g = disjoint_union(wheel(1), isolated_vertex())
    rec = delete_vertices(g, [("l", 1), ("r", "v")])
    assert rec.special_case == "generic"
    assert iso(rec.target, disjoint_union(stick(), stick())) is not None
    kinds = {e[0] for e in rec.target.edges}
    assert kinds == {"kappa", "z"}


def test_deletion_commutes_with_disjoint_union():
    g = wheel(3)
    left = disjoint_union(delete_vertices(g, [2]).target, corolla(2))
    right = delete_vertices(disjoint_union(g, corolla(2)), [("l", 2)]).target
    assert left == right


# ---------------------------------------------------------------------------
# terminal representatives and similarity


def test_terminal_representative_wheel_forgets_labels():
    for m in (1, 4):
        t = terminal_representative(make_xgraph(wheel(m), {}))
        assert t.rho is None and t.x_labels == ()
        assert iso(t.graph, stick()) is not None


def test_terminal_representative_line_keeps_labels():
    t = terminal_representative(make_xgraph(line(2), {1: 1, 6: 2}))
    assert t.rho_map == {1: 1, 6: 2}
    assert iso(t.graph, stick()) is not None


def test_terminal_representative_fixed_points():
    theta = make_graph(
        range(1, 7),
        [(1, 2), (3, 4), (5, 6)],
        [(1, "a"), (3, "a"), (5, "a"), (2, "b"), (4, "b"), (6, "b")],
        ("a", "b"),
    )
    xg = make_xgraph(theta, {})
    assert terminal_representative(xg) == xg

    for start in (make_xgraph(wheel(3), {}), make_xgraph(line(1), {1: 1, 4: 2})):
        once = terminal_representative(start)
        assert terminal_representative(once) == once


def test_terminal_representative_needs_connected():
    xg = make_xgraph(disjoint_union(wheel(1), wheel(1)), {})
    with pytest.raises(InvalidParameter):
        terminal_representative(xg)


def test_similar_lines_of_different_length():
    l2 = make_xgraph(line(2), {1: 1, 6: 2})
    l5 = make_xgraph(line(5), {1: 1, 12: 2})
    assert similar(l2, l5)
    assert similar(l2, make_xgraph(stick(), {1: 1, 2: 2}))


def test_similar_distinguishes_stick_orientations():
    s_id = make_xgraph(stick(), {1: 1, 2: 2})
    s_tau = make_xgraph(stick(), {1: 2, 2: 1})
    # the flip is a labelled isomorphism but not a deletion of anything
    assert x_iso(s_id, s_tau) is not None
    assert not similar(s_id, s_tau)

    l2_tau = make_xgraph(line(2), {1: 2, 6: 1})
    assert not similar(make_xgraph(line(2), {1: 1, 6: 2}), l2_tau)
    assert similar(l2_tau, s_tau)


def test_similar_closed_collapses():
    w1 = make_xgraph(wheel(1), {})
    w4 = make_xgraph(wheel(4), {})
    z = make_xgraph(isolated_vertex(), {})
    assert similar(w1, w4)
    assert similar(w4, z)
    assert similar(w1, z)

    theta = make_graph(
        range(1, 7),
        [(1, 2), (3, 4), (5, 6)],
        [(1, "a"), (3, "a"), (5, "a"), (2, "b"), (4, "b"), (6, "b")],
        ("a", "b"),
    )
    assert not similar(w1, make_xgraph(theta, {}))
    assert not similar(w1, make_xgraph(stick(), {1: 1, 2: 2}))


def test_similar_on_rigid_cores_matches_x_iso():
    # no bivalent vertices, so the terminal representative is the graph
    # itself and similarity reduces to labelled isomorphism
    g = glue(disjoint_union(corolla(3), corolla(4)), ("l", 1), ("r", 1))
    base = {("l", 2): 1, ("l", 3): 2, ("r", 2): 3, ("r", 3): 4, ("r", 4): 5}
    a = make_xgraph(g, base)
    across = make_xgraph(g, {**base, ("l", 2): 3, ("r", 2): 1})
    within = make_xgraph(g, {**base, ("l", 2): 2, ("l", 3): 1})
    assert terminal_representative(a) == a
    assert similar(a, within)
    assert not similar(a, across)


# ---------------------------------------------------------------------------
# coherence checks


def test_associativity_of_identity_nesting():
    base = wheel(2)
    outer = identity_gog(base)
    inners = {v: identity_gog(xg.graph) for v, xg in outer.assignment}
    assert check_substitution_associativity(outer, inners)


def test_associativity_seeded():
    rng = random.Random(11)
    for _ in range(10):
        base = random_graph(rng, max_vertices=3, max_orbits=4)
        outer = random_gog(rng, base)
        inners = {v: random_gog(rng, xg.graph) for v, xg in outer.assignment}
        assert check_substitution_associativity(outer, inners)


def test_associativity_shape_mismatch():
    base = wheel(1)
    outer = identity_gog(base)
    with pytest.raises(ShapeMismatch):
        check_substitution_associativity(outer, {})
    with pytest.raises(ShapeMismatch):
        check_substitution_associativity(outer, {1: identity_gog(wheel(2))})


def test_deletion_coherence_on_wheel():
    source = wheel(2)
    rec = delete_vertices(source, [2])
    inner = line(1)
    gog = make_gog(rec.target, {1: make_xgraph(inner, {1: 1, 4: 2})})
    assert check_deletion_coherence(source, [2], gog)


def test_deletion_coherence_seeded():
    rng = random.Random(13)
    done = 0
    while done < 10:
        source = random_graph(rng)
        deletable = [v for v in source.vertices if source.valency(v) in (0, 2)]
        if not deletable:
            continue
        w = rng.sample(deletable, rng.randint(1, len(deletable)))
        rec = delete_vertices(source, w)
        gog = random_gog(rng, rec.target)
        assert check_deletion_coherence(source, w, gog)
        done += 1


def test_deletion_coherence_shape_mismatch():
    source = wheel(2)
    with pytest.raises(ShapeMismatch):
        check_deletion_coherence(source, [2], identity_gog(wheel(2)))


# ---------------------------------------------------------------------------
# serialization


def test_gog_json_round_trip():
    gog = identity_gog(glue(disjoint_union(corolla(2), corolla(2)), ("l", 1), ("r", 1)))
    data = gog_to_json(gog)
    json.dumps(data)
    assert gog_from_json(data) == gog


def test_gog_json_rejects_garbage():
    with pytest.raises(InvalidParameter):
        gog_from_json({"base": {"edges": []}})
    with pytest.raises(InvalidParameter):
        gog_from_json({"base": gog_to_json(identity_gog(wheel(1)))["base"],
                       "assign": {"not json": {}}})


def test_record_json():
    rec = delete_vertices(wheel(2), [1, 2])
    data = record_to_json(rec)
    json.dumps(data)
    assert data["special_case"] == "wheel_collapse"
    assert len(data["deleted"]) == 2
