import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from math import comb

import pytest

from brauerkit import labels, species
from brauerkit.axioms import connected_unit, external_unit, run_laws
from brauerkit.coloured import make_palette, monochrome_palette, oriented_palette
from brauerkit.graph import (
    InvalidParameter,
    compose_morphisms,
    connected_components,
    corolla,
    disjoint_union,
    empty,
    glue,
    isolated_vertex,
    iso,
    line,
    make_graph,
    make_morphism,
    make_xgraph,
    stick,
    wheel,
    x_certificate,
)
from brauerkit.species import (
    ArityBoundExceeded,
    BoundTooLarge,
    ColourMismatch,
    MissingActionEntry,
    MissingRestriction,
    apply_contraction,
    apply_product,
    build_free_species,
    check_modular_axioms,
    contract_free_element,
    enumerate_x_graphs,
    evaluate,
    free_component,
    make_operad_structure,
    make_species,
    nerve_presheaf,
    presheaf_from_json,
    presheaf_to_json,
    pull_back,
    segal_check,
    species_from_circuit_algebra,
    species_from_json,
    species_to_json,
    terminal_species,
    transport_structure,
    validate_circuit_operad,
)
from brauerkit.wiring import (
    CircuitAlgebra,
    check_derived_axioms,
    contraction_wiring,
    pairing_algebra,
)

from genutil import random_graph, renamed_pairing_table

MONO = monochrome_palette()
ORI = oriented_palette()
ABZ = make_palette(("a", "b", "z"), (("a", "b"),))


def mono_generator(arity=3):
    return make_species(MONO, arity, {("c",) * arity: ("g",)})


# ---------------------------------------------------------------------------
# species carriers


def test_make_species_validation():
    make_species(ABZ, 2, {("a", "b"): (0, 1)})
    with pytest.raises(InvalidParameter):
        make_species(ABZ, 2, {("b", "a"): (0,)})        # unsorted word
    with pytest.raises(InvalidParameter):
        make_species(ABZ, 2, {("a", "b"): (0, 0)})      # repeated element
    with pytest.raises(ArityBoundExceeded):
        make_species(ABZ, 1, {("a", "b"): (0,)})
    with pytest.raises(Exception):
        make_species(ABZ, 2, {("a", "q"): (0,)})        # unknown colour
    with pytest.raises(InvalidParameter):
        make_species(ABZ, 2, {("a", "a"): (0, 1)},
                     [(("a", "a"), (0, 1, 2), {0: 0, 1: 1})])
    with pytest.raises(InvalidParameter):
        make_species(ABZ, 2, {("a", "b"): (0, 1)},
                     [(("a", "b"), (1, 0), {0: 1, 1: 0})])  # perm moves letters
    with pytest.raises(InvalidParameter):
        make_species(ABZ, 2, {("a", "a"): (0, 1)},
                     [(("a", "a"), (1, 0), {0: 0, 1: 0})])  # not a bijection


def test_action_closure_conflict():
    # two generators for the same transposition that disagree
    with pytest.raises(InvalidParameter):
        make_species(MONO, 2, {("c", "c"): (0, 1)},
                     [(("c", "c"), (1, 0), {0: 1, 1: 0}),
                      (("c", "c"), (1, 0), {0: 0, 1: 1})])


def test_elements_normalizes_to_representative():
    S = make_species(ABZ, 3, {("a", "b"): (0, 1), ("z",): ("u",)})
    assert S.elements(("b", "a")) == (0, 1)
    assert S.elements(("a", "b")) == (0, 1)
    assert S.elements(("z", "z")) == ()
    with pytest.raises(ArityBoundExceeded):
        S.elements(("a",) * 4)


def test_transport_contravariant_composition():
    S = make_species(MONO, 3, {("c", "c", "c"): (0, 1, 2)},
                     [(("c", "c", "c"), (1, 0, 2), {0: 1, 1: 0, 2: 2}),
                      (("c", "c", "c"), (0, 2, 1), {0: 0, 1: 2, 2: 1})])
    w = ("c", "c", "c")
    p, q = (1, 0, 2), (0, 2, 1)
    pq = tuple(p[i] for i in q)
    for n in (0, 1, 2):
        assert S.transport(w, pq, n) == S.transport(w, q, S.transport(w, p, n))
    # the closure reaches every permutation of the full symmetric group
    three_cycle = (1, 2, 0)
    assert sorted(S.act_name(w, three_cycle, n) for n in (0, 1, 2)) == [0, 1, 2]


def test_transport_small_tables_need_no_entries():
    S = make_species(MONO, 4, {("c", "c"): ("x",)})
    assert S.transport(("c", "c"), (1, 0), "x") == "x"
    S2 = make_species(MONO, 2, {("c", "c"): (0, 1)})
    with pytest.raises(InvalidParameter):
        S2.transport(("c", "c"), (1, 0), 0)  # two elements, no action listed


def test_terminal_species_tables():
    T = terminal_species(ABZ, 2)
    words = [w for w, _ in T.tables]
    assert words == sorted(words, key=len) or len(words) == 10
    assert all(es == ("*",) for _, es in T.tables)
    assert len(T.tables) == 1 + 3 + 6


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_stick_gives_colourings():
    T = terminal_species(ABZ, 2)
    vals = evaluate(T, stick())
    assert len(vals) == 3
    assert {dict(cols)[1] for cols, _ in vals} == {"a", "b", "z"}
    for cols, alpha in vals:
        c = dict(cols)
        assert c[2] == ABZ.omega(c[1])
        assert alpha == ()


def test_evaluate_small_graphs():
    T = terminal_species(ABZ, 4)
    assert evaluate(T, empty()) == (((), ()),)
    assert len(evaluate(T, isolated_vertex())) == 1
    assert len(evaluate(T, corolla(2))) == 9
    assert len(evaluate(T, wheel(1))) == 3
    # one valid structure per edge colouring; the loop forces omega-duality
    for cols, _ in evaluate(T, wheel(1)):
        c = dict(cols)
        assert c[2] == ABZ.omega(c[1])


def test_evaluate_empty_table_blocks_vertex():
    S = mono_generator(3)
    assert evaluate(S, corolla(2)) == ()
    assert len(evaluate(S, corolla(3))) == 1


def test_evaluate_bound_guard():
    T = terminal_species(MONO, 2)
    with pytest.raises(ArityBoundExceeded):
        evaluate(T, corolla(3))


def test_evaluate_disjoint_union_multiplies():
    T = terminal_species(ABZ, 4)
    for g, h in [(wheel(1), corolla(2)), (stick(), wheel(2)), (empty(), corolla(1))]:
        assert len(evaluate(T, disjoint_union(g, h))) == \
            len(evaluate(T, g)) * len(evaluate(T, h))


def evaluate_by_equalizers(S, g):
    """The same set as evaluate, computed from the resolution: a product
    of vertex tables cut down by one letter-matching condition per inner
    orbit.  An independent second evaluator, kept here as the oracle."""
    if g.stick_components:
        raise InvalidParameter("the resolution needs a graph without stick components")
    for v in g.vertices:
        if g.valency(v) > S.bound:
            raise ArityBoundExceeded(
                f"vertex {v!r} has valency {g.valency(v)}, bound is {S.bound}"
            )
    omega = S.palette.omega
    attached = g.edge_vertex
    per_vertex = []
    for v in g.vertices:
        opts = []
        for word in itertools.product(S.palette.colours, repeat=g.valency(v)):
            for name in S.elements(word):
                opts.append((v, word, name))
        per_vertex.append(opts)
    out = []
    for combo in itertools.product(*per_vertex):
        letters = {}
        for v, word, _ in combo:
            for e, c in zip(g.vertex_edges(v), word):
                letters[e] = c
        if any(a in attached and b in attached and letters[a] != omega(letters[b])
               for a, b in g.tau_pairs):
            continue
        for p in g.ports:
            letters[p] = omega(letters[g.tau(p)])
        colour_items = tuple((e, letters[e]) for e in g.edges)
        out.append((colour_items, tuple((v, n) for v, _, n in combo)))
    return tuple(out)


def test_equalizer_form_matches_hand_graphs():
    T = terminal_species(ABZ, 6)
    glued = glue(disjoint_union(corolla(2), corolla(2)), ("l", 1), ("r", 2))
    for g in [empty(), isolated_vertex(), corolla(3), wheel(1), wheel(2),
              line(2), glued]:
        assert set(evaluate(T, g)) == set(evaluate_by_equalizers(T, g))


def test_equalizer_form_rejects_sticks():
    T = terminal_species(MONO, 2)
    with pytest.raises(InvalidParameter):
        evaluate_by_equalizers(T, stick())


def test_equalizer_form_random_graphs():
    rng = random.Random(401)
    T = terminal_species(ABZ, 12)
    n = 0
    while n < 100:
        g = random_graph(rng, max_vertices=3, max_orbits=4)
        if g.stick_components or any(g.valency(v) > 12 for v in g.vertices):
            continue
        assert set(evaluate(T, g)) == set(evaluate_by_equalizers(T, g))
        n += 1


def test_evaluate_respects_isomorphism():
    rng = random.Random(402)
    T = terminal_species(ABZ, 12)
    n = 0
    while n < 30:
        g = random_graph(rng, max_vertices=3, max_orbits=4)
        if any(g.valency(v) > 12 for v in g.vertices):
            continue
        h = disjoint_union(g, empty())  # fresh labels, same shape
        wit = iso(g, h)
        assert wit is not None
        moved = {transport_structure(T, wit, s) for s in evaluate(T, g)}
        assert moved == set(evaluate(T, h))
        n += 1


# ---------------------------------------------------------------------------
# operad structure over a species


def test_operad_from_monochrome_pairing_algebra():
    S, C = species_from_circuit_algebra(pairing_algebra(MONO, 4))
    assert {w: len(es) for w, es in S.tables if es} == \
        {(): 1, ("c", "c"): 1, ("c", "c", "c", "c"): 3}
    # instance counts of the exhaustive checks at this bound
    report = validate_circuit_operad(S, C)
    assert report.passed, report.violations
    assert report.mode == "exhaustive" and report.checked == report.candidates == 150
    modular = check_modular_axioms(S, C)
    assert modular.passed and modular.checked == 13


def test_operad_from_oriented_pairing_algebra():
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    assert len(S.elements(("+", "+", "-", "-"))) == 2
    report = validate_circuit_operad(S, C)
    assert report.passed, report.violations
    assert report.checked == 76
    modular = check_modular_axioms(S, C)
    assert modular.passed and modular.checked == 6


def test_algebra_action_direction():
    # swapping two strands of a four-strand pairing fixes exactly the
    # pairing that matches them with each other
    S, _ = species_from_circuit_algebra(pairing_algebra(MONO, 4))
    w = ("c", "c", "c", "c")
    swap01 = (1, 0, 2, 3)
    images = {n: S.act_name(w, swap01, n) for n in S.elements(w)}
    assert sorted(images.values()) == [0, 1, 2]
    assert sum(1 for n, m in images.items() if n == m) == 1
    # two distinct transpositions compose to a fixed-point-free cycle
    swap12 = (0, 2, 1, 3)
    comp = tuple(swap01[i] for i in swap12)
    assert all(S.act_name(w, comp, n) != n for n in S.elements(w))


def test_operad_product_corruption_detected():
    S, C = species_from_circuit_algebra(pairing_algebra(MONO, 4))
    key = ((), ("c", "c", "c", "c"))
    rows = dict(C.box_map[key])
    k0 = next(iter(rows))
    rows[k0] = (rows[k0] + 1) % 3
    box = {k: dict(v) for k, v in C.box_map.items()}
    box[key] = rows
    bad = make_operad_structure(box, {k: dict(v) for k, v in C.zeta_map.items()},
                                dict(C.epsilon_map), C.external_unit)
    report = validate_circuit_operad(S, bad)
    assert not report.passed
    kinds = {v[0] for v in report.violations}
    assert kinds & {"product-associativity", "product-contraction",
                    "product-equivariance", "external-unit"}
    assert all(isinstance(v[1], str) and v[1] for v in report.violations)


def test_product_contraction_corruption_detected_by_every_checker():
    # the contraction of positions 1, 2 of a six-point pairing is shifted
    # to the next element of the three pairings of four points, so
    # contracting before or after a product disagree
    A = pairing_algebra(MONO, 6)
    bad_wd = contraction_wiring(MONO, ("c",) * 6, 1, 2)
    pool = A.elements(("c",) * 4)
    assert len(pool) == 3

    def action(wd, inputs):
        out = A.action(wd, inputs)
        return pool[(pool.index(out) + 1) % 3] if wd == bad_wd else out

    bad = CircuitAlgebra(MONO, 6, A.carriers, action)
    bad_down = CircuitAlgebra(MONO, 6, A.carriers, action, downward_only=True)
    for report in (check_derived_axioms(bad), check_derived_axioms(bad_down),
                   validate_circuit_operad(*species_from_circuit_algebra(bad))):
        assert not report.passed
        assert "product-contraction" in {kind for kind, _ in report.violations}


def test_operad_contraction_corruption_detected():
    S, C = species_from_circuit_algebra(pairing_algebra(MONO, 4))
    key = (("c", "c", "c", "c"), 0, 1)
    rows = dict(C.zeta_map[key])
    k0 = next(iter(rows))
    rows[k0] = "junk"
    zeta = {k: dict(v) for k, v in C.zeta_map.items()}
    zeta[key] = rows
    bad = make_operad_structure({k: dict(v) for k, v in C.box_map.items()},
                                zeta, dict(C.epsilon_map), C.external_unit)
    report = validate_circuit_operad(S, bad)
    assert not report.passed
    assert any(v[0] == "contraction-typing" for v in report.violations)


# sha256 of repr((S.tables, S.actions, C.boxtimes, C.contraction,
# C.epsilon, C.external_unit)) of the lift, recorded before the lift
# read its operations from wiring._algebra_ops; the bound-2 tables are
# the renamed pairing tables that species check-co reads
LIFT_PINS = {
    "pairing mono 6": (lambda: pairing_algebra(MONO, 6),
                       "3aefd7d2f428511e277232eea1857d7fa84fd7164a5eaa5ea609ce2a3df105e4"),
    "pairing ori 4": (lambda: pairing_algebra(ORI, 4),
                      "8a90da8f319d709da6b036ab61a178adae2aa7a2c55ee168dbd3af3335a51255"),
    "table ori 2": (lambda: renamed_pairing_table(ORI, 2),
                    "02e7406554bf7e58fa2915334d51183c8905c3a09b5fb2fe20f225cbe4f1d7da"),
    "table mono 2": (lambda: renamed_pairing_table(MONO, 2),
                     "c84a7a086b7d08abd290751037f43c5c9772f999cf28c3fd7eb44f98ff7d08c1"),
}


@pytest.mark.parametrize("name", sorted(LIFT_PINS))
def test_lift_pinned(name):
    build, digest = LIFT_PINS[name]
    S, C = species_from_circuit_algebra(build())
    data = (S.tables, S.actions, C.boxtimes, C.contraction, C.epsilon, C.external_unit)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest


def find_connected_units(S, C):
    """Every epsilon table satisfying unit symmetry and the connected
    unit law against C's product and contraction."""
    colours = S.palette.colours
    found = []
    for combo in itertools.product(*(S.elements((c, S.palette.omega(c))) for c in colours)):
        candidate = dataclasses.replace(C, epsilon=tuple(zip(colours, combo)))
        ops = species._table_ops(S, candidate)
        if run_laws([species._unit_symmetry(S, ops), connected_unit(ops)]).passed:
            found.append(candidate.epsilon)
    return tuple(found)


def find_external_units(S, C):
    """Every element of S() satisfying the external unit law against C's product."""
    found = []
    for u in S.elements(()):
        ops = species._table_ops(S, dataclasses.replace(C, external_unit=u))
        if run_laws([external_unit(ops)]).passed:
            found.append(u)
    return tuple(found)


def test_unit_uniqueness():
    # a lawful structure admits exactly one of each unit
    for palette in (MONO, ORI):
        S, C = species_from_circuit_algebra(pairing_algebra(palette, 4))
        assert find_connected_units(S, C) == (tuple(C.epsilon),)
        assert find_external_units(S, C) == (C.external_unit,)


def test_terminal_operad_structure_passes():
    T = terminal_species(MONO, 4)
    words = [w for w, _ in T.tables]
    box = {(w1, w2): {("*", "*"): "*"} for w1 in words for w2 in words
           if len(w1) + len(w2) <= 4}
    zeta = {(w, i, j): {"*": "*"} for w in words
            for i in range(len(w)) for j in range(i + 1, len(w))}
    C = make_operad_structure(box, zeta, {"c": "*"}, "*")
    assert validate_circuit_operad(T, C).passed
    assert check_modular_axioms(T, C).passed


def test_missing_tables_reported():
    T = terminal_species(MONO, 2)
    C = make_operad_structure({}, {}, {"c": "*"})
    report = validate_circuit_operad(T, C)
    assert not report.passed
    kinds = {v[0] for v in report.violations}
    assert "product-typing" in kinds and "contraction-typing" in kinds


def _corrupt_ori4(what):
    """The lift of pairing_algebra(ORI, 4), rebuilt from dicts with one
    corruption that the typing pass reports."""
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    box = {k: dict(v) for k, v in C.box_map.items()}
    zeta = {k: dict(v) for k, v in C.zeta_map.items()}
    eps, unit = dict(C.epsilon_map), C.external_unit
    pm = ("+", "-")
    if what == "unknown word":
        box[(("-", "+"), ())] = {}
    elif what == "rows miss the grid":
        del box[((), ())][(0, 0)]
    elif what == "product value":
        box[((), ())][(0, 0)] = 99
    elif what == "bad contraction key":
        zeta[(pm, 1, 0)] = {0: 0}
    elif what == "not omega-dual":
        zeta[(("+", "+"), 0, 1)] = {}
    elif what == "contraction rows":
        del zeta[(pm, 0, 1)][0]
    elif what == "epsilon":
        eps["+"] = 99
    elif what == "external unit":
        unit = 99
    return S, make_operad_structure(box, zeta, eps, unit)


TYPING_VIOLATIONS = {
    "unknown word": ("product-typing", "unknown word ('-', '+')"),
    "rows miss the grid": ("product-typing", "rows at () x () miss the element grid"),
    "product value": ("product-typing", "() x () at (0, 0) -> 99"),
    "bad contraction key": ("contraction-typing", "bad key (('+', '-'), 1, 0)"),
    "not omega-dual": ("contraction-typing", "(0, 1) not omega-dual in ('+', '+')"),
    "contraction rows": ("contraction-typing", "rows at (('+', '-'), 0, 1) miss the table"),
    "epsilon": ("unit-typing", "epsilon['+'] outside S('+', '-')"),
    "external unit": ("unit-typing", "external unit outside the empty-word table"),
}


@pytest.mark.parametrize("what", sorted(TYPING_VIOLATIONS))
def test_typing_pass_reports_each_corruption(what):
    # the typing pass runs first and no law runs after a typing violation
    report = validate_circuit_operad(*_corrupt_ori4(what))
    assert not report.passed and report.checked == 0
    assert report.violations == (TYPING_VIOLATIONS[what],)


def test_apply_ops_at_unsorted_words():
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    w = ("-", "+")
    n = S.elements(w)[0]
    assert apply_contraction(S, C, w, 0, 1, n) in S.elements(())
    assert apply_contraction(S, C, w, 1, 0, n) == apply_contraction(S, C, w, 0, 1, n)
    assert apply_product(S, C, w, n, w, n) in S.elements(("+", "+", "-", "-"))
    with pytest.raises(ColourMismatch):
        apply_contraction(S, C, ("+", "+"), 0, 1, S.elements(("+", "+"))[0]) \
            if S.elements(("+", "+")) else (_ for _ in ()).throw(
                ColourMismatch("empty table"))
    # the multiplication: contract position 0 of each factor after the product
    got = apply_contraction(S, C, w + ("+", "-"), 0, 2,
                            apply_product(S, C, w, n, ("+", "-"), S.elements(("+", "-"))[0]))
    assert got in S.elements(("+", "-"))
    with pytest.raises(MissingActionEntry):
        apply_product(S, C, ("+",), 99, (), 0)


def test_unit_violations_reported():
    # the swap exchanges the two elements of S(c, c), so no epsilon is
    # fixed by it; the tables are complete and typed
    S = make_species(MONO, 2, {(): (0,), ("c", "c"): (0, 1)},
                     [(("c", "c"), (1, 0), {0: 1, 1: 0})])
    cc = ("c", "c")
    box = {((), ()): {(0, 0): 0}, ((), cc): {(0, a): a for a in (0, 1)},
           (cc, ()): {(a, 0): a for a in (0, 1)}}
    zeta = {(cc, 0, 1): {0: 0, 1: 0}}
    report = validate_circuit_operad(S, make_operad_structure(box, zeta, {"c": 0}))
    assert {kind for kind, _ in report.violations} == {"unit-symmetry"}
    # an epsilon that misses a colour fails typing
    report = validate_circuit_operad(S, make_operad_structure(box, zeta, {}))
    assert report.violations == (("unit-typing", "epsilon does not cover the palette"),)


# ---------------------------------------------------------------------------
# bounded free components


def test_enumerate_base_cases():
    only = enumerate_x_graphs(0, 0, 0)
    assert len(only) == 1 and only[0].graph == empty()
    assert enumerate_x_graphs(2, 0, 4) == ()
    classes = enumerate_x_graphs(2, 1, 4)
    assert len(classes) == 3
    orbit_counts = sorted(len(xg.graph.tau_pairs) for xg in classes)
    assert orbit_counts == [2, 3, 4]  # corolla(2) plus one and two loops
    corolla_like = make_xgraph(corolla(2), {1: 1, 2: 2})
    assert x_certificate(classes[0]) in {x_certificate(c) for c in classes} \
        and any(x_certificate(make_xgraph(c.graph, dict(c.rho)))
                == x_certificate(corolla_like) for c in classes)


def test_enumerate_deterministic_and_guarded():
    assert enumerate_x_graphs((5, "p"), 2, 3) == enumerate_x_graphs((5, "p"), 2, 3)
    with pytest.raises(BoundTooLarge):
        enumerate_x_graphs(2, 4, 3)
    with pytest.raises(BoundTooLarge):
        enumerate_x_graphs(2, 2, 9)
    with pytest.raises(BoundTooLarge):
        enumerate_x_graphs(7, 1, 8)
    with pytest.raises(InvalidParameter):
        enumerate_x_graphs(-1, 1, 1)
    with pytest.raises(InvalidParameter):
        enumerate_x_graphs((1, 1), 1, 1)
    with pytest.raises(InvalidParameter):
        enumerate_x_graphs(1, -1, 1)


def test_label_and_enumeration_caches_are_bounded():
    assert labels.label_key.cache_info().maxsize is not None
    assert species._enumerate.cache_info().maxsize is not None
    words = [("c", 2, (1, "x")), (3, "b"), ((), "a", 1)]
    before = ([labels.sort_labels(w) for w in words],
              [enumerate_x_graphs(x, 2, 4) for x in ((1, 2), 3)])
    labels.label_key.cache_clear()
    species._enumerate.cache_clear()
    after = ([labels.sort_labels(w) for w in words],
             [enumerate_x_graphs(x, 2, 4) for x in ((1, 2), 3)])
    assert after == before


def brute_classes(labels, v_max, e_max):
    # independent generation: every port grabs a vertex slot, leftover
    # slots pair among themselves
    def pairings(ports, slots):
        if ports:
            p, rest = ports[0], ports[1:]
            for k in range(len(slots)):
                for more in pairings(rest, slots[:k] + slots[k + 1:]):
                    yield ((p, slots[k]),) + more
        elif slots:
            a = slots[0]
            for k in range(1, len(slots)):
                for more in pairings((), slots[1:k] + slots[k + 1:]):
                    yield ((a, slots[k]),) + more
        else:
            yield ()

    certs = set()
    for nv in range(v_max + 1):
        degree_range = range(2 * e_max - len(labels) + 1) if nv else [0]
        for degs in itertools.product(degree_range, repeat=nv):
            total = sum(degs)
            if total < len(labels) or (total - len(labels)) % 2:
                continue
            if len(labels) + (total - len(labels)) // 2 > e_max:
                continue
            slots = tuple(("s", v + 1, k) for v, d in enumerate(degs)
                          for k in range(d))
            owner = {s: s[1] for s in slots}
            for tau in pairings(tuple(labels), slots):
                g = make_graph(list(labels) + list(slots), tau,
                               [(s, owner[s]) for s in slots],
                               range(1, nv + 1))
                certs.add(x_certificate(make_xgraph(g, {p: p for p in labels})))
    return certs


def test_enumerate_complete_against_brute_force():
    for labels, v_max, e_max in [((), 2, 3), ((1, 2), 2, 3), ((1,), 1, 2),
                                 ((1, 2, 3), 1, 3)]:
        reps = enumerate_x_graphs(labels, v_max, e_max)
        got = {x_certificate(xg) for xg in reps}
        assert len(got) == len(reps)
        want = brute_classes(labels, v_max, e_max)
        assert got == want, (labels, v_max, e_max, len(got), len(want))


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def class_buckets(n, v_max, e_max, connected_only=False):
    # enumerated classes by (vertices, tau-orbits)
    return Counter((len(xg.graph.vertices), len(xg.graph.tau_pairs))
                   for xg in enumerate_x_graphs(n, v_max, e_max)
                   if not connected_only or len(connected_components(xg.graph)) == 1)


def times(a, b, v_max, e_max):
    # product of (vertices, orbits) generating functions, truncated
    out = Counter()
    for (v1, t1), m1 in a.items():
        for (v2, t2), m2 in b.items():
            if v1 + v2 <= v_max and t1 + t2 <= e_max:
                out[(v1 + v2, t1 + t2)] += m1 * m2
    return out


def euler_transform(k0, v_max, e_max):
    # multisets of closed components: prod over (v, t) of (1 - x^v y^t)^(-k0)
    out = Counter({(0, 0): 1})
    for (v, t), k in k0.items():
        powers = Counter({(j * v, j * t): comb(k + j - 1, j)
                          for j in range(v_max // v + 1) if j * t <= e_max})
        out = times(out, powers, v_max, e_max)
    return out


# (v_max, e_max, largest |X|): inside the enumeration caps (v 3, e 8,
# |X| 6), at most about 0.1 s per enumeration; at (3, 5) the classes for
# |X| = 0..3 number 144, 160, 178 and 173
COUNTING_BOUNDS = [(3, 5, 4), (2, 7, 4), (1, 8, 6)]


@pytest.mark.parametrize("v_max,e_max,x_max", COUNTING_BOUNDS)
def test_enumerate_counts_match_connected_pieces(v_max, e_max, x_max):
    # each class splits uniquely into connected pieces: a set partition
    # of the ports, one labelled connected class per block, and a
    # multiset of closed connected classes; vertices and orbits add
    connected = {k: class_buckets(k, v_max, e_max, connected_only=True)
                 for k in range(x_max + 1)}
    closed = euler_transform(connected[0], v_max, e_max)
    for n in range(x_max + 1):
        want = Counter()
        for partition in set_partitions(list(range(n))):
            term = closed
            for block in partition:
                term = times(term, connected[len(block)], v_max, e_max)
            want.update(term)
        assert class_buckets(n, v_max, e_max) == want, (n, v_max, e_max)


def test_free_component_terminal_counts_classes():
    T = terminal_species(MONO, 8)
    classes = enumerate_x_graphs(2, 1, 4)
    fc = free_component(T, 2, 1, 4)
    assert len(fc) == len(classes)
    assert {idx for idx, _ in fc} == set(range(len(classes)))


def test_free_component_monotone_in_bounds():
    T = terminal_species(MONO, 8)

    def keyed(x, v, e):
        reps = enumerate_x_graphs(x, v, e)
        return {(x_certificate(reps[idx]), st) for idx, st in free_component(T, x, v, e)}

    small = keyed(2, 1, 3)
    large = keyed(2, 2, 4)
    assert small <= large
    assert len(small) < len(large)


def test_free_component_truncates_oversized_vertices():
    T2 = terminal_species(MONO, 2)
    fc = free_component(T2, 2, 1, 4)
    # only the loop-free class fits the arity bound
    assert len(fc) == 1


def test_contract_free_element_hand_case():
    T = terminal_species(MONO, 8)
    classes = enumerate_x_graphs(2, 1, 4)
    idx = next(i for i, xg in enumerate(classes)
               if len(xg.graph.tau_pairs) == 2)
    element = next(e for e in free_component(T, 2, 1, 4) if e[0] == idx)
    jdx, structure = contract_free_element(T, 2, 1, 4, element, 1, 2)
    targets = enumerate_x_graphs((), 1, 4)
    assert x_certificate(targets[jdx]) == \
        x_certificate(make_xgraph(wheel(1), None)) or \
        len(targets[jdx].graph.tau_pairs) == 1
    assert (jdx, structure) in free_component(T, (), 1, 4)


def test_contract_free_element_matches_glued_representative():
    T = terminal_species(ABZ, 8)
    classes = enumerate_x_graphs(2, 1, 3)
    omega = ABZ.omega
    for element in free_component(T, 2, 1, 3):
        idx, (cols, _) = element
        xg = classes[idx]
        rho_inv = {lab: p for p, lab in xg.rho}
        kappa = dict(cols)
        if kappa[rho_inv[1]] != omega(kappa[rho_inv[2]]):
            with pytest.raises(ColourMismatch):
                contract_free_element(T, 2, 1, 3, element, 1, 2)
            continue
        jdx, structure = contract_free_element(T, 2, 1, 3, element, 1, 2)
        targets = enumerate_x_graphs((), 1, 3)
        glued = glue(xg.graph, rho_inv[1], rho_inv[2])
        assert x_certificate(targets[jdx]) == \
            x_certificate(make_xgraph(glued, {}))
        assert structure in evaluate(T, targets[jdx].graph)


def test_contract_free_element_rejects_bad_ports():
    T = terminal_species(MONO, 8)
    element = free_component(T, 2, 1, 4)[0]
    with pytest.raises(InvalidParameter):
        contract_free_element(T, 2, 1, 4, element, 1, 1)
    with pytest.raises(InvalidParameter):
        contract_free_element(T, 2, 1, 4, element, 1, 7)


def test_build_free_species_arity_three_generator():
    FS = build_free_species(mono_generator(3), 2, 6, 3)
    assert {w: len(es) for w, es in FS.tables} == {
        (): 3, ("c",): 1, ("c", "c"): 3, ("c", "c", "c"): 1,
    }
    # table entries carry their own port word
    classes = {n: enumerate_x_graphs(tuple(range(1, n + 1)), 2, 6)
               for n in range(4)}
    for w, es in FS.tables:
        for idx, (cols, _) in es:
            xg = classes[len(w)][idx]
            kappa = dict(cols)
            rho_inv = {lab: p for p, lab in xg.rho}
            assert tuple(kappa[rho_inv[k]] for k in range(1, len(w) + 1)) == w


def test_build_free_species_action_closes():
    FS = build_free_species(mono_generator(3), 2, 6, 3)
    w = ("c", "c")
    names = FS.elements(w)
    images = [FS.act_name(w, (1, 0), n) for n in names]
    assert sorted(images, key=repr) == sorted(names, key=repr)


# ---------------------------------------------------------------------------
# nerve and the Segal condition


def acceptance_graph_list():
    glued = glue(disjoint_union(corolla(3), corolla(3)), ("l", 1), ("r", 1))
    return [
        ("stick", stick()),
        ("corolla1", corolla(1)),
        ("corolla2", corolla(2)),
        ("corolla3", corolla(3)),
        ("wheel1", wheel(1)),
        ("wheel2", wheel(2)),
        ("glued", glued),
    ]


def test_nerve_passes_segal():
    FS = build_free_species(mono_generator(3), 2, 6, 3)
    named = acceptance_graph_list()
    P = nerve_presheaf(FS, named)
    sizes = dict((gid, len(es)) for gid, es in P.values)
    assert sizes["wheel1"] == 3 and sizes["wheel2"] == 9 and sizes["glued"] == 1
    report = segal_check(P, [gid for gid, _ in named])
    assert report.passed, report.results
    assert segal_check(P).passed  # default skips the support shapes


def test_nerve_terminal_species_passes():
    T = terminal_species(ABZ, 4)
    P = nerve_presheaf(T, acceptance_graph_list()[:6])
    assert segal_check(P).passed


def test_segal_corruption_names_the_graph():
    FS = build_free_species(mono_generator(3), 2, 6, 3)
    named = acceptance_graph_list()
    P = nerve_presheaf(FS, named)
    values = tuple((gid, es[1:] if gid == "wheel1" else es)
                   for gid, es in P.values)
    broken = dataclasses.replace(P, values=values)
    report = segal_check(broken, [gid for gid, _ in named])
    assert not report.passed
    assert report.failures == ("wheel1",)


def test_segal_missing_restriction():
    T = terminal_species(MONO, 4)
    P = nerve_presheaf(T, [("w", wheel(1))])
    with pytest.raises(InvalidParameter):
        segal_check(P, ["nope"])
    shape_ids = [gid for gid, _ in P.graphs if gid != "w"]
    with pytest.raises(MissingRestriction):
        segal_check(P, [shape_ids[0]])
    stripped = dataclasses.replace(P, restrictions=P.restrictions[1:])
    with pytest.raises(MissingRestriction):
        segal_check(stripped, ["w"])


def test_nerve_rejects_duplicate_ids():
    T = terminal_species(MONO, 4)
    with pytest.raises(InvalidParameter):
        nerve_presheaf(T, [("g", wheel(1)), ("g", stick())])


# ---------------------------------------------------------------------------
# pull-backs


def test_pull_back_is_contravariant():
    # (h2 o h1)^* = h1^* h2^* along automorphisms of a 4-corolla; S_4 acts
    # on the three pairings of S(cccc) through S_3, which is not abelian,
    # so a pull-back that relabelled through the inverse order would fail
    S, _ = species_from_circuit_algebra(pairing_algebra(MONO, 4))
    g = corolla(4)

    def aut(pi):
        edges = {p: pi[p - 1] + 1 for p in range(1, 5)}
        edges.update({("dag", p): ("dag", q) for p, q in list(edges.items())})
        return make_morphism(g, g, edges, {"v": "v"})

    auts = [aut(pi) for pi in itertools.permutations(range(4))]
    for st in evaluate(S, g):
        for h1, h2 in itertools.product(auts, repeat=2):
            assert pull_back(S, st, compose_morphisms(h2, h1)) == \
                pull_back(S, pull_back(S, st, h2), h1)
    moved = {pull_back(S, st, h) for h in auts for st in evaluate(S, g)}
    assert len(moved) == 3


def oriented_free_species():
    # an oriented generator whose two elements the swap s0 exchanges:
    # 4 actions over 75 elements, so the pull-backs relabel real names
    w = ("+", "+", "-")
    gen = make_species(ORI, 3, {w: ("g", "h")}, [(w, (1, 0, 2), {"g": "h", "h": "g"})])
    return build_free_species(gen, 2, 6, 4)


def free_species_data():
    FS = oriented_free_species()
    return repr((FS.tables, FS.actions))


def free_nerve():
    P = nerve_presheaf(oriented_free_species(), [("wheel", wheel(2)), ("line", line(2))])
    return json.dumps(presheaf_to_json(P), sort_keys=True)


def free_contractions():
    T = terminal_species(ORI, 4)
    out = []
    for element in free_component(T, 2, 1, 3):
        try:
            out.append(contract_free_element(T, 2, 1, 3, element, 1, 2))
        except ColourMismatch:
            out.append(None)
    return repr(out)


# sha256 of the outputs of the three callers of species.pull_back,
# recorded before they shared it: transport_structure (through the
# free species' actions), the nerve's restrictions and arrows, and
# contract_free_element.  The first two also read the graph certificate,
# which orders the free classes and picks the x_iso witnesses; they were
# recorded again when the canonical form changed, and
# test_free_species_shape_pinned holds the species up to class names.
PULL_BACK_PINS = {
    "free species": (free_species_data,
                     "5953e7b735787eb783e4203213af522890c9fef5c72847019d3fe6b08682bf7c"),
    "nerve": (free_nerve, "2bd67d75fc6e7b62fc7d82a729d4a1b956591ce5df905afbfaaf706042244853"),
    "contractions": (free_contractions,
                     "f19e1021d9ffd97aca0f5b579b5cc83587f26cddade5f8ba8858ba93b8091c54"),
}


@pytest.mark.parametrize("name", sorted(PULL_BACK_PINS))
def test_pull_back_pinned(name):
    build, digest = PULL_BACK_PINS[name]
    assert hashlib.sha256(build().encode()).hexdigest() == digest


def cycle_type(mapping):
    mapping = dict(mapping)
    seen, lengths = set(), []
    for start in mapping:
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = mapping[x]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


# the free species up to renaming its classes: the table size at each
# word and the cycle type of each listed swap.  The graph certificate
# orders and names the classes, so the digests above move with it, but
# these do not.
FREE_SHAPES = {
    "mono bound 2": (
        lambda: build_free_species(mono_generator(3), 2, 6, 2),
        {(): 3, ("c",): 1, ("c", "c"): 3},
        {(("c", "c"), (1, 0)): (1, 1, 1)}),
    "oriented bound 4": (
        oriented_free_species,
        {(): 1, ("-",): 4, ("-", "-"): 32, ("+", "-", "-"): 2, ("+", "-", "-", "-"): 36},
        {(("-", "-"), (1, 0)): (1,) * 4 + (2,) * 14,
         (("+", "-", "-"), (0, 2, 1)): (2,),
         (("+", "-", "-", "-"), (0, 2, 1, 3)): (2,) * 18,
         (("+", "-", "-", "-"), (0, 1, 3, 2)): (2,) * 18}),
}


@pytest.mark.parametrize("name", sorted(FREE_SHAPES))
def test_free_species_shape_pinned(name):
    build, sizes, cycles = FREE_SHAPES[name]
    FS = build()
    assert {w: len(es) for w, es in FS.tables} == sizes
    assert {(w, perm): cycle_type(m) for w, perm, m in FS.actions} == cycles
    # the bounded free species has no admissible unit (the stick is not
    # enumerated) and its product leaves the vertex bound, so it carries
    # no circuit-operad structure to validate; its nerve is checked instead
    P = nerve_presheaf(FS, [("wheel", wheel(2)), ("line", line(2))])
    assert segal_check(P).passed


# ---------------------------------------------------------------------------
# serialization


def test_species_json_round_trip():
    S = make_species(ABZ, 3, {("a", "b"): (0, 1), ("z",): ("u",)},
                     [(("a", "b"), (0, 1), {0: 0, 1: 1})])
    doc = json.loads(json.dumps(species_to_json(S)))
    assert species_from_json(doc) == S
    S2, _ = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    doc2 = json.loads(json.dumps(species_to_json(S2)))
    back = species_from_json(doc2)
    assert back.tables == S2.tables
    assert back.elements(("+", "+", "-", "-")) == S2.elements(("+", "+", "-", "-"))


def test_presheaf_json_round_trip():
    FS = build_free_species(mono_generator(3), 2, 6, 3)
    P = nerve_presheaf(FS, [("w1", wheel(1)), ("st", stick())])
    doc = json.loads(json.dumps(presheaf_to_json(P)))
    P2 = presheaf_from_json(doc)
    assert P2 == P
    assert segal_check(P2).passed


def test_json_garbage_rejected():
    with pytest.raises(ValueError):
        species_from_json({"palette": {"colours": ["c"], "omega": []}, "tables": []})
    with pytest.raises(ValueError):
        species_from_json({"palette": {"colours": ["c"], "omega": []},
                           "bound": 2, "tables": [{"word": ["c"]}]})
    with pytest.raises(ValueError):
        presheaf_from_json({"graphs": [], "values": [{"id": "g"}]})
    with pytest.raises(ValueError):
        presheaf_from_json({"values": []})


# ---------------------------------------------------------------------------
# typed errors of the species constructors and prepared operations


@pytest.mark.parametrize("bound", [-1, True, 2.0, "2"])
def test_make_species_refuses_a_bad_bound(bound):
    with pytest.raises(InvalidParameter, match="bound must be a non-negative integer"):
        make_species(MONO, bound, {})


def test_make_species_refuses_a_duplicate_table_word():
    with pytest.raises(InvalidParameter, match="duplicate table word"):
        make_species(MONO, 2, [(("c", "c"), ("a",)), (["c", "c"], ("b",))])


def test_prepared_operations_refuse_bad_keys_and_missing_rows():
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    with pytest.raises(ArityBoundExceeded, match="exceeds bound 4"):
        apply_product(S, C, ("+", "-", "+"), 0, ("-", "+"), 0)
    name = S.elements(("+", "-"))[0]
    for x, y in [(0, 0), (-1, 1), (0, 2)]:
        with pytest.raises(InvalidParameter, match="out of range"):
            apply_contraction(S, C, ("+", "-"), x, y, name)
    apply_contraction(S, C, ("+", "-"), 0, 1, name)  # the row that is dropped below
    with pytest.raises(MissingActionEntry, match="no contraction entry"):
        apply_contraction(S, dataclasses.replace(C, contraction=()), ("+", "-"), 0, 1, name)


def test_classify_refuses_a_graph_outside_the_bounds():
    gen = make_species(MONO, 3, {("c", "c", "c"): ("g",)})
    xg = next(xg for xg in enumerate_x_graphs((1, 2), 2, 3) if len(xg.graph.vertices) == 2)
    with pytest.raises(InvalidParameter, match="escaped the enumeration bounds"):
        species._classify(gen, xg, None, 1, 3)
