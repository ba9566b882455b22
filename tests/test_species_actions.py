"""Species actions by adjacent swaps, and the prepared products and contractions.

The references below are written out here, independent of the species
module: the closure of the listed actions into a whole group table, and
the uncached sorting formulas of apply_product and apply_contraction.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerkit import species
from brauerkit.coloured import monochrome_palette, oriented_palette
from brauerkit.graph import InvalidParameter
from brauerkit.labels import label_key
from brauerkit.species import (
    CACHE_CAP,
    ColourMismatch,
    apply_contraction,
    apply_product,
    build_free_species,
    check_modular_axioms,
    make_species,
    species_from_circuit_algebra,
    species_from_json,
    species_to_json,
    validate_circuit_operad,
)
from brauerkit.wiring import pairing_algebra

MONO = monochrome_palette()
ORI = oriented_palette()


# ---------------------------------------------------------------------------
# references


def comp(p, q):
    return tuple(p[i] for i in q)


def inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def apply(word, p):
    return tuple(word[i] for i in p)


def sort_perm(word):
    return tuple(sorted(range(len(word)), key=lambda i: (label_key(word[i]), i)))


def closure_table(S, word):
    # every composite of the listed maps at word, keyed by its permutation;
    # S(p o q) = S(q) o S(p)
    gens = [(perm, dict(mapping)) for w, perm, mapping in S.actions if w == word]
    elems = S.table_map.get(word, ())
    group = {tuple(range(len(word))): {e: e for e in elems}}
    layer = list(group)
    while layer:
        nxt = []
        for p in layer:
            for q, qmap in gens:
                r = comp(p, q)
                rmap = {e: qmap[group[p][e]] for e in elems}
                if r in group:
                    assert group[r] == rmap
                else:
                    group[r] = rmap
                    nxt.append(r)
        layer = nxt
    return group


def ref_act(S, groups, word, theta, name):
    if theta == tuple(range(len(theta))) or len(S.table_map.get(word, ())) <= 1:
        return name
    if word not in groups:
        groups[word] = closure_table(S, word)
    return groups[word][theta][name]


def ref_product(S, C, groups, w1, n1, w2, n2):
    q1, q2 = sort_perm(w1), sort_perm(w2)
    r1, r2 = apply(w1, q1), apply(w2, q2)
    base = C.box_map[(r1, r2)][(n1, n2)]
    whole = w1 + w2
    block = q1 + tuple(len(q1) + i for i in q2)
    theta = comp(inv(sort_perm(r1 + r2)), comp(inv(block), sort_perm(whole)))
    return ref_act(S, groups, apply(whole, sort_perm(whole)), theta, base)


def ref_contraction(S, C, groups, w, x, y, n):
    m = len(w)
    q = sort_perm(w)
    r = apply(w, q)
    qinv = inv(q)
    i, j = sorted((qinv[x], qinv[y]))
    val = C.zeta_map[(r, i, j)][n]
    keep_r = [k for k in range(m) if k not in (i, j)]
    keep_w = [k for k in range(m) if k not in (x, y)]
    pos_w = {p: t for t, p in enumerate(keep_w)}
    qhat = tuple(pos_w[q[k]] for k in keep_r)
    theta = comp(inv(qhat), sort_perm(tuple(w[k] for k in keep_w)))
    return ref_act(S, groups, tuple(r[k] for k in keep_r), theta, val)


def stabilizer(word):
    return [p for p in itertools.permutations(range(len(word))) if apply(word, p) == word]


# ---------------------------------------------------------------------------
# factored actions


def free_species():
    gen = make_species(MONO, 3, {("c", "c", "c"): ("g",)})
    return build_free_species(gen, 2, 6, 3)


ACTION_CASES = {
    "lift ori 4": lambda: species_from_circuit_algebra(pairing_algebra(ORI, 4))[0],
    "lift mono 6": lambda: species_from_circuit_algebra(pairing_algebra(MONO, 6))[0],
    "free arity 3": free_species,
}


@pytest.mark.parametrize("name", sorted(ACTION_CASES))
def test_factored_actions_equal_the_closure(name):
    S = ACTION_CASES[name]()
    listed = {w for w, _, _ in S.actions}
    assert listed and listed == set(S._swap_maps)  # every listing is factored
    for word, elems in S.tables:
        table = closure_table(S, word) if word in listed else {}
        for theta in stabilizer(word):
            for e in elems:
                want = table[theta][e] if word in listed else e
                assert S.act_name(word, theta, e) == want, (word, theta, e)


def test_factored_action_refuses_a_non_permutation():
    S = species_from_circuit_algebra(pairing_algebra(MONO, 4))[0]
    w = ("c",) * 4
    with pytest.raises(InvalidParameter):
        S.act_name(w, (0, 0, 1, 2), 0)
    with pytest.raises(InvalidParameter):
        S.act_name(w, (1, 0), 0)  # too short to stabilize the word


@pytest.mark.parametrize("s1", [
    {0: 0, 1: 1, 2: 3, 3: 2, 4: 4},  # commutes with s0: s0 s1 has order 2
    {0: 0, 1: 2, 2: 1, 3: 4, 4: 3},  # s0 s1 is a 3-cycle times a swap: order 6
])
def test_braid_relation_conflict_refused(s1):
    s0 = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4}
    w = ("c", "c", "c")
    with pytest.raises(InvalidParameter):
        make_species(MONO, 3, {w: (0, 1, 2, 3, 4)}, [(w, (1, 0, 2), s0), (w, (0, 2, 1), s1)])


# ---------------------------------------------------------------------------
# the accepted listings


@pytest.mark.parametrize("perm, mapping", [
    ((2, 1, 0), {0: 2, 1: 1, 2: 0}),  # a transposition of two letters that are not neighbours
    ((1, 2, 0), {0: 1, 1: 2, 2: 0}),  # a 3-cycle
    ((0, 1, 2), {0: 1, 1: 0, 2: 2}),  # the identity moving two elements
])
def test_only_identity_and_adjacent_swaps_are_listed(perm, mapping):
    w = ("c", "c", "c")
    with pytest.raises(InvalidParameter):
        make_species(MONO, 3, {w: (0, 1, 2)}, [(w, perm, mapping)])


def test_partial_listing_acts_on_its_parabolic_subgroup():
    # s0 and s2 at cccc generate a Klein four-group; everything outside
    # it needs s1, which is not listed; s0 is listed twice with one map
    w = ("c",) * 4
    s0 = {0: 1, 1: 0, 2: 2, 3: 3}
    s2 = {0: 0, 1: 1, 2: 3, 3: 2}
    S = make_species(MONO, 4, {w: (0, 1, 2, 3)},
                     [(w, (1, 0, 2, 3), s0), (w, (0, 1, 3, 2), s2), (w, (1, 0, 2, 3), s0)])
    table = closure_table(S, w)
    assert len(table) == 4
    for theta in stabilizer(w):
        if theta in table:
            assert [S.act_name(w, theta, e) for e in range(4)] == [table[theta][e] for e in range(4)]
        else:
            with pytest.raises(InvalidParameter):
                S.act_name(w, theta, 0)


# ---------------------------------------------------------------------------
# the loader against arbitrary action rows


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(allow_nan=False),
              st.sampled_from(["+", "-", "ab"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["tuple", "x"]), inner, max_size=2)),
    max_leaves=8,
)
# rows built from the table words, small permutations and bijections of
# the three elements load or fail on their content; the others on form
_TABLE_WORD = st.sampled_from([["+", "+"], ["+", "+", "+"], ["+", "-"]])
_SMALL_PERM = st.integers(2, 3).flatmap(lambda n: st.permutations(range(n))).map(list)
_BIJECTION = st.permutations(range(3)).map(lambda p: [[i, v] for i, v in enumerate(p)])
_WELL_FORMED_ROW = st.fixed_dictionaries(
    {"word": _TABLE_WORD, "perm": _SMALL_PERM, "map": _BIJECTION})
_ROW = st.one_of(
    st.fixed_dictionaries({
        "word": st.one_of(_TABLE_WORD, st.lists(st.sampled_from(["+", "-", "c"]), max_size=4),
                          _JSON),
        "perm": st.one_of(_SMALL_PERM, st.lists(st.integers(-1, 4), max_size=4), _JSON),
        "map": st.one_of(_BIJECTION, st.lists(st.lists(st.integers(-1, 3), min_size=2,
                                                       max_size=2), max_size=4), _JSON),
    }),
    _JSON,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_WELL_FORMED_ROW, max_size=4), st.lists(_ROW, max_size=3), _JSON))
def test_loader_refuses_bad_sigma_rows_with_value_error(sigma):
    tables = {("+", "+"): (0, 1, 2), ("+", "+", "+"): (0, 1, 2), ("+", "-"): (0, 1, 2)}
    doc = json.loads(json.dumps(species_to_json(make_species(ORI, 4, tables))))
    doc["sigma"] = sigma
    try:
        S = species_from_json(doc)
    except ValueError:
        return
    for word, perm, _ in S.actions:  # the identity or a swap of equal neighbours
        moved = [i for i, v in enumerate(perm) if v != i]
        assert moved == [] or (moved[1:] == [moved[0] + 1] and perm in stabilizer(word))
    for word, _ in S.tables:
        for theta in stabilizer(word):
            try:
                images = sorted(S.act_name(word, theta, e) for e in range(3))
            except InvalidParameter:
                continue
            assert images == [0, 1, 2]


# ---------------------------------------------------------------------------
# prepared products and contractions


@pytest.mark.parametrize("bound", [4, 6])
def test_plans_match_the_uncached_formulas(bound):
    # at bound 4 every contraction lands in a table of one element; bound 6
    # contracts S(+++---) into S(++--), whose two elements the action swaps
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, bound))
    omega, groups = ORI.omega, {}
    contractions = products = 0
    for _ in range(2):  # the second pass prepares each operation again, on cached transports
        for n in range(bound + 1):
            for w in itertools.product(ORI.colours, repeat=n):
                names = S.elements(w)
                for x, y in itertools.permutations(range(n), 2):
                    if w[x] != omega(w[y]):
                        continue
                    for a in names:
                        assert apply_contraction(S, C, w, x, y, a) == \
                            ref_contraction(S, C, groups, w, x, y, a), (w, x, y, a)
                        contractions += 1
                for k in range(n + 1):
                    w1, w2 = w[:k], w[k:]
                    for a, b in itertools.product(S.elements(w1), S.elements(w2)):
                        assert apply_product(S, C, w1, a, w2, b) == \
                            ref_product(S, C, groups, w1, a, w2, b), (w1, w2, a, b)
                        products += 1
    assert contractions and products
    for _ in range(2):  # a refused key is refused each time it is prepared
        with pytest.raises(ColourMismatch):
            apply_contraction(S, C, ("+", "+"), 0, 1, 0)


def test_lift_builds_no_group_table_and_caches_stay_bounded():
    S, C = species_from_circuit_algebra(pairing_algebra(MONO, 8))
    assert {len(w) for w in S._swap_maps} == {4, 6, 8}
    assert validate_circuit_operad(S, C).checked == 53_278
    assert check_modular_axioms(S, C).checked == 28_530
    caches = (S._acts, S._transport_plans)
    assert all(0 < len(c) <= CACHE_CAP for c in caches)


def test_caches_stop_at_the_cap(monkeypatch):
    monkeypatch.setattr(species, "CACHE_CAP", 3)
    S, C = species_from_circuit_algebra(pairing_algebra(ORI, 4))
    report = validate_circuit_operad(S, C)
    assert report.passed and report.checked == 76
    caches = (S._acts, S._transport_plans)
    assert all(len(c) == 3 for c in caches)
