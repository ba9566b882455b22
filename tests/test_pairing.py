"""Pairings: validation, stacking composition, enumeration.

The composition oracle used here is deliberately different from the
library implementation: build the union multigraph of both pairings'
blocks and walk its components with BFS.  Degree-1 points (outer
boundary) end up on paths, degree-2 points (shared set) sit inside
paths or on cycles.
"""

from __future__ import annotations

import json
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brauerkit.labels import encode_label, label_key, sort_labels
from brauerkit.pairing import (
    DuplicateLabel,
    PairingError,
    SelfPair,
    SharedSetMismatch,
    UncoveredLabel,
    Pairing,
    all_pairings,
    compose_pairings,
    compose_pairings_detailed,
    make_pairing,
    orbits,
    pairing_from_json,
    pairing_to_json,
)


def _oracle_compose(p_xy, p_yz, shared):
    """Component walk over the union multigraph of both pairings."""
    shared = set(shared)
    adj = defaultdict(list)
    for a, b in list(p_xy.pairs) + list(p_yz.pairs):
        adj[a].append(b)
        adj[b].append(a)
    outer = [v for v in list(p_xy.carrier) + list(p_yz.carrier) if v not in shared]
    seen = set()
    path_ends = []
    for v in outer:
        if v in seen:
            continue
        # walk the path to its other end
        seen.add(v)
        prev, cur = None, v
        while True:
            nxts = list(adj[cur])
            if prev is not None:
                nxts.remove(prev)
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            seen.add(cur)
            if cur not in shared:
                break
        path_ends.append(frozenset((v, cur)))
    cycles = 0
    for v in shared:
        if v in seen:
            continue
        cycles += 1
        prev, cur = None, v
        while True:
            seen.add(cur)
            nxts = list(adj[cur])
            if prev is not None:
                nxts.remove(prev)
            prev, cur = cur, nxts[0]
            if cur == v:
                break
    return set(path_ends), cycles


def _random_pairing(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    pairs = [(labels[i], labels[i + 1]) for i in range(0, len(labels), 2)]
    return make_pairing(labels, pairs)


def test_make_pairing_smallest():
    p = make_pairing(["s", "t"], [("s", "t")])
    assert p.apply("s") == "t" and p.apply("t") == "s"
    assert orbits(p) == [("s", "t")]


def test_empty_carrier_is_legal():
    p = make_pairing([], [])
    assert orbits(p) == []
    q, closed = compose_pairings(p, p, [])
    assert orbits(q) == [] and closed == 0


def test_validation_errors():
    with pytest.raises(SelfPair):
        make_pairing(["a", "b"], [("a", "a"), ("b", "b")])
    with pytest.raises(DuplicateLabel):
        make_pairing(["a", "a"], [("a", "a")])
    with pytest.raises(DuplicateLabel):
        make_pairing(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    with pytest.raises(UncoveredLabel):
        make_pairing(["a", "b", "c", "d"], [("a", "b")])
    with pytest.raises(UncoveredLabel):
        make_pairing(["a", "b"], [("a", "z")])


def test_orbits_sorted_by_least_label():
    p = make_pairing(["d", "b", "a", "c"], [("c", "d"), ("b", "a")])
    assert orbits(p) == [("a", "b"), ("c", "d")]


def test_single_chain():
    p1 = make_pairing(["x1", "y1"], [("x1", "y1")])
    p2 = make_pairing(["y1", "z1"], [("y1", "z1")])
    q, closed = compose_pairings(p1, p2, ["y1"])
    assert orbits(q) == [("x1", "z1")]
    assert closed == 0


def test_trace_bubble():
    p = make_pairing(["y1", "y2"], [("y1", "y2")])
    q, closed = compose_pairings(p, p, ["y1", "y2"])
    assert orbits(q) == []
    assert closed == 1


def test_four_cycle_is_one_bubble():
    ys = ["y1", "y2", "y3", "y4"]
    p1 = make_pairing(ys, [("y1", "y2"), ("y3", "y4")])
    p2 = make_pairing(ys, [("y2", "y3"), ("y4", "y1")])
    q, closed = compose_pairings(p1, p2, ys)
    assert orbits(q) == []
    assert closed == 1


def test_shared_set_mismatch():
    p1 = make_pairing(["a", "y"], [("a", "y")])
    p2 = make_pairing(["y", "a"], [("y", "a")])
    # outer boundaries both contain "a"
    with pytest.raises(SharedSetMismatch, match=r"^outer boundaries overlap: \['a'\]$"):
        compose_pairings(p1, p2, ["y"])
    with pytest.raises(SharedSetMismatch, match="^shared set must lie in both carriers$"):
        compose_pairings(p1, p2, ["q"])


def test_compose_against_oracle_random():
    rng = random.Random(1803)
    for _ in range(300):
        nx = rng.choice([0, 1, 2, 3, 4])
        nz = rng.choice([0, 1, 2, 3, 4])
        ny = rng.choice([0, 1, 2, 3, 4, 5, 6])
        if (nx + ny) % 2 or (ny + nz) % 2:
            continue
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{i}" for i in range(ny)]
        zs = [f"z{i}" for i in range(nz)]
        p1 = _random_pairing(rng, xs + ys)
        p2 = _random_pairing(rng, ys + zs)
        q, closed = compose_pairings(p1, p2, ys)
        want_pairs, want_cycles = _oracle_compose(p1, p2, ys)
        assert {frozenset(ab) for ab in q.pairs} == want_pairs
        assert closed == want_cycles
        # block count bookkeeping
        assert len(p1.pairs) + len(p2.pairs) == len(q.pairs) + ny


def test_identity_pairing_composition_is_isomorphic():
    rng = random.Random(7)
    for _ in range(50):
        ny = 2 * rng.randint(0, 4)
        ys = [f"y{i}" for i in range(ny)]
        copies = [f"c{i}" for i in range(ny)]
        p = _random_pairing(rng, ys)
        ident = make_pairing(ys + copies, [(f"y{i}", f"c{i}") for i in range(ny)])
        q, closed = compose_pairings(p, ident, ys)
        assert closed == 0
        relabelled = {frozenset((f"c{a[1:]}", f"c{b[1:]}")) for a, b in p.pairs}
        assert {frozenset(ab) for ab in q.pairs} == relabelled


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_compose_associative(seed):
    rng = random.Random(seed)
    sizes = [rng.choice([0, 1, 2, 3]) for _ in range(4)]
    nx, ny, nz, nw = sizes
    if (nx + ny) % 2 or (ny + nz) % 2 or (nz + nw) % 2:
        return
    xs = [f"x{i}" for i in range(nx)]
    ys = [f"y{i}" for i in range(ny)]
    zs = [f"z{i}" for i in range(nz)]
    ws = [f"w{i}" for i in range(nw)]
    p1 = _random_pairing(rng, xs + ys)
    p2 = _random_pairing(rng, ys + zs)
    p3 = _random_pairing(rng, zs + ws)
    q12, k12 = compose_pairings(p1, p2, ys)
    qa, ka = compose_pairings(q12, p3, zs)
    q23, k23 = compose_pairings(p2, p3, zs)
    qb, kb = compose_pairings(p1, q23, ys)
    assert qa == qb
    assert k12 + ka == k23 + kb


def test_associativity_exhaustive_tiny():
    xs, ys, zs, ws = ["x0", "x1"], ["y0", "y1"], ["z0", "z1"], ["w0", "w1"]
    for p1 in all_pairings(xs + ys):
        for p2 in all_pairings(ys + zs):
            for p3 in all_pairings(zs + ws):
                q12, k12 = compose_pairings(p1, p2, ys)
                qa, ka = compose_pairings(q12, p3, zs)
                q23, k23 = compose_pairings(p2, p3, zs)
                qb, kb = compose_pairings(p1, q23, ys)
                assert qa == qb and k12 + ka == k23 + kb


def _label_walk(p_xy, p_yz, shared):
    """(composite, cycles) of the stack, traced on labels: each chain from
    its least end in X, then in Z, each cycle from its least shared label
    through p_xy first.  The composite's pairs are each in label order,
    sorted by their first label, and the cycles are listed by least label."""
    y = set(shared)
    x, z = set(p_xy.carrier) - y, set(p_yz.carrier) - y
    t1, t2 = p_xy.partner, p_yz.partner
    seen, pairs = set(), []
    for start in sort_labels(x) + sort_labels(z):
        if start in seen:
            continue
        use_first = start in z
        cur = t1[start] if start in x else t2[start]
        while cur in y:
            seen.add(cur)
            cur = t1[cur] if use_first else t2[cur]
            use_first = not use_first
        seen.update((start, cur))
        pairs.append(tuple(sort_labels((start, cur))))
    cycles = []
    for y0 in sort_labels(y):
        if y0 in seen:
            continue
        cyc, cur, use_first = [y0], t1[y0], False
        while cur != y0:
            seen.add(cur)
            cyc.append(cur)
            cur = t1[cur] if use_first else t2[cur]
            use_first = not use_first
        cycles.append(tuple(cyc))
    pairs.sort(key=lambda ab: label_key(ab[0]))
    return Pairing(tuple(sort_labels(x | z)), tuple(pairs)), tuple(cycles)


# ints, strings and tuples, which label_key orders by kind, then by value
_MIXED_LABELS = st.one_of(st.integers(-3, 30), st.text("xyz", min_size=1, max_size=2),
                          st.tuples(st.integers(0, 2), st.sampled_from("ab")))


@st.composite
def _mixed_stacks(draw):
    """Two pairings stacked along a shared set, on mixed labels drawn in
    no particular order, so X, Y and Z interleave in label order."""
    nx, ny, nz = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 5))
    nx += (nx + ny) % 2
    nz += (ny + nz) % 2
    size = nx + ny + nz
    labels = draw(st.lists(_MIXED_LABELS, unique=True, min_size=size, max_size=size))
    xs, ys, zs = labels[:nx], labels[nx:nx + ny], labels[nx + ny:]

    def pairing(carrier):
        order = draw(st.permutations(carrier))
        return make_pairing(carrier, zip(order[::2], order[1::2]))

    return pairing(xs + ys), pairing(ys + zs), ys


# X = {"z", 3}, Y = {(0, "a"), 7, "b", 2}, Z = {"a", (1, "b")}: an X label
# sorts after a Z label and before another; the chains are 3-"z" inside
# X and "a"-(1, "b") inside Z, and the one loop, listed from its least
# label 2, is met from (0, "a") when Y is read in the order given
_INTERLEAVED = (
    make_pairing(["z", (0, "a"), 7, "b", 2, 3], [("z", 3), ((0, "a"), 7), ("b", 2)]),
    make_pairing([(0, "a"), 7, "b", 2, "a", (1, "b")],
                 [(7, "b"), (2, (0, "a")), ((1, "b"), "a")]),
    [(0, "a"), 7, "b", 2],
)
# X = {"q", (0, "a")}, Z = {5, "p"}: both chains cross the seam, each
# joining X to Z, with an X label at each end of Z's label order
_CROSSING = (
    make_pairing(["q", (0, "a"), 1, "m"], [("q", 1), ((0, "a"), "m")]),
    make_pairing([1, "m", 5, "p"], [(1, "p"), ("m", 5)]),
    [1, "m"],
)


def test_detailed_composer_on_interleaved_labels():
    assert compose_pairings_detailed(*_INTERLEAVED) == (
        Pairing((3, "a", "z", (1, "b")), ((3, "z"), ("a", (1, "b")))),
        ((2, "b", 7, (0, "a")),))
    assert compose_pairings_detailed(*_CROSSING) == (
        Pairing((5, "p", "q", (0, "a")), ((5, (0, "a")), ("p", "q"))), ())


@settings(max_examples=300, deadline=None)
@given(_mixed_stacks())
@example(_INTERLEAVED)
@example(_CROSSING)
def test_detailed_composer_matches_the_label_walk(stack):
    # the carrier, each pair and its place, and each cycle and its place
    assert compose_pairings_detailed(*stack) == _label_walk(*stack)


@pytest.mark.parametrize("read", [label_key, encode_label])
def test_labels_refuse_an_unsupported_type(read):
    with pytest.raises(TypeError) as info:
        read(1.5)
    assert str(info.value) == "unsupported label: 1.5"


def test_all_pairings_double_factorial():
    counts = [len(list(all_pairings(range(n)))) for n in (0, 2, 4, 6, 8)]
    assert counts == [1, 1, 3, 15, 105]
    assert list(all_pairings(range(3))) == []


@pytest.mark.parametrize("labels", [["a", "a"], ["a", "a", "b", "c"], [2, "b", 2]])
def test_all_pairings_refuses_a_repeated_label_as_make_pairing_does(labels):
    # it used to yield a self-pair on ["a", "a"] and pairings that use "a" twice
    pairs = all_pairings(labels)
    with pytest.raises(DuplicateLabel) as err:
        next(pairs)
    with pytest.raises(DuplicateLabel) as want:
        make_pairing(labels, [])
    assert str(err.value) == str(want.value) == f"carrier repeats a label: {labels!r}"


def test_json_round_trip():
    p = make_pairing(["b", "a", "d", "c"], [("d", "a"), ("c", "b")])
    blob = json.dumps(pairing_to_json(p), sort_keys=True)
    q = pairing_from_json(json.loads(blob))
    assert p == q
    assert json.dumps(pairing_to_json(q), sort_keys=True) == blob


@pytest.mark.parametrize("doc, text", [
    ([["a", "b"]] * 5000, "pairing document is not an object"),
    ({"carrier": ["a"] * 5000}, "pairing document lacks field 'pairs'"),
    ({"pairs": [["a", "b"]] * 5000}, "pairing document lacks field 'carrier'")])
def test_json_error_names_the_field_not_the_document(doc, text):
    with pytest.raises(PairingError) as err:
        pairing_from_json(doc)
    assert str(err.value) == text


@pytest.mark.parametrize("field, value", [("pairs", "xy"), ("pairs", [["a"]]),
                                          ("carrier", 5), ("carrier", [{"x": 1}])])
def test_json_malformed_field_is_named(field, value):
    doc = pairing_to_json(make_pairing(["a", "b"], [("a", "b")]))
    doc[field] = value
    with pytest.raises(PairingError, match=field):
        pairing_from_json(doc)
