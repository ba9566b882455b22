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
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerkit.pairing import (
    DuplicateLabel,
    PairingError,
    SelfPair,
    SharedSetMismatch,
    UncoveredLabel,
    all_pairings,
    compose_pairings,
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
    with pytest.raises(SharedSetMismatch):
        compose_pairings(p1, p2, ["y"])
    with pytest.raises(SharedSetMismatch):
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


def test_all_pairings_double_factorial():
    counts = [len(list(all_pairings(range(n)))) for n in (0, 2, 4, 6, 8)]
    assert counts == [1, 1, 3, 15, 105]
    assert list(all_pairings(range(3))) == []


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
