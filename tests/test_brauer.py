"""Brauer category: generators, composition, duality, factorization.

The compact-closed relabellings (ev/coev/dual) are cross-checked
against their compositional definitions (sandwiching with cups and
caps), which exercises composition, tensor, and the triangle
identities at once.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brauerkit.brauer import (
    ArityMismatch,
    WordSyntaxError,
    _loops,
    _walk,
    boundary_key,
    cap_n,
    compose,
    compose_detailed,
    coev,
    cup_n,
    diagram_from_json,
    diagram_to_json,
    dual,
    ev,
    evaluate_word,
    factor_generators,
    format_word,
    from_permutation,
    generator_diagram,
    identity,
    is_downward,
    make_diagram,
    open_diagrams,
    parse_word,
    sigma_2,
    tensor,
)
from brauerkit.coloured import compose_coloured, make_coloured, make_palette
from brauerkit.labels import label_key


def _random_open(rng, m, n):
    labels = [f"s{i}" for i in range(1, m + 1)] + [f"t{j}" for j in range(1, n + 1)]
    rng.shuffle(labels)
    pairs = [(labels[i], labels[i + 1]) for i in range(0, len(labels), 2)]
    return make_diagram(m, n, pairs)


def _random_diagram(rng, m, n, closed_max=2):
    d = _random_open(rng, m, n)
    return make_diagram(m, n, d.pairs, rng.randint(0, closed_max))


def test_identity_frozen():
    assert identity(0) == make_diagram(0, 0, [])
    assert identity(1).pairs == (("s1", "t1"),)
    assert identity(3).pairs == (("s1", "t1"), ("s2", "t2"), ("s3", "t3"))


def test_from_permutation_frozen():
    assert from_permutation((1, 2, 3)) == identity(3)
    assert sigma_2().pairs == (("s1", "t2"), ("s2", "t1"))
    three_cycle = from_permutation((2, 3, 1))
    assert three_cycle.pairs == (("s1", "t2"), ("s2", "t3"), ("s3", "t1"))
    with pytest.raises(ArityMismatch):
        from_permutation((1, 1))


def test_trace_is_one_bubble():
    trace = compose(cap_n(1), cup_n(1))
    assert trace == make_diagram(0, 0, [], closed=1)


def test_nested_trace_counts():
    for n in range(6):
        assert compose(cap_n(n), cup_n(n)) == make_diagram(0, 0, [], closed=n)


def test_identity_unit_law():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        if (m + n) % 2:
            continue
        f = _random_diagram(rng, m, n)
        assert compose(identity(m), f) == f
        assert compose(f, identity(n)) == f


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose(identity(2), identity(3))


def test_tensor_frozen():
    unit = make_diagram(0, 0, [])
    f = _random_diagram(random.Random(9), 2, 2)
    assert tensor(f, unit) == f and tensor(unit, f) == f
    double_cap = tensor(cap_n(1), cap_n(1))
    assert double_cap.pairs == (("t1", "t2"), ("t3", "t4"))
    b1 = make_diagram(0, 0, [], closed=1)
    b2 = make_diagram(0, 0, [], closed=2)
    assert tensor(b1, b2) == make_diagram(0, 0, [], closed=3)


def test_cup_cap_frozen():
    assert cup_n(1) == make_diagram(2, 0, [("s1", "s2")])
    assert cap_n(1) == make_diagram(0, 2, [("t1", "t2")])
    assert cup_n(2).pairs == (("s1", "s4"), ("s2", "s3"))
    assert cap_n(2).pairs == (("t1", "t4"), ("t2", "t3"))
    assert cap_n(0) == make_diagram(0, 0, [])


def test_triangle_identities():
    for n in range(1, 5):
        left = compose(
            tensor(identity(n), cap_n(n)), tensor(cup_n(n), identity(n))
        )
        right = compose(
            tensor(cap_n(n), identity(n)), tensor(identity(n), cup_n(n))
        )
        assert left == identity(n)
        assert right == identity(n)


def test_dual_frozen():
    for n in range(4):
        assert dual(identity(n)) == identity(n)
    assert dual(cup_n(1)) == cap_n(1)
    assert dual(cap_n(1)) == cup_n(1)


def test_dual_involution_and_contravariance():
    rng = random.Random(23)
    for _ in range(120):
        m, n, p = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        if (m + n) % 2 or (n + p) % 2:
            continue
        f = _random_diagram(rng, m, n)
        g = _random_diagram(rng, n, p)
        assert dual(dual(f)) == f
        assert dual(compose(f, g)) == compose(dual(g), dual(f))


def test_ev_coev_match_compositional_definitions():
    rng = random.Random(41)
    for _ in range(80):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        if (m + n) % 2:
            continue
        f = _random_diagram(rng, m, n)
        assert ev(f) == compose(tensor(identity(n), f), cup_n(n))
        assert coev(f) == compose(cap_n(m), tensor(f, identity(m)))
        snake = compose(
            compose(
                tensor(cap_n(m), identity(n)),
                tensor(tensor(identity(m), f), identity(n)),
            ),
            tensor(identity(m), cup_n(n)),
        )
        assert dual(f) == snake


def test_downward_upward_predicates():
    # upward is downward after dual
    assert not is_downward(cap_n(1)) and is_downward(dual(cap_n(1)))
    assert is_downward(cup_n(1)) and not is_downward(dual(cup_n(1)))
    for sigma in [(1, 2), (2, 1)]:
        d = from_permutation(sigma)
        assert is_downward(d) and is_downward(dual(d))
    bubble = make_diagram(0, 0, [], closed=1)
    assert bubble.closed
    assert not is_downward(bubble) and not is_downward(dual(bubble))


def test_downward_closed_under_composition():
    rng = random.Random(67)

    def random_downward(m, n):
        # every target hits a source, leftovers cup among themselves
        srcs = [f"s{i}" for i in range(1, m + 1)]
        rng.shuffle(srcs)
        pairs = [(srcs[j], f"t{j + 1}") for j in range(n)]
        rest = srcs[n:]
        pairs += [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
        return make_diagram(m, n, pairs)

    for _ in range(60):
        n = rng.randint(0, 3)
        m = n + 2 * rng.randint(0, 2)
        p = rng.choice([x for x in range(0, n + 1) if (x + n) % 2 == 0])
        f = random_downward(m, n)
        g = random_downward(n, p)
        h = compose(f, g)
        assert h.closed == 0 and is_downward(h)


def test_interchange():
    rng = random.Random(97)
    for _ in range(60):
        dims = [rng.randint(0, 3) for _ in range(6)]
        m1, n1, p1, m2, n2, p2 = dims
        if (m1 + n1) % 2 or (n1 + p1) % 2 or (m2 + n2) % 2 or (n2 + p2) % 2:
            continue
        f1 = _random_diagram(rng, m1, n1)
        g1 = _random_diagram(rng, n1, p1)
        f2 = _random_diagram(rng, m2, n2)
        g2 = _random_diagram(rng, n2, p2)
        lhs = tensor(compose(f1, g1), compose(f2, g2))
        rhs = compose(tensor(f1, f2), tensor(g1, g2))
        assert lhs == rhs


def test_braid_relation_in_sigma3():
    s12 = tensor(sigma_2(), identity(1))
    s23 = tensor(identity(1), sigma_2())
    lhs = compose(compose(s12, s23), s12)
    rhs = compose(compose(s23, s12), s23)
    assert lhs == rhs == from_permutation((3, 2, 1))


def test_open_diagram_counts_double_factorial():
    for m in range(6):
        for n in range(6):
            got = sum(1 for _ in open_diagrams(m, n))
            if (m + n) % 2:
                assert got == 0
            else:
                k = m + n
                want = math.prod(range(1, k, 2)) if k else 1
                assert got == want
    # m+n = 10 row
    for m in (0, 3, 5, 10):
        n = 10 - m
        assert sum(1 for _ in open_diagrams(m, n)) == 945


def test_factor_generators_frozen_examples():
    assert factor_generators(identity(2)) == [["id_1", "id_1"]]
    assert factor_generators(make_diagram(0, 0, [], closed=1)) == [["cap"], ["cup"]]
    # the bubbles stay right of every strand, so no transposition layer
    # crosses one and the word grows linearly in the closed count
    through = make_diagram(1, 1, [("s1", "t1")], closed=3)
    assert factor_generators(through) == [["id_1"] + ["cap"] * 3, ["id_1"] + ["cup"] * 3]


def test_factor_generators_round_trip_exhaustive():
    for total in (0, 2, 4, 6, 8):
        for m in range(total + 1):
            n = total - m
            for base in open_diagrams(m, n):
                for closed in range(3):
                    f = make_diagram(m, n, base.pairs, closed)
                    assert evaluate_word(factor_generators(f)) == f


def test_word_parse_format():
    slices = parse_word("id_1 + cup ; cap + id_1")
    assert slices == [["id_1", "cup"], ["cap", "id_1"]]
    assert format_word(slices) == "id_1 + cup ; cap + id_1"
    d = evaluate_word(slices)
    assert (d.m, d.n) == (3, 3)
    with pytest.raises(WordSyntaxError):
        parse_word("id_1 + ; cup")
    with pytest.raises(WordSyntaxError):
        parse_word("frob")
    assert evaluate_word(parse_word("cap ; cup")) == make_diagram(0, 0, [], 1)


def test_word_evaluation_refuses_empty_words_and_unknown_generators():
    # parse_word refuses these first, so the CLI never reaches them
    for word, message in (([], "empty word"), ([[]], "empty slice")):
        with pytest.raises(WordSyntaxError) as info:
            evaluate_word(word)
        assert str(info.value) == message
    with pytest.raises(WordSyntaxError) as info:
        generator_diagram("foo")
    assert str(info.value) == "unknown generator: 'foo'"


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        f = _random_diagram(rng, 3, 3)
        assert diagram_from_json(diagram_to_json(f)) == f
    blob = diagram_to_json(compose(cap_n(1), cup_n(1)))
    assert blob == {"m": 0, "n": 0, "pairs": [], "closed": 1}


# ---------------------------------------------------------------------------
# an independent oracle: stacking on label strings


def _reference_stack(f, g):
    """(pair set, closed count, seam cycles) of g stacked below f, walked
    on label strings: f's "tI" and g's "sI" both become ("mid", I).
    Cycles start at their least middle index, step through f first and
    are listed by least index."""
    def node(label, top):
        kind, i = label[0], int(label[1:])
        if kind == ("t" if top else "s"):
            return ("mid", i)
        return (kind, i)

    up, down = {}, {}
    for d, links, top in ((f, up, True), (g, down, False)):
        for a, b in d.pairs:
            a, b = node(a, top), node(b, top)
            links[a], links[b] = b, a
    pairs, seen = set(), set()
    for start in [("s", i) for i in range(1, f.m + 1)] + [("t", j) for j in range(1, g.n + 1)]:
        if start in seen:
            continue
        from_up = start[0] == "s"
        cur = up[start] if from_up else down[start]
        while cur[0] == "mid":
            seen.add(cur)
            cur = down[cur] if from_up else up[cur]
            from_up = not from_up
        seen.update((start, cur))
        pairs.add(frozenset(f"{kind}{i}" for kind, i in (start, cur)))
    cycles = []
    for i in range(1, f.n + 1):
        if ("mid", i) in seen:
            continue
        cyc, cur, through_up = [i], up[("mid", i)], False
        while cur != ("mid", i):
            seen.add(cur)
            cyc.append(cur[1])
            cur = up[cur] if through_up else down[cur]
            through_up = not through_up
        cycles.append(tuple(cyc))
    return pairs, f.closed + g.closed + len(cycles), tuple(cycles)


def _involutive(d):
    return all(d.partner[q] == p != q for p, q in enumerate(d.partner))


def _shifted(label, m, n):
    return f"s{int(label[1:]) + m}" if label[0] == "s" else f"t{int(label[1:]) + n}"


@st.composite
def _stackable(draw, max_strands=64):
    """f: m -> k and g: k -> n with 1 to max_strands points per row and
    up to three closed loops each."""
    def same_parity(x):
        return 2 * draw(st.integers(0, (max_strands - x % 2) // 2)) + x % 2

    m = draw(st.integers(0, max_strands))
    k = same_parity(m)
    n = same_parity(k)
    assume(m + k + n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    f = make_diagram(m, k, _random_open(rng, m, k).pairs, draw(st.integers(0, 3)))
    g = make_diagram(k, n, _random_open(rng, k, n).pairs, draw(st.integers(0, 3)))
    return f, g, rng


@settings(max_examples=80, deadline=None)
@given(_stackable())
def test_compose_tensor_dual_against_label_oracle(stack):
    f, g, _ = stack
    h, cycles = compose_detailed(f, g)
    pairs, closed, want_cycles = _reference_stack(f, g)
    assert (h.m, h.n) == (f.m, g.n) and _involutive(h)
    assert {frozenset(p) for p in h.pairs} == pairs and h.closed == closed
    assert cycles == want_cycles
    # pairs are listed once each, in boundary order
    keys = [tuple(boundary_key(x) for x in p) for p in h.pairs]
    assert all(a < b for a, b in keys) and keys == sorted(keys)

    t = tensor(f, g)
    shifted = set(f.pairs) | {tuple(_shifted(x, f.m, f.n) for x in p) for p in g.pairs}
    assert (t.m, t.n, t.closed) == (f.m + g.m, f.n + g.n, f.closed + g.closed)
    assert _involutive(t) and _involutive(dual(t))
    assert {frozenset(p) for p in t.pairs} == {frozenset(p) for p in shifted}
    assert dual(dual(f)) == f and dual(dual(t)) == t


def _walked(f, g):
    """(partner tuple, born loop count, whether every seam point was met)
    of g stacked below f, from the strand walk as br_compose reads it."""
    pf, pg = f.partner, g.partner
    out, seen = _walk(pf, pg, f.m, f.n, g.n)
    met = all(seen)
    return tuple(out), len(_loops(pf, pg, f.m, seen)), met


@settings(max_examples=300, deadline=None)
@given(_stackable(max_strands=8))
@example((identity(0), identity(0), None))
@example((cup_n(1), cap_n(1), None))       # k = 0
@example((cap_n(1), cup_n(1), None))       # m = n = 0, one loop
@example((cap_n(3), cup_n(3), None))  # three loops and nothing else
def test_walk_gives_the_detailed_composite(stack):
    f, g, _ = stack
    partner, loops, met = _walked(f, g)
    h, cycles = compose_detailed(f, g)
    pairs, _, want_cycles = _reference_stack(f, g)
    assert partner == h.partner and {frozenset(p) for p in h.pairs} == pairs
    assert loops == len(cycles) == len(want_cycles) == h.closed - f.closed - g.closed
    assert met == (loops == 0)


@pytest.mark.parametrize("strands", [64, 256])
def test_walk_at_many_strands(strands):
    """Random open parts beside eight nested arcs on either side of the
    seam, which close at least eight loops."""
    rng = random.Random(strands)
    f = tensor(_random_open(rng, strands - 16, strands - 16), cap_n(8))
    g = tensor(_random_diagram(rng, strands - 16, strands - 16), cup_n(8))
    partner, loops, met = _walked(f, g)
    h, cycles = compose_detailed(f, g)
    pairs, closed, want_cycles = _reference_stack(f, g)
    assert (f.n, h.m, h.n) == (strands, strands - 16, strands - 16)
    assert partner == h.partner and {frozenset(p) for p in h.pairs} == pairs
    assert loops == len(cycles) == len(want_cycles) >= 8 and not met
    assert cycles == want_cycles and h.closed == closed


_PALETTE = make_palette(["a", "b", "x", "y"], [("x", "y")])


def _colour_stack(f, g, rng):
    """Colourings of f and g that compose: each component of the stacked
    picture gets a random colour at one point, and omega carries it
    along every pair and across every seam point."""
    links = {}
    for side, d in (("f", f), ("g", g)):
        for a, b in d.pairs:
            links.setdefault((side, a), []).append((side, b))
            links.setdefault((side, b), []).append((side, a))
    for i in range(1, f.n + 1):
        links[("f", f"t{i}")].append(("g", f"s{i}"))
        links[("g", f"s{i}")].append(("f", f"t{i}"))
    colour = {}
    for point in sorted(links):
        if point in colour:
            continue
        colour[point] = rng.choice(_PALETTE.colours)
        todo = [point]
        while todo:
            p = todo.pop()
            for q in links[p]:
                if q not in colour:
                    colour[q] = _PALETTE.omega(colour[p])
                    todo.append(q)
    out = []
    for side, d in (("f", f), ("g", g)):
        bubbles = [rng.choice(_PALETTE.orbits) for _ in range(d.closed)]
        out.append(make_coloured(_PALETTE, d, {lbl: c for (s, lbl), c in colour.items()
                                               if s == side}, bubbles))
    return out


@settings(max_examples=60, deadline=None)
@given(_stackable(max_strands=24))
def test_coloured_bubbles_follow_seam_cycles(stack):
    f, g, rng = stack
    cf, cg = _colour_stack(f, g, rng)
    h = compose_coloured(cf, cg)
    _, _, cycles = _reference_stack(f, g)
    born = []
    for cyc in cycles:
        orbits = {_PALETTE.orbit(cf.colour(f"t{i}")) for i in cyc}
        assert len(orbits) == 1
        born += orbits
    assert h.bubbles == tuple(sorted(cf.bubbles + cg.bubbles + tuple(born), key=label_key))
    assert h.base == compose(f, g)
    assert dict(h.boundary_colour) == {
        **{lbl: c for lbl, c in cf.boundary_colour if lbl[0] == "s"},
        **{lbl: c for lbl, c in cg.boundary_colour if lbl[0] == "t"}}
