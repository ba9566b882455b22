"""Enriched Brauer categories over Z, Q, Z[t], Z/p."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from brauerkit.brauer import (
    cap,
    compose,
    cup,
    identity,
    make_diagram,
    open_diagrams,
    tensor,
)
from brauerkit.brauer_algebra import (
    QQ,
    ZPOLY,
    ZZ,
    ArityMismatch,
    MalformedElement,
    RingMismatch,
    algebra_dimension,
    bd_to_br_t,
    br_add,
    br_compose,
    br_scale,
    br_tensor,
    br_zero,
    element_from_json,
    element_of,
    element_to_json,
    integers_mod,
    is_walled,
    make_element,
    ring_by_name,
)


def _random_open(rng, m, n):
    labels = [f"s{i}" for i in range(1, m + 1)] + [f"t{j}" for j in range(1, n + 1)]
    rng.shuffle(labels)
    return make_diagram(m, n, [(labels[i], labels[i + 1]) for i in range(0, len(labels), 2)])


def _sample(ring, rng):
    if ring is ZZ:
        return rng.randint(-6, 6)
    if ring is QQ:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if ring is ZPOLY:
        return tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3)))
    return ring.from_int(rng.randint(-10, 10))


def test_ring_axioms_spot_checks():
    rng = random.Random(11)
    for ring in (ZZ, QQ, ZPOLY, integers_mod(5), integers_mod(2)):
        for _ in range(40):
            a, b, c = (_sample(ring, rng) for _ in range(3))
            if ring is ZPOLY:
                a, b, c = (ring.add(x, ring.zero()) for x in (a, b, c))
            assert ring.eq(ring.add(a, b), ring.add(b, a))
            assert ring.eq(ring.mul(a, b), ring.mul(b, a))
            assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
            assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
            assert ring.eq(
                ring.mul(a, ring.add(b, c)),
                ring.add(ring.mul(a, b), ring.mul(a, c)),
            )
            assert ring.is_zero(ring.add(a, ring.neg(a)))
            assert ring.eq(ring.mul(a, ring.one()), a)


def test_loop_scales_by_delta():
    lhs = element_of(ZZ, cap())
    rhs = element_of(ZZ, cup())
    prod = br_compose(lhs, rhs, 5)
    empty = make_diagram(0, 0, [])
    assert prod.terms == ((empty, 5),)


def test_delta_zero_kills_loops():
    prod = br_compose(element_of(ZZ, cap()), element_of(ZZ, cup()), 0)
    assert prod == br_zero(ZZ, 0, 0)


def test_identity_is_unit_for_any_delta():
    rng = random.Random(31)
    for delta in (0, 1, 7, -2):
        for _ in range(20):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            if (m + n) % 2:
                continue
            a = element_of(ZZ, _random_open(rng, m, n), rng.randint(-5, 5))
            assert br_compose(element_of(ZZ, identity(m)), a, delta) == a
            assert br_compose(a, element_of(ZZ, identity(n)), delta) == a


def test_composition_bilinear():
    rng = random.Random(47)
    for _ in range(30):
        m, n, p = 2, 2, 2
        f1, f2 = _random_open(rng, m, n), _random_open(rng, m, n)
        g = _random_open(rng, n, p)
        c1, c2 = rng.randint(-4, 4), rng.randint(-4, 4)
        a = br_add(
            br_scale(c1, element_of(ZZ, f1)), br_scale(c2, element_of(ZZ, f2))
        )
        b = element_of(ZZ, g)
        lhs = br_compose(a, b, 3)
        rhs = br_add(
            br_scale(c1, br_compose(element_of(ZZ, f1), b, 3)),
            br_scale(c2, br_compose(element_of(ZZ, f2), b, 3)),
        )
        assert lhs == rhs


def test_rational_delta_exact():
    delta = Fraction(5, 3)
    prod = br_compose(element_of(QQ, cap()), element_of(QQ, cup()), delta)
    empty = make_diagram(0, 0, [])
    assert prod.coefficient(empty) == Fraction(5, 3)


def test_bd_to_br_t_frozen():
    bubble = make_diagram(0, 0, [], closed=1)
    elem = bd_to_br_t(bubble)
    empty = make_diagram(0, 0, [])
    assert elem.terms == ((empty, (0, 1)),)
    f = _random_open(random.Random(3), 2, 2)
    assert bd_to_br_t(f).terms == ((f, (1,)),)


def test_bd_to_br_t_functorial():
    rng = random.Random(59)
    t = ZPOLY.t()
    for _ in range(200):
        m, n, p = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        if (m + n) % 2 or (n + p) % 2:
            continue
        f = make_diagram(*_with_closed(_random_open(rng, m, n), rng))
        g = make_diagram(*_with_closed(_random_open(rng, n, p), rng))
        lhs = bd_to_br_t(compose(f, g))
        rhs = br_compose(bd_to_br_t(f), bd_to_br_t(g), t)
        assert lhs == rhs


def _with_closed(d, rng):
    return d.m, d.n, d.pairs, rng.randint(0, 2)


def _same_parity(rng, k):
    # k arities of one parity, so that any two bound a Brauer diagram
    first = rng.randint(0, 3)
    return [first] + [first % 2 + 2 * rng.randint(0, 1) for _ in range(k - 1)]


def _random_element(rng, m, n):
    """A sum of up to three random open diagrams with Z[t] coefficients."""
    acc = br_zero(ZPOLY, m, n)
    for _ in range(rng.randint(0, 3)):
        acc = br_add(acc, element_of(ZPOLY, _random_open(rng, m, n), _sample(ZPOLY, rng)))
    return acc


def test_br_tensor_agrees_with_tensor_on_basis():
    rng = random.Random(89)
    for _ in range(100):
        m1, n1 = _same_parity(rng, 2)
        m2, n2 = _same_parity(rng, 2)
        f = make_diagram(*_with_closed(_random_open(rng, m1, n1), rng))
        g = make_diagram(*_with_closed(_random_open(rng, m2, n2), rng))
        assert br_tensor(bd_to_br_t(f), bd_to_br_t(g)) == bd_to_br_t(tensor(f, g))


def test_br_interchange_law():
    rng = random.Random(97)
    for _ in range(60):
        m1, n1, p1 = _same_parity(rng, 3)
        m2, n2, p2 = _same_parity(rng, 3)
        a, c = _random_element(rng, m1, n1), _random_element(rng, n1, p1)
        b, d = _random_element(rng, m2, n2), _random_element(rng, n2, p2)
        delta = _sample(ZPOLY, rng)
        lhs = br_compose(br_tensor(a, b), br_tensor(c, d), delta)
        rhs = br_tensor(br_compose(a, c, delta), br_compose(b, d, delta))
        assert lhs == rhs


def test_algebra_dimension_matches_enumeration():
    assert [algebra_dimension(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]
    for n in range(5):
        assert algebra_dimension(n) == sum(1 for _ in open_diagrams(n, n))


def test_is_walled_frozen():
    assert is_walled(cup(), (1, 1, 0, 0))
    assert not is_walled(cup(), (2, 0, 0, 0))
    assert is_walled(identity(2), (1, 1, 1, 1))
    assert is_walled(cap(), (0, 0, 1, 1))
    with pytest.raises(ArityMismatch):
        is_walled(cup(), (1, 1, 1, 1))


def _random_walled(rng, m1, n1, m2, n2):
    # group A = first source block + second target block, B = the rest
    side_a = [f"s{i}" for i in range(1, m1 + 1)]
    side_a += [f"t{j}" for j in range(m2 + 1, m2 + n2 + 1)]
    side_b = [f"s{i}" for i in range(m1 + 1, m1 + n1 + 1)]
    side_b += [f"t{j}" for j in range(1, m2 + 1)]
    assert len(side_a) == len(side_b)
    rng.shuffle(side_b)
    return make_diagram(m1 + n1, m2 + n2, list(zip(side_a, side_b)))


def test_walled_closed_under_composition():
    rng = random.Random(71)
    for _ in range(120):
        m1, n1 = rng.randint(0, 2), rng.randint(0, 2)
        m2 = rng.randint(0, 2)
        n2 = n1 + m2 - m1
        m3 = rng.randint(0, 2)
        n3 = n2 + m3 - m2
        if n2 < 0 or n3 < 0:
            continue
        f = _random_walled(rng, m1, n1, m2, n2)
        g = _random_walled(rng, m2, n2, m3, n3)
        h = compose(f, g)
        assert is_walled(make_diagram(h.m, h.n, h.pairs), (m1, n1, m3, n3))


def test_zmod_pruning():
    ring = integers_mod(2)
    f = identity(2)
    a = element_of(ring, f)
    assert br_add(a, a) == br_zero(ring, 2, 2)


def test_ring_and_arity_mismatch():
    with pytest.raises(RingMismatch):
        br_compose(element_of(ZZ, identity(1)), element_of(QQ, identity(1)), 1)
    with pytest.raises(ArityMismatch):
        br_compose(element_of(ZZ, identity(1)), element_of(ZZ, identity(2)), 1)
    with pytest.raises(ArityMismatch):
        make_element(ZZ, 0, 0, {make_diagram(0, 0, [], closed=1): 1})


def test_ring_by_name():
    assert ring_by_name("Z") is ZZ
    assert ring_by_name("Q") is QQ
    assert ring_by_name("Z[t]") is ZPOLY
    assert ring_by_name("Z/7").name == "Z/7"
    with pytest.raises(ValueError):
        ring_by_name("GF(9)")


def test_element_json_round_trip():
    rng = random.Random(83)
    for ring in (ZZ, QQ, ZPOLY, integers_mod(5)):
        f, g = _random_open(rng, 2, 2), _random_open(rng, 2, 2)
        elem = br_add(
            br_scale(_nonzero(ring, rng), element_of(ring, f)),
            br_scale(_nonzero(ring, rng), element_of(ring, g)),
        )
        again = element_from_json(element_to_json(elem))
        assert again == elem



@pytest.mark.parametrize("field, value", [("terms", [5]), ("terms", 5), ("m", "x"),
                                          ("ring", 5), ("terms", [{"coeff": 1}])])
def test_element_json_malformed(field, value):
    doc = element_to_json(element_of(ZZ, identity(2)))
    doc[field] = value
    with pytest.raises(MalformedElement, match="malformed element document"):
        element_from_json(doc)

def _nonzero(ring, rng):
    while True:
        c = ring.add(_sample(ring, rng), ring.zero())  # normalizes polynomials
        if not ring.is_zero(c):
            return c


# ---------------------------------------------------------------------------
# ring I/O pinned value by value, with the Python type of each value

Z5 = integers_mod(5)


def _typed(value):
    return type(value).__name__, value


@pytest.mark.parametrize("ring, zero, one, from_int", [
    (ZZ, 0, 1, {-7: -7, 0: 0, 12: 12}),
    (QQ, Fraction(0), Fraction(1), {-7: Fraction(-7), 0: Fraction(0)}),
    (ZPOLY, (), (1,), {-7: (-7,), 0: ()}),
    (Z5, 0, 1, {-7: 3, 0: 0, 12: 2}),
    (integers_mod(2), 0, 1, {-7: 1, 4: 0}),
])
def test_ring_constants_pinned(ring, zero, one, from_int):
    assert _typed(ring.zero()) == _typed(zero)
    assert _typed(ring.one()) == _typed(one)
    for k, want in from_int.items():
        assert _typed(ring.from_int(k)) == _typed(want)


@pytest.mark.parametrize("ring, text, want", [
    (ZZ, "-12", -12), (ZZ, " 7 ", 7),
    (QQ, "-3/6", Fraction(-1, 2)), (QQ, " 2 ", Fraction(2)), (QQ, "0.25", Fraction(1, 4)),
    (QQ, "1e4300", Fraction(10 ** 4300)),
    (ZPOLY, "t", (0, 1)), (ZPOLY, "[1, 0, 2]", (1, 0, 2)), (ZPOLY, "[1, 0, 0]", (1,)),
    (ZPOLY, " 5 ", (5,)), (ZPOLY, "0", ()),
    (Z5, "-7", 3), (Z5, "12", 2),
])
def test_ring_parse_pinned(ring, text, want):
    assert _typed(ring.parse(text)) == _typed(want)


@pytest.mark.parametrize("ring, obj, want", [
    (ZZ, 8, 8), (ZZ, "8", 8), (ZZ, 3.9, 3),
    (QQ, 0.1, Fraction(1, 10)), (QQ, "2/4", Fraction(1, 2)), (QQ, 3, Fraction(3)),
    (QQ, "-5E-4300", Fraction(-5, 10 ** 4300)),
    (ZPOLY, 4, (4,)), (ZPOLY, 0, ()), (ZPOLY, [3, -1], (3, -1)), (ZPOLY, [0, 0], ()),
    (Z5, 13, 3), (Z5, "-1", 4),
])
def test_ring_from_json_pinned(ring, obj, want):
    assert _typed(ring.from_json(obj)) == _typed(want)


@pytest.mark.parametrize("ring, value, want", [
    (ZZ, -4, -4), (QQ, Fraction(1, 10), "1/10"), (QQ, Fraction(4), "4"),
    (ZPOLY, (3, -1), [3, -1]), (ZPOLY, (), []), (Z5, 4, 4),
])
def test_ring_to_json_pinned(ring, value, want):
    assert _typed(ring.to_json(value)) == _typed(want)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_integers_mod_refuses_small_moduli(p):
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        integers_mod(p)


def test_rings_compare_by_name():
    assert integers_mod(5) == Z5 and hash(integers_mod(5)) == hash("Z/5")
    assert ring_by_name("Z/5") == Z5 and ring_by_name("Zt") is ZPOLY
    assert ZZ != QQ and Z5 != integers_mod(7) and repr(Z5) == "Ring(Z/5)"


def test_make_element_reads_a_mapping_and_pairs():
    f, g = identity(2), make_diagram(2, 2, [("s1", "s2"), ("t1", "t2")])
    want = ((g, 3), (f, 2))
    assert make_element(ZZ, 2, 2, {f: 2, g: 3}).terms == want
    assert make_element(ZZ, 2, 2, [(f, 2), (g, 3)]).terms == want
    assert make_element(ZZ, 2, 2, {f: 2, g: 0}).terms == ((f, 2),)
    assert make_element(Z5, 2, 2, [(f, 5)]) == br_zero(Z5, 2, 2)


def test_make_element_sums_the_pairs_of_one_diagram():
    f, g = identity(2), make_diagram(2, 2, [("s1", "s2"), ("t1", "t2")])
    assert make_element(ZZ, 2, 2, [(f, 2), (g, 3), (f, 4)]).terms == ((g, 3), (f, 6))
    assert make_element(ZZ, 2, 2, [(f, 2), (g, 3), (f, -2)]).terms == ((g, 3),)
    assert make_element(ZPOLY, 2, 2, [(f, (1, 1)), (f, (0, -1, 0))]).terms == ((f, (1,)),)


def test_element_from_json_sums_a_repeated_diagram():
    doc = element_to_json(element_of(ZZ, identity(2), 3))
    doc["terms"].append({"coeff": 4, "diagram": doc["terms"][0]["diagram"]})
    assert element_from_json(doc).terms == ((identity(2), 7),)


@pytest.mark.parametrize("text", ["1e4301", "-2E-4301", "1e999999999", " 3.5e+1_000_000 "])
def test_rationals_refuse_exponents_past_the_bound(text):
    with pytest.raises(ValueError, match="decimal exponent past 4300"):
        QQ.parse(text)

