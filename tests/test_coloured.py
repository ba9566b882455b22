import itertools
import random

import pytest

from brauerkit import brauer
from brauerkit.brauer import cap, identity, make_diagram, src, tgt
from brauerkit.brauer_algebra import is_walled
from brauerkit.coloured import (
    ColouredBrauerDiagram,
    ColouringError,
    IncoherentCycleColour,
    NotOriented,
    PaletteMismatch,
    TypeMismatch,
    cap_coloured,
    coloured_diagrams,
    coloured_from_json,
    coloured_identity,
    coloured_to_json,
    compose_coloured,
    cup_coloured,
    dual_coloured,
    ev_coloured,
    coev_coloured,
    input_type,
    make_coloured,
    make_palette,
    monochrome_palette,
    oriented_palette,
    output_type,
    palette_from_json,
    palette_to_json,
    pushforward,
    reversed_omega,
    tensor_coloured,
    to_walled_normal_form,
    typed_boundary,
)

SWAP = make_palette(["a", "b"], [("a", "b")])
FIXED = make_palette(["a", "b"])
ORI = oriented_palette()
MONO = monochrome_palette()

PALETTES = [SWAP, FIXED]


def words(palette, max_len):
    for k in range(max_len + 1):
        yield from itertools.product(palette.colours, repeat=k)


def random_coloured(rng, palette, max_len=3, max_closed=1):
    while True:
        w_in = tuple(rng.choice(palette.colours) for _ in range(rng.randrange(max_len + 1)))
        w_out = tuple(rng.choice(palette.colours) for _ in range(rng.randrange(max_len + 1)))
        pool = list(coloured_diagrams(palette, w_in, w_out, max_closed))
        if pool:
            return pool[rng.randrange(len(pool))]


def test_palette_basics():
    assert ORI.omega("+") == "-" and ORI.omega("-") == "+"
    assert ORI.orbits == (("+", "-"),)
    assert MONO.orbits == (("c",),)
    assert FIXED.orbits == (("a",), ("b",))
    # listing a fixed point explicitly is tolerated
    assert make_palette(["a"], [("a", "a")]) == make_palette(["a"])
    with pytest.raises(PaletteMismatch):
        make_palette(["a", "a"])
    with pytest.raises(PaletteMismatch):
        make_palette(["a"], [("a", "b")])
    with pytest.raises(PaletteMismatch):
        make_palette(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(PaletteMismatch):
        ORI.omega("z")


def test_typed_boundary_frozen():
    f = make_coloured(MONO, make_diagram(2, 2, [("s1", "t1"), ("s2", "t2")]),
                      {"s1": "c", "s2": "c", "t1": "c", "t2": "c"})
    assert typed_boundary(f) == (("c", "c"), ("c", "c"))

    oriented_cap = make_coloured(ORI, cap(), {"t1": "+", "t2": "-"})
    assert typed_boundary(oriented_cap) == ((), ("+", "-"))

    one = make_coloured(SWAP, identity(1), {"s1": "b", "t1": "a"})
    assert typed_boundary(one) == (("a",), ("a",))
    assert input_type(one) == ("a",) and output_type(one) == ("a",)


def test_colouring_validation():
    with pytest.raises(ColouringError):
        make_coloured(ORI, identity(1), {"s1": "-"})  # t1 missing
    with pytest.raises(PaletteMismatch):
        make_coloured(ORI, identity(1), {"s1": "-", "t1": "z"})
    with pytest.raises(ColouringError):
        # pair endpoints must be omega-swapped
        make_coloured(ORI, identity(1), {"s1": "-", "t1": "-"})
    with pytest.raises(ColouringError):
        # closed count and bubble list must agree
        make_coloured(ORI, make_diagram(0, 0, [], closed=1), {})
    with pytest.raises(PaletteMismatch):
        make_coloured(ORI, make_diagram(0, 0, [], closed=1), {}, bubbles=[("-", "+")])


def test_identity_units_exhaustive():
    for palette in PALETTES:
        for w_in in words(palette, 3):
            for w_out in words(palette, 3):
                if (len(w_in) + len(w_out)) % 2:
                    continue
                for f in coloured_diagrams(palette, w_in, w_out, max_closed=1):
                    lhs = compose_coloured(coloured_identity(palette, w_in), f)
                    rhs = compose_coloured(f, coloured_identity(palette, w_out))
                    assert lhs == f and rhs == f


def test_compose_associative_exhaustive():
    for palette in PALETTES:
        small = list(words(palette, 2))
        for w1, w2, w3, w4 in itertools.product(small, repeat=4):
            if (len(w1) + len(w2)) % 2 or (len(w2) + len(w3)) % 2 or (len(w3) + len(w4)) % 2:
                continue
            fs = list(coloured_diagrams(palette, w1, w2))
            gs = list(coloured_diagrams(palette, w2, w3, max_closed=1))
            hs = list(coloured_diagrams(palette, w3, w4))
            for f, g, h in itertools.product(fs, gs, hs):
                assert compose_coloured(compose_coloured(f, g), h) == \
                    compose_coloured(f, compose_coloured(g, h))


def test_compose_errors():
    f = coloured_identity(SWAP, ("a",))
    g = coloured_identity(SWAP, ("b",))
    with pytest.raises(TypeMismatch):
        compose_coloured(f, g)
    with pytest.raises(TypeMismatch):
        compose_coloured(f, coloured_identity(SWAP, ("a", "a")))
    with pytest.raises(PaletteMismatch):
        compose_coloured(f, coloured_identity(FIXED, ("a",)))
    with pytest.raises(PaletteMismatch):
        tensor_coloured(f, coloured_identity(FIXED, ("a",)))


def test_oriented_trace_bubble():
    # cap then cup on matching words closes one (+,-) bubble
    trace = compose_coloured(cap_coloured(ORI, ("+",)), cup_coloured(ORI, ("-",)))
    assert trace.base == make_diagram(0, 0, [], closed=1)
    assert trace.bubbles == (("+", "-"),)

    mono = compose_coloured(cap_coloured(MONO, ("c",)), cup_coloured(MONO, ("c",)))
    assert mono.bubbles == (("c",),)


def test_tensor_frozen():
    capa = make_coloured(ORI, cap(), {"t1": "+", "t2": "-"})
    capb = make_coloured(ORI, cap(), {"t1": "-", "t2": "+"})
    both = tensor_coloured(capa, capb)
    assert output_type(both) == ("+", "-", "-", "+")
    # unit for tensor
    empty = make_coloured(ORI, make_diagram(0, 0, []), {})
    assert tensor_coloured(empty, capa) == capa
    assert tensor_coloured(capa, empty) == capa
    # bubble multisets add
    bub = make_coloured(ORI, make_diagram(0, 0, [], closed=1), {}, bubbles=["+"])
    assert tensor_coloured(bub, bub).bubbles == (("+", "-"), ("+", "-"))


def test_cup_cap_types():
    for palette in PALETTES + [ORI]:
        for w in words(palette, 2):
            cupd = cup_coloured(palette, w)
            capd = cap_coloured(palette, w)
            assert typed_boundary(cupd) == (reversed_omega(palette, w) + w, ())
            assert typed_boundary(capd) == ((), w + reversed_omega(palette, w))


def test_coloured_triangles():
    for palette in PALETTES + [ORI, MONO]:
        for w in words(palette, 3):
            ident = coloured_identity(palette, w)
            rw = reversed_omega(palette, w)
            zig = compose_coloured(
                tensor_coloured(ident, cap_coloured(palette, rw)),
                tensor_coloured(cup_coloured(palette, rw), ident),
            )
            zag = compose_coloured(
                tensor_coloured(cap_coloured(palette, w), ident),
                tensor_coloured(ident, cup_coloured(palette, w)),
            )
            assert zig == ident
            assert zag == ident


def test_forget_colours_functor():
    rng = random.Random(20260818)
    done = 0
    while done < 200:
        f = random_coloured(rng, SWAP)
        pool = list(coloured_diagrams(SWAP, output_type(f),
                                      tuple(rng.choice(SWAP.colours) for _ in range(rng.randrange(4))),
                                      max_closed=1))
        if not pool:
            continue
        g = pool[rng.randrange(len(pool))]
        assert compose_coloured(f, g).base == brauer.compose(f.base, g.base)
        done += 1


def test_monochrome_reduction():
    rng = random.Random(7)
    for _ in range(100):
        f = random_coloured(rng, MONO, max_len=4, max_closed=2)
        g = random_coloured(rng, MONO, max_len=0, max_closed=0)
        # rebuild g at the matching type so the pair composes
        pool = list(coloured_diagrams(MONO, output_type(f),
                                      tuple("c" * rng.randrange(4)), max_closed=1))
        if not pool:
            continue
        g = pool[rng.randrange(len(pool))]
        h = compose_coloured(f, g)
        assert h.base == brauer.compose(f.base, g.base)
        assert h.bubbles == (("c",),) * h.base.closed


def test_dual_frozen_and_involutive():
    plus = coloured_identity(ORI, ("+",))
    assert typed_boundary(dual_coloured(plus)) == (("-",), ("-",))
    rng = random.Random(99)
    for _ in range(200):
        palette = [SWAP, FIXED, ORI][rng.randrange(3)]
        f = random_coloured(rng, palette)
        assert dual_coloured(dual_coloured(f)) == f
        assert dual_coloured(f).base == brauer.dual(f.base)


def test_ev_coev_types_and_bases():
    rng = random.Random(4)
    for _ in range(120):
        palette = [SWAP, FIXED, ORI][rng.randrange(3)]
        f = random_coloured(rng, palette)
        c, d = typed_boundary(f)
        rd, rc = reversed_omega(palette, d), reversed_omega(palette, c)
        assert typed_boundary(ev_coloured(f)) == (rd + c, ())
        assert typed_boundary(coev_coloured(f)) == ((), d + rc)
        assert typed_boundary(dual_coloured(f)) == (rd, rc)
        assert ev_coloured(f).base == brauer.ev(f.base)
        assert coev_coloured(f).base == brauer.coev(f.base)


def test_dual_contravariant_coloured():
    rng = random.Random(13)
    done = 0
    while done < 100:
        f = random_coloured(rng, ORI)
        pool = list(coloured_diagrams(ORI, output_type(f),
                                      tuple(rng.choice(ORI.colours) for _ in range(rng.randrange(4))),
                                      max_closed=1))
        if not pool:
            continue
        g = pool[rng.randrange(len(pool))]
        assert dual_coloured(compose_coloured(f, g)) == \
            compose_coloured(dual_coloured(g), dual_coloured(f))
        done += 1


def test_walled_normal_form_frozen():
    already = coloured_identity(ORI, ("+", "+", "-"))
    shuffles, core, wall = to_walled_normal_form(already)
    assert shuffles == ((1, 2, 3), (1, 2, 3))
    assert core == already
    assert wall == (2, 1, 2, 1)
    assert is_walled(core.base, wall)

    swapped = coloured_identity(ORI, ("-", "+"))
    shuffles, core, wall = to_walled_normal_form(swapped)
    assert shuffles[0] == (2, 1)
    assert wall == (1, 1, 1, 1)
    assert is_walled(core.base, wall)
    assert input_type(core) == ("+", "-")

    with pytest.raises(NotOriented):
        to_walled_normal_form(coloured_identity(MONO, ("c",)))


def test_walled_normal_form_functorial():
    rng = random.Random(2024)
    done = 0
    while done < 200:
        f = random_coloured(rng, ORI)
        pool = list(coloured_diagrams(ORI, output_type(f),
                                      tuple(rng.choice(ORI.colours) for _ in range(rng.randrange(4))),
                                      max_closed=1))
        if not pool:
            continue
        g = pool[rng.randrange(len(pool))]
        _, core_f, _ = to_walled_normal_form(f)
        _, core_g, _ = to_walled_normal_form(g)
        _, core_fg, wall = to_walled_normal_form(compose_coloured(f, g))
        assert core_fg == compose_coloured(core_f, core_g)
        assert is_walled(core_fg.base, wall)
        done += 1


def test_pushforward():
    collapse = {"+": "c", "-": "c"}
    trace = compose_coloured(cap_coloured(ORI, ("+",)), cup_coloured(ORI, ("-",)))
    pushed = pushforward(trace, MONO, collapse)
    assert pushed.bubbles == (("c",),)
    f = coloured_identity(ORI, ("+", "-"))
    assert pushforward(f, MONO, collapse) == coloured_identity(MONO, ("c", "c"))
    with pytest.raises(PaletteMismatch):
        pushforward(f, SWAP, {"+": "a", "-": "a"})
    with pytest.raises(PaletteMismatch):
        pushforward(f, MONO, {"+": "c"})


def test_incoherent_cycle_defensive():
    palette = make_palette(["a", "b", "c"], [("a", "b")])
    # raw construction: colours by position, t1 t2 and s1 s2
    raw_cap = ColouredBrauerDiagram(palette, cap(), ("a", "c"), ())
    raw_cup = ColouredBrauerDiagram(
        palette, make_diagram(2, 0, [("s1", "s2")]), ("b", "c"), ())
    assert output_type(raw_cap) == input_type(raw_cup)
    with pytest.raises(IncoherentCycleColour):
        compose_coloured(raw_cap, raw_cup)


def test_enumeration_counts():
    assert len(list(coloured_diagrams(ORI, ("+", "-"), ("+", "-")))) == 2
    assert len(list(coloured_diagrams(MONO, ("c", "c"), ("c", "c")))) == 3
    assert len(list(coloured_diagrams(ORI, ("+",), ("-",)))) == 0
    # one diagram, bubble orbit choices multiply
    assert len(list(coloured_diagrams(ORI, (), (), max_closed=2))) == 3
    assert len(list(coloured_diagrams(FIXED, (), (), max_closed=2))) == 6


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        palette = [SWAP, FIXED, ORI, MONO][rng.randrange(4)]
        f = random_coloured(rng, palette, max_closed=2)
        blob = coloured_to_json(f)
        assert coloured_from_json(blob) == f
    with pytest.raises(ColouringError):
        coloured_from_json({"m": 0, "n": 0, "pairs": [], "closed": 0})
    for omega in ("xy", [["+"]]):
        with pytest.raises(PaletteMismatch, match="not a palette object"):
            palette_from_json(dict(palette_to_json(ORI), omega=omega))
