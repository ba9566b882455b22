import hashlib
import itertools
import random
from dataclasses import replace
from math import factorial, prod

import pytest

from brauerkit import wiring
from brauerkit.brauer import make_diagram
from brauerkit.coloured import (
    PaletteMismatch,
    TypeMismatch,
    cap_coloured,
    coloured_diagrams,
    coloured_identity,
    coloured_permutation,
    compose_coloured,
    make_coloured,
    make_palette,
    monochrome_palette,
    oriented_palette,
)
from brauerkit.wiring import (
    ArityBoundExceeded,
    BlockMismatch,
    ColourMismatch,
    FreeCAElement,
    CircuitAlgebra,
    FreeCircuitAlgebra,
    MissingActionEntry,
    NotDownward,
    TableCircuitAlgebra,
    WiringDiagram,
    _concat_permutation,
    algebra_from_json,
    algebra_to_json,
    check_circuit_algebra,
    check_derived_axioms,
    contraction_wiring,
    derived_boxtimes,
    derived_contraction,
    enumerate_wirings,
    identity_wiring,
    is_downward_wiring,
    make_wiring,
    one_point_algebra,
    operad_gamma,
    pairing_algebra,
    sigma_action,
    tabulate,
    unit_epsilon,
    wiring_from_json,
    wiring_to_json,
)

from genutil import renamed_pairing_table

MONO = monochrome_palette()
ORI = oriented_palette()


def rand_wiring(rng, palette, out_word, max_blocks=3, max_len=2, bubbles=1):
    while True:
        k = rng.randrange(max_blocks + 1)
        blocks = [tuple(rng.choice(palette.colours) for _ in range(rng.randrange(max_len + 1)))
                  for _ in range(k)]
        pool = list(coloured_diagrams(palette, sum(blocks, ()), out_word, bubbles))
        if pool:
            d = pool[rng.randrange(len(pool))]
            return make_wiring(d, tuple(map(len, blocks)))


def rand_word(rng, palette, max_len=2):
    return tuple(rng.choice(palette.colours) for _ in range(rng.randrange(max_len + 1)))


def test_make_wiring_validation():
    d = coloured_identity(MONO, ("c", "c"))
    assert make_wiring(d, (1, 1)).block_types == (("c",), ("c",))
    assert make_wiring(d, (2,)).output_word == ("c", "c")
    with pytest.raises(BlockMismatch):
        make_wiring(d, (1,))
    with pytest.raises(BlockMismatch):
        make_wiring(d, (3, -1))


def test_gamma_unit_laws():
    rng = random.Random(1)
    for _ in range(60):
        palette = [MONO, ORI][rng.randrange(2)]
        g = rand_wiring(rng, palette, rand_word(rng, palette))
        ids = [identity_wiring(palette, w) for w in g.block_types]
        assert operad_gamma(g, ids) == g
        outer = identity_wiring(palette, g.output_word)
        assert operad_gamma(outer, [g]) == g


def test_gamma_matches_composition():
    # one block: substitution is plain composition of the diagrams
    cap_wd = make_wiring(cap_coloured(ORI, ("+",)), ())
    g = make_wiring(
        compose_coloured(coloured_identity(ORI, ("+", "-")),
                         coloured_identity(ORI, ("+", "-"))),
        (2,),
    )
    out = operad_gamma(g, [make_wiring(cap_coloured(ORI, ("+",)), ())])
    assert out.diagram == compose_coloured(cap_coloured(ORI, ("+",)), g.diagram)
    assert out.block_sizes == ()
    # closing a cap against a cup forms the bubble
    cup_block = make_wiring(coloured_identity(ORI, ()), ())
    closer = make_wiring(
        compose_coloured(cap_coloured(ORI, ("+",)),
                         make_coloured(ORI, make_diagram(2, 0, [("s1", "s2")]),
                                       {"s1": "-", "s2": "+"})),
        (0,),
    )
    assert closer.diagram.bubbles == (("+", "-"),)
    got = operad_gamma(closer, [cup_block])
    assert got.diagram.bubbles == (("+", "-"),)
    with pytest.raises(TypeMismatch):
        operad_gamma(g, [make_wiring(cap_coloured(ORI, ("-",)), ())])
    with pytest.raises(BlockMismatch):
        operad_gamma(g, [cap_wd, cap_wd])


def test_gamma_associative_random():
    rng = random.Random(2)
    for _ in range(100):
        palette = [MONO, ORI][rng.randrange(2)]
        g = rand_wiring(rng, palette, rand_word(rng, palette))
        fs = [rand_wiring(rng, palette, w) for w in g.block_types]
        hs = [[rand_wiring(rng, palette, w, max_blocks=2) for w in f.block_types]
              for f in fs]
        flat_hs = [h for chunk in hs for h in chunk]
        lhs = operad_gamma(operad_gamma(g, fs), flat_hs)
        rhs = operad_gamma(g, [operad_gamma(f, chunk) for f, chunk in zip(fs, hs)])
        assert lhs == rhs


def test_sigma_action_basics():
    rng = random.Random(3)
    for _ in range(50):
        palette = [MONO, ORI][rng.randrange(2)]
        f = rand_wiring(rng, palette, rand_word(rng, palette))
        k = len(f.block_sizes)
        assert sigma_action(f, range(1, k + 1)) == f
        if k >= 2:
            swap = [2, 1] + list(range(3, k + 1))
            assert sigma_action(sigma_action(f, swap), swap) == f
    with pytest.raises(BlockMismatch):
        sigma_action(identity_wiring(MONO, ("c",)), (2,))


def test_gamma_equivariance():
    rng = random.Random(4)
    for _ in range(100):
        palette = [MONO, ORI][rng.randrange(2)]
        g = rand_wiring(rng, palette, rand_word(rng, palette))
        k = len(g.block_sizes)
        fs = [rand_wiring(rng, palette, w, max_blocks=2) for w in g.block_types]
        sigma = list(range(1, k + 1))
        rng.shuffle(sigma)
        lhs = operad_gamma(sigma_action(g, sigma), [fs[b - 1] for b in sigma])
        induced = _concat_permutation(sigma, [len(f.block_sizes) for f in fs])
        rhs = sigma_action(operad_gamma(g, fs), induced)
        assert lhs == rhs


def test_downward_wirings():
    assert is_downward_wiring(identity_wiring(ORI, ("+",)))
    assert not is_downward_wiring(make_wiring(cap_coloured(ORI, ("+",)), ()))
    down = pairing_algebra(MONO, 2, downward_only=True)
    with pytest.raises(NotDownward):
        unit_epsilon(down, "c")


def _pin(report):
    # (mode, candidates, checked, first 12 hex digits of the sha256 of
    # the violations' repr); NO_VIOLATIONS is the digest of ()
    digest = hashlib.sha256(repr(report.violations).encode()).hexdigest()[:12]
    return (report.mode, report.candidates, report.checked, digest)


NO_VIOLATIONS = "2e38e77b22c3"


def word_universe(A, **caps):
    # the wirings among A's own words, at caps other than enumerate_wirings'
    words = list(A.words())
    return enumerate_wirings(A.palette, words, words, **caps)


def test_axioms_pairing_algebra_exhaustive():
    # the universe is enumerate_wirings' own, not a table's
    for palette, count in ((MONO, 15_422), (ORI, 99_924)):
        A = pairing_algebra(palette, 2)
        report = check_circuit_algebra(A, universe=word_universe(A, max_points=6))
        assert report.passed, report.violations[:3]
        assert _pin(report) == ("exhaustive", count, count, NO_VIOLATIONS)


def test_axioms_one_point():
    A = one_point_algebra(MONO, 2)
    report = check_circuit_algebra(A, universe=word_universe(A, max_points=6))
    assert report.passed and report.mode == "exhaustive"


def test_axioms_free_algebra():
    A = FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)}, max_blocks=1, bubble_cap=1)
    report = check_circuit_algebra(A, budget=3000, samples=150,
                                   universe=word_universe(A, bubble_cap=1, max_points=4))
    assert report.passed, report.violations[:3]
    assert _pin(report) == ("sampled", 6_978_628, 450, NO_VIOLATIONS)


def test_corrupted_identity_detected():
    A = pairing_algebra(ORI, 4)
    w0 = ("+", "-", "+", "-")
    x0, x1 = A.elements(w0)

    def tweaked(wd, inputs):
        out = A.action(wd, inputs)
        if wd == identity_wiring(ORI, w0):
            return x1 if out == x0 else x0
        return out

    bad = CircuitAlgebra(ORI, 4, A.carriers, tweaked)
    universe = [identity_wiring(ORI, w) for w in A.words()]
    report = check_circuit_algebra(bad, universe=universe)
    assert not report.passed and report.mode == "exhaustive"
    assert any(v[0] == "identity" for v in report.violations)


def test_moved_row_reported_as_equivariance():
    # a (cc, cc) -> cccc wiring, its block swap and the identities; the
    # one row of the first wiring moves to the next pairing of four points
    A = pairing_algebra(MONO, 4)
    cc, c4 = ("c", "c"), ("c",) * 4
    wd = make_wiring(coloured_identity(MONO, c4), (2, 2))
    table = tabulate(A, [wd, sigma_action(wd, (2, 1))]
                     + [identity_wiring(MONO, w) for w in ((), cc, c4)])
    pool = A.elements(c4)
    entries = []
    for g, rows in table.table.items():
        rows = dict(rows)
        if g == wd:
            (combo, out), = rows.items()
            rows[combo] = pool[(pool.index(out) + 1) % len(pool)]
        entries.append((g, rows))
    report = check_circuit_algebra(TableCircuitAlgebra(MONO, 4, table.carriers, entries))
    assert (report.passed, report.mode, report.checked) == (False, "exhaustive", 23)
    assert {kind for kind, _ in report.violations} == {"equivariance"}


@pytest.mark.parametrize("with_ids, with_swap, candidates, checked", [
    (False, False, 7, 1), (False, True, 9, 4), (True, False, 19, 18), (True, True, 23, 23)])
def test_unlisted_instances_are_left_out_of_checked(with_ids, with_swap, candidates, checked):
    # a table of the (cc, cc) -> cccc wiring wd, with or without the
    # identities at (), cc and cccc and wd's block swap: an unlisted
    # identity leaves its 5 instances unchecked, and an unlisted swap the
    # one equivariance instance of wd whose other side it is
    A = pairing_algebra(MONO, 4)
    cc, c4 = ("c", "c"), ("c",) * 4
    wd = make_wiring(coloured_identity(MONO, c4), (2, 2))
    wirings = [wd] + [sigma_action(wd, (2, 1))] * with_swap
    wirings += [identity_wiring(MONO, w) for w in ((), cc, c4)] * with_ids
    report = check_circuit_algebra(tabulate(A, wirings))
    assert (report.passed, report.mode) == (True, "exhaustive")
    assert (report.candidates, report.checked) == (candidates, checked)


def brute_checked(A, universe):
    """The identity, equivariance and composition instances of the
    exhaustive check on whose every wiring A acts, counted one by one: a
    table acts on its listed wirings, any other algebra on all of them."""
    table = getattr(A, "table", None)

    def acts(*wirings):
        return all(wd in table for wd in wirings)

    elements = {w: A.elements(w) for w in A.words()}
    universe = [wd for wd in universe
                if all(w in elements for w in wd.block_types + (wd.output_word,))]
    count = 0
    for w, xs in elements.items():
        if table is None or acts(identity_wiring(A.palette, w)):
            count += sum(1 for _ in xs)
    for wd in universe:
        for sigma in itertools.permutations(range(1, len(wd.block_sizes) + 1)):
            if table is None or acts(wd, sigma_action(wd, sigma)):
                count += sum(1 for _ in itertools.product(
                    *(elements[w] for w in wd.block_types)))
    fills = {w: [f for f in universe if f.output_word == w] for w in elements}
    for g in universe:
        for fs in itertools.product(*(fills[w] for w in g.block_types)):
            if table is None or acts(g, *fs, operad_gamma(g, fs)):
                count += sum(1 for _ in itertools.product(
                    *(elements[w] for f in fs for w in f.block_types)))
    return count


def _mono2_table(keep):
    A = pairing_algebra(MONO, 2)
    T = tabulate(A, [wd for wd in word_universe(A, max_blocks=2) if keep(wd)])
    return T, list(T.listed_wirings())


def _without_identities():
    ids = {identity_wiring(MONO, w) for w in pairing_algebra(MONO, 2).words()}
    return _mono2_table(lambda wd: wd not in ids)


def _without_sigma_images():
    # a two-block wiring whose first block is the longer is the block
    # swap of one whose first block is the shorter, and is left out
    return _mono2_table(lambda wd: len(wd.block_sizes) != 2
                        or len(wd.block_types[0]) <= len(wd.block_types[1]))


def _pairing_ori2():
    A = pairing_algebra(ORI, 2)
    return A, word_universe(A)


def _free_truncated():
    # the action is exact, but the carriers are truncated; an inner value
    # of the square outside them is checked by applying g to it
    A = FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)}, max_blocks=1, bubble_cap=0)
    return A, word_universe(A, max_blocks=1, bubble_cap=0, max_points=4)


@pytest.mark.parametrize("build, checked", [
    (_without_identities, 1_087), (_without_sigma_images, 1_052), (_pairing_ori2, 99_924),
    (_free_truncated, 104)],
    ids=["table without identities", "table without sigma images", "pairing ori 2",
         "free truncated"])
def test_checked_counts_the_instances_on_acted_wirings(build, checked):
    A, universe = build()
    report = check_circuit_algebra(A, universe=universe)
    assert report.passed and report.mode == "exhaustive"
    assert report.checked == brute_checked(A, universe) == checked


def test_act_refuses_wrong_palette_and_long_words():
    A = pairing_algebra(MONO, 4)
    with pytest.raises(PaletteMismatch):
        A.act(identity_wiring(ORI, ("+", "-")))
    with pytest.raises(ArityBoundExceeded, match="output word"):
        A.act(identity_wiring(MONO, ("c",) * 6))
    # six points contracted to four: the output fits the bound, the block does not
    with pytest.raises(ArityBoundExceeded, match="block word"):
        A.act(contraction_wiring(MONO, ("c",) * 6, 1, 2))


def _closed_mono_wirings():
    # the identities up to bound 4, two transpositions p1, p2 of cccc and
    # their composite; the set is closed under gamma
    w4 = ("c",) * 4
    p1 = make_wiring(coloured_permutation(MONO, (2, 1, 3, 4), w4), (4,))
    p2 = make_wiring(coloured_permutation(MONO, (1, 2, 4, 3), w4), (4,))
    composite = operad_gamma(p1, [p2])
    assert composite not in (p1, p2)
    words = [w for n in range(5) for w in itertools.product("c", repeat=n)]
    return [identity_wiring(MONO, w) for w in words] + [p1, p2, composite]


def test_corrupted_table_pinpointed():
    A = pairing_algebra(MONO, 4)
    w4 = ("c",) * 4
    # every composition instance the checker builds stays inside the table
    wirings = _closed_mono_wirings()
    composite = wirings[-1]
    table = tabulate(A, wirings)
    clean = check_circuit_algebra(table)
    assert clean.passed
    assert _pin(clean) == ("exhaustive", 69, 69, NO_VIOLATIONS)

    pool = A.elements(w4)
    assert len(pool) == 3
    entries = []
    for wd, rows in table.table.items():
        rows = dict(rows)
        if wd == composite:
            for combo in rows:
                rows[combo] = _other(pool, rows[combo])
        entries.append((wd, rows))
    broken = TableCircuitAlgebra(MONO, 4, table.carriers, entries)
    report = check_circuit_algebra(broken)
    assert not report.passed
    assert any(v[0] == "composition" for v in report.violations)
    assert _pin(report) == ("exhaustive", 69, 69, "5153b9d7a577")


def test_exhaustive_oriented_table_pinned():
    # the table `ca check` checks exhaustively in the benchmark; every
    # inhabited carrier has one element, so no row of it can be moved
    # round its carrier and the table is pinned as it is
    table = renamed_pairing_table(ORI, 2)
    assert all(len(xs) <= 1 for xs in table.carriers.values())
    report = check_circuit_algebra(table)
    assert report.passed
    assert _pin(report) == ("exhaustive", 99_924, 4_453, NO_VIOLATIONS)


def test_exhaustive_check_tensors_once_per_argument_tuple(monkeypatch):
    table = renamed_pairing_table(ORI, 2)
    sizes = {w: len(xs) for w, xs in table.carriers.items()}
    pools = {w: [f for f in table.table
                 if f.output_word == w and all(sizes[b] for b in f.block_types)]
             for w in sizes}
    signatures = {g.block_types for g in table.table}
    tuples = sum(prod(len(pools[w]) for w in types) for types in signatures)
    pairs = sum(prod(len(pools[w]) for w in g.block_types) for g in table.table)
    sigmas = sum(factorial(len(g.block_sizes)) for g in table.table
                 if all(sizes[b] for b in g.block_types))
    assert (tuples, pairs) == (9_121, 99_747)
    calls = {"tensor_coloured": 0, "compose_coloured": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(wiring, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(wiring, name, counted)
    check_circuit_algebra(table)
    # one composite per pair and one relabelling per block permutation of
    # an inhabited domain, as before; at most one tensor per argument tuple
    assert calls["compose_coloured"] == pairs + sigmas == 99_921
    assert calls["tensor_coloured"] <= tuples


def test_grouped_composites_are_gamma():
    table = tabulate(pairing_algebra(MONO, 4), _closed_mono_wirings())
    universe = list(table.listed_wirings())
    pools = {w: [f for f in universe if f.output_word == w] for w in table.words()}
    seen = 0
    for fs, composites in wiring._grouped_composites(universe, pools, MONO):
        for g, composite in composites:
            assert composite == operad_gamma(g, fs)
            seen += 1
    assert seen == sum(prod(len(pools[w]) for w in g.block_types) for g in universe)


# (checked on the clean table, checked on the corrupted one, violation
# digest) of the sampled check of the mono bound-4 table at seeds 0-5,
# measured before the pools of check_circuit_algebra were hoisted; the digest is the first 12
# hex digits of the sha256 of the violations' repr
SAMPLED_PINS = {
    0: (856, 856, "0535b060ef28"),
    1: (853, 853, "973469f930c3"),
    2: (860, 860, "b64646cb8139"),
    3: (854, 854, "54559eb3cb8b"),
    4: (866, 866, "193502aab777"),
    5: (852, 852, "b07c65fd7b97"),
}


def test_sampled_check_draws_pinned():
    table = renamed_pairing_table(MONO, 4)
    # the corruption moves every two-block action onto cccc round its
    # three elements, so the composition samples that meet one record
    # their wirings and inputs
    w4 = ("c",) * 4
    bad = TableCircuitAlgebra(MONO, 4, table.carriers, [
        (wd, {k: (v + 1) % 3 for k, v in rows.items()}
         if wd.output_word == w4 and len(wd.block_sizes) == 2 else rows)
        for wd, rows in table.table.items()])
    for seed, (checked, bad_checked, digest) in SAMPLED_PINS.items():
        clean = check_circuit_algebra(table, seed=seed)
        assert (clean.passed, clean.mode, clean.candidates, clean.checked) == \
            (True, "sampled", 743_973_698, checked)
        report = check_circuit_algebra(bad, seed=seed)
        assert not report.passed and report.checked == bad_checked
        got = hashlib.sha256(repr(report.violations).encode()).hexdigest()[:12]
        assert got == digest


def _other(pool, x):
    for y in pool:
        if y != x:
            return y
    return x


def test_table_validation():
    carriers = {(): ("e",), ("c",): ("x", "y")}
    idw = identity_wiring(MONO, ("c",))
    good = TableCircuitAlgebra(MONO, 1, carriers,
                               [(idw, {("x",): "x", ("y",): "y"})])
    assert good.act(idw)(("x",)) == "x"
    with pytest.raises(MissingActionEntry):
        TableCircuitAlgebra(MONO, 1, carriers, [(idw, {("x",): "x"})])
    with pytest.raises(MissingActionEntry):
        TableCircuitAlgebra(MONO, 1, carriers,
                            [(idw, {("x",): "x", ("y",): "z"})])
    with pytest.raises(MissingActionEntry):
        good.act(identity_wiring(MONO, ()))(())


def test_derived_axioms_pairing():
    # exhaustive instance counts at bound 4
    for palette, count in ((MONO, 57), (ORI, 167)):
        report = check_derived_axioms(pairing_algebra(palette, 4))
        assert report.passed, report.violations[:3]
        assert report.mode == "exhaustive"
        assert report.checked == report.candidates == count
    # 300 sampled rounds over five laws, the external unit weighing 2
    report = check_derived_axioms(pairing_algebra(MONO, 6), budget=0, seed=3)
    assert report.passed and report.mode == "sampled" and report.checked == 1800


DOWNWARD_NOTE = "downward only: the connected unit is not in scope"


def test_downward_check_leaves_out_the_connected_unit():
    for palette, count in ((MONO, 55), (ORI, 163)):
        report = check_derived_axioms(pairing_algebra(palette, 4, downward_only=True))
        assert report.passed and report.checked == report.candidates == count
        assert report.notes == (DOWNWARD_NOTE,)
    free_down = FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)},
                                   max_blocks=1, bubble_cap=0, downward_only=True)
    report = check_derived_axioms(free_down, budget=2000, samples=100)
    assert report.passed and report.notes == (DOWNWARD_NOTE,)
    # an algebra on every wiring diagram keeps the connected unit, unnoted
    assert check_derived_axioms(pairing_algebra(MONO, 4)).notes == ()


def test_contraction_frozen_coherence():
    # contracting {1,4} then {2,5} equals contracting {2,5} then {1,4}
    A = FreeCircuitAlgebra(MONO, 6, {("c", "c", "c"): ("g",)},
                           max_blocks=1, bubble_cap=0)
    word = ("c",) * 6
    pool = list(coloured_diagrams(MONO, (), word))[:4]
    elems = [FreeCAElement(make_wiring(d, ()), ()) for d in pool]
    elems += [FreeCAElement(make_wiring(d, (3,)), ("g",))
              for d in itertools.islice(coloured_diagrams(MONO, ("c",) * 3, word), 3)]
    left = derived_contraction(A, ("c",) * 4, 1, 3)
    via_14 = derived_contraction(A, word, 1, 4)
    via_25 = derived_contraction(A, word, 2, 5)
    right = derived_contraction(A, ("c",) * 4, 1, 3)
    for a in elems:
        assert left(via_14(a)) == right(via_25(a))
        # generators ride along untouched
        assert via_14(a).generators == a.generators


def test_contraction_errors():
    A = pairing_algebra(ORI, 4)
    with pytest.raises(ColourMismatch):
        derived_contraction(A, ("+", "+"), 1, 2)
    with pytest.raises(IndexError):
        derived_contraction(A, ("+", "-"), 0, 2)
    with pytest.raises(IndexError):
        derived_contraction(A, ("+", "-"), 2, 2)
    with pytest.raises(ArityBoundExceeded):
        derived_boxtimes(A, ("+",) * 3, ("-",) * 3)


def test_diamond_swap_symmetry():
    # the diamond (multiplication) is the contraction after the product
    A = pairing_algebra(ORI, 4)
    c_word, d_word = ("+", "-"), ("-", "+")
    a, = A.elements(c_word)
    b, = A.elements(d_word)
    # contract c_1 with d_1 both ways around
    lhs = derived_contraction(A, c_word + d_word, 1, 3)(
        derived_boxtimes(A, c_word, d_word)(a, b))
    rhs = derived_contraction(A, d_word + c_word, 1, 3)(
        derived_boxtimes(A, d_word, c_word)(b, a))
    # rhs lives on (d minus slot 1) + (c minus slot 1); route it back onto lhs's word
    u2 = ("+", "-")
    routed = make_wiring(coloured_permutation(ORI, (2, 1), u2), (2,))
    assert A.act(routed)((rhs,)) == lhs


def test_unit_epsilon_and_one_point():
    A = pairing_algebra(ORI, 4)
    eps = unit_epsilon(A, "+")
    assert eps == make_coloured(ORI, make_diagram(0, 2, [("t1", "t2")]),
                                {"t1": "+", "t2": "-"})
    P = one_point_algebra(MONO, 3)
    assert unit_epsilon(P, "c") == "*"
    assert derived_contraction(P, ("c", "c"), 1, 2)("*") == "*"


def test_free_algebra_enumeration():
    empty = FreeCircuitAlgebra(MONO, 2, {}, bubble_cap=1)
    zero_block = empty.elements(("c", "c"))
    wanted = [make_wiring(d, ()) for d in coloured_diagrams(MONO, (), ("c", "c"), 1)]
    assert [e.shape for e in zero_block] == wanted
    assert all(e.generators == () for e in zero_block)

    loops = FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)},
                               max_blocks=1, bubble_cap=1)
    closed = loops.elements(())
    shapes = {(len(e.shape.block_sizes), e.shape.diagram.base.closed, e.generators)
              for e in closed}
    assert (0, 0, ()) in shapes  # empty diagram
    assert (0, 1, ()) in shapes  # bare bubble
    assert (1, 0, ("g",)) in shapes  # generator legs tied off
    with pytest.raises(ArityBoundExceeded):
        loops.elements(("c",) * 3)


# sha256 of repr([(w, A.elements(w)) for w in A.words()]), recorded while
# free elements were keyed by the JSON text of their canonical shape
FREE_CARRIER_PINS = {
    "mono 3 ccc=g": (
        lambda: FreeCircuitAlgebra(MONO, 3, {("c", "c", "c"): ("g",)}),
        "2236b62fa0d5cc7668eba1794d96fb7664a25adc9ca6dbe7a13d7c5fbdb4a572"),
    "ori 2 +-=g,h": (
        lambda: FreeCircuitAlgebra(ORI, 2, {("+", "-"): ("g", "h")}),
        "d9c4e43fcfc63661047e206ef7f2d014c578408397d32fb078e20c406b5a26a0"),
    "mono 4 cc=g,h two blocks": (
        lambda: FreeCircuitAlgebra(MONO, 4, {("c", "c"): ("g", "h")}, max_blocks=2),
        "f23e310ffcb8d63e696b99a53667a925970d2cb4cf8f5ae26567b93c54d0cf24"),
    "mono 2 downward": (
        lambda: FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)}, downward_only=True),
        "739d1c36c6d7f37fff9d5eb074901e7754c60a36a658eaf90ae22c327f0d7706"),
    "ori 3 +=a +-=g": (
        lambda: FreeCircuitAlgebra(ORI, 3, {("+",): ("a",), ("+", "-"): ("g",)}),
        "714c99f5084ee3156006d8acb529b8deda6229add4e59f645a9e31901b7135ea"),
}


@pytest.mark.parametrize("name", sorted(FREE_CARRIER_PINS))
def test_free_carriers_pinned(name):
    build, digest = FREE_CARRIER_PINS[name]
    A = build()
    data = repr([(w, A.elements(w)) for w in A.words()])
    assert hashlib.sha256(data.encode()).hexdigest() == digest


def test_diagrams_agree_across_equal_palettes():
    # a second palette object, equal to ORI, as every loaded document has
    twin = make_palette(ORI.colours, ORI.swaps)
    assert twin == ORI and twin is not ORI
    words = [("+",), ("+", "-")]
    wirings = enumerate_wirings(ORI, words, [("-", "+")], max_blocks=2,
                                bubble_cap=1, max_points=6)
    assert any(wd.diagram.bubbles for wd in wirings)
    for wd in wirings:
        direct = WiringDiagram(replace(wd.diagram, palette=twin), wd.block_sizes)
        loaded = wiring_from_json(wiring_to_json(wd))
        for copy in (direct, loaded):
            assert copy.palette is not ORI
            for a, b in ((wd.diagram, copy.diagram), (wd, copy)):
                assert a == b and hash(a) == hash(b)
                assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"


def test_freeness_desk_version():
    A = FreeCircuitAlgebra(MONO, 2, {("c", "c"): ("g",)},
                           max_blocks=1, bubble_cap=0)
    B = pairing_algebra(MONO, 2)
    assign = {"g": B.elements(("c", "c"))[0]}

    def induced(x):
        fn = B.act(x.shape)
        return fn(tuple(assign[g] for g in x.generators))

    rng = random.Random(8)
    for _ in range(60):
        wd = rand_wiring(rng, MONO, rand_word(rng, MONO), max_blocks=2, bubbles=0)
        pools = [A.elements(w) for w in wd.block_types]
        if not all(pools):
            continue
        xs = tuple(pool[rng.randrange(len(pool))] for pool in pools)
        assert induced(A.act(wd)(xs)) == B.act(wd)(tuple(induced(x) for x in xs))


def test_wiring_json_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        palette = [MONO, ORI][rng.randrange(2)]
        wd = rand_wiring(rng, palette, rand_word(rng, palette))
        assert wiring_from_json(wiring_to_json(wd)) == wd
    with pytest.raises(BlockMismatch):
        blob = wiring_to_json(identity_wiring(MONO, ("c",)))
        del blob["blocks"]
        wiring_from_json(blob)


def test_algebra_json_round_trip():
    carriers = {(): ("e",), ("c",): ("x", "y"), ("c", "c"): ("z",)}
    idw = identity_wiring(MONO, ("c",))
    zeta = contraction_wiring(MONO, ("c", "c"), 1, 2)
    A = TableCircuitAlgebra(MONO, 2, carriers, [
        (idw, {("x",): "x", ("y",): "y"}),
        (zeta, {("z",): "e"}),
    ])
    blob = algebra_to_json(A)
    back = algebra_from_json(blob)
    assert back.carriers == A.carriers
    assert back.table == A.table
    assert back.bound == 2
    with pytest.raises(MissingActionEntry):
        algebra_from_json({"palette": blob["palette"]})


def test_enumerate_wirings_stops_at_its_budget(monkeypatch):
    words = [(), ("c",), ("c", "c")]
    listed = len(enumerate_wirings(MONO, words, words, max_blocks=2, max_points=5))
    monkeypatch.setattr(wiring, "WIRING_BUDGET", listed)
    assert len(enumerate_wirings(MONO, words, words, max_blocks=2, max_points=5)) == listed
    monkeypatch.setattr(wiring, "WIRING_BUDGET", listed - 1)
    with pytest.raises(wiring.BudgetExceeded, match=f"past the budget of {listed - 1}$"):
        enumerate_wirings(MONO, words, words, max_blocks=2, max_points=5)
    # the free algebra draws its carriers from the same enumeration
    monkeypatch.setattr(wiring, "WIRING_BUDGET", 10)
    with pytest.raises(wiring.BudgetExceeded):
        FreeCircuitAlgebra(MONO, 4, {("c", "c"): ("g",)}).elements(("c",) * 4)


def test_enumerate_wirings_deterministic():
    words = [(), ("c",), ("c", "c")]
    first = enumerate_wirings(MONO, words, words, max_blocks=2, max_points=5)
    second = enumerate_wirings(MONO, words, words, max_blocks=2, max_points=5)
    assert first == second
    assert all(isinstance(w, WiringDiagram) for w in first)
    assert identity_wiring(MONO, ("c",)) in first
