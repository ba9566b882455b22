"""The error contract of the document loaders.

Each malformed input is one edit of a valid document: the identity
wiring on the oriented word (+, -), which is a diagram, a coloured
diagram and a wiring document at once.  For each input the tests pin
the class of the exception that every loader raises, and that the CLI
commands reading such a document (`bd dual`, `cbd compose`, `ca check`)
exit 2 with one `error:` line.  make_diagram is checked against the
label-string validator of the pairing module on random pair lists.
The error a nested reader or a constructor raises inside a table,
element, graph, graph-of-graphs, species or presheaf document is
pinned to pass through its reader, and the CLI, as it is.  The
constructor refusals that no document test reaches are pinned on
direct calls.
"""

from __future__ import annotations

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerkit import brauer_algebra, coloured, graph, pairing, wiring
from brauerkit.brauer import ArityMismatch, diagram_from_json, identity, labels, make_diagram
from brauerkit.brauer_algebra import ZZ, element_from_json, element_of, element_to_json
from brauerkit.coloured import (
    ColouringError,
    PaletteMismatch,
    coloured_from_json,
    make_palette,
    monochrome_palette,
    oriented_palette,
    palette_to_json,
)
from brauerkit.graph import (
    InvalidParameter,
    graph_from_json,
    graph_to_json,
    line,
    wheel,
    xgraph_from_json,
)
from brauerkit.pairing import (
    DuplicateLabel,
    PairingError,
    SelfPair,
    UncoveredLabel,
    make_pairing,
)
from brauerkit.species import (
    make_species,
    nerve_presheaf,
    presheaf_from_json,
    presheaf_to_json,
    species_from_json,
    species_to_json,
    terminal_species,
)
from brauerkit.substitution import gog_from_json, gog_to_json, identity_gog
from brauerkit.wiring import (
    BlockMismatch,
    MissingActionEntry,
    algebra_from_json,
    algebra_to_json,
    check_circuit_algebra,
    enumerate_wirings,
    identity_wiring,
    make_wiring,
    pairing_algebra,
    tabulate,
    wiring_from_json,
    wiring_to_json,
)

from genutil import assert_one_error_line, cli, renamed, renamed_pairing_table, write_doc

MONO = monochrome_palette()
ORI = oriented_palette()


def _set_pair(i, pair):
    def edit(doc):
        doc["pairs"][i] = pair
    return edit


def _set_colour(label, colour):
    def edit(doc):
        doc["boundary_colour"][label] = colour
    return edit


def _drop_colour(doc):
    del doc["boundary_colour"]["t2"]


def _drop_pair(doc):
    del doc["pairs"][1]


def _add_bubble(doc):
    doc["bubbles"] = [["+", "-"]]


def _swap_free(doc):
    bc = doc["boundary_colour"]
    bc["t1"] = bc["s1"]


# case -> (edit of the (+, -) identity wiring document, the class make_diagram
# or make_coloured raises); both pass through algebra_from_json as they are
DIAGRAM_CASES = {
    "self-pair": (_set_pair(0, ["s1", "s1"]), SelfPair),
    "label used twice": (_set_pair(1, ["s1", "t2"]), DuplicateLabel),
    "label past m": (_set_pair(1, ["s3", "t2"]), UncoveredLabel),
    "label past n": (_set_pair(1, ["s2", "t3"]), UncoveredLabel),
    "malformed label": (_set_pair(1, ["x1", "t2"]), UncoveredLabel),
    "label with a leading zero": (_set_pair(1, ["s02", "t2"]), UncoveredLabel),
    "uncovered point": (_drop_pair, UncoveredLabel),
}
COLOURING_CASES = {
    "colours not omega-swapped": (_swap_free, ColouringError),
    "colouring missing a label": (_drop_colour, ColouringError),
    "colouring with an extra label": (_set_colour("t3", "+"), ColouringError),
    "colour outside the palette": (_set_colour("t1", "z"), PaletteMismatch),
    "wrong bubble count": (_add_bubble, ColouringError),
}
CASES = {**DIAGRAM_CASES, **COLOURING_CASES}


def good_wiring_doc():
    return wiring_to_json(identity_wiring(ORI, ("+", "-")))


def bad_doc(case):
    doc = good_wiring_doc()
    CASES[case][0](doc)
    return doc


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value)


@pytest.fixture(scope="module")
def ori_table_doc():
    return json.dumps(algebra_to_json(renamed_pairing_table(ORI)))


def algebra_with_entry(doc_text, wd_doc):
    doc = json.loads(doc_text)
    doc["entries"][0]["wd"] = wd_doc
    return doc


def _entry(wd_doc):
    return lambda table_text: algebra_with_entry(table_text, wd_doc)


def test_the_unedited_document_loads():
    doc = good_wiring_doc()
    assert wiring_from_json(doc) == identity_wiring(ORI, ("+", "-"))
    assert sorted(doc["boundary_colour"]) == ["s1", "s2", "t1", "t2"]


@pytest.mark.parametrize("case", sorted(DIAGRAM_CASES))
def test_diagram_errors_keep_their_class(case):
    doc, cls = bad_doc(case), DIAGRAM_CASES[case][1]
    pairs = [tuple(p) for p in doc["pairs"]]
    assert raised(make_diagram, doc["m"], doc["n"], pairs) is cls
    for loader in (diagram_from_json, coloured_from_json, wiring_from_json):
        assert raised(loader, doc) is cls


@pytest.mark.parametrize("case", sorted(COLOURING_CASES))
def test_colouring_errors_keep_their_class(case):
    doc, cls = bad_doc(case), COLOURING_CASES[case][1]
    assert diagram_from_json(doc) == identity_wiring(ORI, ("+", "-")).diagram.base
    for loader in (coloured_from_json, wiring_from_json):
        assert raised(loader, doc) is cls


@pytest.mark.parametrize("case", sorted(CASES))
def test_algebra_loader_error_classes(ori_table_doc, case):
    table = algebra_with_entry(ori_table_doc, bad_doc(case))
    assert raised(algebra_from_json, table) is CASES[case][1]


@pytest.mark.parametrize("case", sorted(DIAGRAM_CASES))
def test_bd_dual_on_a_bad_diagram_exits_2(tmp_path, capsys, case):
    path = write_doc(tmp_path, "d.json", bad_doc(case))
    assert_one_error_line(*cli(capsys, "bd", "dual", "--diagram", path))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cbd_compose_on_a_bad_diagram_exits_2(tmp_path, capsys, case):
    bad = write_doc(tmp_path, "bad.json", bad_doc(case))
    good = write_doc(tmp_path, "good.json", good_wiring_doc())
    assert_one_error_line(*cli(capsys, "cbd", "compose", "--lhs", bad, "--rhs", good))
    assert_one_error_line(*cli(capsys, "cbd", "compose", "--lhs", good, "--rhs", bad))


@pytest.mark.parametrize("case", sorted(CASES))
def test_ca_check_on_a_bad_entry_exits_2(ori_table_doc, tmp_path, capsys, case):
    path = write_doc(tmp_path, "alg.json", algebra_with_entry(ori_table_doc, bad_doc(case)))
    assert_one_error_line(*cli(capsys, "ca", "check", "--algebra", path))


@pytest.mark.parametrize("blocks", [[0.5, 1.5], [True, 1], ["two"], 2])
def test_bad_block_sizes_are_named(ori_table_doc, tmp_path, capsys, blocks):
    # the sizes are read before the wiring is made, as a BlockMismatch
    # that names the field, alone and inside a table document
    doc = dict(good_wiring_doc(), blocks=blocks)
    table = algebra_with_entry(ori_table_doc, doc)
    for loader, arg in ((wiring_from_json, doc), (algebra_from_json, table)):
        with pytest.raises(BlockMismatch, match="malformed wiring diagram field 'blocks'"):
            loader(arg)
    for argv, arg in ((["wd", "gamma", "--outer"], doc), (["ca", "check", "--algebra"], table)):
        code, out, err = cli(capsys, *argv, write_doc(tmp_path, "doc.json", arg))
        assert_one_error_line(code, out, err)
        assert "'blocks'" in err


def test_an_entry_over_another_palette(ori_table_doc, tmp_path, capsys):
    # the entry loads over its own palette; the check refuses to act with it
    doc = json.loads(ori_table_doc)
    wider = make_palette(["+", "-", "z"], [("+", "-")])
    doc["entries"][0]["wd"]["palette"] = palette_to_json(wider)
    A = algebra_from_json(doc)
    odd = [wd for wd in A.table if wd.palette is not A.palette]
    assert len(odd) == 1 and odd[0].palette == wider
    assert raised(check_circuit_algebra, A) is PaletteMismatch
    path = write_doc(tmp_path, "alg.json", doc)
    assert_one_error_line(*cli(capsys, "ca", "check", "--algebra", path))


def test_an_entry_palette_spelled_otherwise_is_the_documents(ori_table_doc):
    # the same palette with its colours listed in another order
    doc = json.loads(ori_table_doc)
    doc["entries"][0]["wd"]["palette"]["colours"].reverse()
    A = algebra_from_json(doc)
    assert all(wd.palette is A.palette for wd in A.table)
    assert check_circuit_algebra(A).passed


# ---------------------------------------------------------------------------
# make_diagram against the label-string validator

_LABELS = st.sampled_from(["s1", "s2", "s3", "s4", "t1", "t2", "t3", "t4",
                           "s0", "t0", "s01", "x1", "", "S1", "s 1", "1", "s1 ", "s1\n", 1,
                           "s" + "1" * 5000])


def reference_class(m, n, pairs):
    """The class make_diagram raised when it validated through the
    pairing module, or None when it accepted the pairs."""
    if m + n > 2 * len(pairs):
        return UncoveredLabel
    try:
        make_pairing(labels(m, n), pairs)
    except Exception as exc:
        return type(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4),
       st.lists(st.tuples(_LABELS, _LABELS), max_size=5))
def test_make_diagram_validates_as_the_pairing_module(m, n, pairs):
    want = reference_class(m, n, pairs)
    if want is None:
        f = make_diagram(m, n, pairs)
        assert {frozenset(p) for p in f.pairs} == {frozenset(p) for p in pairs}
    else:
        assert raised(make_diagram, m, n, pairs) is want


def test_make_diagram_accepts_every_shuffled_pairing():
    # random perfect matchings, listed in a random order and orientation
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        if (m + n) % 2:
            n += 1
        points = labels(m, n)
        rng.shuffle(points)
        pairs = [tuple(points[i:i + 2]) for i in range(0, len(points), 2)]
        assert reference_class(m, n, pairs) is None
        f = make_diagram(m, n, pairs)
        assert {frozenset(p) for p in f.pairs} == {frozenset(p) for p in pairs}


# ---------------------------------------------------------------------------
# round trips of whole table documents


def shuffled_pairing_table(palette, bound, rng):
    """renamed_pairing_table with the element indices of each word shuffled."""
    T = renamed_pairing_table(palette, bound)
    perm = {}
    for w, xs in T.carriers.items():
        image = list(xs)
        rng.shuffle(image)
        perm[w] = dict(zip(xs, image))
    entries = [(wd, {tuple(perm[bw][x] for bw, x in zip(wd.block_types, combo)):
                     perm[wd.output_word][out] for combo, out in rows.items()})
               for wd, rows in T.table.items()]
    rng.shuffle(entries)
    return type(T)(T.palette, T.bound, T.carriers, entries)


@pytest.mark.parametrize("palette, bound, seed", [(MONO, 4, 1), (ORI, 2, 2)],
                         ids=["mono-4", "ori-2"])
def test_table_documents_round_trip(palette, bound, seed):
    rng = random.Random(seed)
    T = shuffled_pairing_table(palette, bound, rng)
    doc = algebra_to_json(T)
    rng.shuffle(doc["entries"])
    back = algebra_from_json(json.loads(json.dumps(doc)))
    assert back.table == T.table and back.carriers == T.carriers
    assert list(back.table) == [wiring_from_json(e["wd"]) for e in doc["entries"]]
    assert all(wd.palette is back.palette for wd in back.table)
    # a diagram listed under two block splittings is two wirings
    splits = {}
    for wd in back.table:
        splits.setdefault(wd.diagram, set()).add(wd.block_sizes)
    assert max(len(s) for s in splits.values()) > 1
    assert sum(len(s) for s in splits.values()) == len(back.table)



def test_ca_check_reads_each_diagram_once_without_the_pairing_module(tmp_path, capsys,
                                                                     monkeypatch):
    doc = algebra_to_json(renamed_pairing_table(MONO, 4))
    distinct = {json.dumps({k: v for k, v in e["wd"].items() if k != "blocks"})
                for e in doc["entries"]}
    assert len(doc["entries"]) > len(distinct)
    calls = {"make_pairing": 0, "make_coloured": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # in every module that has bound it, as a tracer would
    make_pairing = pairing.make_pairing
    for module in [m for name, m in sys.modules.items() if name.startswith("brauerkit.")]:
        if getattr(module, "make_pairing", None) is make_pairing:
            monkeypatch.setattr(module, "make_pairing", counted("make_pairing", make_pairing))
    monkeypatch.setattr(coloured, "make_coloured",
                        counted("make_coloured", coloured.make_coloured))
    path = write_doc(tmp_path, "alg.json", doc)
    code, out, _ = cli(capsys, "ca", "check", "--algebra", path, "--json", "--seed", "0")
    assert code == 0 and json.loads(out)["passed"]
    assert calls == {"make_pairing": 0, "make_coloured": len(distinct)}


def _closed_false(wd_doc):
    wd_doc["closed"] = False


def _colours_true(wd_doc):
    wd_doc["palette"]["colours"] = [True]


@pytest.mark.parametrize("edit, line", [
    (_closed_false, "malformed diagram field 'closed': not a whole number: False"),
    (_colours_true, "malformed palette field 'colours': booleans are not valid labels")],
    ids=["closed false", "colours true"])
def test_a_repeated_diagram_is_read_by_its_own_values(tmp_path, capsys, edit, line):
    # entry 5 lists entry 0's diagram under other blocks; edited, it is read
    # on its own values, even where they are == to entry 0's (False == 0)
    doc = algebra_to_json(renamed_pairing_table(MONO, 4))
    first, repeat = ({k: v for k, v in doc["entries"][i]["wd"].items() if k != "blocks"}
                     for i in (0, 5))
    assert first == repeat and doc["entries"][0]["wd"]["closed"] == 0
    edit(doc["entries"][5]["wd"])
    path = write_doc(tmp_path, "alg.json", doc)
    code, out, err = cli(capsys, "ca", "check", "--algebra", path)
    assert_one_error_line(code, out, err)
    assert err == f"error: {line}\n"


def _bubbly_table():
    # a palette that swaps a and b and keeps c self-dual, over wirings of
    # up to one bubble each
    palette = make_palette(["a", "b", "c"], [("a", "b")])
    A = pairing_algebra(palette, 2)
    words = list(A.words())
    return renamed(tabulate(A, enumerate_wirings(palette, words, words, 2, bubble_cap=1)))


@pytest.mark.parametrize("table", [lambda: renamed_pairing_table(MONO, 4),
                                   lambda: renamed_pairing_table(ORI, 2), _bubbly_table],
                         ids=["mono-4", "ori-2", "swapped colours with bubbles"])
def test_a_read_wiring_has_the_profile_make_wiring_cuts(table):
    # block_types and output_word are left out of ==, so compare them here
    T = table()
    doc = json.loads(json.dumps(algebra_to_json(T)))
    back = algebra_from_json(doc)
    assert len(back.table) == len(doc["entries"]) == len(T.table)
    if table is _bubbly_table:
        assert any(wd.diagram.bubbles for wd in back.table)
        # a source's colour is the omega-dual of its input letter
        assert any(sum(wd.block_types, ()) != wd.diagram.colours[:wd.diagram.base.m]
                   for wd in back.table)
    for wd in back.table:
        want = make_wiring(wd.diagram, wd.block_sizes)
        assert ((wd.block_sizes, wd.block_types, wd.output_word)
                == (want.block_sizes, want.block_types, want.output_word))


# ---------------------------------------------------------------------------
# each refusal of a table's contents, in-process and through `ca check`

_CCCC = ("c",) * 4


def _identities_doc():
    """The identities of pairing_algebra(MONO, 4), renamed: the cccc
    identity's rows are [[0, 0], [1, 1], [2, 2]]."""
    A = pairing_algebra(MONO, 4)
    return algebra_to_json(renamed(tabulate(A, [identity_wiring(MONO, w) for w in A.words()])))


def _cccc_entry(doc):
    entry = next(e for e in doc["entries"] if e["wd"]["m"] == 4)
    assert entry["table"] == [[0, 0], [1, 1], [2, 2]]
    return entry


def _edit_cccc(edit):
    def build():
        doc = _identities_doc()
        edit(_cccc_entry(doc))
        return doc
    return build


def _without_cccc_carrier():
    doc = _identities_doc()
    del doc["carriers"][json.dumps(list(_CCCC))]
    return doc


def _cccc_index():
    doc = _identities_doc()
    return doc["entries"].index(_cccc_entry(doc))


def _cccc_twice(at):
    # the cccc identity listed again, with its first row corrupted
    def build():
        doc = _identities_doc()
        entry = json.loads(json.dumps(_cccc_entry(doc)))
        entry["table"][0] = [0, 1]
        doc["entries"].insert(at if at >= 0 else len(doc["entries"]), entry)
        return doc
    return build


def _table_field(reason):
    return lambda: (f"malformed circuit algebra 'entries' row {_cccc_index()} field 'table': "
                    f"{reason}")


# case -> (table document, class, message)
TABLE_REFUSALS = {
    "missing row": (_edit_cccc(lambda e: e["table"].pop()), MissingActionEntry,
                    lambda: "entries row 4 misses inputs (2,)"),
    "spurious row": (_edit_cccc(lambda e: e["table"].append([5, 0])), MissingActionEntry,
                     lambda: "entries row 4 has spurious rows"),
    "output outside its carrier": (_edit_cccc(lambda e: e["table"][2].__setitem__(1, 7)),
                                   MissingActionEntry,
                                   lambda: f"table output 7 outside carrier {_CCCC!r}"),
    "word without a carrier": (_without_cccc_carrier, MissingActionEntry,
                               lambda: f"no carrier for word {_CCCC!r}"),
    "negative block size": (_edit_cccc(lambda e: e["wd"].__setitem__("blocks", [-1, 5])),
                            BlockMismatch, lambda: "negative block size in (-1, 5)"),
    "blocks off the inputs": (_edit_cccc(lambda e: e["wd"].__setitem__("blocks", [3])),
                              BlockMismatch,
                              lambda: "blocks (3,) sum to 3, diagram has 4 inputs"),
    # what a table used to read by its last copy, or by iterating a string
    "wiring listed again after": (_cccc_twice(-1), MissingActionEntry,
                                  lambda: "entries row 5 lists the wiring of row 4 again"),
    "wiring listed again before": (_cccc_twice(0), MissingActionEntry,
                                   lambda: "entries row 5 lists the wiring of row 0 again"),
    "inputs listed twice": (_edit_cccc(lambda e: e["table"].append([0, 1])), MissingActionEntry,
                            _table_field("inputs (0,) are listed twice")),
    "row a string": (_edit_cccc(lambda e: e["table"].__setitem__(0, "00")), MissingActionEntry,
                     _table_field("'str' object is not a list")),
    "blocks a string": (_edit_cccc(lambda e: e["wd"].__setitem__("blocks", "4")), BlockMismatch,
                        lambda: "malformed wiring diagram field 'blocks': "
                                "'str' object is not a list"),
}


@pytest.mark.parametrize("case", sorted(TABLE_REFUSALS))
def test_a_table_refusal_is_pinned(tmp_path, capsys, case):
    build, cls, msg = TABLE_REFUSALS[case]
    doc, msg = build(), msg()
    with pytest.raises(Exception) as info:
        algebra_from_json(json.loads(json.dumps(doc)))
    assert (type(info.value), str(info.value)) == (cls, msg)
    code, out, err = cli(capsys, "ca", "check", "--algebra", write_doc(tmp_path, "alg.json", doc))
    assert_one_error_line(code, out, err)
    assert err == f"error: {msg}\n"


# ---------------------------------------------------------------------------
# error lines name the field and the reason, not the whole document


def _large_wiring_doc():
    # the identity wiring on 2,000 strands, about 90 KB of JSON
    return wiring_to_json(identity_wiring(MONO, ("c",) * 2000))


def _edit(doc, **fields):
    for name, value in fields.items():
        if value is None:
            del doc[name]
        else:
            doc[name] = value
    return doc


def _palette_doc():
    return palette_to_json(MONO)


LONG_OMEGA = "x" * 40_000

# case -> (command, edit of the large document, text the error line holds);
# the palette commands read a palette document, the others a wiring document
LARGE_BAD = {
    "fractional arity": ("bd dual", dict(m=1.9), "'m': not a whole number: 1.9"),
    "no pairs": ("bd dual", dict(pairs=None), "'pairs'"),
    "pairs not a list": ("bd dual", dict(pairs=7), "'pairs'"),
    "no palette": ("cbd compose", dict(palette=None), "'palette'"),
    "colouring not a map": ("cbd compose", dict(boundary_colour=["c"]), "'boundary_colour'"),
    "bubbles not a list": ("cbd compose", dict(bubbles=7), "'bubbles'"),
    "colouring missing a label": ("cbd compose", dict(boundary_colour={"s1": "c"}),
                                  "leaves s2 uncoloured"),
    "colouring with a stray label": ("cbd compose", dict(boundary_colour={"x": "c"}),
                                     "names 'x'"),
    "no blocks": ("wd gamma", dict(blocks=None), "'blocks'"),
    "fractional block": ("wd gamma", dict(blocks=[1000.5, 999.5]),
                         "'blocks': not a whole number: 1000.5"),
    "palette omega a string, cbd": ("cbd compose --palette", dict(omega=LONG_OMEGA),
                                    "malformed palette field 'omega'"),
    "palette omega a string, ca free": ("ca free", dict(omega=LONG_OMEGA),
                                        "malformed palette field 'omega'"),
    "palette omega row a string": ("ca free", dict(omega=[LONG_OMEGA]),
                                   "'omega': entry 0 is not an [a, b] pair"),
    "palette colour listed twice": ("ca free", dict(colours=["c"] * 20_000),
                                    "duplicate colours: 'c' is listed twice"),
}


@pytest.mark.parametrize("case", sorted(LARGE_BAD))
def test_error_line_for_a_large_bad_document_is_short(tmp_path, capsys, case):
    command, fields, text = LARGE_BAD[case]
    base = _palette_doc if command in ("cbd compose --palette", "ca free") else _large_wiring_doc
    doc = _edit(base(), **fields)
    path = write_doc(tmp_path, "big.json", doc)
    assert len(json.dumps(doc)) > 30_000
    good = write_doc(tmp_path, "good.json", good_wiring_doc())
    argv = {"bd dual": ["bd", "dual", "--diagram"],
            "cbd compose": ["cbd", "compose", "--lhs", path, "--rhs"],
            "wd gamma": ["wd", "gamma", "--outer"],
            "cbd compose --palette": ["cbd", "compose", "--lhs", good, "--rhs", good, "--palette"],
            "ca free": ["ca", "free", "--bound", "2", "--palette"]}[command]
    code, out, err = cli(capsys, *argv, path)
    assert_one_error_line(code, out, err)
    assert text in err and len(err) < 200


# ---------------------------------------------------------------------------
# the error of each field a reader reads, missing and malformed


def _pairing_doc():
    return pairing.pairing_to_json(make_pairing(["a", "b"], [("a", "b")]))


# (reader, field, value, class, message); the value None drops the field.
# Diagram, coloured diagram and wiring fields edit the (+, -) identity wiring
# document, palette fields its palette, pairing fields a pairing document.
FIELD_ERRORS = [
    ("diagram", "m", None, PairingError, "diagram document lacks field 'm'"),
    ("diagram", "m", 1.5, PairingError,
     "malformed diagram field 'm': not a whole number: 1.5"),
    ("diagram", "n", None, PairingError, "diagram document lacks field 'n'"),
    ("diagram", "n", "two", PairingError,
     "malformed diagram field 'n': invalid literal for int() with base 10: 'two'"),
    ("diagram", "pairs", None, PairingError, "diagram document lacks field 'pairs'"),
    ("diagram", "pairs", 7, PairingError,
     "malformed diagram field 'pairs': 'int' object is not iterable"),
    ("diagram", "closed", True, PairingError,
     "malformed diagram field 'closed': not a whole number: True"),
    ("coloured diagram", "palette", None, ColouringError,
     "coloured diagram document lacks field 'palette'"),
    ("coloured diagram", "palette", 7, PaletteMismatch, "palette document is not an object"),
    ("coloured diagram", "boundary_colour", None, ColouringError,
     "coloured diagram document lacks field 'boundary_colour'"),
    ("coloured diagram", "boundary_colour", ["+"], ColouringError,
     "malformed coloured diagram field 'boundary_colour': "
     "'list' object has no attribute 'items'"),
    ("coloured diagram", "bubbles", 7, ColouringError,
     "malformed coloured diagram field 'bubbles': 'int' object is not iterable"),
    ("palette", "colours", None, PaletteMismatch, "palette document lacks field 'colours'"),
    ("palette", "colours", 7, PaletteMismatch,
     "malformed palette field 'colours': 'int' object is not iterable"),
    ("palette", "colours", "+-", PaletteMismatch,
     "malformed palette field 'colours': 'str' object is not a list"),
    ("palette", "colours", {"+": 0, "-": 1}, PaletteMismatch,
     "malformed palette field 'colours': 'dict' object is not a list"),
    ("palette", "omega", None, PaletteMismatch, "palette document lacks field 'omega'"),
    ("palette", "omega", [["+"]], PaletteMismatch,
     "malformed palette field 'omega': entry 0 is not an [a, b] pair"),
    ("wiring diagram", "blocks", None, BlockMismatch,
     "wiring diagram document lacks field 'blocks'"),
    ("wiring diagram", "blocks", [0.5, 1.5], BlockMismatch,
     "malformed wiring diagram field 'blocks': not a whole number: 0.5"),
    ("wiring diagram", "blocks", "11", BlockMismatch,
     "malformed wiring diagram field 'blocks': 'str' object is not a list"),
    ("pairing", "carrier", None, PairingError, "pairing document lacks field 'carrier'"),
    ("pairing", "carrier", 7, PairingError,
     "malformed pairing field 'carrier': 'int' object is not iterable"),
    ("pairing", "pairs", None, PairingError, "pairing document lacks field 'pairs'"),
    ("pairing", "pairs", [[1]], PairingError,
     "malformed pairing field 'pairs': entry 0 is not an [a, b] pair"),
]
_WIRING_READERS = ("diagram", "coloured diagram", "wiring diagram")


def _edited(doc, field, value):
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    return doc


_GOOD = "{good}"  # stands for the path of the unedited wiring document


def field_docs(case, table_text):
    """The documents the case edits, each with the loaders that read it,
    the class and message they raise, and the CLI commands (argv before
    the document's path) that exit 2 with that message; table_text is
    the table document whose first entry or palette an edit replaces."""
    reader, field, value, cls, msg = case
    if reader == "pairing":
        return [(_edited(_pairing_doc(), field, value), [pairing.pairing_from_json], cls, msg, [])]
    if reader == "palette":
        palette_doc = _edited(palette_to_json(ORI), field, value)
        wd_doc = dict(good_wiring_doc(), palette=palette_doc)
        table = json.loads(table_text)
        table["palette"] = palette_doc
        return [
            (palette_doc, [coloured.palette_from_json], cls, msg,
             [["cbd", "compose", "--lhs", _GOOD, "--rhs", _GOOD, "--palette"]]),
            (wd_doc, [coloured_from_json, wiring_from_json], cls, msg,
             [["cbd", "compose", "--rhs", _GOOD, "--lhs"], ["wd", "gamma", "--outer"]]),
            (algebra_with_entry(table_text, wd_doc), [algebra_from_json], cls, msg,
             [["ca", "check", "--algebra"]]),
            (table, [algebra_from_json], cls, msg, [["ca", "check", "--algebra"]]),
        ]
    doc = _edited(good_wiring_doc(), field, value)
    loaders = [diagram_from_json, coloured_from_json, wiring_from_json]
    commands = [["bd", "dual", "--diagram"], ["cbd", "compose", "--rhs", _GOOD, "--lhs"],
                ["wd", "gamma", "--outer"]]
    start = _WIRING_READERS.index(reader)
    return [(doc, loaders[start:], cls, msg, commands[start:]),
            (algebra_with_entry(table_text, doc), [algebra_from_json], cls, msg,
             [["ca", "check", "--algebra"]])]


@pytest.mark.parametrize("case", FIELD_ERRORS, ids=lambda c: f"{c[0]}.{c[1]}={c[2]!r}")
def test_each_field_error_is_pinned(ori_table_doc, tmp_path, capsys, case):
    good = write_doc(tmp_path, "good.json", good_wiring_doc())
    for doc, loaders, cls, msg, commands in field_docs(case, ori_table_doc):
        for loader in loaders:
            with pytest.raises(Exception) as info:
                loader(json.loads(json.dumps(doc)))
            assert (type(info.value), str(info.value)) == (cls, msg), loader.__name__
        path = write_doc(tmp_path, "bad.json", doc)
        for argv in commands:
            code, out, err = cli(capsys, *[good if a == _GOOD else a for a in argv], path)
            assert_one_error_line(code, out, err)
            assert err == f"error: {msg}\n", argv


@pytest.mark.parametrize("field", ["closed", "bubbles"])
def test_missing_closed_and_bubbles_default_to_none(field):
    doc = _edited(good_wiring_doc(), field, None)
    assert wiring_from_json(doc) == identity_wiring(ORI, ("+", "-"))


@pytest.mark.parametrize("blocks, text", [(None, "wiring diagram document lacks field 'blocks'"),
                                          ([0.5], "diagram document lacks field 'm'")],
                         ids=["no blocks", "malformed blocks"])
def test_blocks_are_named_before_the_diagram_only_when_missing(ori_table_doc, tmp_path, capsys,
                                                               blocks, text):
    # the presence of "blocks" is checked before the diagram is read, and
    # their sizes after it
    doc = _edited(_edited(good_wiring_doc(), "m", None), "blocks", blocks)
    with pytest.raises(Exception, match=f"^{text}$"):
        wiring_from_json(doc)
    table = algebra_with_entry(ori_table_doc, doc)
    for argv, arg in ((["wd", "gamma", "--outer"], doc), (["ca", "check", "--algebra"], table)):
        code, out, err = cli(capsys, *argv, write_doc(tmp_path, "doc.json", arg))
        assert_one_error_line(code, out, err)
        assert err.endswith(f"{text}\n")


@pytest.mark.parametrize("doc", [[1, 2], 5, "s", None], ids=["list", "number", "string", "null"])
@pytest.mark.parametrize("command", ["bd dual", "cbd compose", "wd gamma"])
def test_a_document_that_is_not_an_object_is_named(tmp_path, capsys, command, doc):
    # the diagram reader is the first to meet each of these documents
    good = write_doc(tmp_path, "good.json", good_wiring_doc())
    argv = {"bd dual": ["bd", "dual", "--diagram"],
            "cbd compose": ["cbd", "compose", "--rhs", good, "--lhs"],
            "wd gamma": ["wd", "gamma", "--outer"]}[command]
    code, out, err = cli(capsys, *argv, write_doc(tmp_path, "bad.json", doc))
    assert_one_error_line(code, out, err)
    assert err == "error: diagram document is not an object\n"


def _without_bound(table_text):
    doc = json.loads(table_text)
    del doc["bound"]
    return doc


# case -> (table document, the class algebra_from_json raises, its message)
TABLE_DOCUMENTS = {
    "number": (lambda t: 5, MissingActionEntry, "circuit algebra document is not an object"),
    "no bound": (_without_bound, MissingActionEntry,
                 "circuit algebra document lacks field 'bound'"),
    "entry a number": (_entry(5), PairingError, "diagram document is not an object"),
}


@pytest.mark.parametrize("case", sorted(TABLE_DOCUMENTS))
def test_a_table_document_error_is_named(ori_table_doc, tmp_path, capsys, case):
    build, cls, msg = TABLE_DOCUMENTS[case]
    doc = build(ori_table_doc)
    with pytest.raises(Exception) as info:
        algebra_from_json(doc)
    assert (type(info.value), str(info.value)) == (cls, msg)
    code, out, err = cli(capsys, "ca", "check", "--algebra", write_doc(tmp_path, "alg.json", doc))
    assert_one_error_line(code, out, err)
    assert err == f"error: {msg}\n"


def test_a_graph_that_is_not_an_object_is_named(tmp_path, capsys):
    code, out, err = cli(capsys, "gog", "similar", "--left", write_doc(tmp_path, "g.json", 5),
                         "--right", "line:2")
    assert_one_error_line(code, out, err)
    assert err == "error: graph document is not an object\n"


# ---------------------------------------------------------------------------
# errors a nested reader or constructor raises pass through every reader as
# they are: (document builder, loader, class, message, CLI argv with {doc})


def _palette_twice(table_text):
    doc = json.loads(table_text)
    doc["palette"]["colours"] += doc["palette"]["colours"][:1]
    return doc


def _species_doc(**fields):
    return dict(species_to_json(make_species(MONO, 3, {("c", "c", "c"): ("g",)})), **fields)


def _edge_twice(graph_doc):
    graph_doc["edges"][1] = graph_doc["edges"][0]
    return graph_doc


def _element_doc(edit):
    doc = element_to_json(element_of(ZZ, identity(2)))
    edit(doc)
    return doc


def _set(field, value):
    def edit(doc):
        doc[field] = value
    return edit


def _term_pair(doc):
    doc["terms"][0]["diagram"]["pairs"][0] = ["s1", "s1"]


def _term_without_m(doc):
    del doc["terms"][0]["diagram"]["m"]


def _gog_doc(edit):
    doc = gog_to_json(identity_gog(line(2)))
    edit(doc)
    return doc


def _presheaf_doc():
    doc = presheaf_to_json(nerve_presheaf(terminal_species(ORI, 2), [("w", wheel(1))]))
    _edge_twice(doc["graphs"][0]["graph"])
    return doc


_CA_CHECK = ["ca", "check", "--algebra", "{doc}"]
_SPECIES_EVAL = ["species", "eval", "--species", "{doc}", "--graph", "corolla:3"]
_BR_MUL = ["br", "mul", "--lhs", "{doc}", "--rhs", "{doc}", "--ring", "Z", "--delta", "1"]
_DUPLICATE_EDGES = (InvalidParameter, "duplicate edge labels")

PASS_THROUGH = {
    "table palette": (_palette_twice, algebra_from_json, PaletteMismatch,
                      "duplicate colours: '+' is listed twice", _CA_CHECK),
    "table entry colour": (_entry(bad_doc("colour outside the palette")), algebra_from_json,
                           PaletteMismatch, "colour 'z' at t1 not in palette", _CA_CHECK),
    "table entry bubbles": (_entry(bad_doc("wrong bubble count")), algebra_from_json,
                            ColouringError, "0 closed components but 1 bubble colours", _CA_CHECK),
    "table entry colouring": (_entry(bad_doc("colouring missing a label")), algebra_from_json,
                              ColouringError, "boundary colouring leaves t2 uncoloured",
                              _CA_CHECK),
    "table entry blocks": (_entry(dict(good_wiring_doc(), blocks=[0.5])), algebra_from_json,
                           BlockMismatch,
                           "malformed wiring diagram field 'blocks': not a whole number: 0.5",
                           _CA_CHECK),
    "species palette": (lambda t: _species_doc(palette={"colours": ["c", "c"], "omega": []}),
                        species_from_json, PaletteMismatch,
                        "duplicate colours: 'c' is listed twice", _SPECIES_EVAL),
    "species bound": (lambda t: _species_doc(bound="2"), species_from_json, InvalidParameter,
                      "bound must be a non-negative integer, got '2'", _SPECIES_EVAL),
    "graph": (lambda t: _edge_twice(graph_to_json(line(1))), graph_from_json,
              *_DUPLICATE_EDGES, ["graph", "build", "--graph", "{doc}"]),
    "graph vertex twice": (lambda t: {"edges": [1, 2], "tau": [[1, 2]], "half_edges": [],
                                      "vertices": [1, 1]}, graph_from_json,
                           InvalidParameter, "duplicate vertex labels",
                           ["graph", "build", "--graph", "{doc}"]),
    "graph tau edge twice": (lambda t: {"edges": [1, 2, 3, 4], "tau": [[1, 2], [2, 3], [3, 4]],
                                        "half_edges": [], "vertices": []}, graph_from_json,
                             InvalidParameter, "edge repeated in tau pairs near (2, 3)",
                             ["graph", "build", "--graph", "{doc}"]),
    "port-labelled graph": (lambda t: {"graph": _edge_twice(graph_to_json(line(1))),
                                       "rho": {"1": "a", "4": "b"}},
                            xgraph_from_json, *_DUPLICATE_EDGES,
                            ["gog", "terminal", "--graph", "{doc}"]),
    "graph of graphs base": (lambda t: _gog_doc(lambda d: _edge_twice(d["base"])), gog_from_json,
                             *_DUPLICATE_EDGES, ["gog", "colimit", "--gog", "{doc}"]),
    "graph of graphs assignment": (lambda t: _gog_doc(lambda d: _edge_twice(
        d["assign"]["1"]["graph"])), gog_from_json, *_DUPLICATE_EDGES,
        ["gog", "colimit", "--gog", "{doc}"]),
    "presheaf graph": (lambda t: _presheaf_doc(), presheaf_from_json, *_DUPLICATE_EDGES,
                       ["species", "segal", "--presheaf", "{doc}"]),
    "element arity": (lambda t: _element_doc(_set("m", 3)), element_from_json, ArityMismatch,
                      "term arity (2, 2) != element arity (3, 2)", _BR_MUL),
    "element term pairs": (lambda t: _element_doc(_term_pair), element_from_json, SelfPair,
                           "pair ('s1', 's1') repeats its label", _BR_MUL),
    "element term field": (lambda t: _element_doc(_term_without_m), element_from_json,
                           PairingError, "diagram document lacks field 'm'", _BR_MUL),
}


@pytest.mark.parametrize("case", sorted(PASS_THROUGH))
def test_nested_errors_pass_through_the_readers(ori_table_doc, tmp_path, capsys, case):
    build, loader, cls, msg, argv = PASS_THROUGH[case]
    doc = build(ori_table_doc)
    with pytest.raises(Exception) as info:
        loader(json.loads(json.dumps(doc)))
    assert (type(info.value), str(info.value)) == (cls, msg)
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = cli(capsys, *[path if a == "{doc}" else a for a in argv])
    assert_one_error_line(code, out, err)
    assert err == f"error: {msg}\n"


# ---------------------------------------------------------------------------
# constructor refusals reached by direct calls


def _stick_identity():
    s = graph.stick()
    return graph.make_morphism(s, s, {1: 1, 2: 2}, {})


def _corolla_map(vertex_map):
    c = graph.corolla(1)
    return lambda: graph.make_morphism(c, c, {e: e for e in c.edges}, vertex_map)


_CC = ("c", "c")

# case -> (call, class, message)
REFUSALS = {
    "make_graph duplicate vertex": (lambda: graph.make_graph([1, 2], [(1, 2)], [], [1, 1]),
                                    InvalidParameter, "duplicate vertex labels"),
    "make_graph repeated tau edge": (
        lambda: graph.make_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)], [], []),
        InvalidParameter, "edge repeated in tau pairs near (2, 3)"),
    "make_morphism edge domain": (lambda: graph.make_morphism(graph.stick(), graph.stick(),
                                                              {1: 1}, {}),
                                  InvalidParameter, "edge map domain is not the source edge set"),
    "make_morphism vertex domain": (_corolla_map({}), InvalidParameter,
                                    "vertex map domain is not the source vertex set"),
    "make_morphism edge target": (lambda: graph.make_morphism(graph.stick(), graph.stick(),
                                                              {1: 1, 2: 3}, {}),
                                  InvalidParameter, "edge 2 maps outside the target"),
    "make_morphism vertex target": (_corolla_map({"v": "x"}), InvalidParameter,
                                    "vertex 'v' maps outside the target"),
    "compose_morphisms middle": (lambda: graph.compose_morphisms(_corolla_map({"v": "v"})(),
                                                                 _stick_identity()),
                                 InvalidParameter, "middle graphs disagree"),
    "ch unknown edge": (lambda: graph.ch(graph.stick(), 7), InvalidParameter,
                        "unknown edge 7"),
    "Pairing.apply uncovered": (lambda: make_pairing(["a", "b"], [("a", "b")]).apply("c"),
                                UncoveredLabel, "label 'c' not in carrier"),
    "make_diagram negative arity": (lambda: make_diagram(-1, 1, []), ArityMismatch,
                                    "negative arity or closed count: (-1, 1, 0)"),
    "br_add arities": (lambda: brauer_algebra.br_add(element_of(ZZ, identity(1)),
                                                     element_of(ZZ, identity(2))),
                       ArityMismatch, "cannot add (1, 1) and (2, 2)"),
    "coloured_permutation word": (
        lambda: coloured.coloured_permutation(MONO, (2, 1), ("c",)),
        ColouringError, "word ('c',) does not fit a permutation of 2"),
    "operad_gamma palettes": (
        lambda: wiring.operad_gamma(identity_wiring(MONO, _CC),
                                    [identity_wiring(ORI, ("+", "-"))]),
        PaletteMismatch, "substituting across palettes"),
    "carrier word past the bound": (
        lambda: wiring.CircuitAlgebra(MONO, 1, {_CC: ()}, None),
        wiring.ArityBoundExceeded, "carrier word ('c', 'c') longer than bound"),
    "generator word past the bound": (
        lambda: wiring.FreeCircuitAlgebra(MONO, 1, {_CC: ("g",)}),
        wiring.ArityBoundExceeded, "generator word ('c', 'c') longer than bound"),
    "free_element generator count": (
        lambda: wiring.free_element(identity_wiring(MONO, _CC), []),
        BlockMismatch, "1 blocks, 0 generators"),
    "pairing_algebra block count": (
        lambda: pairing_algebra(MONO, 2).action(identity_wiring(MONO, _CC), []),
        BlockMismatch, "1 blocks, 0 inputs"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_constructor_refusal_is_pinned(case):
    call, cls, msg = REFUSALS[case]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, msg)
