"""Segal check reports pinned on wheels and lines, and on corrupted nerves."""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerkit.coloured import make_palette, monochrome_palette, oriented_palette
from brauerkit.graph import InvalidParameter, element_arrows, elements, empty, line, stick, wheel
from brauerkit.species import (
    MissingRestriction,
    build_free_species,
    make_species,
    nerve_presheaf,
    segal_check,
    terminal_species,
)

from genutil import random_connected_graph

MONO = monochrome_palette()
ORI = oriented_palette()
ABZ = make_palette(("a", "b", "z"), (("a", "b"),))


def graphs_species():
    """The two species of the benchmark's graphs workload."""
    generator = make_species(MONO, 3, {("c", "c", "c"): ("g",)})
    return {"terminal": terminal_species(ORI, 2),
            "free": build_free_species(generator, 2, 6, 2)}


SPECIES = graphs_species()
SHAPES = {"wheel": wheel, "line": line}

# |P(g)| on the nerve of each (species, shape, k): the terminal oriented
# species colours each orbit freely, the free species has three elements
# per bivalent vertex
PINNED_SIZES = {
    ("terminal", "wheel"): lambda k: 2 ** k,
    ("terminal", "line"): lambda k: 2 ** (k + 1),
    ("free", "wheel"): lambda k: 3 ** k,
    ("free", "line"): lambda k: 3 ** k,
}


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", sorted(SPECIES))
def test_nerve_reports_pinned(name, shape, k):
    P = nerve_presheaf(SPECIES[name], [("g", SHAPES[shape](k))])
    n = PINNED_SIZES[name, shape](k)
    report = segal_check(P)
    assert report.passed
    assert report.results == (("g", True, f"{n} elements against a limit of {n}"),)


def test_dropped_value_misses_the_limit_pinned():
    P = nerve_presheaf(SPECIES["terminal"], [("g", line(3))])
    values = tuple((gid, es[1:] if gid == "g" else es) for gid, es in P.values)
    report = segal_check(dataclasses.replace(P, values=values))
    assert not report.passed
    assert report.results == (
        ("g", False, "15 elements against a limit of 16; the canonical map misses the limit"),
    )


def test_redirected_leg_shares_a_family_pinned():
    # the stick's only cone leg is the identity onto itself; sending the
    # first element where the second goes gives both the same family
    P = nerve_presheaf(SPECIES["terminal"], [("g", stick())])
    (gid, kind, anchor, sid, mapping), = P.restrictions
    mapping = ((mapping[0][0], mapping[1][1]),) + mapping[1:]
    report = segal_check(dataclasses.replace(
        P, restrictions=((gid, kind, anchor, sid, mapping),)))
    assert not report.passed
    assert report.results == (
        ("g", False, "2 elements against a limit of 2; two elements share a family"),
    )


@pytest.mark.parametrize("shape, k, n", [("line", 8, 512), ("wheel", 8, 256), ("line", 10, 2048)])
def test_join_reaches_graphs_the_product_cannot_list(shape, k, n):
    # the leg product of line(10) on the terminal oriented bound-2
    # species has 2^31 families, the limit 2^11
    P = nerve_presheaf(SPECIES["terminal"], [("g", SHAPES[shape](k))])
    assert segal_check(P).results == (("g", True, f"{n} elements against a limit of {n}"),)


def test_default_selection_refuses_an_incomplete_cone():
    P = nerve_presheaf(terminal_species(ORI, 2), [("w", wheel(1))])
    stripped = dataclasses.replace(P, restrictions=P.restrictions[1:])
    with pytest.raises(MissingRestriction):
        segal_check(stripped)
    # support shapes carry no cone and stay out of the default selection
    assert [gid for gid, _, _ in segal_check(P).results] == ["w"]


def test_listed_graph_with_no_value_set_is_refused():
    P = nerve_presheaf(SPECIES["terminal"], [("g", line(2))])
    values = tuple((gid, es) for gid, es in P.values if gid != "g")
    for graphs in (None, ["g"]):
        with pytest.raises(MissingRestriction, match="'g' has no value set"):
            segal_check(dataclasses.replace(P, values=values), graphs)


def test_empty_graph_is_checked_by_default():
    P = nerve_presheaf(terminal_species(ORI, 2), [("e", empty())])
    assert segal_check(P).results == (("e", True, "1 elements against a limit of 1"),)


def test_repeated_value_is_refused():
    P = nerve_presheaf(SPECIES["terminal"], [("g", line(3))])
    sid = next(gid for gid, g in P.graphs if g == stick())
    for repeated in (sid, "g"):
        values = tuple((gid, es + es[:1] if gid == repeated else es)
                       for gid, es in P.values)
        with pytest.raises(InvalidParameter, match=re.escape(repr(repeated))):
            segal_check(dataclasses.replace(P, values=values))


# ---------------------------------------------------------------------------
# the product-and-filter check as the oracle of the join


def product_segal(P, ids):
    """segal_check as it was before the join: list the product of every
    leg's value set, keep the families every arrow map equalizes."""
    results = []
    for gid in ids:
        if gid not in P.graph_map:
            raise InvalidParameter(f"unknown graph id {gid!r}")
        if gid not in P.value_map:
            raise MissingRestriction(f"graph {gid!r} has no value set")
        g = P.graph_map[gid]
        legs = []
        for el in elements(g):
            key = (gid, el.kind, el.anchor)
            if key not in P.cone_map:
                raise MissingRestriction(f"no cone leg for {key!r}")
            sid, mapping = P.cone_map[key]
            if sid not in P.value_map:
                raise MissingRestriction(f"shape {sid!r} has no value set")
            legs.append((sid, mapping))
        arrow_rows = []
        for ar in element_arrows(g):
            key = (gid, ar.half_edge)
            if key not in P.arrow_map:
                raise MissingRestriction(f"no arrow map for {key!r}")
            _, _, mapping = P.arrow_map[key]
            arrow_rows.append((ar.stick_index, ar.corolla_index, mapping))

        limit = []
        for family in itertools.product(*(P.value_map[sid] for sid, _ in legs)):
            if all(mapping.get(family[ci]) == family[si]
                   for si, ci, mapping in arrow_rows):
                limit.append(family)

        image = []
        for alpha in P.value_map[gid]:
            fam = []
            for sid, mapping in legs:
                if alpha not in mapping:
                    raise MissingRestriction(
                        f"cone leg at {gid!r} undefined on one element"
                    )
                fam.append(mapping[alpha])
            image.append(tuple(fam))

        injective = len(set(image)) == len(image)
        onto = set(image) == set(limit)
        ok = injective and onto
        detail = f"{len(image)} elements against a limit of {len(limit)}"
        if not injective:
            detail += "; two elements share a family"
        elif not onto:
            detail += "; the canonical map misses the limit"
        results.append((gid, ok, detail))
    return all(ok for _, ok, _ in results), tuple(results)


def _outcome(check):
    try:
        return check()
    except (InvalidParameter, MissingRestriction) as exc:
        return type(exc), str(exc)


def _leg_product(P):
    product = 1
    for sid, _ in P.cone_map.values():
        product *= len(P.value_map[sid])
    return product


def _small_nerve(rng):
    """The nerve of a terminal species on a random connected graph whose
    leg product stays at most 10^5."""
    while True:
        palette = rng.choice((ORI, ABZ))
        g = random_connected_graph(rng)
        if max((g.valency(v) for v in g.vertices), default=0) > 4:
            continue
        P = nerve_presheaf(terminal_species(palette, 4), [("g", g)])
        if _leg_product(P) <= 10 ** 5:
            return P


def _replace_entry(rows, r, i, entry):
    row = rows[r]
    mapping = row[-1]
    if entry is None:
        mapping = mapping[:i] + mapping[i + 1:]
    else:
        mapping = mapping[:i] + (entry,) + mapping[i + 1:]
    return rows[:r] + (row[:-1] + (mapping,),) + rows[r + 1:]


def _corrupt(P, rng, how):
    """P with one corruption of the named kind, or P when it has no place
    for one."""
    if how == "drop a value":
        r = rng.randrange(len(P.values))
        gid, es = P.values[r]
        if not es:
            return P
        i = rng.randrange(len(es))
        values = P.values[:r] + ((gid, es[:i] + es[i + 1:]),) + P.values[r + 1:]
        return dataclasses.replace(P, values=values)
    field = "arrows" if how.endswith("arrow entry") else "restrictions"
    rows = getattr(P, field)
    candidates = [(r, i) for r, row in enumerate(rows) for i in range(len(row[-1]))]
    if not candidates:
        return P
    r, i = rng.choice(candidates)
    a, b = rows[r][-1][i]
    if how == "drop an arrow entry":
        entry = None
    else:
        # index 3 is the arrow's target stick, or the leg's shape
        others = [v for v in P.value_map[rows[r][3]] if v != b]
        if not others:
            return P
        entry = (a, rng.choice(others))
    return dataclasses.replace(P, **{field: _replace_entry(rows, r, i, entry)})


CORRUPTIONS = (None, "drop a value", "rewrite an arrow entry", "drop an arrow entry",
               "redirect a leg entry")


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(CORRUPTIONS))
def test_join_agrees_with_the_product(seed, how):
    rng = random.Random(seed)
    P = _small_nerve(rng)
    if how is not None:
        P = _corrupt(P, rng, how)
    join = _outcome(lambda: dataclasses.astuple(segal_check(P, ["g"])))
    assert join == _outcome(lambda: product_segal(P, ["g"]))
    if how is None:
        assert join[0] is True
