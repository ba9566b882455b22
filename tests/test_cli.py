import contextlib
import dataclasses
import io
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerkit.brauer import (
    cap,
    cup,
    diagram_from_json,
    diagram_to_json,
    evaluate_word,
    identity,
    make_diagram,
    parse_word,
    sigma_2,
)
from brauerkit.axioms import Report
from brauerkit.brauer_algebra import (QQ, bd_to_br_t, br_add, element_from_json, element_of,
                                      element_to_json)
from brauerkit.cli import run
from brauerkit.coloured import (
    cap_coloured,
    coloured_permutation,
    coloured_to_json,
    cup_coloured,
    monochrome_palette,
    oriented_palette,
    palette_to_json,
)
from brauerkit.graph import (
    corolla,
    disjoint_union,
    glue,
    graph_from_json,
    graph_to_json,
    line,
    make_graph,
    stick,
    wheel,
)
from brauerkit.labels import encode_label
from brauerkit.species import (
    build_free_species,
    make_species,
    nerve_presheaf,
    presheaf_to_json,
    species_to_json,
    terminal_species,
)
from brauerkit.substitution import gog_to_json, identity_gog
from brauerkit.wiring import (
    algebra_to_json,
    identity_wiring,
    make_wiring,
    operad_gamma,
    pairing_algebra,
    tabulate,
    wiring_from_json,
    wiring_to_json,
)

from genutil import renamed, renamed_pairing_table

MONO = monochrome_palette()
ORI = oriented_palette()


def cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def corruptible_table_algebra():
    """pairing_algebra(MONO, 4) on the identities, two transpositions of
    cccc and their composite.  The set is closed under gamma, so the
    checker stays inside the table and runs exhaustively; cccc has three
    pairings, so its identity table has distinct outputs to swap.  (At
    bound 2 every carrier has at most one element, as (2n-1)!! = 1 for
    n <= 1, so no table there can be corrupted.)"""
    A = pairing_algebra(MONO, 4)
    w4 = ("c",) * 4
    p1 = make_wiring(coloured_permutation(MONO, (2, 1, 3, 4), w4), (4,))
    p2 = make_wiring(coloured_permutation(MONO, (1, 2, 4, 3), w4), (4,))
    wirings = [identity_wiring(MONO, w) for w in A.words()]
    return renamed(tabulate(A, wirings + [p1, p2, operad_gamma(p1, [p2])]))


# ---------------------------------------------------------------------------
# bd


def test_bd_compose_cap_cup(tmp_path, capsys):
    lhs = write_doc(tmp_path, "cap.json", diagram_to_json(cap()))
    rhs = write_doc(tmp_path, "cup.json", diagram_to_json(cup()))
    code, out, _ = cli(capsys, "bd", "compose", "--lhs", lhs, "--rhs", rhs)
    assert code == 0
    assert out.strip() == '{"m":0,"n":0,"pairs":[],"closed":1}'


def test_bd_inline_words_and_round_trip(capsys):
    code, out, _ = cli(capsys, "bd", "compose", "--lhs", "sigma", "--rhs", "sigma")
    assert code == 0
    doc = json.loads(out)
    assert diagram_from_json(doc) == identity(2)
    # canonical output survives a reparse byte-identically
    assert json.dumps(diagram_to_json(diagram_from_json(doc)),
                      separators=(",", ":")) == out.strip()


def test_bd_tensor_and_dual(capsys):
    code, out, _ = cli(capsys, "bd", "tensor", "--lhs", "cup", "--rhs", "id")
    assert code == 0 and json.loads(out)["m"] == 3
    code, out, _ = cli(capsys, "bd", "dual", "--diagram", "cup")
    assert code == 0
    assert diagram_from_json(json.loads(out)) == cap()


def test_bd_factor_reconstructs(capsys):
    code, out, _ = cli(capsys, "bd", "factor", "--diagram", "sigma ; cup")
    assert code == 0
    assert evaluate_word(parse_word(out.strip())) == \
        evaluate_word(parse_word("sigma ; cup"))
    code, out, _ = cli(capsys, "bd", "factor", "--diagram", "cap_2", "--json")
    doc = json.loads(out)
    assert evaluate_word(doc["slices"]) == evaluate_word(parse_word(doc["word"]))


def test_bd_factor_is_linear_in_the_closed_count(tmp_path, capsys):
    doc = {"m": 1, "n": 1, "pairs": [["s1", "t1"]], "closed": 2000}
    code, out, _ = cli(capsys, "bd", "factor", "--diagram", write_doc(tmp_path, "d.json", doc))
    assert code == 0 and len(out) < 100_000
    assert evaluate_word(parse_word(out.strip())) == diagram_from_json(doc)


def test_bd_check_triangle(capsys):
    code, out, _ = cli(capsys, "bd", "check-triangle")
    assert code == 0
    assert out.splitlines() == [f"triangle n={n}: ok" for n in range(1, 5)]
    code, out, _ = cli(capsys, "bd", "check-triangle", "--json", "--max-strands", "2")
    assert code == 0 and json.loads(out) == {
        "passed": True, "strands": [{"n": 1, "ok": True}, {"n": 2, "ok": True}]}


@pytest.mark.parametrize("strands", ["0", "-1"])
def test_bd_check_triangle_refuses_no_strands(capsys, strands):
    code, out, err = cli(capsys, "bd", "check-triangle", "--max-strands", strands)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--max-strands" in err


def test_bd_input_errors_exit_2(tmp_path, capsys):
    code, _, err = cli(capsys, "bd", "compose", "--lhs", "cup", "--rhs", "bogus!")
    assert code == 2 and "error:" in err
    code, _, err = cli(capsys, "bd", "compose", "--lhs", "cup", "--rhs", "id_2")
    assert code == 2 and "error:" in err
    missing = str(tmp_path / "nope.json")
    code, _, err = cli(capsys, "bd", "dual", "--diagram", missing)
    assert code == 2


# ---------------------------------------------------------------------------
# br / cbd / wd / ca


def test_br_mul_sigma_squared(tmp_path, capsys):
    el = write_doc(tmp_path, "el.json", element_to_json(bd_to_br_t(sigma_2())))
    code, out, _ = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                       "--ring", "Z[t]", "--delta", "t")
    assert code == 0
    got = element_from_json(json.loads(out))
    assert got == bd_to_br_t(identity(2))
    code, _, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                       "--ring", "Z", "--delta", "2")
    assert code == 2 and "not Z" in err
    code, _, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                       "--ring", "F99", "--delta", "1")
    assert code == 2



def test_br_mul_on_a_malformed_term_exits_2(tmp_path, capsys):
    element = element_to_json(bd_to_br_t(sigma_2()))
    element["terms"] = [5]
    el = write_doc(tmp_path, "el.json", element)
    code, out, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                         "--ring", "Z[t]", "--delta", "t")
    assert code == 2 and out == ""
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("error: malformed element document")


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.splitlines() == [err.rstrip("\n")]


def q_element_doc():
    a = element_of(QQ, sigma_2(), Fraction(1, 2))
    return element_to_json(br_add(a, element_of(QQ, identity(2), Fraction(-3))))


BAD_RATIONALS = [("1/0", "zero denominator"), ("1e999999999", "decimal exponent past"),
                 ("1e-999999999", "decimal exponent past")]


@pytest.mark.parametrize("text, message", BAD_RATIONALS)
def test_br_mul_bad_rational_delta_exits_2(tmp_path, capsys, text, message):
    el = write_doc(tmp_path, "el.json", q_element_doc())
    code, out, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                         "--ring", "Q", "--delta", text)
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("text, message", BAD_RATIONALS)
def test_br_mul_bad_rational_coefficient_exits_2(tmp_path, capsys, text, message):
    doc = q_element_doc()
    doc["terms"][0]["coeff"] = text
    el = write_doc(tmp_path, "el.json", doc)
    code, out, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                         "--ring", "Q", "--delta", "1")
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_bd_dual_non_finite_arity_exits_2(tmp_path, capsys, number):
    path = tmp_path / "d.json"
    path.write_text('{"m": %s, "n": 1, "pairs": []}' % number)
    code, out, err = cli(capsys, "bd", "dual", "--diagram", str(path))
    assert_one_error_line(code, out, err)
    assert "non-finite number" in err


def test_br_mul_non_finite_coefficient_exits_2(tmp_path, capsys):
    doc = element_to_json(element_of(QQ, identity(2)))
    doc["ring"], doc["terms"][0]["coeff"] = "Z", float("inf")
    el = write_doc(tmp_path, "el.json", doc)
    assert "Infinity" in (tmp_path / "el.json").read_text()
    code, out, err = cli(capsys, "br", "mul", "--lhs", el, "--rhs", el,
                         "--ring", "Z", "--delta", "2")
    assert_one_error_line(code, out, err)
    assert "non-finite number" in err


# a non-integral number or a bool where a document holds a count:
# case -> (document kind, fields set on a valid document of that kind)
FRACTIONAL_COUNTS = {
    "diagram arity": ("diagram", {"m": 1.9, "n": 1.2}),
    "diagram closed": ("diagram", {"closed": 1.5}),
    "boolean arity": ("diagram", {"m": True}),
    "Z coefficient": ("Z", {"coeff": 2.7}),
    "Z/5 coefficient": ("Z/5", {"coeff": 7.9}),
    "Z[t] coefficient": ("Z[t]", {"coeff": [1.5, 2]}),
    "element arity": ("Z", {"m": 2.5}),
    "algebra bound": ("algebra", {"bound": 2.5}),
    "wiring blocks": ("wiring", {"blocks": [0.5, 1.5]}),
}


def _fractional_argv(tmp_path, kind, fields):
    if kind == "diagram":
        doc = {"m": 1, "n": 1, "pairs": [["s1", "t1"]], **fields}
        return ["bd", "dual", "--diagram", write_doc(tmp_path, "d.json", doc)]
    if kind == "algebra":
        doc = {**algebra_to_json(renamed_pairing_table(MONO)), **fields}
        return ["ca", "check", "--algebra", write_doc(tmp_path, "alg.json", doc)]
    if kind == "wiring":
        doc = {**wiring_to_json(identity_wiring(MONO, ("c", "c"))), **fields}
        return ["wd", "gamma", "--outer", write_doc(tmp_path, "wd.json", doc)]
    doc = element_to_json(element_of(QQ, identity(2)))
    doc["ring"], doc["m"] = kind, fields.get("m", 2)
    doc["terms"][0]["coeff"] = fields.get("coeff", 1)
    el = write_doc(tmp_path, "el.json", doc)
    return ["br", "mul", "--lhs", el, "--rhs", el, "--ring", kind, "--delta", "1"]


@pytest.mark.parametrize("case", sorted(FRACTIONAL_COUNTS))
def test_fractional_count_exits_2(tmp_path, capsys, case):
    code, out, err = cli(capsys, *_fractional_argv(tmp_path, *FRACTIONAL_COUNTS[case]))
    assert_one_error_line(code, out, err)
    assert "Traceback" not in err


def test_diagram_past_its_pairs_is_refused_before_its_labels(tmp_path, capsys):
    # an arity such as 1e300 used to list its labels until memory ran out
    path = write_doc(tmp_path, "d.json", {"m": 10 ** 6, "n": 1, "pairs": []})
    code, out, err = cli(capsys, "bd", "dual", "--diagram", path)
    assert_one_error_line(code, out, err)
    assert "0 pairs cannot cover" in err


def test_cbd_compose_traces_bubble(tmp_path, capsys):
    pal = write_doc(tmp_path, "pal.json", palette_to_json(ORI))
    lhs = write_doc(tmp_path, "ccap.json",
                    coloured_to_json(cap_coloured(ORI, ("+",))))
    rhs = write_doc(tmp_path, "ccup.json",
                    coloured_to_json(cup_coloured(ORI, ("-",))))
    code, out, _ = cli(capsys, "cbd", "compose", "--lhs", lhs, "--rhs", rhs,
                       "--palette", pal)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 0 and doc["n"] == 0 and doc["closed"] == 1
    mono = write_doc(tmp_path, "mono.json", palette_to_json(MONO))
    code, _, err = cli(capsys, "cbd", "compose", "--lhs", lhs, "--rhs", rhs,
                       "--palette", mono)
    assert code == 2 and "palette" in err


def test_wd_gamma_identity(tmp_path, capsys):
    wid = write_doc(tmp_path, "wid.json",
                    wiring_to_json(identity_wiring(MONO, ("c",))))
    code, out, _ = cli(capsys, "wd", "gamma", "--outer", wid, "--inner", wid)
    assert code == 0
    assert wiring_from_json(json.loads(out)) == identity_wiring(MONO, ("c",))


def test_ca_check_pass_and_corrupted(tmp_path, capsys):
    doc = algebra_to_json(corruptible_table_algebra())
    good = write_doc(tmp_path, "alg.json", doc)
    code, out, _ = cli(capsys, "ca", "check", "--algebra", good, "--seed", "5")
    assert code == 0 and out.splitlines()[-1] == "pass"
    assert out.startswith("circuit-algebra axioms: exhaustive,")

    bad_doc = json.loads(json.dumps(doc))
    for entry in bad_doc["entries"]:
        rows = entry["table"]
        outs = {json.dumps(r[-1]) for r in rows}
        if len(outs) > 1:
            rows[0][-1], rows[1][-1] = rows[1][-1], rows[0][-1]
            break
    else:
        pytest.fail("no corruptible table found")
    bad = write_doc(tmp_path, "bad.json", bad_doc)
    code, out, _ = cli(capsys, "ca", "check", "--algebra", bad, "--json")
    assert code == 1
    report = json.loads(out)
    assert report["mode"] == "exhaustive"
    assert not report["passed"] and report["violations"]


def free_carrier_count(gen_arity, bound, word_len, bubble_cap=1):
    """Closed form for the truncated free algebra on one monochrome
    generator (max_blocks = bound): k generator blocks give a shape
    from m = k * gen_arity source points to word_len targets; such a
    shape is a perfect matching of the m + word_len points, counted by
    (m + word_len - 1)!!, times 0..bubble_cap bubbles, and none exists
    when m + word_len is odd."""
    def double_factorial(n):
        return 1 if n <= 0 else n * double_factorial(n - 2)

    total = 0
    for k in range(bound + 1):
        m = k * gen_arity
        if m <= bound and (m + word_len) % 2 == 0:
            total += double_factorial(m + word_len - 1) * (bubble_cap + 1)
    return total


def test_ca_free_carriers(tmp_path, capsys):
    pal = write_doc(tmp_path, "mono.json", palette_to_json(MONO))
    code, out, _ = cli(capsys, "ca", "free", "--palette", pal, "--bound", "3",
                       "--generator", "c,c,c=g")
    assert code == 0
    doc = json.loads(out)
    # contracting two legs of g leaves one c in 3 ways, with 0 or 1 bubble
    expected = {",".join("c" * n): free_carrier_count(3, 3, n) for n in range(4)}
    assert expected == {"": 2, "c": 6, "c,c": 2, "c,c,c": 30}
    assert doc["carriers"] == expected
    code, out, _ = cli(capsys, "ca", "free", "--palette", pal, "--bound", "2",
                       "--generator", "c,c=h", "--check", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["violations"] == []
    # every shape has an even boundary here, so an odd word is empty
    assert doc["carriers"] == {",".join("c" * n): free_carrier_count(2, 2, n)
                               for n in range(3)}
    assert doc["carriers"]["c"] == 0


@pytest.mark.parametrize("flags", [("--samples", "0"), ("--samples", "-5"),
                                   ("--budget", "-1"), ("--budget", "0", "--samples", "0")],
                         ids=["no samples", "negative samples", "negative budget",
                              "no budget, no samples"])
def test_ca_check_that_checks_nothing_exits_2(tmp_path, capsys, flags):
    good = write_doc(tmp_path, "alg.json", algebra_to_json(corruptible_table_algebra()))
    code, out, err = cli(capsys, "ca", "check", "--algebra", good, *flags)
    assert code == 2 and out == ""
    assert err.startswith("error:") and ("samples" in err or "budget" in err)


def test_ca_free_past_the_enumeration_budget_exits_2(tmp_path, capsys):
    mono = write_doc(tmp_path, "mono.json", palette_to_json(MONO))
    code, out, err = cli(capsys, "ca", "free", "--palette", mono, "--bound", "8",
                         "--generator", "c,c")
    assert_one_error_line(code, out, err)
    assert "past the budget of 20000" in err


@pytest.mark.parametrize("flag", ["--bound", "--max-blocks"])
def test_ca_free_negative_bound_exits_2(tmp_path, capsys, flag):
    pal = write_doc(tmp_path, "mono.json", palette_to_json(MONO))
    argv = {"--bound": "2", "--max-blocks": "1", flag: "-1"}
    code, out, err = cli(capsys, "ca", "free", "--palette", pal,
                         *itertools.chain.from_iterable(argv.items()),
                         "--generator", "c,c=h")
    assert code == 2 and out == ""
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("error:") and "non-negative" in err


def test_ca_free_check_json_reports_violation(tmp_path, capsys, monkeypatch):
    pal = write_doc(tmp_path, "mono.json", palette_to_json(MONO))
    report = Report(False, "exhaustive", 0, 1, 1, (("identity", "planted"),))
    monkeypatch.setattr("brauerkit.cli.check_circuit_algebra",
                        lambda A, **kw: report)
    code, out, _ = cli(capsys, "ca", "free", "--palette", pal, "--bound", "2",
                       "--generator", "c,c=h", "--check", "--json")
    assert code == 1
    doc = json.loads(out)
    assert not doc["passed"] and doc["violations"] == [["identity", "planted"]]
    assert doc["carriers"]["c,c"] >= 1


def test_brauerkit_seed_env(tmp_path, capsys, monkeypatch):
    good = write_doc(tmp_path, "alg.json", algebra_to_json(renamed_pairing_table(MONO)))
    monkeypatch.setenv("BRAUERKIT_SEED", "77")
    code, out, _ = cli(capsys, "ca", "check", "--algebra", good, "--json")
    assert code == 0 and json.loads(out)["seed"] == 77


# ---------------------------------------------------------------------------
# graph


def test_graph_build_builtin_and_stdin(capsys, monkeypatch):
    code, out, _ = cli(capsys, "graph", "build", "--graph", "corolla:2")
    assert code == 0
    doc = json.loads(out)
    assert graph_from_json(doc) == corolla(2)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out2, _ = cli(capsys, "graph", "build")
    assert code == 0 and out2 == out


def test_graph_glue_then_iso_pipeline(tmp_path):
    c2 = write_doc(tmp_path, "corolla2.json", graph_to_json(corolla(2)))
    w1 = write_doc(tmp_path, "wheel1.json", graph_to_json(wheel(1)))
    glued = subprocess.run(
        [sys.executable, "-m", "brauerkit.cli", "graph", "glue",
         "--graph", c2, "--ports", "1", "2"],
        capture_output=True, text=True)
    assert glued.returncode == 0
    checked = subprocess.run(
        [sys.executable, "-m", "brauerkit.cli", "graph", "iso", "--with", w1],
        input=glued.stdout, capture_output=True, text=True)
    assert checked.returncode == 0
    assert checked.stdout.strip() == "isomorphic"


def test_graph_iso_negative_and_witness(capsys):
    code, out, _ = cli(capsys, "graph", "iso", "--graph", "corolla:2",
                       "--with", "wheel:1", "--json")
    assert code == 1 and json.loads(out) == {"isomorphic": False, "witness": None}
    code, out, _ = cli(capsys, "graph", "iso", "--graph", "corolla:2",
                       "--with", "line:1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] and len(doc["witness"]["edges"]) == 4


def test_graph_elements_listing(capsys):
    code, out, _ = cli(capsys, "graph", "elements", "--graph", "wheel:2")
    assert code == 0
    kinds = [ln.split()[0] for ln in out.splitlines()]
    assert kinds == ["stick", "stick", "corolla", "corolla"]


def test_graph_glue_bad_port_exit_2(capsys):
    code, _, err = cli(capsys, "graph", "glue", "--graph", "corolla:2",
                       "--ports", "1", "9")
    assert code == 2 and "error:" in err


def test_graph_dot_brauer_word(capsys):
    code, out, _ = cli(capsys, "graph", "dot", "--graph", "cup + cap")
    assert code == 0
    assert out.startswith("graph brauer {")
    assert "rank=source" in out and "rank=sink" in out
    assert '"s1" -- "s2"' in out and '"t1" -- "t2"' in out


def test_graph_dot_bubbles_detached(tmp_path, capsys):
    bubble = write_doc(tmp_path, "bub.json",
                       {"m": 0, "n": 0, "pairs": [], "closed": 2})
    code, out, _ = cli(capsys, "graph", "dot", "--graph", bubble)
    assert code == 0
    assert out.count('-- "bubble') == 2


def test_graph_dot_jk_graph(capsys):
    code, out, _ = cli(capsys, "graph", "dot", "--graph", "wheel:1")
    assert code == 0
    assert out.startswith("graph diagram {") and "--" in out


# ---------------------------------------------------------------------------
# gog


def test_gog_colimit_identity(tmp_path, capsys):
    gog = identity_gog(line(2))
    path = write_doc(tmp_path, "gog.json", gog_to_json(gog))
    code, out, _ = cli(capsys, "gog", "colimit", "--gog", path)
    assert code == 0
    got = graph_from_json(json.loads(out))
    assert len(got.tau_pairs) == len(line(2).tau_pairs)
    assert len(got.vertices) == 2
    code, out, _ = cli(capsys, "gog", "colimit", "--gog", path, "--json")
    doc = json.loads(out)
    assert len(doc["edge_origin"]) == len(got.edges)
    assert len(doc["vertex_pairs"]) == 2


def test_gog_delete_line(tmp_path, capsys):
    path = write_doc(tmp_path, "line2.json", graph_to_json(line(2)))
    code, out, _ = cli(capsys, "gog", "delete", "--graph", path,
                       "--vertices", "1", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["special_case"] == "line_collapse"
    assert graph_from_json(doc["target"]).vertices == ()


def test_gog_terminal_collapses_line(capsys):
    code, out, _ = cli(capsys, "gog", "terminal", "--graph", "line:3")
    assert code == 0
    doc = json.loads(out)
    assert graph_from_json(doc["graph"]).vertices == ()
    assert sorted(doc["rho"].values()) == [1, 2]


def test_gog_similar(capsys):
    assert cli(capsys, "gog", "similar", "--left", "line:2", "--right", "line:5")[0] == 0
    assert cli(capsys, "gog", "similar", "--left", "wheel:1", "--right", "wheel:4")[0] == 0
    assert cli(capsys, "gog", "similar", "--left", "wheel:1", "--right", "isolated")[0] == 0
    code, out, _ = cli(capsys, "gog", "similar", "--left", "stick",
                       "--right", "wheel:1", "--json")
    assert code == 1 and json.loads(out) == {"similar": False}


def test_gog_reads_wrapped_closed_and_bare_documents(tmp_path, capsys):
    # {"graph", "rho"} with a rho map keeps its labels, "rho": null makes a
    # closed graph, and a bare graph document gets labels 1..k by port
    def wrapped(name, g, rho):
        doc = {"graph": graph_to_json(g),
               "rho": None if rho is None else {json.dumps(p): lab for p, lab in rho.items()}}
        return write_doc(tmp_path, name, doc)

    ab = wrapped("ab.json", line(2), {1: "a", 6: "b"})
    numbered = wrapped("12.json", line(2), {1: 1, 6: 2})
    closed = wrapped("closed.json", wheel(2), None)
    bare = write_doc(tmp_path, "bare.json", graph_to_json(line(3)))
    for path, rho in ((ab, {"1": "a", "6": "b"}), (bare, {"1": 1, "8": 2})):
        code, out, err = cli(capsys, "gog", "terminal", "--graph", path)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert graph_from_json(doc["graph"]).vertices == () and doc["rho"] == rho
    code, out, err = cli(capsys, "gog", "terminal", "--graph", closed)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert "rho" not in doc and graph_from_json(doc["graph"]).vertices == ()
    for left, right, want in ((numbered, bare, (0, "similar\n")),
                              (ab, bare, (1, "not similar\n")),
                              (closed, wrapped("w1.json", wheel(1), None), (0, "similar\n"))):
        code, out, err = cli(capsys, "gog", "similar", "--left", left, "--right", right)
        assert ((code, out), err) == (want, "")


def test_gog_assoc_check(tmp_path, capsys):
    outer = identity_gog(line(2))
    inners = {json.dumps(encode_label(v)): gog_to_json(identity_gog(xg.graph))
              for v, xg in outer.assignment}
    opath = write_doc(tmp_path, "outer.json", gog_to_json(outer))
    ipath = write_doc(tmp_path, "inners.json", inners)
    code, out, _ = cli(capsys, "gog", "assoc-check", "--outer", opath,
                       "--inners", ipath)
    assert code == 0 and out.strip() == "associative"


@pytest.mark.parametrize("inners", [[1, 2], "x"], ids=["list", "string"])
def test_gog_assoc_check_inners_not_an_object_exits_2(tmp_path, capsys, inners):
    opath = write_doc(tmp_path, "outer.json", gog_to_json(identity_gog(line(2))))
    ipath = write_doc(tmp_path, "inners.json", inners)
    code, out, err = cli(capsys, "gog", "assoc-check", "--outer", opath,
                         "--inners", ipath)
    assert code == 2 and out == ""
    assert err.splitlines() == [err.rstrip("\n")]
    assert err.startswith("error: --inners must be a JSON object")


# ---------------------------------------------------------------------------
# species


@pytest.fixture(scope="module")
def species_docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("species")
    gen = make_species(MONO, 3, {("c", "c", "c"): ("g",)})
    FS = build_free_species(gen, 2, 6, 3)
    glued = glue(disjoint_union(corolla(3), corolla(3)), ("l", 1), ("r", 1))
    named = [("stick", stick()), ("corolla2", corolla(2)), ("wheel1", wheel(1)),
             ("wheel2", wheel(2)), ("glued", glued)]
    P = nerve_presheaf(FS, named)
    broken = dataclasses.replace(
        P, values=tuple((g, es[1:] if g == "wheel1" else es)
                        for g, es in P.values))
    return {
        "species": str(write_doc(tmp, "gen.json", species_to_json(gen))),
        "presheaf": str(write_doc(tmp, "nerve.json", presheaf_to_json(P))),
        "broken": str(write_doc(tmp, "broken.json", presheaf_to_json(broken))),
    }


def test_species_eval(species_docs, capsys):
    code, out, _ = cli(capsys, "species", "eval", "--species",
                       species_docs["species"], "--graph", "corolla:3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = cli(capsys, "species", "eval", "--species",
                       species_docs["species"], "--graph", "corolla:3", "--json")
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["structures"][0]["vertices"] == [["v", "g"]]


def test_species_free_component(species_docs, capsys):
    code, out, _ = cli(capsys, "species", "free-component", "--species",
                       species_docs["species"], "--ports", "2",
                       "--v-max", "2", "--e-max", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3 == len(doc["elements"])


def test_species_segal_pass(species_docs, capsys):
    code, out, _ = cli(capsys, "species", "segal", "--presheaf",
                       species_docs["presheaf"])
    assert code == 0
    assert all(": ok" in ln for ln in out.splitlines())


def test_species_segal_failure_names_graph(species_docs, capsys):
    code, out, _ = cli(capsys, "species", "segal", "--presheaf",
                       species_docs["broken"])
    assert code == 1
    failing = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert len(failing) == 1 and failing[0].startswith("wheel1:")
    code, out, _ = cli(capsys, "species", "segal", "--presheaf",
                       species_docs["broken"], "--graph", "corolla2", "--json")
    assert code == 0 and json.loads(out)["passed"]


def test_species_segal_selects_integer_and_string_ids(tmp_path, capsys):
    # presheaf ids keep their JSON type, so --graph reads ids as ports do
    P = nerve_presheaf(terminal_species(ORI, 2), [(1, wheel(1)), ("w2", wheel(2))])
    path = write_doc(tmp_path, "nerve.json", presheaf_to_json(P))
    for gid, want in (("1", 1), ("w2", "w2")):
        code, out, err = cli(capsys, "species", "segal", "--json", "--presheaf",
                             path, "--graph", gid)
        assert (code, err) == (0, "")
        assert [row[:2] for row in json.loads(out)["results"]] == [[want, True]]


def test_label_arguments_reach_digit_spelled_strings(tmp_path, capsys):
    # a label argument reads as a JSON label when it parses as one, so
    # '"1"' names the string "1" while 1 stays the int 1
    P = nerve_presheaf(terminal_species(ORI, 2), [("1", wheel(1)), (2, wheel(2))])
    path = write_doc(tmp_path, "nerve.json", presheaf_to_json(P))
    for gid, want in (('"1"', "1"), ("2", 2)):
        code, out, err = cli(capsys, "species", "segal", "--json", "--presheaf",
                             path, "--graph", gid)
        assert (code, err) == (0, "")
        assert [row[:2] for row in json.loads(out)["results"]] == [[want, True]]
    dag1, dag2 = ("dag", 1), ("dag", 2)
    g = make_graph(["1", "2", dag1, dag2], [("1", dag1), ("2", dag2)],
                   [(dag1, "7"), (dag2, "7")], ["7"])
    path = write_doc(tmp_path, "corolla.json", graph_to_json(g))
    code, out, err = cli(capsys, "graph", "glue", "--graph", path, "--ports", '"1"', '"2"')
    assert (code, err) == (0, "")
    assert graph_from_json(json.loads(out)).ports == ()
    code, _, err = cli(capsys, "graph", "glue", "--graph", path, "--ports", "1", "2")
    assert code == 2 and err == "error: 1 is not a port\n"
    code, out, err = cli(capsys, "gog", "delete", "--graph", path, "--vertices", '"7"')
    assert (code, err) == (0, "")
    assert graph_from_json(json.loads(out)["target"]).vertices == ()


SEGAL_JSON_PINNED = {
    "presheaf": (0, '{"passed":true,"results":['
                    '["stick",true,"1 elements against a limit of 1"],'
                    '["corolla2",true,"3 elements against a limit of 3"],'
                    '["wheel1",true,"3 elements against a limit of 3"],'
                    '["wheel2",true,"9 elements against a limit of 9"],'
                    '["glued",true,"1 elements against a limit of 1"]]}'),
    "broken": (1, '{"passed":false,"results":['
                  '["stick",true,"1 elements against a limit of 1"],'
                  '["corolla2",true,"3 elements against a limit of 3"],'
                  '["wheel1",false,"2 elements against a limit of 3; '
                  'the canonical map misses the limit"],'
                  '["wheel2",true,"9 elements against a limit of 9"],'
                  '["glued",true,"1 elements against a limit of 1"]]}'),
}


@pytest.mark.parametrize("doc", sorted(SEGAL_JSON_PINNED))
def test_species_segal_json_pinned(species_docs, capsys, doc):
    code, out, err = cli(capsys, "species", "segal", "--presheaf",
                         species_docs[doc], "--json")
    assert (code, out.strip()) == SEGAL_JSON_PINNED[doc] and err == ""


def test_species_segal_incomplete_cone_exits_2(tmp_path, capsys):
    # a nerve with one restriction row gone used to pass with no results
    doc = presheaf_to_json(nerve_presheaf(terminal_species(ORI, 2), [("w", wheel(1))]))
    doc["restrictions"] = doc["restrictions"][1:]
    code, out, err = cli(capsys, "species", "segal", "--json", "--presheaf",
                         write_doc(tmp_path, "nerve.json", doc))
    assert code == 2 and out == ""
    assert err.startswith("error: no cone leg") and len(err.splitlines()) == 1


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False),
    st.just(float("inf")), st.sampled_from(["", "w", "stick", "1/0", "1e999999999"]),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from(["tuple", "id"]), st.integers(0, 2), max_size=2),
)
_OUTSIDE_LABEL = st.sampled_from(["outside", 10 ** 6, {"tuple": ["outside"]}])
_ID_FIELDS = {"id", "shape", "source", "target"}


def _mutate(data, doc):
    """Apply one drop, retype, id swap or outside map entry to doc."""
    paths = list(_json_paths(doc))
    kind = data.draw(st.sampled_from(["drop", "retype", "swap ids", "outside"]))
    if kind == "drop" and len(paths) > 1:
        path = data.draw(st.sampled_from(paths[1:]))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        path = data.draw(st.sampled_from(paths))
        value = data.draw(_WRONG_TYPED)
        if not path:
            return value
        _at(doc, path[:-1])[path[-1]] = value
    elif kind == "swap ids":
        ids = [p for p in paths if len(p) == 3 and (
            p[-1] in _ID_FIELDS or (p[0] != "graphs" and p[-1] == "graph"))]
        if len(ids) > 1:
            a, b = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                                      unique=True))
            _at(doc, a[:-1])[a[-1]], _at(doc, b[:-1])[b[-1]] = _at(doc, b), _at(doc, a)
    else:
        entries = [p for p in paths if len(p) == 4 and p[2] == "map"
                   and isinstance(_at(doc, p), list) and len(_at(doc, p)) == 2]
        if entries:
            path = data.draw(st.sampled_from(entries))
            _at(doc, path)[data.draw(st.integers(0, 1))] = data.draw(_OUTSIDE_LABEL)
    return doc


@pytest.fixture(scope="module")
def small_nerve_doc():
    P = nerve_presheaf(terminal_species(ORI, 2), [("w", wheel(1)), ("l", line(1))])
    return json.dumps(presheaf_to_json(P))


def run_mutated(data, doc_text, tmp_path_factory, argv):
    """Mutate the document one to three times, run argv on it with {doc}
    standing for its path, and return the exit code and the output; an
    exit 2 must print one error line and nothing else."""
    doc = json.loads(doc_text)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    path = write_doc(tmp_path_factory.getbasetemp(), "mutated.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([path if a == "{doc}" else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_error_line(code, out.getvalue(), err.getvalue())
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_nerve_documents_exit_cleanly(small_nerve_doc, tmp_path_factory, data):
    code, out = run_mutated(data, small_nerve_doc, tmp_path_factory,
                            ["species", "segal", "--json", "--presheaf", "{doc}"])
    if code != 2:
        assert json.loads(out)["passed"] == (code == 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_element_documents_exit_cleanly(tmp_path_factory, data):
    code, out = run_mutated(data, json.dumps(q_element_doc()), tmp_path_factory,
                            ["br", "mul", "--lhs", "{doc}", "--rhs", "{doc}",
                             "--ring", "Q", "--delta", "1/2"])
    if code != 2:
        assert code == 0 and element_from_json(json.loads(out)).ring == QQ


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_diagram_documents_exit_cleanly(tmp_path_factory, data):
    doc = diagram_to_json(make_diagram(2, 4, [("s1", "t3"), ("s2", "t1"), ("t2", "t4")], 1))
    code, out = run_mutated(data, json.dumps(doc), tmp_path_factory,
                            ["bd", "dual", "--diagram", "{doc}"])
    if code != 2:
        assert code == 0 and diagram_from_json(json.loads(out)).closed >= 0


def test_species_check_co(tmp_path, capsys):
    path = write_doc(tmp_path, "alg.json", algebra_to_json(renamed_pairing_table(MONO)))
    code, out, _ = cli(capsys, "species", "check-co", "--algebra", path,
                       "--modular", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and len(doc["reports"]) == 2


# ---------------------------------------------------------------------------
# harness behaviour


def _malformed_docs(tmp_path):
    """Six documents whose one wrong-typed field used to escape the
    loaders as AttributeError: command -> argv."""
    graph = graph_to_json(corolla(2))
    gog = write_doc(tmp_path, "gog.json", {"base": graph, "assign": []})
    algebra = algebra_to_json(renamed_pairing_table(MONO))
    algebra["carriers"] = []
    alg = write_doc(tmp_path, "alg.json", algebra)
    element = element_to_json(bd_to_br_t(sigma_2()))
    element["ring"] = 5
    el = write_doc(tmp_path, "el.json", element)
    xg = write_doc(tmp_path, "xg.json", {"graph": graph, "rho": [1]})
    return {
        "gog colimit": ["gog", "colimit", "--gog", gog],
        "ca check": ["ca", "check", "--algebra", alg],
        "species check-co": ["species", "check-co", "--algebra", alg],
        "br mul": ["br", "mul", "--lhs", el, "--rhs", el, "--ring", "Z[t]", "--delta", "t"],
        "gog terminal": ["gog", "terminal", "--graph", xg],
        "gog similar": ["gog", "similar", "--left", xg, "--right", xg],
    }


@pytest.mark.parametrize("command", ["gog colimit", "ca check", "species check-co",
                                     "br mul", "gog terminal", "gog similar"])
def test_wrong_typed_field_exits_2(tmp_path, capsys, command):
    code, _, err = cli(capsys, *_malformed_docs(tmp_path)[command])
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("bad_map", ["xy", [["x"]]])
def test_species_map_that_is_not_pairs_exits_2(species_docs, tmp_path, capsys, bad_map):
    with open(species_docs["species"]) as fh:
        species = json.load(fh)
    species["sigma"] = [{"word": ["c", "c", "c"], "perm": [1, 0, 2], "map": bad_map}]
    with open(species_docs["presheaf"]) as fh:
        presheaf = json.load(fh)
    presheaf["restrictions"][0]["map"] = bad_map
    runs = {
        "species": ["species", "eval", "--species",
                    write_doc(tmp_path, "species.json", species), "--graph", "corolla:3"],
        "presheaf": ["species", "segal", "--presheaf",
                     write_doc(tmp_path, "presheaf.json", presheaf)],
    }
    for kind, argv in runs.items():
        code, out, err = cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == [err.strip()] and "Traceback" not in err
        assert f"malformed {kind} document" in err
    # a typed error from inside the document passes through as it is
    species["palette"]["colours"] = ["c", "c"]
    code, _, err = cli(capsys, "species", "eval", "--species",
                       write_doc(tmp_path, "palette.json", species), "--graph", "corolla:3")
    assert code == 2 and "duplicate colours" in err and "malformed" not in err


def test_species_listing_a_non_adjacent_swap_exits_2(tmp_path, capsys):
    w = ["c", "c", "c"]
    doc = species_to_json(make_species(MONO, 3, {tuple(w): (0, 1, 2)}))
    doc["sigma"] = [{"word": w, "perm": [2, 1, 0], "map": [[0, 2], [1, 1], [2, 0]]}]
    code, out, err = cli(capsys, "species", "eval", "--species",
                         write_doc(tmp_path, "species.json", doc), "--graph", "corolla:3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err


def test_usage_error_exits_2():
    proc = subprocess.run([sys.executable, "-m", "brauerkit.cli", "bd", "nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    # a label nested 2,000 {"tuple": [...]} levels deep is too deep to decode
    deep = '{"tuple": [' * 2000 + '"x"' + ']}' * 2000
    doc = json.dumps(species_to_json(make_species(MONO, 0, {(): ("e",)})))
    assert doc.count('"e"') == 1
    path = tmp_path / "deep.json"
    path.write_text(doc.replace('"e"', deep))
    code, _, err = cli(capsys, "species", "eval", "--species", str(path),
                       "--graph", "empty")
    assert code == 2 and "error:" in err


def test_unreadable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = cli(capsys, "graph", "build", "--graph", str(path))
    assert code == 2 and "error:" in err
