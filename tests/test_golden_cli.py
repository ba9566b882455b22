"""CLI outputs pinned byte for byte.

Each case runs one command in-process on the documents under
tests/data/golden/ (seeded random diagrams, elements and tables built
with the public constructors and serializers) and compares its exit
code and stdout with the stored <case>.out file.  The stored outputs
fix the JSON layout, the order of pairs, terms, bubbles and
violations, and the text forms, so a change of the diagram kernel's
internal representation cannot move any of them.
"""

from __future__ import annotations

import os

import pytest

from brauerkit.cli import run

DATA = os.path.join(os.path.dirname(__file__), "data", "golden")

# case -> (argv, exit code); "@name" is the document DATA/name
CASES = {
    "bd_compose": (["bd", "compose", "--lhs", "@bd_f.json", "--rhs", "@bd_g.json"], 0),
    "bd_compose_words": (["bd", "compose", "--lhs", "cap_2 + id_2",
                          "--rhs", "id_1 + sigma + id_1 + sigma ; cup_3"], 0),
    "bd_tensor": (["bd", "tensor", "--lhs", "@bd_g.json", "--rhs", "@bd_f.json"], 0),
    "bd_dual": (["bd", "dual", "--diagram", "@bd_f.json"], 0),
    "bd_factor": (["bd", "factor", "--diagram", "@bd_f.json"], 0),
    "bd_factor_json": (["bd", "factor", "--diagram", "@bd_g.json", "--json"], 0),
    "br_mul": (["br", "mul", "--lhs", "@br_a.json", "--rhs", "@br_b.json",
                "--ring", "Z[t]", "--delta", "t"], 0),
    "cbd_compose": (["cbd", "compose", "--lhs", "@cbd_f.json", "--rhs", "@cbd_g.json",
                     "--palette", "@ori.json"], 0),
    "wd_gamma": (["wd", "gamma", "--outer", "@wd_outer.json",
                  "--inner", "@wd_inner1.json", "--inner", "@wd_inner2.json"], 0),
    "ca_check_pass": (["ca", "check", "--algebra", "@ca_good.json", "--json",
                       "--seed", "0"], 0),
    "ca_check_corrupted": (["ca", "check", "--algebra", "@ca_bad.json", "--json",
                            "--seed", "0"], 1),
    "ca_free": (["ca", "free", "--palette", "@mono.json", "--bound", "3",
                 "--generator", "c,c,c=g", "--json"], 0),
    "ca_free_check": (["ca", "free", "--palette", "@ori.json", "--bound", "2",
                       "--generator", "+,-=h", "--check", "--json", "--seed", "0"], 0),
}


def case_argv(name):
    argv, _ = CASES[name]
    return [os.path.join(DATA, a[1:]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = run(case_argv(name))
    out = capsys.readouterr().out
    with open(os.path.join(DATA, f"{name}.out")) as fh:
        want = fh.read()
    assert code == CASES[name][1]
    assert out == want
