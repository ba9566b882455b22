"""The four workloads as rounds of checked jobs.

A workload has a set-up, the library calls that build its fixed
untimed inputs (timed as part of setup_s), and a job list per round,
generated from (run seed, round index) before the round starts.  A job
is one timed call into brauerkit plus the check of its answer, which
runs untimed and returns a short verdict or raises WrongAnswer.

Every timed call looks brauerkit functions up on their module when it
runs, so the wrappers of a traced run see it.  The CLI is driven
in-process through brauerkit.cli.run with its output captured.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import reduce
from math import prod
from typing import Callable

from brauerkit import brauer, brauer_algebra, cli, coloured, graph, species, substitution, wiring

import inputs
from oracles import (
    chain_reference,
    check_br_compose,
    check_compose_coloured,
    check_isomorphism,
    check_same,
    double_factorial,
    expect,
    pair_set,
    tensor_reference,
)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]
    inputs: tuple = ()    # what run() passes to brauerkit, for the record


class Round:
    """Inputs and notes of one round: seed, index, scratch directory,
    the workload's fixed inputs, and what checks report beyond verdicts."""

    def __init__(self, seed, index, workdir, fixed):
        self.seed = seed
        self.index = index
        self.workdir = workdir
        self.fixed = fixed
        self.vf2 = []             # (graph doc, graph doc, iso found) for the parent
        self.segal = [0, 0]       # sum |P(g)|, sum of leg-set products

    def rng(self, stream):
        return inputs.rng_for(self.seed, self.index, stream)

    def write(self, name, doc):
        path = os.path.join(self.workdir, f"{name}-{self.seed}-{self.index}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse exits the way main() would
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_doc(result, code):
    got, out, err = result
    expect(got == code, f"exit {got}, expected {code}: {err.strip()[-300:]}")
    expect("Traceback" not in err, "traceback on stderr")
    return json.loads(out)


# ---------------------------------------------------------------------------
# ca-check: `ca check --json` on three tabulated algebras

CLI_SAMPLES = 400        # ca check's --samples default
CLI_BUDGET = 100_000     # ca check's --budget default
# the oriented bound-2 table: instance count and checked instances
ORI2_CANDIDATES, ORI2_CHECKED = 99_924, 4_453


def ca_check_setup():
    return None


SAMPLED_CHECKS, CORRUPTED_CHECKS = 6, 2


def ca_check_jobs(rnd):
    """Sampled checks of the bound-4 table and of corrupted copies, each
    with its own --seed, with one exhaustive check in their middle."""
    rng = rnd.rng("tables")
    mono = inputs.pairing_table(inputs.MONO, 4, rng)
    sampled = [("ca-check.sampled", mono, 0)] * SAMPLED_CHECKS
    sampled += [("ca-check.corrupted", inputs.corrupt_identity_row(mono, rng), 1)
                for _ in range(CORRUPTED_CHECKS)]
    # the bound-4 checks set op_p50_ref_ms; timing half of them before and
    # half after the long exhaustive check averages the machine's speed
    # over the whole round instead of over a few seconds of it
    half = len(sampled) // 2
    tables = sampled[:half] + [("ca-check.exhaustive", inputs.pairing_table(inputs.ORI, 2), 0)]
    tables += sampled[half:]
    jobs, paths = [], {}
    for i, (kind, table, code) in enumerate(tables):
        doc = wiring.algebra_to_json(table)
        if id(table) not in paths:
            paths[id(table)] = rnd.write(f"{kind}-{i}", doc)
        seed = str(rng.randrange(2 ** 31))
        argv = ["ca", "check", "--algebra", paths[id(table)], "--json", "--seed", seed]
        count = inputs.instance_count(table)
        jobs.append(Job(kind, lambda argv=argv: run_cli(argv),
                        lambda r, code=code, count=count: _check_ca(r, code, count),
                        (doc, seed)))
    return jobs


def _check_ca(result, code, candidates):
    doc = cli_doc(result, code)
    mode = "exhaustive" if candidates <= CLI_BUDGET else "sampled"
    expect(doc["mode"] == mode, f"mode {doc['mode']} for {candidates} instances")
    expect(doc["passed"] == (code == 0), "verdict disagrees with the exit code")
    if mode == "exhaustive":
        expect(candidates == ORI2_CANDIDATES, f"{candidates} instances in the exhaustive table")
        expect(doc["checked"] == ORI2_CHECKED, f"checked {doc['checked']}, expected {ORI2_CHECKED}")
    else:
        # every identity sample is checkable on a complete table
        expect(CLI_SAMPLES <= doc["checked"] <= 3 * CLI_SAMPLES, f"checked {doc['checked']}")
    expect(bool(doc["violations"]) == (code == 1), f"{len(doc['violations'])} violations")
    return [code, doc["mode"], doc["checked"], len(doc["violations"])]


# ---------------------------------------------------------------------------
# operad: species lift and the tabulated operad checkers

# instances the exhaustive checkers visit at these bounds
MONO8_OPERAD, MONO8_MODULAR, ORI6_DERIVED = 53_278, 28_530, 4_327
ORI2_CHECK_CO = (("circuit operad", 15), ("modular axioms", 0))


def operad_setup():
    return {"mono8": wiring.pairing_algebra(inputs.MONO, 8),
            "ori6": wiring.pairing_algebra(inputs.ORI, 6)}


def operad_jobs(rnd):
    fixed = rnd.fixed
    S4, C4 = inputs.small_operad()
    bad = inputs.corrupted_operad(S4, C4)
    doc = wiring.algebra_to_json(inputs.pairing_table(inputs.ORI, 2))
    path = rnd.write("ori2", doc)
    seed = rnd.rng("operad").randrange(2 ** 31)
    lifted = {}

    def lift():
        lifted["SC"] = species.species_from_circuit_algebra(fixed["mono8"])
        return lifted["SC"]

    argv = ["species", "check-co", "--algebra", path, "--modular", "--json"]
    return [
        Job("operad.lift", lift, _check_lift),
        Job("operad.validate", lambda: species.validate_circuit_operad(*lifted["SC"]),
            lambda r: _check_validation(r, True, MONO8_OPERAD)),
        Job("operad.modular", lambda: species.check_modular_axioms(*lifted["SC"]),
            lambda r: _check_validation(r, True, MONO8_MODULAR)),
        Job("operad.derived", lambda: wiring.check_derived_axioms(fixed["ori6"], seed=seed),
            _check_derived, (seed,)),
        Job("operad.corrupted", lambda: species.validate_circuit_operad(S4, bad),
            lambda r: _check_validation(r, False, None), (S4, bad)),
        Job("operad.check-co", lambda: run_cli(argv), _check_co, (doc,)),
    ]


def _check_lift(result):
    S, _ = result
    sizes = {len(w): len(es) for w, es in S.tables}
    # the pairings of k points: (k - 1)!! for even k, none for odd k
    want = {k: double_factorial(k - 1) if k % 2 == 0 else 0 for k in range(9)}
    expect(sizes == want, f"table sizes {sizes}")
    return sorted(sizes.items())


def _check_validation(report, passed, checked):
    expect(report.passed == passed, f"passed is {report.passed}: {report.violations[:2]}")
    expect(passed or report.violations, "failed without a violation")
    if checked is not None:
        expect(report.checked == checked, f"checked {report.checked}, expected {checked}")
    return [report.passed, report.checked, len(report.violations)]


def _check_derived(report):
    expect(report.passed and report.mode == "exhaustive", f"{report.mode}, {report.violations[:2]}")
    expect(report.candidates == report.checked == ORI6_DERIVED,
           f"{report.checked} of {report.candidates} checked")
    return [report.mode, report.checked]


def _check_co(result):
    doc = cli_doc(result, 0)
    got = tuple((r["name"], r["checked"]) for r in doc["reports"])
    expect(doc["passed"] and got == ORI2_CHECK_CO, f"reports {got}")
    return got


# ---------------------------------------------------------------------------
# graphs: isomorphism, substitution, species evaluation and the nerve

# VF2 cross-checks per round and answer, on graphs of at most VF2_NODES
# edges plus vertices
VF2_NODES, VF2_PER_ANSWER = 40, 6
SEGAL_COPIES = 8


def graphs_setup():
    generator = species.make_species(inputs.MONO, 3, {("c", "c", "c"): ("g",)})
    return {"terminal": species.terminal_species(inputs.ORI, 2),
            "free": species.build_free_species(generator, 2, 6, 2)}


def graphs_jobs(rnd):
    rng = rnd.rng("graphs")
    jobs = []

    # references from a small pool, probes always fresh
    pool = [(inputs.relabelled(shape(k), rng, ("ref", name, k)), 2)
            for name, shape in (("wheel", graph.wheel), ("line", graph.line))
            for k in (8, 16, 32, 64)]
    pool += [(inputs.random_graph(rng, 8, 12), 2) for _ in range(12)]
    for i, (ref, probes) in enumerate(pool):
        for p in range(probes):
            probe = inputs.relabelled(ref, rng, ("probe", i, p))
            jobs.append(Job("graphs.iso", lambda g=ref, h=probe: graph.iso(g, h),
                            lambda w, g=ref, h=probe: _check_iso(rnd, w, g, h, True),
                            (ref, probe)))
    for g, h in inputs.non_isomorphic_pairs(rng, "neg"):
        jobs.append(Job("graphs.iso", lambda g=g, h=h: graph.iso(g, h),
                        lambda w, g=g, h=h: _check_iso(rnd, w, g, h, False), (g, h)))

    for i in range(6):
        g = inputs.random_graph(rng, 8, 12)
        h = inputs.relabelled(g, rng, ("canon", i))
        jobs.append(Job("graphs.canonical_form",
                        lambda g=g, h=h: (graph.canonical_form(g), graph.canonical_form(h)),
                        _check_same_canonical_form, (g, h)))
    for k in (32, 64, 128, 256):
        g = inputs.relabelled(graph.line(k), rng, ("glue", k))
        jobs.append(Job("graphs.glue", lambda g=g: graph.glue(g, *g.ports),
                        lambda r, k=k: _check_wheel(r, k), (g,)))

    for _ in range(8):
        gog = inputs.random_gog(rng, inputs.random_graph(rng, 4, 6))
        jobs.append(Job("graphs.colimit", lambda gog=gog: substitution.colimit(gog),
                        lambda r, gog=gog: _check_colimit(r, gog), (gog,)))
    for _ in range(8):
        outer = inputs.random_gog(rng, inputs.random_graph(rng, 3, 4))
        inners = {v: inputs.random_gog(rng, xg.graph) for v, xg in outer.assignment}
        jobs.append(Job("graphs.associativity",
                        lambda o=outer, n=inners: substitution.check_substitution_associativity(o, n),
                        lambda r: _check_true(r, "two-stage colimits disagree"),
                        (outer, inners)))

    connected = [inputs.labelled_line(rng.randint(8, 24)),
                 graph.make_xgraph(graph.wheel(rng.randint(8, 24)), {})]
    for _ in range(4):
        g = inputs.random_connected_graph(rng, 8, 12)
        connected.append(graph.make_xgraph(g, {p: p for p in g.ports}))
    for i, x in enumerate(connected):
        x = inputs.relabelled_x(x, rng, ("term", i))
        jobs.append(Job("graphs.terminal_representative",
                        lambda x=x: substitution.terminal_representative(x), _check_terminal,
                        (x,)))
    pairs = []
    for i in range(2):
        a, b = rng.randint(8, 24), rng.randint(8, 24)
        pairs.append((inputs.labelled_line(a), inputs.labelled_line(b), True))
        pairs.append((inputs.labelled_line(a), inputs.labelled_line(b, (2, 1)), False))
        pairs.append((graph.make_xgraph(graph.wheel(a), {}),
                      graph.make_xgraph(graph.wheel(b), {}), True))
        g = inputs.random_connected_graph(rng, 8, 12)
        x = graph.make_xgraph(g, {p: p for p in g.ports})
        pairs.append((x, x, True))
    # similar() reads a collapsed stick's port labels in edge-label order,
    # so these copies keep the label order (see README.md, known defects)
    for i, (x, y, want) in enumerate(pairs):
        x, y = inputs.tagged_x(x, ("sim", i, 0)), inputs.tagged_x(y, ("sim", i, 1))
        jobs.append(Job("graphs.similar", lambda x=x, y=y: substitution.similar(x, y),
                        lambda r, want=want: _check_equal(r, want, "similar"), (x, y)))

    # species evaluation and the nerve on wheels and lines, k = 2..6: one
    # evaluation job per species and shape, a nerve and a Segal job per graph
    terminal, free = rnd.fixed["terminal"], rnd.fixed["free"]
    per_vertex = len(free.elements(("c", "c")))
    for name, shape, extra in (("wheel", graph.wheel, 0), ("line", graph.line, 1)):
        for S, counts in ((terminal, [2 ** (k + extra) for k in range(2, 7)]),
                          (free, [per_vertex ** k for k in range(2, 7)])):
            gs = tuple(inputs.relabelled(shape(k), rng, ("species", name, k)) for k in range(2, 7))
            jobs.append(Job("graphs.evaluate",
                            lambda S=S, gs=gs: [species.evaluate(S, g) for g in gs],
                            lambda r, counts=counts: _check_equal([len(x) for x in r], counts,
                                                                   "structures"), gs))
            for g, count in zip(gs, counts):
                jobs += _nerve_jobs(rnd, S, g, count)
    # more fresh copies of one Segal check in the tail, so that op_p90_ref_ms
    # falls among jobs of one cost rather than in a gap between kinds
    for i in range(SEGAL_COPIES):
        g = inputs.relabelled(graph.line(5), rng, ("segal", i))
        jobs += _nerve_jobs(rnd, terminal, g, 2 ** 6)
    return jobs


def _nerve_jobs(rnd, S, g, count):
    """nerve_presheaf of S on g, then segal_check of that nerve."""
    nerve = {}

    def build():
        nerve["P"] = species.nerve_presheaf(S, [("g", g)])
        return nerve["P"]

    return [
        Job("graphs.nerve", build,
            lambda P: _check_equal(len(P.value_map["g"]), count, "values"), (g,)),
        Job("graphs.segal", lambda: species.segal_check(nerve["P"]),
            lambda r: _check_segal(rnd, r, nerve["P"])),
    ]


def _check_iso(rnd, witness, g, h, isomorphic):
    if isomorphic:
        expect(witness is not None, "no witness for a relabelled copy")
        check_isomorphism(witness, g, h)
    else:
        expect(witness is None, "witness between non-isomorphic graphs")
    sampled = sum(found == isomorphic for _, _, found in rnd.vf2)
    if len(g.edges) + len(g.vertices) <= VF2_NODES and sampled < VF2_PER_ANSWER:
        rnd.vf2.append((graph.graph_to_json(g), graph.graph_to_json(h), isomorphic))
    return isomorphic


def _check_same_canonical_form(result):
    a, b = result
    expect(a == b, "relabelled copies have different canonical forms")
    return [len(a.edges), len(a.vertices)]


def _check_wheel(g, k):
    """g is a closed cycle on k vertices: what gluing line(k)'s ends gives."""
    expect(not g.ports and len(g.vertices) == k and len(g.tau_pairs) == k,
           "glued line has the wrong size")
    expect(all(g.valency(v) == 2 for v in g.vertices), "glued line is not bivalent")
    ev = g.edge_vertex
    seen, todo = set(), [g.vertices[0]]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo += [ev[g.tau(e)] for e in g.vertex_edges(v)]
    expect(len(seen) == k, "glued line is not connected")
    return k


def _check_colimit(result, gog):
    g, _ = result
    base = gog.base
    inner = sum(len(x.graph.edges) - 2 * len(x.graph.ports) for _, x in gog.assignment)
    expect(set(g.ports) == set(base.ports), "colimit moved the base ports")
    expect(len(g.vertices) == sum(len(x.graph.vertices) for _, x in gog.assignment),
           "colimit vertex count")
    expect(len(g.edges) == len(base.edges) + inner, "colimit edge count")
    return [len(g.edges), len(g.vertices)]


def _check_terminal(x):
    expect(all(x.graph.valency(v) not in (0, 2) for v in x.graph.vertices),
           "terminal representative keeps a deletable vertex")
    return [len(x.graph.edges), len(x.graph.vertices), x.rho is None]


def _check_true(result, message):
    expect(result is True, message)
    return True


def _check_equal(got, want, what):
    expect(got == want, f"{what}: {got!r}, expected {want!r}")
    return got


def _check_segal(rnd, report, P):
    expect(report.passed, f"Segal condition fails: {report.results}")
    values = len(P.value_map["g"])
    legs = prod(len(P.value_map[sid]) for (gid, _, _), (sid, _) in P.cone_map.items()
                if gid == "g")
    rnd.segal[0] += values
    rnd.segal[1] += legs
    return [values, legs]


# ---------------------------------------------------------------------------
# diagrams: composition at scale and products in Br_4 over Z[t]

# (strands, factors per word, words per round); a word of small diagrams
# is one job, so every job does at least a millisecond of work
COMPOSE_WORDS = ((4, 32, 10), (16, 8, 10), (64, 2, 10), (256, 2, 12))
TENSOR_WORDS = ((4, 32, 10), (16, 8, 10), (64, 4, 10), (256, 4, 10))
COLOURED_WORDS = ((8, 8, 10), (32, 3, 10))
BR_PRODUCTS = 6
OPEN_COUNTS = ((4, 4), (3, 5), (2, 6), (5, 5))


def diagrams_setup():
    return None


def diagrams_jobs(rnd):
    rng = rnd.rng("diagrams")
    t = brauer_algebra.ZPOLY.t()
    jobs = []
    for n, factors, words in COMPOSE_WORDS:
        for i in range(words):
            fs = tuple(inputs.random_open(rng, n, n) for _ in range(factors))
            jobs.append(Job("diagrams.compose", lambda fs=fs: reduce(brauer.compose, fs),
                            lambda r, fs=fs, i=i: _check_chain(r, fs, i == 0), fs))
    for n, factors, words in TENSOR_WORDS:
        for _ in range(words):
            fs = tuple(inputs.random_open(rng, n, rng.choice((n - 2, n, n + 2)))
                       for _ in range(factors))
            jobs.append(Job("diagrams.tensor", lambda fs=fs: reduce(brauer.tensor, fs),
                            lambda r, fs=fs: _summary(check_same(r, tensor_reference(fs),
                                                                 "tensor word"), r), fs))
    for n, factors, words in COLOURED_WORDS:
        for _ in range(words):
            fs = inputs.random_oriented_word(rng, n, factors)
            jobs.append(Job("diagrams.compose_coloured",
                            lambda fs=fs: reduce(coloured.compose_coloured, fs),
                            lambda r, fs=fs: _summary(check_compose_coloured(fs, r), r.base), fs))
    for i in range(BR_PRODUCTS):
        a, b = inputs.random_br_element(rng), inputs.random_br_element(rng)
        pair = _closed_pair(rng) if i == 0 else None
        jobs.append(Job("diagrams.br_compose",
                        lambda a=a, b=b: brauer_algebra.br_compose(a, b, t),
                        lambda r, a=a, b=b, pair=pair: _check_br(r, a, b, pair), (a, b, pair)))
    for m, n in OPEN_COUNTS:
        jobs.append(Job("diagrams.open_diagrams", lambda m=m, n=n: list(brauer.open_diagrams(m, n)),
                        lambda r, m=m, n=n: _check_open(r, m, n), (m, n)))
    return jobs


def _summary(_, d):
    return [d.m, d.n, d.closed]


def _check_chain(r, fs, associativity):
    check_same(r, chain_reference(fs), "composite")
    if associativity:   # one word per size, grouped from the right
        right = fs[-1]
        for f in reversed(fs[:-1]):
            right = brauer.compose(f, right)
        expect(right == r, "composition is not associative")
    return _summary(None, r)


def _closed_pair(rng):
    """Two diagrams with closed loops already, for the functoriality check."""
    return tuple(brauer.make_diagram(4, 4, inputs.random_open(rng, 4, 4).pairs,
                                     rng.randint(0, 2)) for _ in range(2))


def _check_br(r, a, b, pair):
    check_br_compose(a, b, r)
    if pair is not None:
        f, g = pair
        t = brauer_algebra.ZPOLY.t()
        lhs = brauer_algebra.bd_to_br_t(brauer.compose(f, g))
        rhs = brauer_algebra.br_compose(brauer_algebra.bd_to_br_t(f), brauer_algebra.bd_to_br_t(g), t)
        expect(lhs == rhs, "bd_to_br_t is not functorial")
    return len(r.terms)


def _check_open(diagrams, m, n):
    want = double_factorial(m + n - 1)
    expect(len(diagrams) == want, f"{len(diagrams)} open diagrams {m}->{n}, expected {want}")
    expect(len({pair_set(d) for d in diagrams}) == want, "open diagrams repeat")
    expect(all(d.closed == 0 and (d.m, d.n) == (m, n) for d in diagrams), "not open")
    return want


WORKLOADS = {
    "ca-check": (ca_check_setup, ca_check_jobs),
    "operad": (operad_setup, operad_jobs),
    "graphs": (graphs_setup, graphs_jobs),
    "diagrams": (diagrams_setup, diagrams_jobs),
}
