"""Command-line front end.

Every data-producing subcommand prints one JSON document on stdout, so
output pipes straight back into other subcommands.  Check subcommands
print one line per checked item and flip the exit code: 0 all good, 1
at least one failure, 2 malformed input (reported on stderr, also when
the input nests too deeply to read).  Axiom reports print each
violation as `violation [kind] detail`; `--json` switches check output
to a single machine-readable report whose violations are [kind, detail]
pairs.

Diagram arguments accept a file path, `-` for stdin, or an inline
generator word (`cup + id ; cap`).  Graph arguments accept a file
path, `-`, or a builtin name: empty, stick, isolated, corolla:K,
wheel:K, line:K.
"""

import argparse
import json
import math
import os
import sys

from .brauer import (
    cap_n,
    compose,
    cup_n,
    diagram_from_json,
    diagram_to_json,
    dual,
    evaluate_word,
    factor_generators,
    format_word,
    identity,
    parse_word,
    tensor,
)
from .brauer_algebra import br_compose, element_from_json, element_to_json, ring_by_name
from .coloured import (
    compose_coloured,
    coloured_from_json,
    coloured_to_json,
    palette_from_json,
)
from .graph import (
    InvalidParameter,
    corolla,
    elements,
    empty,
    glue,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    isolated_vertex,
    iso,
    line,
    make_xgraph,
    stick,
    wheel,
    xgraph_from_json,
    xgraph_to_json,
)
from .labels import decode_label, encode_label, sort_labels
from .species import (
    check_modular_axioms,
    evaluate,
    free_component,
    presheaf_from_json,
    segal_check,
    species_from_circuit_algebra,
    species_from_json,
    validate_circuit_operad,
)
from .substitution import (
    check_substitution_associativity,
    colimit,
    delete_vertices,
    gog_from_json,
    record_to_json,
    similar,
    terminal_representative,
)
from .wiring import (
    FreeCircuitAlgebra,
    algebra_from_json,
    check_circuit_algebra,
    operad_gamma,
    wiring_from_json,
    wiring_to_json,
)


def _emit(doc):
    print(json.dumps(doc, separators=(",", ":")))


def _finite(text):
    # json reads Infinity, NaN and literals past the float range such as
    # 1e400 as non-finite floats, which no loader can take
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"document holds a non-finite number: {text}")
    return value


def _read_doc(path):
    if path == "-":
        return json.load(sys.stdin, parse_float=_finite, parse_constant=_finite)
    with open(path) as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite)


def _is_path(arg):
    return arg == "-" or os.path.exists(arg)


def _load_diagram(arg):
    """File, stdin, or inline generator word."""
    if _is_path(arg):
        return diagram_from_json(_read_doc(arg))
    return evaluate_word(parse_word(arg))


_BUILTIN_GRAPHS = {
    "empty": lambda: empty(),
    "stick": lambda: stick(),
    "isolated": lambda: isolated_vertex(),
    "corolla": corolla,
    "wheel": wheel,
    "line": line,
}


def _load_graph(arg):
    if _is_path(arg):
        return graph_from_json(_read_doc(arg))
    name, _, param = arg.partition(":")
    maker = _BUILTIN_GRAPHS.get(name)
    if maker is None:
        raise ValueError(f"not a file or builtin graph: {arg!r}")
    if name in ("empty", "stick", "isolated"):
        if param:
            raise ValueError(f"{name} takes no parameter")
        return maker()
    if not param:
        raise ValueError(f"{name} needs a size, e.g. {name}:2")
    return maker(int(param))


def _load_xgraph(arg):
    """A graph document, optionally wrapped with a port labelling.

    Bare graphs and builtins get positional labels 1..k over the sorted
    ports, so two bare graphs compare by boundary position; a wrapped
    document `{"graph": ..., "rho": {...}}` keeps full control."""
    if _is_path(arg):
        doc = _read_doc(arg)
        if "graph" in doc:
            return xgraph_from_json(doc)
        g = graph_from_json(doc)
    else:
        g = _load_graph(arg)
    return make_xgraph(g, {p: i + 1 for i, p in enumerate(sort_labels(g.ports))})


_LABELS = ("as in the documents: 1 is the int 1, '\"1\"' the string \"1\", "
           "{\"tuple\": [...]} a tuple, and any other text the plain string")


def _parse_label(text):
    try:  # read as _LABELS says
        return decode_label(json.loads(text))
    except (ValueError, TypeError):
        return text


def _structure_doc(structure):
    cols, alpha = structure
    return {
        "colours": [[encode_label(e), encode_label(c)] for e, c in cols],
        "vertices": [[encode_label(v), encode_label(n)] for v, n in alpha],
    }


# ---------------------------------------------------------------------------
# bd: monochrome Brauer diagrams


def _cmd_bd_compose(args):
    f = _load_diagram(args.lhs)
    g = _load_diagram(args.rhs)
    _emit(diagram_to_json(compose(f, g)))
    return 0


def _cmd_bd_tensor(args):
    f = _load_diagram(args.lhs)
    g = _load_diagram(args.rhs)
    _emit(diagram_to_json(tensor(f, g)))
    return 0


def _cmd_bd_dual(args):
    _emit(diagram_to_json(dual(_load_diagram(args.diagram))))
    return 0


def _cmd_bd_factor(args):
    f = _load_diagram(args.diagram)
    slices = factor_generators(f)
    if args.json:
        _emit({"word": format_word(slices), "slices": slices})
    else:
        print(format_word(slices))
    return 0


def _cmd_bd_check_triangle(args):
    if args.max_strands < 1:
        raise InvalidParameter(f"--max-strands must be at least 1, got {args.max_strands}")
    rows = []
    for n in range(1, args.max_strands + 1):
        left = compose(tensor(identity(n), cap_n(n)), tensor(cup_n(n), identity(n)))
        right = compose(tensor(cap_n(n), identity(n)), tensor(identity(n), cup_n(n)))
        rows.append((n, left == identity(n) and right == identity(n)))
    passed = all(ok for _, ok in rows)
    if args.json:
        _emit({"passed": passed, "strands": [{"n": n, "ok": ok} for n, ok in rows]})
    else:
        for n, ok in rows:
            print(f"triangle n={n}: {'ok' if ok else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# br: ring-enriched composition


def _cmd_br_mul(args):
    ring = ring_by_name(args.ring)
    a = element_from_json(_read_doc(args.lhs))
    b = element_from_json(_read_doc(args.rhs))
    if a.ring != ring or b.ring != ring:
        raise ValueError(
            f"elements are over {a.ring.name}/{b.ring.name}, not {ring.name}")
    delta = ring.parse(args.delta)
    _emit(element_to_json(br_compose(a, b, delta)))
    return 0


# ---------------------------------------------------------------------------
# cbd: coloured diagrams


def _cmd_cbd_compose(args):
    f = coloured_from_json(_read_doc(args.lhs))
    g = coloured_from_json(_read_doc(args.rhs))
    if args.palette:
        palette = palette_from_json(_read_doc(args.palette))
        if f.palette != palette or g.palette != palette:
            raise ValueError("diagram palettes do not match --palette")
    _emit(coloured_to_json(compose_coloured(f, g)))
    return 0


# ---------------------------------------------------------------------------
# wd / ca: wiring diagrams and circuit algebras


def _cmd_wd_gamma(args):
    outer = wiring_from_json(_read_doc(args.outer))
    inners = [wiring_from_json(_read_doc(path)) for path in args.inner]
    _emit(wiring_to_json(operad_gamma(outer, inners)))
    return 0


def _report_lines(report, args, header, **fields):
    """The one renderer of a check report.  Without --json it prints the
    header and one `violation [kind] detail` line per violation.  It
    returns the report's JSON object: passed, the given fields, checked,
    and violations as [kind, detail]."""
    if not args.json:
        print(header)
        for kind, detail in report.violations:
            print(f"violation [{kind}] {detail}")
    return {"passed": report.passed, **fields, "checked": report.checked,
            "violations": [[kind, detail] for kind, detail in report.violations]}


def _emit_check(report, args, label, **extra):
    doc = _report_lines(report, args,
                        f"{label}: {report.mode}, {report.checked} instances checked",
                        mode=report.mode, seed=report.seed)
    if args.json:
        _emit({**doc, **extra})
    else:
        print("pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_ca_check(args):
    A = algebra_from_json(_read_doc(args.algebra))
    report = check_circuit_algebra(A, seed=args.seed, samples=args.samples,
                                   budget=args.budget)
    return _emit_check(report, args, "circuit-algebra axioms")


def _parse_generator(text):
    word_part, eq, names = text.partition("=")
    word = tuple(c for c in word_part.split(",") if c)
    gens = tuple(names.split(",")) if eq else ("g",)
    return word, gens


def _cmd_ca_free(args):
    palette = palette_from_json(_read_doc(args.palette))
    generators = {}
    for text in args.generator:
        word, names = _parse_generator(text)
        generators[word] = generators.get(word, ()) + names
    A = FreeCircuitAlgebra(palette, args.bound, generators, max_blocks=args.max_blocks)
    sizes = {",".join(w): len(A.elements(w)) for w in A.words()}
    if not args.check:
        _emit({"bound": A.bound, "carriers": sizes})
        return 0
    report = check_circuit_algebra(A, seed=args.seed, samples=args.samples,
                                   budget=args.budget)
    return _emit_check(report, args, "free circuit algebra", carriers=sizes)


# ---------------------------------------------------------------------------
# graph: Joyal-Kock graphs


def _cmd_graph_build(args):
    _emit(graph_to_json(_load_graph(args.graph)))
    return 0


def _cmd_graph_glue(args):
    g = _load_graph(args.graph)
    p1, p2 = (_parse_label(p) for p in args.ports)
    _emit(graph_to_json(glue(g, p1, p2)))
    return 0


def _cmd_graph_elements(args):
    g = _load_graph(args.graph)
    rows = [{"kind": el.kind, "anchor": encode_label(el.anchor)}
            for el in elements(g)]
    if args.json:
        _emit(rows)
    else:
        for row in rows:
            print(f"{row['kind']} at {row['anchor']}")
    return 0


def _cmd_graph_iso(args):
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    witness = iso(g, h)
    if args.json:
        doc = None
        if witness is not None:
            doc = {
                "edges": [[encode_label(a), encode_label(b)]
                          for a, b in witness.edge_pairs],
                "vertices": [[encode_label(a), encode_label(b)]
                             for a, b in witness.vertex_pairs],
            }
        _emit({"isomorphic": witness is not None, "witness": doc})
    else:
        print("isomorphic" if witness is not None else "not isomorphic")
    return 0 if witness is not None else 1


def _diagram_to_dot(f):
    """Bipartite rendering: sources on the top rank, targets on the
    bottom, one detached self-loop per bubble."""
    lines = ["graph brauer {", "  node [shape=point];"]
    if f.m:
        row = " ".join(f'"s{i}";' for i in range(1, f.m + 1))
        lines.append("  { rank=source; %s }" % row)
    if f.n:
        row = " ".join(f'"t{j}";' for j in range(1, f.n + 1))
        lines.append("  { rank=sink; %s }" % row)
    for a, b in f.pairs:
        lines.append(f'  "{a}" -- "{b}";')
    for k in range(f.closed):
        lines.append(f'  "bubble{k}" [shape=circle, label=""];')
        lines.append(f'  "bubble{k}" -- "bubble{k}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_graph_dot(args):
    arg = args.graph
    if _is_path(arg):
        doc = _read_doc(arg)
        if isinstance(doc, dict) and "pairs" in doc:
            print(_diagram_to_dot(diagram_from_json(doc)))
            return 0
        print(graph_to_dot(graph_from_json(doc)))
        return 0
    try:
        g = _load_graph(arg)
    except ValueError:
        print(_diagram_to_dot(evaluate_word(parse_word(arg))))
        return 0
    print(graph_to_dot(g))
    return 0


# ---------------------------------------------------------------------------
# gog: graphs of graphs


def _cmd_gog_colimit(args):
    gog = gog_from_json(_read_doc(args.gog))
    out, bookkeeping = colimit(gog)
    doc = graph_to_json(out)
    if args.json:
        doc = {
            "graph": doc,
            "edge_origin": [[encode_label(e), [encode_label(x) for x in origin]]
                            for e, origin in bookkeeping.edge_origin],
            "vertex_pairs": [[encode_label(a), encode_label(b)]
                             for a, b in bookkeeping.vertex_pairs],
        }
    _emit(doc)
    return 0


def _cmd_gog_delete(args):
    g = _load_graph(args.graph)
    w = tuple(_parse_label(v) for v in args.vertices)
    _emit(record_to_json(delete_vertices(g, w)))
    return 0


def _cmd_gog_terminal(args):
    xg = _load_xgraph(args.graph)
    _emit(xgraph_to_json(terminal_representative(xg)))
    return 0


def _cmd_gog_similar(args):
    x1 = _load_xgraph(args.left)
    x2 = _load_xgraph(args.right)
    verdict = similar(x1, x2)
    if args.json:
        _emit({"similar": verdict})
    else:
        print("similar" if verdict else "not similar")
    return 0 if verdict else 1


def _cmd_gog_assoc_check(args):
    outer = gog_from_json(_read_doc(args.outer))
    doc = _read_doc(args.inners)
    if not isinstance(doc, dict):
        raise InvalidParameter(f"--inners must be a JSON object, got {type(doc).__name__}")
    inners = {decode_label(json.loads(k)): gog_from_json(v)
              for k, v in doc.items()}
    verdict = check_substitution_associativity(outer, inners)
    if args.json:
        _emit({"associative": verdict})
    else:
        print("associative" if verdict else "FAIL: two-stage colimits disagree")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# species: graphical species and the Segal condition


def _cmd_species_eval(args):
    S = species_from_json(_read_doc(args.species))
    g = _load_graph(args.graph)
    structures = evaluate(S, g)
    if args.json:
        _emit({"count": len(structures),
               "structures": [_structure_doc(s) for s in structures]})
    else:
        print(len(structures))
    return 0


def _cmd_species_segal(args):
    P = presheaf_from_json(_read_doc(args.presheaf))
    report = segal_check(P, [_parse_label(g) for g in args.graph] or None)
    if args.json:
        _emit({"passed": report.passed,
               "results": [[gid, ok, detail] for gid, ok, detail in report.results]})
    else:
        for gid, ok, detail in report.results:
            print(f"{gid}: {'ok' if ok else 'FAIL'} ({detail})")
    return 0 if report.passed else 1


def _cmd_species_free_component(args):
    S = species_from_json(_read_doc(args.species))
    rows = free_component(S, args.ports, args.v_max, args.e_max)
    if args.json:
        _emit({"count": len(rows),
               "elements": [{"class": idx, "structure": _structure_doc(st)}
                            for idx, st in rows]})
    else:
        print(len(rows))
    return 0


def _cmd_species_check_co(args):
    A = algebra_from_json(_read_doc(args.algebra))
    S, C = species_from_circuit_algebra(A)
    report = validate_circuit_operad(S, C)
    reports = [("circuit operad", report)]
    if args.modular:
        reports.append(("modular axioms", check_modular_axioms(S, C)))
    passed = all(r.passed for _, r in reports)
    docs = [{"name": name, **_report_lines(
                r, args, f"{name}: {r.checked} instances, {'ok' if r.passed else 'FAIL'}")}
            for name, r in reports]
    if args.json:
        _emit({"passed": passed, "reports": docs})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# wiring it together


def _build_parser():
    seed_default = int(os.environ.get("BRAUERKIT_SEED", "0"))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=seed_default,
                        help="seed for sampled checks (default: BRAUERKIT_SEED or 0)")
    seeded.add_argument("--samples", type=int, default=400)
    seeded.add_argument("--budget", type=int, default=100_000)

    parser = argparse.ArgumentParser(prog="brauerkit")
    groups = parser.add_subparsers(dest="group", required=True)

    bd = groups.add_parser("bd", help="monochrome Brauer diagrams")
    bd_sub = bd.add_subparsers(dest="sub", required=True)
    p = bd_sub.add_parser("compose", parents=[common])
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(fn=_cmd_bd_compose)
    p = bd_sub.add_parser("tensor", parents=[common])
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(fn=_cmd_bd_tensor)
    p = bd_sub.add_parser("dual", parents=[common])
    p.add_argument("--diagram", required=True)
    p.set_defaults(fn=_cmd_bd_dual)
    p = bd_sub.add_parser("factor", parents=[common])
    p.add_argument("--diagram", required=True)
    p.set_defaults(fn=_cmd_bd_factor)
    p = bd_sub.add_parser("check-triangle", parents=[common])
    p.add_argument("--max-strands", type=int, default=4)
    p.set_defaults(fn=_cmd_bd_check_triangle)

    br = groups.add_parser("br", help="ring-enriched Brauer composition")
    br_sub = br.add_subparsers(dest="sub", required=True)
    p = br_sub.add_parser("mul", parents=[common])
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--delta", required=True)
    p.set_defaults(fn=_cmd_br_mul)

    cbd = groups.add_parser("cbd", help="coloured Brauer diagrams")
    cbd_sub = cbd.add_subparsers(dest="sub", required=True)
    p = cbd_sub.add_parser("compose", parents=[common])
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--palette")
    p.set_defaults(fn=_cmd_cbd_compose)

    wd = groups.add_parser("wd", help="wiring diagrams")
    wd_sub = wd.add_subparsers(dest="sub", required=True)
    p = wd_sub.add_parser("gamma", parents=[common])
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", action="append", default=[], metavar="FILE")
    p.set_defaults(fn=_cmd_wd_gamma)

    ca = groups.add_parser("ca", help="circuit algebras")
    ca_sub = ca.add_subparsers(dest="sub", required=True)
    p = ca_sub.add_parser("check", parents=[common, seeded])
    p.add_argument("--algebra", required=True)
    p.set_defaults(fn=_cmd_ca_check)
    p = ca_sub.add_parser("free", parents=[common, seeded])
    p.add_argument("--palette", required=True)
    p.add_argument("--bound", type=int, required=True,
                   help="longest carrier word, and the most source points "
                        "an element's shape may have")
    p.add_argument("--generator", action="append", default=[],
                   metavar="WORD[=NAMES]", help="e.g. c,c,c=g")
    p.add_argument("--max-blocks", type=int, default=None,
                   help="most generator blocks per element (default: --bound); "
                        "the carrier counts are of this truncation, with at "
                        "most one bubble per element")
    p.add_argument("--check", action="store_true",
                   help="run the axiom checker on the free algebra")
    p.set_defaults(fn=_cmd_ca_free)

    graph = groups.add_parser("graph", help="Joyal-Kock graphs")
    graph_sub = graph.add_subparsers(dest="sub", required=True)
    p = graph_sub.add_parser("build", parents=[common])
    p.add_argument("--graph", default="-")
    p.set_defaults(fn=_cmd_graph_build)
    p = graph_sub.add_parser("glue", parents=[common])
    p.add_argument("--graph", default="-")
    p.add_argument("--ports", nargs=2, required=True, help=f"two port labels, {_LABELS}")
    p.set_defaults(fn=_cmd_graph_glue)
    p = graph_sub.add_parser("elements", parents=[common])
    p.add_argument("--graph", default="-")
    p.set_defaults(fn=_cmd_graph_elements)
    p = graph_sub.add_parser("iso", parents=[common])
    p.add_argument("--graph", default="-")
    p.add_argument("--with", dest="other", required=True)
    p.set_defaults(fn=_cmd_graph_iso)
    p = graph_sub.add_parser("dot", parents=[common])
    p.add_argument("--graph", default="-",
                   help="a graph, a Brauer diagram document, or a word")
    p.set_defaults(fn=_cmd_graph_dot)

    gog = groups.add_parser("gog", help="graph substitution")
    gog_sub = gog.add_subparsers(dest="sub", required=True)
    p = gog_sub.add_parser("colimit", parents=[common])
    p.add_argument("--gog", default="-")
    p.set_defaults(fn=_cmd_gog_colimit)
    p = gog_sub.add_parser("delete", parents=[common])
    p.add_argument("--graph", default="-")
    p.add_argument("--vertices", nargs="+", required=True, help=f"vertex labels, {_LABELS}")
    p.set_defaults(fn=_cmd_gog_delete)
    p = gog_sub.add_parser("terminal", parents=[common])
    p.add_argument("--graph", default="-")
    p.set_defaults(fn=_cmd_gog_terminal)
    p = gog_sub.add_parser("similar", parents=[common])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(fn=_cmd_gog_similar)
    p = gog_sub.add_parser("assoc-check", parents=[common])
    p.add_argument("--outer", required=True)
    p.add_argument("--inners", required=True,
                   help="JSON object: encoded base vertex -> graph-of-graphs")
    p.set_defaults(fn=_cmd_gog_assoc_check)

    species = groups.add_parser("species", help="graphical species")
    species_sub = species.add_subparsers(dest="sub", required=True)
    p = species_sub.add_parser("eval", parents=[common])
    p.add_argument("--species", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_species_eval)
    p = species_sub.add_parser("segal", parents=[common])
    p.add_argument("--presheaf", required=True)
    p.add_argument("--graph", action="append", default=[],
                   help=f"restrict the check to these graph ids, {_LABELS}")
    p.set_defaults(fn=_cmd_species_segal)
    p = species_sub.add_parser("free-component", parents=[common])
    p.add_argument("--species", required=True)
    p.add_argument("--ports", type=int, required=True)
    p.add_argument("--v-max", type=int, required=True)
    p.add_argument("--e-max", type=int, required=True)
    p.set_defaults(fn=_cmd_species_free_component)
    p = species_sub.add_parser("check-co", parents=[common])
    p.add_argument("--algebra", required=True,
                   help="tabulated circuit algebra to lift and validate")
    p.add_argument("--modular", action="store_true")
    p.set_defaults(fn=_cmd_species_check_co)

    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, TypeError, KeyError, OSError, RecursionError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
