"""The monochrome Brauer category BD.

A morphism m -> n is a pairing on the boundary set
{s_1..s_m} ⊍ {t_1..t_n} together with a count of closed components
(bubbles).  Diagrams are drawn top to bottom: sources on the top row,
targets on the bottom row, so compose(f, g) stacks g below f and is
the categorical composite g ∘ f.  Vertical composition identifies
t^f_i with s^g_i and traces the resulting chains; cycles trapped in
the middle row increment the closed count.

Boundary labels are the strings "s1".."sm" and "t1".."tn", ordered by
row then by numeric index (so "s10" comes after "s2").  Two diagrams
are equal iff their arities, sorted pair lists, and closed counts
agree; BD(m, n) is a plain set of such data, no quotient involved.

The compact closed structure is implemented by boundary relabelling:

    ev(f):   new s_i = old t_{n+1-i}  (i <= n),  new s_{n+j} = old s_j
    coev(f): new t_j = old t_j        (j <= n),  new t_{n+j} = old s_{m+1-j}
    dual(f): new s_i = old t_{n+1-i},            new t_j = old s_{m+1-j}

so dual reverses both boundary rows, and cup_n = ev(id_n) pairs
s_{n+1-j} with s_{n+j} (nested arcs), cap_n = coev(id_n) pairs t_j
with t_{2n+1-j}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .pairing import (
    Pairing,
    PairingError,
    all_pairings,
    compose_pairings_detailed,
    make_pairing,
)


class ArityMismatch(ValueError):
    pass


class WordSyntaxError(ValueError):
    pass


_LABEL_RE = re.compile(r"^([st])([1-9][0-9]*)$")


def src(i: int) -> str:
    return f"s{i}"


def tgt(j: int) -> str:
    return f"t{j}"


@lru_cache(maxsize=None)
def boundary_key(label: str):
    mo = _LABEL_RE.match(label)
    if mo is None:
        raise PairingError(f"not a boundary label: {label!r}")
    return (0 if mo.group(1) == "s" else 1, int(mo.group(2)))


@lru_cache(maxsize=None)
def _split(label: str):
    mo = _LABEL_RE.match(label)
    return mo.group(1), int(mo.group(2))


@dataclass(frozen=True)
class BrauerDiagram:
    m: int
    n: int
    pairs: tuple  # tuple of (a, b) with boundary_key(a) < boundary_key(b)
    closed: int = 0

    def partner(self) -> dict:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out

    def pairing(self) -> Pairing:
        carrier = [src(i) for i in range(1, self.m + 1)]
        carrier += [tgt(j) for j in range(1, self.n + 1)]
        return make_pairing(carrier, self.pairs)


def make_diagram(m: int, n: int, pairs, closed: int = 0) -> BrauerDiagram:
    if m < 0 or n < 0 or closed < 0:
        raise ArityMismatch(f"negative arity or closed count: {(m, n, closed)!r}")
    pairs = list(pairs)
    carrier = [src(i) for i in range(1, m + 1)] + [tgt(j) for j in range(1, n + 1)]
    make_pairing(carrier, pairs)  # validation only
    return _diagram(m, n, pairs, closed)


def _diagram(m: int, n: int, pairs, closed: int) -> BrauerDiagram:
    # the one pair normaliser: each pair in boundary order, pairs sorted
    # by their first label; the caller guarantees pairs partition the boundary
    norm = []
    for a, b in pairs:
        if boundary_key(a) > boundary_key(b):
            a, b = b, a
        norm.append((a, b))
    norm.sort(key=lambda ab: boundary_key(ab[0]))
    return BrauerDiagram(m, n, tuple(norm), closed)


def identity(n: int) -> BrauerDiagram:
    return make_diagram(n, n, [(src(i), tgt(i)) for i in range(1, n + 1)])


def from_permutation(sigma) -> BrauerDiagram:
    images = list(sigma)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ArityMismatch(f"not a permutation of 1..{n}: {images!r}")
    return make_diagram(n, n, [(src(i), tgt(images[i - 1])) for i in range(1, n + 1)])


def sigma_2() -> BrauerDiagram:
    return from_permutation((2, 1))


def cup() -> BrauerDiagram:
    return make_diagram(2, 0, [(src(1), src(2))])


def cap() -> BrauerDiagram:
    return make_diagram(0, 2, [(tgt(1), tgt(2))])


def compose_detailed(f: BrauerDiagram, g: BrauerDiagram):
    """Stack g below f.  Returns (diagram, seam cycles).

    Each seam cycle is reported as a tuple of middle-row indices i
    (the identified points t^f_i = s^g_i) in traversal order.
    """
    if f.n != g.m:
        raise ArityMismatch(f"cannot stack {f.m}->{f.n} onto {g.m}->{g.n}")
    # transient pairings built from already-validated diagrams, so raw
    # construction is safe; only carrier membership and partner are used
    top = Pairing(
        tuple([("src", i) for i in range(1, f.m + 1)]
              + [("mid", i) for i in range(1, f.n + 1)]),
        tuple((_relabel_top(a), _relabel_top(b)) for a, b in f.pairs),
    )
    bot = Pairing(
        tuple([("mid", i) for i in range(1, g.m + 1)]
              + [("tgt", j) for j in range(1, g.n + 1)]),
        tuple((_relabel_bot(a), _relabel_bot(b)) for a, b in g.pairs),
    )
    shared = [("mid", i) for i in range(1, f.n + 1)]
    res, cycles = compose_pairings_detailed(top, bot, shared)
    pairs = [(_unrelabel(a), _unrelabel(b)) for a, b in res.pairs]
    out = _diagram(f.m, g.n, pairs, f.closed + g.closed + len(cycles))
    return out, tuple(tuple(i for _, i in cyc) for cyc in cycles)


def compose(f: BrauerDiagram, g: BrauerDiagram) -> BrauerDiagram:
    return compose_detailed(f, g)[0]


def _relabel_top(label):
    kind, i = _split(label)
    return ("src", i) if kind == "s" else ("mid", i)


def _relabel_bot(label):
    kind, i = _split(label)
    return ("mid", i) if kind == "s" else ("tgt", i)


def _unrelabel(token):
    side, i = token
    return src(i) if side == "src" else tgt(i)


def tensor(f: BrauerDiagram, g: BrauerDiagram) -> BrauerDiagram:
    def shift(label):
        kind, i = _split(label)
        return src(i + f.m) if kind == "s" else tgt(i + f.n)

    pairs = list(f.pairs) + [(shift(a), shift(b)) for a, b in g.pairs]
    return _diagram(f.m + g.m, f.n + g.n, pairs, f.closed + g.closed)


def _relabel_diagram(f: BrauerDiagram, m: int, n: int, move) -> BrauerDiagram:
    # move is a bijection of boundaries, so the result stays a partition
    pairs = [(move(a, f.m, f.n), move(b, f.m, f.n)) for a, b in f.pairs]
    return _diagram(m, n, pairs, f.closed)


# the boundary moves of the compact closed structure: where a label of a
# diagram m -> n lands, as in the module docstring; coloured diagrams
# move their colours with the same functions


def ev_move(label: str, m: int, n: int) -> str:
    kind, i = _split(label)
    return src(n + 1 - i) if kind == "t" else src(n + i)


def coev_move(label: str, m: int, n: int) -> str:
    kind, i = _split(label)
    return tgt(i) if kind == "t" else tgt(n + (m + 1 - i))


def dual_move(label: str, m: int, n: int) -> str:
    kind, i = _split(label)
    return src(n + 1 - i) if kind == "t" else tgt(m + 1 - i)


def ev(f: BrauerDiagram) -> BrauerDiagram:
    return _relabel_diagram(f, f.n + f.m, 0, ev_move)


def coev(f: BrauerDiagram) -> BrauerDiagram:
    return _relabel_diagram(f, 0, f.n + f.m, coev_move)


def dual(f: BrauerDiagram) -> BrauerDiagram:
    return _relabel_diagram(f, f.n, f.m, dual_move)


def cup_n(n: int) -> BrauerDiagram:
    return ev(identity(n))


def cap_n(n: int) -> BrauerDiagram:
    return coev(identity(n))


def is_open(f: BrauerDiagram) -> bool:
    return f.closed == 0


def is_downward(f: BrauerDiagram) -> bool:
    if f.closed:
        return False
    return all(
        not (a.startswith("t") and b.startswith("t")) for a, b in f.pairs
    )


def is_upward(f: BrauerDiagram) -> bool:
    return is_downward(dual(f))


def boundary_cospan(f: BrauerDiagram):
    sources = [src(i) for i in range(1, f.m + 1)]
    targets = [tgt(j) for j in range(1, f.n + 1)]
    components = list(f.pairs)
    return sources, targets, components, f.closed


def open_diagrams(m: int, n: int):
    """All open diagrams m -> n, (m+n-1)!! of them when m+n is even."""
    labels = [src(i) for i in range(1, m + 1)] + [tgt(j) for j in range(1, n + 1)]
    for p in all_pairings(labels):
        yield _diagram(m, n, p.pairs, 0)


# ---------------------------------------------------------------------------
# generator words
#
# A word is a list of slices read top to bottom; a slice is a tensor
# list of generator tokens.  Text form: "+" tensors within a slice,
# ";" separates slices, e.g. "id_1 + cup ; cap + id_1".  The layered
# normal form produced by factor_generators is: one slice of caps
# (innermost first, by least target index, closed components last),
# then adjacent-transposition slices, then one slice of cups.

_GEN_RE = re.compile(r"^(id|cup|cap|sigma)(?:_([0-9]+))?$")


def generator_diagram(token: str) -> BrauerDiagram:
    mo = _GEN_RE.match(token)
    if mo is None:
        raise WordSyntaxError(f"unknown generator: {token!r}")
    name, arg = mo.group(1), mo.group(2)
    if name == "id":
        return identity(int(arg if arg is not None else 1))
    if name == "sigma":
        if arg not in (None, "2"):
            raise WordSyntaxError("only sigma_2 is a generator")
        return sigma_2()
    k = int(arg) if arg is not None else 1
    if name == "cup":
        return cup_n(k)
    return cap_n(k)


def evaluate_word(slices) -> BrauerDiagram:
    if not slices:
        raise WordSyntaxError("empty word")
    result = None
    for slice_tokens in slices:
        if not slice_tokens:
            raise WordSyntaxError("empty slice")
        layer = generator_diagram(slice_tokens[0])
        for token in slice_tokens[1:]:
            layer = tensor(layer, generator_diagram(token))
        result = layer if result is None else compose(result, layer)
    return result


def parse_word(text: str):
    """Recursive descent over  word := slice (';' slice)*,
    slice := gen ('+' gen)*.  ';' binds looser than '+'."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def eat():
        tok = peek()
        pos[0] += 1
        return tok

    def parse_gen():
        tok = eat()
        if tok is None or tok in ("+", ";"):
            raise WordSyntaxError(f"expected generator, got {tok!r}")
        if _GEN_RE.match(tok) is None:
            raise WordSyntaxError(f"unknown generator: {tok!r}")
        return tok

    def parse_slice():
        gens = [parse_gen()]
        while peek() == "+":
            eat()
            gens.append(parse_gen())
        return gens

    slices = [parse_slice()]
    while peek() == ";":
        eat()
        slices.append(parse_slice())
    if peek() is not None:
        raise WordSyntaxError(f"trailing input at {peek()!r}")
    return slices


def _tokenize(text: str):
    out = []
    for chunk in re.findall(r"[A-Za-z_0-9]+|[+;]|\S", text):
        if chunk not in "+;" and not re.match(r"^[A-Za-z_0-9]+$", chunk):
            raise WordSyntaxError(f"bad character {chunk!r}")
        out.append(chunk)
    return out


def format_word(slices) -> str:
    return " ; ".join(" + ".join(s) for s in slices)


def factor_generators(f: BrauerDiagram):
    """Layered normal form over {id_1, sigma_2, cup, cap}.

    evaluate_word(factor_generators(f)) == f, closed count included.
    """
    part = f.partner()
    ss, tt, st = [], [], {}
    for a, b in f.pairs:
        ka, kb = _split(a), _split(b)
        if ka[0] == "s" and kb[0] == "s":
            ss.append((ka[1], kb[1]))
        elif ka[0] == "t" and kb[0] == "t":
            tt.append((ka[1], kb[1]))
        else:
            st[kb[1]] = ka[1]  # target index <- source index
    ss.sort()
    tt.sort()
    a_cnt, b_cnt, k_cnt = len(ss), len(tt), f.closed

    slices = []
    tokens = [("strand", ("s", i)) for i in range(1, f.m + 1)]
    if b_cnt + k_cnt:
        slices.append(["id_1"] * f.m + ["cap"] * (b_cnt + k_cnt))
        for r, (p, q) in enumerate(tt):
            tokens.append(("strand", ("tt", r, 0)))
            tokens.append(("strand", ("tt", r, 1)))
        for r in range(k_cnt):
            tokens.append(("strand", ("bub", r, 0)))
            tokens.append(("strand", ("bub", r, 1)))

    # final position of every strand: cup pairs first, bubbles, then targets
    pos = {}
    nxt = 0
    for i, j in ss:
        pos[("s", i)] = nxt
        pos[("s", j)] = nxt + 1
        nxt += 2
    for r in range(k_cnt):
        pos[("bub", r, 0)] = nxt
        pos[("bub", r, 1)] = nxt + 1
        nxt += 2
    tt_leg = {}
    for r, (p, q) in enumerate(tt):
        tt_leg[p] = ("tt", r, 0)
        tt_leg[q] = ("tt", r, 1)
    for j in range(1, f.n + 1):
        pos[("s", st[j]) if j in st else tt_leg[j]] = nxt
        nxt += 1

    order = [pos[t[1]] for t in tokens]
    while True:
        swaps = []
        x = 0
        while x + 1 < len(order):
            if order[x] > order[x + 1]:
                swaps.append(x)
                order[x], order[x + 1] = order[x + 1], order[x]
                x += 2
            else:
                x += 1
        if not swaps:
            break
        layer = []
        x = 0
        while x < len(order):
            if x in swaps:
                layer.append("sigma_2")
                x += 2
            else:
                layer.append("id_1")
                x += 1
        slices.append(layer)

    if a_cnt + k_cnt:
        slices.append(["cup"] * (a_cnt + k_cnt) + ["id_1"] * f.n)
    if not slices:
        slices = [["id_1"] * f.m] if f.m else [["id_0"]]
    return slices


def diagram_to_json(f: BrauerDiagram) -> dict:
    return {
        "m": f.m,
        "n": f.n,
        "pairs": [[a, b] for a, b in f.pairs],
        "closed": f.closed,
    }


def diagram_from_json(obj: dict) -> BrauerDiagram:
    try:
        m, n = int(obj["m"]), int(obj["n"])
        pairs = [(str(a), str(b)) for a, b in obj["pairs"]]
        closed = int(obj.get("closed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise PairingError(f"not a Brauer diagram object: {obj!r}") from exc
    return make_diagram(m, n, pairs, closed)
