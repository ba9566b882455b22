"""The monochrome Brauer category BD.

A morphism m -> n is a pairing on the boundary set
{s_1..s_m} ⊍ {t_1..t_n} together with a count of closed components
(bubbles).  Diagrams are drawn top to bottom: sources on the top row,
targets on the bottom row, so compose(f, g) stacks g below f and is
the categorical composite g ∘ f.  Vertical composition identifies
t^f_i with s^g_i and traces the resulting chains; cycles trapped in
the middle row increment the closed count.

A diagram is stored over integer positions: s_i is position i - 1 and
t_j is position m + j - 1, so sources come first, then targets, in
boundary order.  `partner` is the flat tuple over positions 0..m+n-1
whose entry p is the position joined to p.  Two diagrams are equal iff
their arities, partner tuples and closed counts agree; BD(m, n) is a
plain set of such data, no quotient involved.  Every operation below
is arithmetic on positions.

The boundary labels are the strings "s1".."sm" and "t1".."tn".  They
appear only at the edges: make_diagram, the JSON reader and
open_diagrams (which enumerates through pairing.all_pairings) parse
them through boundary_key, `pairs`, boundary_cospan and the JSON writer
print them, and error messages name them.  `pairs` lists each pair
once, in boundary order, which orders by row then by numeric index (so
"s10" comes after "s2").

The compact closed structure moves boundary points:

    ev(f):   new s_i = old t_{n+1-i}  (i <= n),  new s_{n+j} = old s_j
    coev(f): new t_j = old t_j        (j <= n),  new t_{n+j} = old s_{m+1-j}
    dual(f): new s_i = old t_{n+1-i},            new t_j = old s_{m+1-j}

so dual reverses the position order, and cup_n = ev(id_n) pairs
s_{n+1-j} with s_{n+j} (nested arcs), cap_n = coev(id_n) pairs t_j
with t_{2n+1-j}.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .pairing import PairingError, UncoveredLabel, all_pairings, make_pairing


class ArityMismatch(ValueError):
    pass


class WordSyntaxError(ValueError):
    pass


_LABEL_RE = re.compile(r"^([st])([1-9][0-9]*)$")


def src(i: int) -> str:
    return f"s{i}"


def tgt(j: int) -> str:
    return f"t{j}"


def label(p: int, m: int) -> str:
    """The boundary label of position p on a diagram with m sources."""
    return src(p + 1) if p < m else tgt(p - m + 1)


def labels(m: int, n: int) -> list:
    return [label(p, m) for p in range(m + n)]


@lru_cache(maxsize=4096)
def boundary_key(label: str):
    """(row, index) of a boundary label: row 0 for sources, 1 for targets."""
    mo = _LABEL_RE.match(label)
    if mo is None:
        raise PairingError(f"not a boundary label: {label!r}")
    return (0 if mo.group(1) == "s" else 1, int(mo.group(2)))


def position(label: str, m: int, n: int) -> int:
    """The position of a boundary label on an m -> n diagram; KeyError
    when a well-formed label names no point of it."""
    row, i = boundary_key(label)
    if not 1 <= i <= (n if row else m):
        raise KeyError(label)
    return i - 1 + (m if row else 0)


@dataclass(frozen=True)
class BrauerDiagram:
    m: int
    n: int
    partner: tuple  # partner[p] is the position joined to position p
    closed: int = 0

    @property
    def pairs(self) -> tuple:
        """The pairs as label tuples, each and all in boundary order."""
        m = self.m
        return tuple((label(p, m), label(q, m))
                     for p, q in enumerate(self.partner) if p < q)


def make_diagram(m: int, n: int, pairs, closed: int = 0) -> BrauerDiagram:
    if m < 0 or n < 0 or closed < 0:
        raise ArityMismatch(f"negative arity or closed count: {(m, n, closed)!r}")
    pairs = list(pairs)
    if m + n > 2 * len(pairs):  # refused before labels(m, n) is built for a huge arity
        raise UncoveredLabel(f"{len(pairs)} pairs cannot cover the {m + n} points of {m}->{n}")
    make_pairing(labels(m, n), pairs)  # validation only
    return _from_pairs(m, n, pairs, closed)


def _from_pairs(m: int, n: int, pairs, closed: int = 0) -> BrauerDiagram:
    # label pairs known to partition the boundary of m -> n
    partner = [0] * (m + n)
    for a, b in pairs:
        p, q = position(a, m, n), position(b, m, n)
        partner[p], partner[q] = q, p
    return BrauerDiagram(m, n, tuple(partner), closed)


def identity(n: int) -> BrauerDiagram:
    return BrauerDiagram(n, n, tuple(range(n, 2 * n)) + tuple(range(n)))


def from_permutation(sigma) -> BrauerDiagram:
    images = list(sigma)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ArityMismatch(f"not a permutation of 1..{n}: {images!r}")
    partner = [n + j - 1 for j in images] + [0] * n
    for i, j in enumerate(images):
        partner[n + j - 1] = i
    return BrauerDiagram(n, n, tuple(partner))


def sigma_2() -> BrauerDiagram:
    return from_permutation((2, 1))


def cup() -> BrauerDiagram:
    return BrauerDiagram(2, 0, (1, 0))


def cap() -> BrauerDiagram:
    return BrauerDiagram(0, 2, (1, 0))


def compose_detailed(f: BrauerDiagram, g: BrauerDiagram):
    """Stack g below f.  Returns (diagram, seam cycles).

    Each seam cycle is reported as a tuple of middle-row indices i
    (the identified points t^f_i = s^g_i, 1-based) in traversal order,
    starting at its least index and stepping through f first; the
    cycles are listed by their least index.
    """
    m, k, n = f.m, f.n, g.n
    if k != g.m:
        raise ArityMismatch(f"cannot stack {m}->{k} onto {g.m}->{n}")
    pf, pg = f.partner, g.partner
    out = [-1] * (m + n)
    seen = [False] * k  # seam points on the strands walked so far
    # seam point i is f's position m + i and g's position i; the walk
    # holds a position q of f (in_f) or of g until it leaves the seam
    for start in range(m + n):
        if out[start] >= 0:
            continue
        in_f = start < m
        q = pf[start] if in_f else pg[k + start - m]
        while q >= m if in_f else q < k:
            i = q - m if in_f else q
            seen[i] = True
            q = pg[i] if in_f else pf[m + i]
            in_f = not in_f
        end = q if in_f else m + q - k
        out[start], out[end] = end, start
    cycles = []
    for i in range(k):
        if seen[i]:
            continue
        cyc, j, in_f = [i + 1], pf[m + i] - m, False
        while j != i:
            seen[j] = True
            cyc.append(j + 1)
            j = pf[m + j] - m if in_f else pg[j]
            in_f = not in_f
        cycles.append(tuple(cyc))
    closed = f.closed + g.closed + len(cycles)
    return BrauerDiagram(m, n, tuple(out), closed), tuple(cycles)


def compose(f: BrauerDiagram, g: BrauerDiagram) -> BrauerDiagram:
    return compose_detailed(f, g)[0]


def tensor(f: BrauerDiagram, g: BrauerDiagram) -> BrauerDiagram:
    # f's sources, g's sources, f's targets, g's targets
    fm, gm, fn = f.m, g.m, f.n
    pf, pg = f.partner, g.partner
    partner = ([q + gm if q >= fm else q for q in pf[:fm]]
               + [q + fn + fm if q >= gm else q + fm for q in pg[:gm]]
               + [q + gm if q >= fm else q for q in pf[fm:]]
               + [q + fn + fm if q >= gm else q + fm for q in pg[gm:]])
    return BrauerDiagram(fm + gm, fn + g.n, tuple(partner), f.closed + g.closed)


# the boundary moves of the compact closed structure: the new position
# of position p of a diagram m -> n, as in the module docstring;
# coloured diagrams move their colours with the same functions


def ev_move(p: int, m: int, n: int) -> int:
    return n + p if p < m else m + n - 1 - p


def coev_move(p: int, m: int, n: int) -> int:
    return p - m if p >= m else m + n - 1 - p


def dual_move(p: int, m: int, n: int) -> int:
    return m + n - 1 - p


def moved(values, move, m: int, n: int) -> tuple:
    """values over the positions of an m -> n diagram, each carried to
    its new position by move."""
    out = [None] * (m + n)
    for p, v in enumerate(values):
        out[move(p, m, n)] = v
    return tuple(out)


def _relabel_diagram(f: BrauerDiagram, m: int, n: int, move) -> BrauerDiagram:
    # move is a bijection of positions, so partners move with their points
    partner = moved([move(q, f.m, f.n) for q in f.partner], move, f.m, f.n)
    return BrauerDiagram(m, n, partner, f.closed)


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
    # no pair joins two targets
    return not f.closed and all(q < f.m for q in f.partner[f.m:])


def is_upward(f: BrauerDiagram) -> bool:
    return is_downward(dual(f))


def boundary_cospan(f: BrauerDiagram):
    return labels(f.m, 0), labels(0, f.n), list(f.pairs), f.closed


def open_diagrams(m: int, n: int):
    """All open diagrams m -> n, (m+n-1)!! of them when m+n is even, in
    the order all_pairings lists the pairings of their labels."""
    for p in all_pairings(labels(m, n)):
        yield _from_pairs(m, n, p.pairs)


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
    """word := slice (';' slice)*,  slice := gen ('+' gen)*, so ';'
    binds looser than '+'; read token by token, generators and
    operators alternating."""
    slices, want_gen = [[]], True
    for tok in _tokenize(text) + [None]:
        if want_gen:
            if tok is None or tok in ("+", ";"):
                raise WordSyntaxError(f"expected generator, got {tok!r}")
            if _GEN_RE.match(tok) is None:
                raise WordSyntaxError(f"unknown generator: {tok!r}")
            slices[-1].append(tok)
        elif tok == ";":
            slices.append([])
        elif tok not in ("+", None):
            raise WordSyntaxError(f"trailing input at {tok!r}")
        want_gen = not want_gen
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
    m, n = f.m, f.n
    cups, tt, st = [], [], {}
    for p, q in enumerate(f.partner):
        if p < q:
            if q < m:
                cups += [p, q]
            elif p >= m:
                tt.append((p - m, q - m))
            else:
                st[q - m] = p  # target index <- source position
    caps = len(tt) + f.closed

    # strands below the caps: the sources, then the legs of each
    # target-target cap, then of each bubble; their final places: the
    # cup legs, the bubbles, then the strand of each target in turn
    leg = {}
    for r, (j1, j2) in enumerate(tt):
        leg[j1], leg[j2] = m + 2 * r, m + 2 * r + 1
    final = cups + list(range(m + 2 * len(tt), m + 2 * caps))
    final += [st[j] if j in st else leg[j] for j in range(n)]
    order = [0] * len(final)
    for x, strand in enumerate(final):
        order[strand] = x

    slices = [["id_1"] * m + ["cap"] * caps] if caps else []
    while True:  # odd-even transposition layers
        layer, x = [], 0
        while x < len(order):
            if x + 1 < len(order) and order[x] > order[x + 1]:
                order[x], order[x + 1] = order[x + 1], order[x]
                layer.append("sigma_2")
                x += 2
            else:
                layer.append("id_1")
                x += 1
        if "sigma_2" not in layer:
            break
        slices.append(layer)

    if cups or f.closed:
        slices.append(["cup"] * (len(cups) // 2 + f.closed) + ["id_1"] * n)
    if not slices:
        slices = [["id_1"] * m] if m else [["id_0"]]
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
