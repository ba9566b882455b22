"""Involutive palettes and coloured Brauer diagrams.

A palette is a finite colour set with an involution omega; fixed
points are allowed (the one-colour palette needs one).  A coloured
diagram decorates every boundary label with a colour so that paired
endpoints carry omega-swapped colours, and carries one omega-orbit
per closed component.  Types read inputs through omega:

    input_type  = omega(colour(s_1)), ..., omega(colour(s_m))
    output_type = colour(t_1), ..., colour(t_n)

so the typed identity on a word sends the word to itself, and a cap
on word w has type () -> w + reverse(omega w).  Composition requires
output_type(f) == input_type(g) as ordered lists; a cycle trapped at
the seam becomes a bubble coloured by the omega-orbit shared by all
its seam strands.  Bubbles are a multiset, stored as a sorted tuple
of orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

from . import brauer
from .brauer import BrauerDiagram, boundary_key, compose_detailed, make_diagram, src, tgt
from .labels import label_key


class ColouringError(ValueError):
    pass


class TypeMismatch(ColouringError):
    pass


class PaletteMismatch(ColouringError):
    pass


class IncoherentCycleColour(ColouringError):
    pass


class NotOriented(ColouringError):
    pass


@dataclass(frozen=True)
class Palette:
    colours: tuple
    swaps: tuple  # 2-cycles of omega as (a, b) pairs, a < b; fixed points omitted

    @cached_property
    def _omega(self) -> dict:
        out = {c: c for c in self.colours}
        for a, b in self.swaps:
            out[a] = b
            out[b] = a
        return out

    def omega(self, colour):
        if colour not in self._omega:
            raise PaletteMismatch(f"colour {colour!r} not in palette")
        return self._omega[colour]

    def orbit(self, colour):
        image = self.omega(colour)
        if image == colour:
            return (colour,)
        pair = sorted((colour, image), key=label_key)
        return tuple(pair)

    @cached_property
    def orbits(self) -> tuple:
        seen = []
        for c in self.colours:
            orb = self.orbit(c)
            if orb not in seen:
                seen.append(orb)
        return tuple(sorted(seen, key=label_key))


def make_palette(colours, swaps=()) -> Palette:
    cols = tuple(sorted(colours, key=label_key))
    if len(set(cols)) != len(cols):
        raise PaletteMismatch(f"duplicate colours: {colours!r}")
    seen = set()
    norm = []
    for a, b in swaps:
        if a not in cols or b not in cols:
            raise PaletteMismatch(f"swap {(a, b)!r} leaves the palette")
        if a == b:
            continue  # listing a fixed point is harmless
        if a in seen or b in seen:
            raise PaletteMismatch(f"colour swapped twice: {(a, b)!r}")
        seen.update((a, b))
        norm.append(tuple(sorted((a, b), key=label_key)))
    return Palette(cols, tuple(sorted(norm, key=label_key)))


def monochrome_palette(colour="c") -> Palette:
    return make_palette([colour])


def oriented_palette() -> Palette:
    return make_palette(["+", "-"], [("+", "-")])


@dataclass(frozen=True)
class ColouredBrauerDiagram:
    palette: Palette
    base: BrauerDiagram
    boundary_colour: tuple  # ((label, colour), ...) sorted by boundary position
    bubbles: tuple  # sorted tuple of omega-orbits

    @cached_property
    def colour_map(self) -> dict:
        return dict(self.boundary_colour)

    def colour(self, label):
        return self.colour_map[label]


def make_coloured(palette: Palette, base: BrauerDiagram, boundary_colour, bubbles=()) -> ColouredBrauerDiagram:
    cmap = dict(boundary_colour)
    labels = [src(i) for i in range(1, base.m + 1)] + [tgt(j) for j in range(1, base.n + 1)]
    if set(cmap) != set(labels):
        raise ColouringError(
            f"boundary colouring covers {sorted(cmap)!r}, diagram needs {labels!r}"
        )
    for label, colour in cmap.items():
        if colour not in palette._omega:
            raise PaletteMismatch(f"colour {colour!r} at {label} not in palette")
    for a, b in base.pairs:
        if cmap[b] != palette.omega(cmap[a]):
            raise ColouringError(
                f"pair ({a},{b}) coloured ({cmap[a]!r},{cmap[b]!r}), not omega-swapped"
            )
    orbs = [_as_orbit(palette, entry) for entry in bubbles]
    if len(orbs) != base.closed:
        raise ColouringError(
            f"{base.closed} closed components but {len(orbs)} bubble colours"
        )
    ordered = tuple((lbl, cmap[lbl]) for lbl in labels)
    return ColouredBrauerDiagram(palette, base, ordered, tuple(sorted(orbs, key=label_key)))


def _as_orbit(palette: Palette, entry):
    # accept a bare colour or an orbit tuple; colour reading wins on clash
    if entry in palette._omega:
        return palette.orbit(entry)
    if isinstance(entry, tuple) and entry and all(c in palette._omega for c in entry):
        orb = palette.orbit(entry[0])
        if tuple(entry) != orb:
            raise PaletteMismatch(f"{entry!r} is not an omega-orbit")
        return orb
    raise PaletteMismatch(f"{entry!r} is neither a colour nor an orbit")


def typed_boundary(d: ColouredBrauerDiagram):
    inp = tuple(d.palette.omega(d.colour(src(i))) for i in range(1, d.base.m + 1))
    out = tuple(d.colour(tgt(j)) for j in range(1, d.base.n + 1))
    return inp, out


def input_type(d: ColouredBrauerDiagram) -> tuple:
    return typed_boundary(d)[0]


def output_type(d: ColouredBrauerDiagram) -> tuple:
    return typed_boundary(d)[1]


def coloured_identity(palette: Palette, word) -> ColouredBrauerDiagram:
    word = tuple(word)
    colours = {}
    for i, c in enumerate(word, start=1):
        colours[src(i)] = palette.omega(c)
        colours[tgt(i)] = c
    return make_coloured(palette, brauer.identity(len(word)), colours)


def coloured_permutation(palette: Palette, sigma, word) -> ColouredBrauerDiagram:
    """Permutation diagram with input type word; strand i exits at sigma[i-1]."""
    word = tuple(word)
    images = list(sigma)
    colours = {}
    for i, c in enumerate(word, start=1):
        colours[src(i)] = palette.omega(c)
        colours[tgt(images[i - 1])] = c
    return make_coloured(palette, brauer.from_permutation(images), colours)


def compose_coloured(f: ColouredBrauerDiagram, g: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    if f.palette != g.palette:
        raise PaletteMismatch("composing diagrams over different palettes")
    mid_f, mid_g = output_type(f), input_type(g)
    if mid_f != mid_g:
        raise TypeMismatch(f"output type {mid_f!r} does not match input type {mid_g!r}")
    base, cycles = compose_detailed(f.base, g.base)
    fmap, gmap = f.colour_map, g.colour_map
    ordered = tuple((lbl, fmap[lbl]) for lbl in (src(i) for i in range(1, base.m + 1)))
    ordered += tuple((lbl, gmap[lbl]) for lbl in (tgt(j) for j in range(1, base.n + 1)))
    bubbles = list(f.bubbles) + list(g.bubbles)
    for cyc in cycles:
        orbs = {f.palette.orbit(fmap[tgt(i)]) for i in cyc}
        if len(orbs) != 1:
            raise IncoherentCycleColour(
                f"seam cycle {cyc!r} crosses orbits {sorted(orbs, key=label_key)!r}"
            )
        bubbles.append(orbs.pop())
    # seam matching transports the omega constraint, no revalidation needed
    return ColouredBrauerDiagram(f.palette, base, ordered,
                                 tuple(sorted(bubbles, key=label_key)))


def tensor_coloured(f: ColouredBrauerDiagram, g: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    if f.palette != g.palette:
        raise PaletteMismatch("tensoring diagrams over different palettes")
    base = brauer.tensor(f.base, g.base)
    # boundary_colour tuples are stored in boundary order, so the juxtaposed
    # colouring is a shift-and-splice; both factors are already valid
    fs, ft = f.boundary_colour[:f.base.m], f.boundary_colour[f.base.m:]
    gs, gt = g.boundary_colour[:g.base.m], g.boundary_colour[g.base.m:]
    ordered = fs + tuple((src(i + f.base.m), c) for i, (_, c) in enumerate(gs, start=1))
    ordered += ft + tuple((tgt(j + f.base.n), c) for j, (_, c) in enumerate(gt, start=1))
    bubbles = tuple(sorted(f.bubbles + g.bubbles, key=label_key))
    return ColouredBrauerDiagram(f.palette, base, ordered, bubbles)


def _transport(f: ColouredBrauerDiagram, new_base: BrauerDiagram, move) -> ColouredBrauerDiagram:
    m, n = f.base.m, f.base.n
    colours = {move(label, m, n): colour for label, colour in f.boundary_colour}
    return make_coloured(f.palette, new_base, colours, f.bubbles)


def ev_coloured(f: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    return _transport(f, brauer.ev(f.base), brauer.ev_move)


def coev_coloured(f: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    return _transport(f, brauer.coev(f.base), brauer.coev_move)


def dual_coloured(f: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    return _transport(f, brauer.dual(f.base), brauer.dual_move)


def reversed_omega(palette: Palette, word) -> tuple:
    return tuple(palette.omega(c) for c in reversed(tuple(word)))


def cup_coloured(palette: Palette, word) -> ColouredBrauerDiagram:
    """Type reverse(omega word) + word -> ()."""
    return ev_coloured(coloured_identity(palette, word))


def cap_coloured(palette: Palette, word) -> ColouredBrauerDiagram:
    """Type () -> word + reverse(omega word)."""
    return coev_coloured(coloured_identity(palette, word))


def forget_colours(d: ColouredBrauerDiagram) -> BrauerDiagram:
    return d.base


def pushforward(d: ColouredBrauerDiagram, target: Palette, colour_map) -> ColouredBrauerDiagram:
    """Recolour along an involution-preserving map of palettes."""
    phi = dict(colour_map)
    for c in d.palette.colours:
        if c not in phi:
            raise PaletteMismatch(f"colour {c!r} has no image")
        if phi[c] not in target._omega:
            raise PaletteMismatch(f"image {phi[c]!r} not in target palette")
    for c in d.palette.colours:
        if phi[d.palette.omega(c)] != target.omega(phi[c]):
            raise PaletteMismatch(f"map does not intertwine the involutions at {c!r}")
    colours = {label: phi[colour] for label, colour in d.boundary_colour}
    bubbles = [target.orbit(phi[orb[0]]) for orb in d.bubbles]
    return make_coloured(target, d.base, colours, bubbles)


def _stable_sign_order(word):
    # positions of the word, all "+" before "-", stable within each sign
    return sorted(range(len(word)), key=lambda i: (0 if word[i] == "+" else 1, i))


def to_walled_normal_form(f: ColouredBrauerDiagram):
    """Shuffle both boundaries of an oriented diagram to ++..-- form.

    Returns ((source_shuffle, target_shuffle), core, wall).  The
    shuffles are 1-indexed permutation images; the wall is the
    (plus, minus, plus, minus) count quadruple and the core is walled
    for it.  Cores compose strictly: the target shuffle of f cancels
    the source shuffle of any g composed after it.
    """
    if f.palette != oriented_palette():
        raise NotOriented(f"palette {f.palette.colours!r} is not the oriented one")
    c_word, d_word = typed_boundary(f)
    order_src = _stable_sign_order(c_word)
    order_tgt = _stable_sign_order(d_word)
    sorted_src = tuple(c_word[i] for i in order_src)
    src_images = tuple(i + 1 for i in order_src)
    inv_tgt = [0] * len(d_word)
    for k, i in enumerate(order_tgt):
        inv_tgt[i] = k + 1
    tgt_images = tuple(inv_tgt)
    before = coloured_permutation(f.palette, src_images, sorted_src)
    after = coloured_permutation(f.palette, tgt_images, d_word)
    core = compose_coloured(compose_coloured(before, f), after)
    wall = (
        sum(1 for c in c_word if c == "+"),
        sum(1 for c in c_word if c == "-"),
        sum(1 for c in d_word if c == "+"),
        sum(1 for c in d_word if c == "-"),
    )
    return (src_images, tgt_images), core, wall


def coloured_diagrams(palette: Palette, in_word, out_word, max_closed=0):
    """All coloured diagrams of the given type, bubbles up to max_closed."""
    in_word, out_word = tuple(in_word), tuple(out_word)
    colours = {}
    for i, c in enumerate(in_word, start=1):
        colours[src(i)] = palette.omega(c)
    for j, c in enumerate(out_word, start=1):
        colours[tgt(j)] = c
    for open_d in brauer.open_diagrams(len(in_word), len(out_word)):
        if any(colours[b] != palette.omega(colours[a]) for a, b in open_d.pairs):
            continue
        for k in range(max_closed + 1):
            base = make_diagram(open_d.m, open_d.n, open_d.pairs, k)
            for bubbles in combinations_with_replacement(palette.orbits, k):
                yield make_coloured(palette, base, colours, bubbles)


def palette_to_json(p: Palette) -> dict:
    from .labels import encode_label

    return {
        "colours": [encode_label(c) for c in p.colours],
        "omega": [[encode_label(a), encode_label(b)] for a, b in p.swaps],
    }


def palette_from_json(obj: dict) -> Palette:
    from .labels import decode_label

    try:
        colours = [decode_label(c) for c in obj["colours"]]
        swaps = [(decode_label(a), decode_label(b)) for a, b in obj["omega"]]
    except (KeyError, TypeError) as exc:
        raise PaletteMismatch(f"not a palette object: {obj!r}") from exc
    return make_palette(colours, swaps)


def coloured_to_json(d: ColouredBrauerDiagram) -> dict:
    from .labels import encode_label

    blob = brauer.diagram_to_json(d.base)
    blob["palette"] = palette_to_json(d.palette)
    blob["boundary_colour"] = {label: encode_label(c) for label, c in d.boundary_colour}
    blob["bubbles"] = [[encode_label(c) for c in orb] for orb in d.bubbles]
    return blob


def coloured_from_json(obj: dict) -> ColouredBrauerDiagram:
    from .labels import decode_label

    base = brauer.diagram_from_json(obj)
    try:
        palette = palette_from_json(obj["palette"])
        colours = {label: decode_label(c) for label, c in obj["boundary_colour"].items()}
        bubbles = [tuple(decode_label(c) for c in orb) for orb in obj.get("bubbles", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ColouringError(f"not a coloured diagram object: {obj!r}") from exc
    return make_coloured(palette, base, colours, bubbles)
