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

A coloured diagram stores its boundary colouring as one tuple over the
base diagram's positions (sources first, then targets, as in the brauer
module), so types are slices of it and composition and tensor splice
it.  Boundary labels "s1".."tn" appear only at the edges:
make_coloured and the JSON reader take a label -> colour mapping,
`boundary_colour`, `colour(label)` and the JSON writer give one back,
and error messages name labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

from . import brauer
from .brauer import BrauerDiagram, compose_detailed
from .labels import decode_label, decode_pairs, encode_label, label_key


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

    # composition compares palettes on every call, and one palette object
    # is usually shared; dataclass still generates __hash__ (frozen, eq)
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.colours == other.colours and self.swaps == other.swaps

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
    colours: tuple  # the colour of every position of base
    bubbles: tuple  # sorted tuple of omega-orbits

    @property
    def boundary_colour(self) -> tuple:
        """((label, colour), ...) in boundary order."""
        return tuple(zip(brauer.labels(self.base.m, self.base.n), self.colours))

    def colour(self, label):
        return self.colours[brauer.position(label, self.base.m, self.base.n)]


def make_coloured(palette: Palette, base: BrauerDiagram, boundary_colour, bubbles=()) -> ColouredBrauerDiagram:
    cmap = dict(boundary_colour)
    labels = brauer.labels(base.m, base.n)
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
    return ColouredBrauerDiagram(palette, base, tuple(cmap[lbl] for lbl in labels),
                                 tuple(sorted(orbs, key=label_key)))


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
    return input_type(d), output_type(d)


def input_type(d: ColouredBrauerDiagram) -> tuple:
    omega = d.palette._omega
    return tuple([omega[c] for c in d.colours[:d.base.m]])


def output_type(d: ColouredBrauerDiagram) -> tuple:
    return d.colours[d.base.m:]


def coloured_identity(palette: Palette, word) -> ColouredBrauerDiagram:
    word = tuple(word)
    colours = tuple(palette.omega(c) for c in word) + word
    return ColouredBrauerDiagram(palette, brauer.identity(len(word)), colours, ())


def coloured_permutation(palette: Palette, sigma, word) -> ColouredBrauerDiagram:
    """Permutation diagram with input type word; strand i exits at sigma[i-1]."""
    word = tuple(word)
    base = brauer.from_permutation(sigma)
    if len(word) != base.m:
        raise ColouringError(f"word {word!r} does not fit a permutation of {base.m}")
    # target j carries the colour of the source joined to it
    colours = tuple(palette.omega(c) for c in word) + tuple(word[i] for i in base.partner[base.m:])
    return ColouredBrauerDiagram(palette, base, colours, ())


def compose_coloured(f: ColouredBrauerDiagram, g: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    if f.palette != g.palette:
        raise PaletteMismatch("composing diagrams over different palettes")
    mid_f, mid_g = output_type(f), input_type(g)
    if mid_f != mid_g:
        raise TypeMismatch(f"output type {mid_f!r} does not match input type {mid_g!r}")
    base, cycles = compose_detailed(f.base, g.base)
    fm, fc = f.base.m, f.colours
    bubbles = f.bubbles + g.bubbles
    for cyc in cycles:
        orbs = {f.palette.orbit(fc[fm + i - 1]) for i in cyc}
        if len(orbs) != 1:
            raise IncoherentCycleColour(
                f"seam cycle {cyc!r} crosses orbits {sorted(orbs, key=label_key)!r}"
            )
        bubbles += (orbs.pop(),)
    # seam matching transports the omega constraint, no revalidation needed
    return ColouredBrauerDiagram(f.palette, base, fc[:fm] + g.colours[g.base.m:],
                                 _sorted_bubbles(bubbles))


def _sorted_bubbles(bubbles: tuple) -> tuple:
    return tuple(sorted(bubbles, key=label_key)) if len(bubbles) > 1 else bubbles


def tensor_coloured(f: ColouredBrauerDiagram, g: ColouredBrauerDiagram) -> ColouredBrauerDiagram:
    if f.palette != g.palette:
        raise PaletteMismatch("tensoring diagrams over different palettes")
    base = brauer.tensor(f.base, g.base)
    # both factors are already valid: splice the colours in the order of
    # tensor's positions, sources of f and g, then targets of f and g
    fm, gm, fc, gc = f.base.m, g.base.m, f.colours, g.colours
    colours = fc[:fm] + gc[:gm] + fc[fm:] + gc[gm:]
    return ColouredBrauerDiagram(f.palette, base, colours, _sorted_bubbles(f.bubbles + g.bubbles))


def _transport(f: ColouredBrauerDiagram, new_base: BrauerDiagram, move) -> ColouredBrauerDiagram:
    # the colours move with their points, so pairs stay omega-swapped
    colours = brauer.moved(f.colours, move, f.base.m, f.base.n)
    return ColouredBrauerDiagram(f.palette, new_base, colours, f.bubbles)


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
    # phi intertwines the involutions, so pairs stay omega-swapped
    colours = tuple(phi[c] for c in d.colours)
    bubbles = tuple(target.orbit(phi[orb[0]]) for orb in d.bubbles)
    return ColouredBrauerDiagram(target, d.base, colours, _sorted_bubbles(bubbles))


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
    for c in out_word:
        palette.omega(c)  # PaletteMismatch for a colour outside the palette
    colours = tuple(palette.omega(c) for c in in_word) + out_word
    omega = palette._omega
    for open_d in brauer.open_diagrams(len(in_word), len(out_word)):
        if any(colours[q] != omega[colours[p]] for p, q in enumerate(open_d.partner)):
            continue
        for k in range(max_closed + 1):
            base = BrauerDiagram(open_d.m, open_d.n, open_d.partner, k)
            # palette.orbits is sorted, so each combination is too
            for bubbles in combinations_with_replacement(palette.orbits, k):
                yield ColouredBrauerDiagram(palette, base, colours, bubbles)


def palette_to_json(p: Palette) -> dict:
    return {
        "colours": [encode_label(c) for c in p.colours],
        "omega": [[encode_label(a), encode_label(b)] for a, b in p.swaps],
    }


def palette_from_json(obj: dict) -> Palette:
    try:
        colours = [decode_label(c) for c in obj["colours"]]
        swaps = decode_pairs(obj["omega"])
    except (KeyError, TypeError) as exc:
        raise PaletteMismatch(f"not a palette object: {obj!r}") from exc
    return make_palette(colours, swaps)


def coloured_to_json(d: ColouredBrauerDiagram) -> dict:
    blob = brauer.diagram_to_json(d.base)
    blob["palette"] = palette_to_json(d.palette)
    blob["boundary_colour"] = {label: encode_label(c) for label, c in d.boundary_colour}
    blob["bubbles"] = [[encode_label(c) for c in orb] for orb in d.bubbles]
    return blob


def coloured_from_json(obj: dict) -> ColouredBrauerDiagram:
    base = brauer.diagram_from_json(obj)
    try:
        palette = palette_from_json(obj["palette"])
        colours = {label: decode_label(c) for label, c in obj["boundary_colour"].items()}
        bubbles = [tuple(decode_label(c) for c in orb) for orb in obj.get("bubbles", [])]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ColouringError(f"not a coloured diagram object: {obj!r}") from exc
    return make_coloured(palette, base, colours, bubbles)
