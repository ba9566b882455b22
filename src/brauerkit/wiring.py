"""Wiring-diagram operad and Set-valued circuit algebras.

A wiring diagram is a coloured Brauer diagram whose source boundary
is split into typed blocks; it is an operation with one input slot
per block.  Its profile, the block types and the output word, is its
arity in the operad; every builder stores it with the diagram, since
each already knows it: make_wiring cuts the diagram's input word by
the block sizes, and operad_gamma and sigma_action take it from their
arguments.  operad_gamma substitutes diagrams into slots by tensoring
them side by side and composing into the outer diagram, so the operad
structure is inherited from the monoidal category and its laws hold
on the nose.

Circuit algebras here are Set-valued: finite carriers per colour word
up to an arity bound, plus an action of every wiring diagram within
the bound.  CircuitAlgebra is that pair, with the action a callable;
its act is the one place that checks the palette, the bound and, for
algebras on downward diagrams only, downwardness.  Two subclasses
supply their own action: TableCircuitAlgebra looks it up in
extensional tables, validated complete at load time, and acts on its
listed wirings alone (acts_on says where an algebra acts); the free
algebra on a typed generating set acts symbolically (elements are
shape/generator pairs, the action rewires shapes and concatenates
generators), so it enumerates a carrier only when asked for it.  Free
elements are stored in a canonical form that reorders blocks and
generator entries together; without that identification the
block-symmetry law could not hold.  The form is the least block order
by the shape's own fields (block sizes, colours, partners), then by
the generators.  Carrier enumeration for the free algebra is a
truncation of enumerate_wirings: block count, source arity, and bubble
count are capped, while the action itself stays exact.

A table document is read in one pass over its entries: each distinct
diagram is read once and kept with its input and output words, and each
entry cuts the kept input word by its own blocks, through the same cut
as make_wiring.  TableCircuitAlgebra then sweeps each entry's input
domain once, and refuses a wiring or a row of inputs listed twice.

Derived operations: block juxtaposition, contraction of two omega-dual
boundary positions, and the cap unit.  check_circuit_algebra verifies
the operad-algebra axioms (identity, block equivariance, composition
square) on the instances on whose every wiring the algebra acts
(acts_on), and skips the rest.  The profile of gamma(g; f1..fk) is
the fs' block types side by side with g's output word; acts_on_type
refuses only profiles on none of whose wirings the algebra acts, so
the square passes over a pair whose composite's profile it refuses
before composing it.
check_derived_axioms runs the circuit-operad laws of the axioms module
on the derived operations, relabelling through perm_wiring.  Each check
numbers the elements it meets once, and the laws compare those numbers;
they meet one (operation, arguments) pair many times, so each ⊠, ζ and
relabelling value is worked out once per check, memoised on numbers.
The numbering and the memo are freed when the check returns;
species_from_circuit_algebra applies each operation once per argument
tuple and keeps no memo.  An algebra on
downward diagrams alone has no cap unit, so there it leaves out the
connected unit and its report carries the note "downward only: the
connected unit is not in scope".  species.species_from_circuit_algebra tabulates the same
operations.  Checks run exhaustively when the instance count fits the
budget and fall back to seeded sampling otherwise; the axioms.Report
records mode, seed, and every violation found as a sorted (kind,
detail) pair.  The exhaustive composition square visits its (g, fs)
pairs grouped by g's block types, so that each tensor of arguments is
built once for all the gs that share it, and only for arguments that
some g's kept composite uses; the instances are those of the
pair-by-pair loop, in another order.
"""

from __future__ import annotations

import itertools
import json
import marshal
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache, partial
from math import factorial, prod
from types import SimpleNamespace

from .axioms import CIRCUIT_LAWS, Report, connected_unit, run_laws
from .brauer import BrauerDiagram, is_downward
from .coloured import (
    ColouredBrauerDiagram,
    Palette,
    TypeMismatch,
    PaletteMismatch,
    cap_coloured,
    coloured_diagrams,
    coloured_from_json,
    coloured_identity,
    coloured_permutation,
    coloured_to_json,
    compose_coloured,
    input_type,
    output_type,
    palette_from_json,
    palette_to_json,
    read_coloured,
    tensor_coloured,
)
from .graph import InvalidParameter
from .labels import (decode_label, decode_labels, encode_label, label_key, listed, read_field,
                     read_rows, whole_number)


class BlockMismatch(ValueError):
    pass


class ColourMismatch(ValueError):
    pass


class ArityBoundExceeded(ValueError):
    pass


class MissingActionEntry(ValueError):
    pass


class NotDownward(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


# the most wirings one enumerate_wirings call lists: the tests and the benchmark
# list at most 2,086, `ca free --bound 8 --generator c,c` 22,926 for cccc alone
WIRING_BUDGET = 20_000


@dataclass(frozen=True, slots=True)
class WiringDiagram:
    """A coloured Brauer diagram with its sources cut into blocks.  Each
    builder fills in the profile, block_types and output_word, from what
    it knows; equality, hashing and repr see diagram and block_sizes
    alone.  dataclasses.replace would copy a stale profile: build a
    changed wiring with make_wiring."""

    diagram: ColouredBrauerDiagram
    block_sizes: tuple
    block_types: tuple = field(compare=False, repr=False)
    output_word: tuple = field(compare=False, repr=False)

    @property
    def palette(self) -> Palette:
        return self.diagram.palette


def make_wiring(diagram: ColouredBrauerDiagram, block_sizes) -> WiringDiagram:
    return _cut(_profile(diagram), tuple(int(b) for b in block_sizes))


def _profile(diagram: ColouredBrauerDiagram) -> tuple:
    return diagram, input_type(diagram), output_type(diagram)


def _cut(profile, sizes: tuple) -> WiringDiagram:
    """The wiring of a profiled diagram, (diagram, input word, output
    word), whose input word is cut into blocks of sizes, a tuple of ints."""
    diagram, word, output = profile
    if sizes and min(sizes) < 0:
        raise BlockMismatch(f"negative block size in {sizes!r}")
    if sum(sizes) != len(word):
        raise BlockMismatch(
            f"blocks {sizes!r} sum to {sum(sizes)}, diagram has {len(word)} inputs"
        )
    types, at = [], 0
    for size in sizes:
        types.append(word[at:at + size])
        at += size
    return WiringDiagram(diagram, sizes, tuple(types), output)


def empty_coloured(palette: Palette) -> ColouredBrauerDiagram:
    return ColouredBrauerDiagram(palette, BrauerDiagram(0, 0, ()), (), ())


def identity_wiring(palette: Palette, word) -> WiringDiagram:
    word = tuple(word)
    return make_wiring(coloured_identity(palette, word), (len(word),))


def is_downward_wiring(wd: WiringDiagram) -> bool:
    return is_downward(wd.diagram.base)


def operad_gamma(g: WiringDiagram, fs) -> WiringDiagram:
    fs = list(fs)
    if len(fs) != len(g.block_sizes):
        raise BlockMismatch(f"{len(g.block_sizes)} blocks, {len(fs)} arguments")
    for f, want in zip(fs, g.block_types):
        if f.palette != g.palette:
            raise PaletteMismatch("substituting across palettes")
        if f.output_word != want:
            raise TypeMismatch(f"block expects {want!r}, argument yields {f.output_word!r}")
    # the blocks of the fs cover the composite's sources, as make_wiring checks
    blocks = sum((f.block_sizes for f in fs), ())
    types = sum((f.block_types for f in fs), ())
    inner = _tensor_all(g.palette, [f.diagram for f in fs])
    return WiringDiagram(compose_coloured(inner, g.diagram), blocks, types, g.output_word)


def _tensor_all(palette: Palette, diagrams) -> ColouredBrauerDiagram:
    # the diagrams side by side, left to right; the empty diagram for none
    inner = diagrams[0] if diagrams else empty_coloured(palette)
    for d in diagrams[1:]:
        inner = tensor_coloured(inner, d)
    return inner


def _concat_permutation(images, old_sizes):
    # strand permutation induced by putting block images[i] at slot i
    offsets = [0]
    for size in old_sizes:
        offsets.append(offsets[-1] + size)
    out = []
    for b in images:
        base = offsets[b - 1]
        out.extend(range(base + 1, base + old_sizes[b - 1] + 1))
    return tuple(out)


def sigma_action(f: WiringDiagram, sigma) -> WiringDiagram:
    images = tuple(int(i) for i in sigma)
    k = len(f.block_sizes)
    if sorted(images) != list(range(1, k + 1)):
        raise BlockMismatch(f"{images!r} is not a permutation of 1..{k}")
    if images == tuple(range(1, k + 1)):  # the identity block order moves nothing
        return f
    sizes = tuple(f.block_sizes[b - 1] for b in images)
    types = tuple(f.block_types[b - 1] for b in images)
    routed = coloured_permutation(f.palette, _concat_permutation(images, f.block_sizes),
                                  sum(types, ()))
    return WiringDiagram(compose_coloured(routed, f.diagram), sizes, types, f.output_word)


def enumerate_wirings(palette: Palette, block_words, out_words,
                      max_blocks=2, bubble_cap=0, max_points=8):
    """Wiring diagrams with blocks typed from block_words and output
    from out_words, capped in block count, bubbles, and total boundary
    points.  Deterministic order.  Past WIRING_BUDGET wirings it raises
    BudgetExceeded."""
    block_words = [tuple(w) for w in block_words]
    out_words = [tuple(w) for w in out_words]
    found = []
    for k in range(max_blocks + 1):
        for combo in itertools.product(block_words, repeat=k):
            m = sum(map(len, combo))
            flat = sum(combo, ())
            for w in out_words:
                if m + len(w) > max_points:
                    continue
                for d in coloured_diagrams(palette, flat, w, bubble_cap):
                    if len(found) == WIRING_BUDGET:
                        raise BudgetExceeded(f"wirings past the budget of {WIRING_BUDGET}")
                    found.append(make_wiring(d, tuple(map(len, combo))))
    return found


# ---------------------------------------------------------------------------
# algebras


def _word_sort_key(word):
    return (len(word), label_key(tuple(word)))


class CircuitAlgebra:
    """Carriers per colour word up to the arity bound, and an action
    action(wd, inputs) of every wiring diagram within the bound, with one
    input per block.  With downward_only the algebra acts on downward
    wiring diagrams alone."""

    def __init__(self, palette, bound, carriers, action, downward_only=False):
        self.palette = palette
        self.bound = int(bound)
        if self.bound < 0:
            raise InvalidParameter(f"bound must be a non-negative integer, got {bound!r}")
        self.carriers = {tuple(w): tuple(xs) for w, xs in carriers.items()}
        for w in self.carriers:
            if len(w) > self.bound:
                raise ArityBoundExceeded(f"carrier word {w!r} longer than bound")
        self.action = action
        self.downward_only = downward_only

    def words(self) -> tuple:
        return tuple(sorted(self.carriers, key=_word_sort_key))

    def elements(self, word) -> tuple:
        return self.carriers.get(tuple(word), ())

    def unit_element(self):
        # canonical inhabitant of the empty word, when there is one
        elems = self.elements(())
        return elems[0] if len(elems) == 1 else None

    def acts_on(self, wd) -> bool:
        """Whether the action is defined on wd: always, but for a table."""
        return True

    def acts_on_type(self, block_types, output_word) -> bool:
        """Whether the action may be defined on some wiring with these
        block types and this output word.  It is False only where acts_on
        is False for every wiring of that profile, so a profile it refuses
        can be passed over before any wiring of it is built."""
        return True

    def act(self, wd: WiringDiagram):
        if wd.palette != self.palette:
            raise PaletteMismatch("wiring diagram over the wrong palette")
        if len(wd.output_word) > self.bound:
            raise ArityBoundExceeded(f"output word longer than bound {self.bound}")
        for w in wd.block_types:
            if len(w) > self.bound:
                raise ArityBoundExceeded(f"block word longer than bound {self.bound}")
        if self.downward_only and not is_downward_wiring(wd):
            raise NotDownward("algebra only acts on downward wiring diagrams")
        action = self.action
        return lambda inputs: action(wd, tuple(inputs))

    def rows(self, wd: WiringDiagram) -> dict:
        """wd's whole input domain, one element per block in
        itertools.product order over the blocks' carriers, mapped to the
        value wd's action gives it."""
        act = self.act(wd)
        domain = itertools.product(*(self.elements(w) for w in wd.block_types))
        return {inputs: act(inputs) for inputs in domain}


class TableCircuitAlgebra(CircuitAlgebra):
    """Extensional action tables; completeness is checked at load."""

    def __init__(self, palette, bound, carriers, entries):
        super().__init__(palette, bound, carriers, self._lookup)
        self.table = table = {}
        self.profiles = set()
        carriers = self.carriers
        for i, (wd, rows) in enumerate(entries):
            rows = dict(rows)
            # a wiring listed twice would act by whichever copy came last;
            # no wiring repeats before row i, so table lists them in row order
            if table.setdefault(wd, rows) is not rows:
                raise MissingActionEntry(
                    f"entries row {i} lists the wiring of row {list(table).index(wd)} again")
            try:
                pools = [carriers[w] for w in wd.block_types]
                outputs = carriers[wd.output_word]
            except KeyError as exc:
                raise MissingActionEntry(f"no carrier for word {exc.args[0]!r}") from None
            swept = 0
            for combo in itertools.product(*pools):
                if combo not in rows:
                    raise MissingActionEntry(f"entries row {i} misses inputs {combo!r}")
                if rows[combo] not in outputs:
                    raise MissingActionEntry(
                        f"table output {rows[combo]!r} outside carrier {wd.output_word!r}"
                    )
                swept += 1
            if len(rows) != swept:
                raise MissingActionEntry(f"entries row {i} has spurious rows")
            self.profiles.add((wd.block_types, wd.output_word))

    def listed_wirings(self):
        return tuple(self.table)

    def acts_on(self, wd) -> bool:
        return wd in self.table

    def acts_on_type(self, block_types, output_word) -> bool:
        return (block_types, output_word) in self.profiles

    def _lookup(self, wd, inputs):
        rows = self.table.get(wd)
        if rows is None:
            raise MissingActionEntry(f"no table entry for {wd}")
        return rows[inputs]


@dataclass(frozen=True)
class FreeCAElement:
    shape: WiringDiagram
    generators: tuple


def _free_key(shape: WiringDiagram, gens: tuple):
    # the block orders of one shape differ only at the sources, so the
    # closed count and bubbles are left out; on rows of at most nine
    # points this order agrees with that of the shapes' JSON text
    d = shape.diagram
    return (shape.block_sizes, label_key(d.colours), d.base.partner, label_key(gens))


def free_element(shape: WiringDiagram, generators) -> FreeCAElement:
    """Canonical representative of (shape, generators) under the
    simultaneous reordering of blocks and generator entries.  Without
    this identification the free algebra could not be equivariant, so
    equality of free elements is equality of canonical forms."""
    gens = tuple(generators)
    k = len(shape.block_sizes)
    if len(gens) != k:
        raise BlockMismatch(f"{k} blocks, {len(gens)} generators")
    if k <= 1:
        return FreeCAElement(shape, gens)
    best = None
    for sigma in itertools.permutations(range(1, k + 1)):
        cand_shape = sigma_action(shape, sigma)
        cand_gens = tuple(gens[b - 1] for b in sigma)
        key = _free_key(cand_shape, cand_gens)
        if best is None or key < best[0]:
            best = (key, cand_shape, cand_gens)
    return FreeCAElement(best[1], best[2])


class FreeCircuitAlgebra(CircuitAlgebra):
    """Free algebra on typed generators.  The action is symbolic, so
    carriers only matter for enumeration and are truncated by block
    count, source arity (the bound), and bubble cap; each word's carrier
    is enumerated when first asked for."""

    def __init__(self, palette, bound, generators, max_blocks=None,
                 bubble_cap=1, downward_only=False):
        super().__init__(palette, bound, {}, self._substitute, downward_only)
        self.generators = {tuple(w): tuple(g) for w, g in generators.items()}
        for w in self.generators:
            if len(w) > self.bound:
                raise ArityBoundExceeded(f"generator word {w!r} longer than bound")
        self.max_blocks = self.bound if max_blocks is None else int(max_blocks)
        if self.max_blocks < 0:
            raise InvalidParameter(f"max_blocks must be a non-negative integer, "
                                   f"got {max_blocks!r}")
        self.bubble_cap = int(bubble_cap)

    def words(self):
        return tuple(sorted(_words_up_to(self.palette, self.bound), key=_word_sort_key))

    def elements(self, word):
        word = tuple(word)
        if word in self.carriers:
            return self.carriers[word]
        if len(word) > self.bound:
            raise ArityBoundExceeded(f"word {word!r} longer than bound {self.bound}")
        # blocks of at most bound points in all: m + len(word) <= bound + len(word)
        shapes = enumerate_wirings(self.palette, sorted(self.generators, key=_word_sort_key),
                                   [word], self.max_blocks, self.bubble_cap,
                                   self.bound + len(word))
        elements = dict.fromkeys(
            free_element(shape, gens)
            for shape in shapes
            if not self.downward_only or is_downward_wiring(shape)
            for gens in itertools.product(*(self.generators[w] for w in shape.block_types)))
        self.carriers[word] = tuple(elements)
        return self.carriers[word]

    def unit_element(self):
        return FreeCAElement(make_wiring(empty_coloured(self.palette), ()), ())

    def _substitute(self, wd, inputs):
        shape = operad_gamma(wd, [x.shape for x in inputs])
        gens = tuple(g for x in inputs for g in x.generators)
        return free_element(shape, gens)


def _words_up_to(palette: Palette, bound: int):
    # every colour word of length at most bound, shortest first
    return [w for k in range(bound + 1) for w in itertools.product(palette.colours, repeat=k)]


def one_point_algebra(palette: Palette, bound: int) -> CircuitAlgebra:
    return CircuitAlgebra(palette, bound, {w: ("*",) for w in _words_up_to(palette, bound)},
                          lambda wd, inputs: "*")


def pairing_algebra(palette: Palette, bound: int, downward_only=False) -> CircuitAlgebra:
    """Carriers: colour-consistent pairings on each word (diagrams
    with no inputs and no bubbles).  A wiring diagram acts by plugging
    the pairings into its blocks, composing, and discarding whatever
    bubbles form.  Discarding is consistent: bubbles never touch the
    open part again, so the composition square holds."""
    carriers = {w: tuple(coloured_diagrams(palette, (), w))
                for w in _words_up_to(palette, bound)}

    def action(wd, inputs):
        if len(inputs) != len(wd.block_sizes):
            raise BlockMismatch(f"{len(wd.block_sizes)} blocks, {len(inputs)} inputs")
        full = compose_coloured(_tensor_all(palette, inputs), wd.diagram)
        # full has no sources, so zeroing the closed count discards the
        # bubbles and keeps the open part as-is; no revalidation needed
        open_base = BrauerDiagram(0, full.base.n, full.base.partner)
        return ColouredBrauerDiagram(palette, open_base, full.colours, ())

    return CircuitAlgebra(palette, bound, carriers, action, downward_only)


def tabulate(A: CircuitAlgebra, wirings) -> TableCircuitAlgebra:
    carriers = {w: A.elements(w) for w in A.words()}
    entries = [(wd, A.rows(wd)) for wd in wirings]
    return TableCircuitAlgebra(A.palette, A.bound, carriers, entries)


# ---------------------------------------------------------------------------
# derived operations


def derived_boxtimes(A: CircuitAlgebra, c_word, d_word):
    c_word, d_word = tuple(c_word), tuple(d_word)
    if len(c_word) + len(d_word) > A.bound:
        raise ArityBoundExceeded(f"|{c_word!r}| + |{d_word!r}| exceeds bound {A.bound}")
    wd = make_wiring(coloured_identity(A.palette, c_word + d_word),
                     (len(c_word), len(d_word)))
    fn = A.act(wd)
    return lambda a, b: fn((a, b))


def contraction_wiring(palette: Palette, word, i: int, j: int) -> WiringDiagram:
    word = tuple(word)
    m = len(word)
    if not (1 <= i < j <= m):
        raise IndexError(f"positions {(i, j)!r} out of range for length {m}")
    if word[i - 1] != palette.omega(word[j - 1]):
        raise ColourMismatch(
            f"positions {i},{j} carry {word[i - 1]!r},{word[j - 1]!r}, not omega-dual"
        )
    # s_i and s_j are joined; every other source runs straight down
    partner = [0] * (2 * m - 2)
    partner[i - 1], partner[j - 1] = j - 1, i - 1
    outputs = []
    for r, c in enumerate(word):
        if r not in (i - 1, j - 1):
            partner[r], partner[m + len(outputs)] = m + len(outputs), r
            outputs.append(c)
    colours = tuple(palette.omega(c) for c in word) + tuple(outputs)
    base = BrauerDiagram(m, m - 2, tuple(partner))
    return make_wiring(ColouredBrauerDiagram(palette, base, colours, ()), (m,))


def derived_contraction(A: CircuitAlgebra, word, i: int, j: int):
    fn = A.act(contraction_wiring(A.palette, word, i, j))
    return lambda a: fn((a,))


def unit_epsilon(A: CircuitAlgebra, colour):
    wd = make_wiring(cap_coloured(A.palette, (colour,)), ())
    return A.act(wd)(())


def perm_wiring(palette: Palette, word, sigma) -> WiringDiagram:
    """The one-block wiring that relabels an element at `word` by the
    position permutation sigma (0-based), landing at the word
    (w . sigma)[k] = w[sigma[k]]: strand i exits where sigma picks
    letter i up again."""
    images = [0] * len(sigma)
    for k, i in enumerate(sigma):
        images[i] = k + 1
    return make_wiring(coloured_permutation(palette, images, word), (len(word),))


# ---------------------------------------------------------------------------
# checkers


def _refuse_empty_check(budget, samples):
    # run_laws reads a budget of None as no budget
    if samples < 1:
        raise InvalidParameter(f"samples must be at least 1, got {samples}")
    if budget is not None and budget < 0:
        raise InvalidParameter(f"budget must be non-negative, got {budget}")


def _grouped_composites(universe, pools, palette, acts_on_type):
    """The pairs (g, fs) of the composition square, fs drawn from the
    pools of g's block types, whose composite's profile passes
    acts_on_type, as (fs, [(g, gamma(g; fs)), ...]).  The composite's
    block types are the fs' side by side and its output word is g's, so
    the profile is known before anything is composed; the gs are grouped
    by block types and then by output word, so it is tested once per
    (fs, output word).  fs is outermost, so each tensor of an fs is built
    once, and only for an fs with some g kept."""
    by_types = defaultdict(lambda: defaultdict(list))
    for g in universe:
        by_types[g.block_types][g.output_word].append(g)
    for types, by_output in by_types.items():
        for fs in itertools.product(*(pools[w] for w in types)):
            inner_types = sum((f.block_types for f in fs), ())
            kept = [g for word, gs in by_output.items()
                    if acts_on_type(inner_types, word) for g in gs]
            if not kept:
                continue
            inner = _tensor_all(palette, [f.diagram for f in fs])
            blocks = sum((f.block_sizes for f in fs), ())
            yield fs, [(g, WiringDiagram(compose_coloured(inner, g.diagram), blocks,
                                         inner_types, g.output_word))
                       for g in kept]


def _wd_brief(wd: WiringDiagram) -> str:
    return json.dumps(wiring_to_json(wd), sort_keys=True)


# the violation detail of each axiom, from the two sides and the instance
_DETAILS = {
    "identity": lambda y, x, word: f"on {word!r}: {x!r} acted to {y!r}",
    "equivariance": lambda lhs, rhs, wd, sigma, inputs: (
        f"wd={_wd_brief(wd)} sigma={sigma!r} inputs={inputs!r}: {lhs!r} != {rhs!r}"),
    "composition": lambda lhs, rhs, g, fs, nested: (
        f"g={_wd_brief(g)} fs={[_wd_brief(f) for f in fs]!r} "
        f"inputs={nested!r}: {lhs!r} != {rhs!r}"),
}


def check_circuit_algebra(A: CircuitAlgebra, seed=0, budget=100_000, samples=400,
                          universe=None) -> Report:
    """Operad-algebra axioms: identity action, block equivariance,
    composition square (violation kinds "identity", "equivariance",
    "composition").  Exhaustive when the instance count fits the budget,
    seeded sampling otherwise.

    An instance is checked, and counted in checked, when A.acts_on holds
    for every wiring it uses (a table acts on its listed wirings alone),
    decided per wiring before anything is evaluated.  A composition pair
    (g, fs) whose composite's profile, the fs' block types side by side
    and g's output word, fails A.acts_on_type is passed over before it
    is composed: no wiring of that profile is acted on, so the pair
    would be skipped anyway.  The sampled square makes its draws first,
    so the draws do not depend on the test; its identity law builds and
    prepares one identity wiring per inhabited word, not one per draw.
    The exhaustive branch sweeps each wiring it uses once, through
    A.rows, and its three phases share the sweep.  An inner value of the
    square outside g's swept domain is checked by applying g to it, and
    an action that raises, MissingActionEntry included, propagates.

    The exhaustive square takes its pairs from _grouped_composites, which
    tensors each fs once for all the g with its block types, and only
    when some g's composite passes the profile test.  pools[w] holds
    only wirings with output w, so every f fits its block, and
    compose_coloured still checks palettes and types; each pair is
    checked once, as through operad_gamma, and since the violations are
    sorted and checked is a count, the report does not see the order.

    The set-up reads a wiring only through its profile: whether its words
    have carriers, its domain size and so the candidates, whether it can
    fill a block (pools) or be drawn.  These are worked out once per
    distinct profile and weighted by the number of wirings that share it;
    the lists of wirings keep universe order, so the sampled draws do not
    depend on how the set-up is computed.

    A check that could check nothing is refused: samples below 1 and a
    negative budget raise InvalidParameter."""
    _refuse_empty_check(budget, samples)
    words = list(A.words())
    sizes = {w: len(A.elements(w)) for w in words}
    if universe is None:
        universe = (list(A.listed_wirings()) if hasattr(A, "listed_wirings")
                    else enumerate_wirings(A.palette, words, words))
    profiles = [(wd.block_types, wd.output_word) for wd in universe]
    shares = Counter(profiles)
    # the size of each profile's input domain, for the profiles whose words
    # all have carriers; the wirings of any other profile are left out
    domain = {p: prod(sizes[w] for w in p[0]) for p in shares
              if p[1] in sizes and all(w in sizes for w in p[0])}
    listed = [(wd, p) for wd, p in zip(universe, profiles) if p in domain]
    universe = [wd for wd, _ in listed]
    # the wirings that can fill a block of type w: output w, every block
    # inhabited; built once, in universe order, for every phase below
    pools = {w: [] for w in words}
    for wd, p in listed:
        if domain[p]:
            pools[p[1]].append(wd)

    id_count = sum(sizes.values())
    eq_count = sum(shares[p] * factorial(len(p[0])) * n for p, n in domain.items())
    slot_total = defaultdict(int)
    for p, n in domain.items():
        slot_total[p[1]] += shares[p] * n
    comp_count = sum(shares[p] * prod(slot_total[w] for w in p[0]) for p in domain)
    candidates = id_count + eq_count + comp_count

    violations = []
    checked = 0

    def record(kind, lhs, rhs, *instance):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            violations.append((kind, _DETAILS[kind](lhs, rhs, *instance)))

    # each wiring's rows are swept once for all phases; the unit laws give
    # many composites equal to swept wirings
    sweep = cache(A.rows)

    if candidates <= budget:
        mode = "exhaustive"
        for w in words:
            idw = identity_wiring(A.palette, w)
            if A.acts_on(idw):
                for (x,), y in sweep(idw).items():
                    record("identity", y, x, w)
        for wd in universe:
            if not A.acts_on(wd) or not sweep(wd):
                continue
            for sigma in itertools.permutations(range(1, len(wd.block_sizes) + 1)):
                moved_wd = sigma_action(wd, sigma)
                if A.acts_on(moved_wd):
                    moved = sweep(moved_wd)
                    for inputs, rhs in sweep(wd).items():
                        lhs = moved[tuple(inputs[b - 1] for b in sigma)]
                        record("equivariance", lhs, rhs, wd, sigma, inputs)
        acted = [g for g in universe if A.acts_on(g)]
        for fs, composites in _grouped_composites(acted, pools, A.palette, A.acts_on_type):
            if not all(map(A.acts_on, fs)):
                continue
            inner = [sweep(f).items() for f in fs]
            for g, composite in composites:
                if not A.acts_on(composite):
                    continue
                g_map = sweep(g)
                # the composite's domain is the product of the inner domains
                # in the same order, so the two iterations stay in step
                for pairs, lhs in zip(itertools.product(*inner), sweep(composite).values()):
                    values = tuple(v for _, v in pairs)
                    try:
                        rhs = g_map[values]
                    except KeyError:  # outside g's swept domain: a truncated carrier
                        rhs = A.act(g)(values)
                    record("composition", lhs, rhs, g, fs, tuple(c for c, _ in pairs))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        inhabited = [w for w in words if sizes[w]]
        identities = {}  # the identity action on each inhabited word, where A acts
        for w in inhabited:
            idw = identity_wiring(A.palette, w)
            if A.acts_on(idw):
                identities[w] = A.act(idw)
        for _ in range(samples if inhabited else 0):
            w = rng.choice(inhabited)
            x = rng.choice(A.elements(w))
            if w in identities:
                record("identity", identities[w]((x,)), x, w)
        usable = [wd for wd, p in listed if domain[p]]
        for _ in range(samples if usable else 0):
            wd = rng.choice(usable)
            sigma = list(range(1, len(wd.block_sizes) + 1))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            inputs = tuple(rng.choice(A.elements(w)) for w in wd.block_types)
            moved_wd = sigma_action(wd, sigma)
            if A.acts_on(wd) and A.acts_on(moved_wd):
                lhs = A.act(moved_wd)(tuple(inputs[b - 1] for b in sigma))
                record("equivariance", lhs, A.act(wd)(inputs), wd, sigma, inputs)
        fillable = {p for p in domain if all(pools[w] for w in p[0])}
        comp_ok = [g for g, p in listed if p in fillable]
        for _ in range(samples if comp_ok else 0):
            g = rng.choice(comp_ok)
            fs, nested = [], []
            for w in g.block_types:
                f = rng.choice(pools[w])
                fs.append(f)
                nested.append(tuple(rng.choice(A.elements(b)) for b in f.block_types))
            if not A.acts_on_type(sum((f.block_types for f in fs), ()), g.output_word):
                continue
            composite = operad_gamma(g, fs)
            if all(map(A.acts_on, [g, composite, *fs])):
                flat = tuple(x for chunk in nested for x in chunk)
                values = tuple(A.act(f)(chunk) for f, chunk in zip(fs, nested))
                record("composition", A.act(composite)(flat), A.act(g)(values),
                       g, fs, tuple(nested))

    violations.sort()
    return Report(not violations, mode, seed, candidates, checked, tuple(violations))


def _relabelling(A: CircuitAlgebra, word, sigma):
    fn = A.act(perm_wiring(A.palette, word, sigma))
    return lambda a: fn((a,))


def _algebra_ops(A: CircuitAlgebra):
    # the operations A derives from wiring diagrams, as the laws of the axioms
    # module take them (0-based positions), each built once per key and ops object;
    # check_derived_axioms runs them on numbered elements with a memo per check,
    # the lift applies each once per argument tuple and so keeps no value memo
    prepared = cache(lambda make, *key: make(A, *key))
    return SimpleNamespace(
        words=[w for w in A.words() if A.elements(w)], elements=A.elements,
        bound=A.bound, omega=A.palette.omega, unit=A.unit_element(),
        box=lambda u, v: prepared(derived_boxtimes, u, v),
        zeta=lambda w, i, j: prepared(derived_contraction, w, i + 1, j + 1),
        eps=lambda c: prepared(unit_epsilon, c),
        relabel=lambda w, sigma: prepared(_relabelling, w, sigma),
    )


def check_derived_axioms(A: CircuitAlgebra, seed=0, budget=100_000,
                         samples=300) -> Report:
    """The circuit-operad laws on the derived product, contractions and
    units.  An algebra on downward diagrams alone has no cap to build
    ε_c from, so there the connected unit is left out and a note says so.
    A check that could check nothing is refused: samples below 1 and a
    negative budget raise InvalidParameter.

    The laws run on numbers.  Each distinct element (by ==) gets an int,
    in the order first met: a carrier's elements when the laws first ask
    for their word, an action's value when it is made.  A value outside
    every carrier, from a faulty action, gets a number of its own, so
    equal values share a number and unequal values never do.  Each ⊠, ζ
    and relabelling is prepared once per key, decodes its numbers, acts
    once and numbers its value, memoised on the numbers: each derived
    value is worked out once per check (on pairing_algebra(ORI, 6), 1,505
    action calls where the laws ask for 16,448), and each value is hashed
    about once, when it is numbered.  A violation shows each number as
    the element first met with it, so its text is that of the laws run
    on the elements.  The numbering and the memo are made here and freed
    when the check returns.  species_from_circuit_algebra
    applies each operation once per argument tuple, so a memo there
    would cost time and memory and save nothing."""
    _refuse_empty_check(budget, samples)
    ops = _algebra_ops(A)
    number, element = {}, []  # element -> int, and back

    def numbered(x):
        n = number.setdefault(x, len(element))
        if n == len(element):
            element.append(x)
        return n

    def on_numbers(op):
        # op(*key) prepares one function of the elements per key
        def prepare(*key):
            act = op(*key)
            return cache(lambda *ns: numbered(act(*[element[n] for n in ns])))
        return cache(prepare)

    def shown(v):
        # the laws give numbers and tuples of them
        return tuple(map(shown, v)) if isinstance(v, tuple) else element[v]

    numbers = SimpleNamespace(
        words=ops.words, bound=ops.bound, omega=ops.omega,
        elements=cache(lambda w: tuple(map(numbered, ops.elements(w)))),
        unit=None if ops.unit is None else numbered(ops.unit),
        box=on_numbers(ops.box), zeta=on_numbers(ops.zeta), relabel=on_numbers(ops.relabel),
        eps=cache(lambda c: numbered(ops.eps(c))),
    )
    laws = CIRCUIT_LAWS
    notes = ()
    if A.downward_only:
        laws = [law for law in laws if law is not connected_unit]
        notes = ("downward only: the connected unit is not in scope",)
    return run_laws([law(numbers) for law in laws], seed, budget, samples, notes, shown)


# ---------------------------------------------------------------------------
# io


def wiring_to_json(wd: WiringDiagram) -> dict:
    blob = coloured_to_json(wd.diagram)
    blob["blocks"] = list(wd.block_sizes)
    return blob


def wiring_from_json(obj: dict) -> WiringDiagram:
    return _read_wiring(lambda doc: _profile(coloured_from_json(doc)), obj)


def _read_wiring(read_profile, obj: dict) -> WiringDiagram:
    # a wiring without blocks is named so before any error of its diagram,
    # whose reader names a document that is not an object
    if isinstance(obj, dict) and "blocks" not in obj:
        raise BlockMismatch("wiring diagram document lacks field 'blocks'")
    profile = read_profile(obj)
    return _cut(profile, read_field(obj, "blocks", _read_blocks, BlockMismatch,
                                    "wiring diagram"))


def _read_blocks(sizes):
    return tuple(map(whole_number, listed(sizes)))


def _document_key(doc) -> bytes:
    # marshal's version 2 writes each value with its type and no sharing
    # references, so two documents get the same bytes exactly when they
    # hold the same keys in the same order and equal values of the same
    # types: unlike ==, it tells 1, 1.0 and True apart, as the readers do
    return marshal.dumps(doc, 2)


def _profile_reader(palette_doc, palette: Palette):
    """read_profile for the wiring documents of one table document.  It
    reads each distinct diagram, a wiring document without its blocks,
    once, keyed by _document_key, and keeps it profiled with its input
    and output words: a key is the same only for documents the readers
    cannot tell apart, so a diagram read once stands for every document
    with its key, and each entry only cuts the kept input word by its
    blocks.  A diagram whose palette document has the table palette's
    key, or whose palette equals the table's, gets the table's palette
    object, so palette comparisons are identity checks."""
    palette_key, profiles = _document_key(palette_doc), {}

    def read_palette(doc):
        if _document_key(doc) == palette_key:
            return palette
        other = palette_from_json(doc)
        return palette if other == palette else other

    def read_profile(doc):
        if not isinstance(doc, dict):
            return read_coloured(doc, read_palette)  # which names the document
        key = doc.copy()
        del key["blocks"]  # which _read_wiring has found
        key = _document_key(key)
        profile = profiles.get(key)
        if profile is None:
            profile = profiles[key] = _profile(read_coloured(doc, read_palette))
        return profile

    return read_profile


def _word_key(word) -> str:
    return json.dumps([encode_label(c) for c in word])


def _word_unkey(key: str) -> tuple:
    return decode_labels(json.loads(key))


def algebra_to_json(A: TableCircuitAlgebra) -> dict:
    """Document shape: {"palette", "bound", "carriers", "entries"}.
    "carriers" maps each JSON-encoded colour word (a JSON list of
    encoded colours, as a string) to its list of encoded elements.
    "entries" is a list of {"wd": wiring diagram, "table": rows}; each
    row lists one input per block, in block order, with the output
    last."""
    entries = []
    for wd, rows in A.table.items():
        table = [[encode_label(x) for x in combo] + [encode_label(out)]
                 for combo, out in sorted(rows.items(), key=lambda kv: label_key(kv[0]))]
        entries.append({"wd": wiring_to_json(wd), "table": table})
    return {
        "palette": palette_to_json(A.palette),
        "bound": A.bound,
        "carriers": {_word_key(w): [encode_label(x) for x in xs]
                     for w, xs in sorted(A.carriers.items(), key=lambda kv: _word_sort_key(kv[0]))},
        "entries": entries,
    }


def algebra_from_json(obj: dict) -> TableCircuitAlgebra:
    """Inverse of algebra_to_json; reads the same document shape.  The
    table is validated complete at load time.

    The reader reads each distinct diagram once, for all the entries
    that list it under their blocks, and keeps it with its input and
    output words; an entry then reads its blocks and table rows and
    cuts the kept input word by its blocks, as make_wiring would (see
    _profile_reader).  A wiring listed twice, and inputs listed twice in
    one entry's rows, are refused: either would act by whichever copy
    came last."""
    palette = read_field(obj, "palette", palette_from_json, MissingActionEntry, "circuit algebra")
    bound = read_field(obj, "bound", whole_number, MissingActionEntry, "circuit algebra")
    carriers = read_field(obj, "carriers", _read_carriers, MissingActionEntry, "circuit algebra")
    read_wiring = partial(_read_wiring, _profile_reader(obj["palette"], palette))
    entries = read_rows(obj, "entries", (("wd", read_wiring), ("table", _read_table)),
                        MissingActionEntry, "circuit algebra")
    return TableCircuitAlgebra(palette, bound, carriers, entries)


def _read_carriers(carriers):
    return {_word_unkey(k): decode_labels(xs) for k, xs in carriers.items()}


def _read_table(rows):
    # a row lists one input per block, then the output; inputs listed twice
    # would act by whichever row came last
    table = {}
    for row in rows:
        *inputs, out = map(decode_label, listed(row))
        inputs = tuple(inputs)
        if inputs in table:
            raise ValueError(f"inputs {inputs!r} are listed twice")
        table[inputs] = out
    return table
