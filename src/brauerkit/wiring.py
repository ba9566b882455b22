"""Wiring-diagram operad and Set-valued circuit algebras.

A wiring diagram is a coloured Brauer diagram whose source boundary
is split into typed blocks; it is an operation with one input slot
per block.  operad_gamma substitutes diagrams into slots by tensoring
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

Derived operations: block juxtaposition, contraction of two omega-dual
boundary positions, and the cap unit.  check_circuit_algebra verifies
the operad-algebra axioms (identity, block equivariance, composition
square) on the instances on whose every wiring the algebra acts
(acts_on), and skips the rest; check_derived_axioms runs the
circuit-operad laws of the axioms module on the derived operations,
relabelling through perm_wiring.  An algebra on downward diagrams
alone has no cap unit, so there it leaves out the connected unit and
its report carries the note "downward only: the connected unit is not
in scope".  species.species_from_circuit_algebra tabulates the same
operations.  Checks run exhaustively when the instance count fits the
budget and fall back to seeded sampling otherwise; the axioms.Report
records mode, seed, and every violation found as a sorted (kind,
detail) pair.  The exhaustive composition square visits its (g, fs)
pairs grouped by g's block types, so that each tensor of arguments is
built once for all the gs that share it; the instances are those of
the pair-by-pair loop, in another order.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cache, cached_property
from math import factorial, prod
from types import SimpleNamespace

from .axioms import CIRCUIT_LAWS, Report, connected_unit, run_laws
from .brauer import BrauerDiagram, is_downward
from .coloured import (
    ColouredBrauerDiagram,
    ColouringError,
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
    tensor_coloured,
)
from .graph import InvalidParameter
from .labels import decode_label, encode_label, label_key, whole_number


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


@dataclass(frozen=True)
class WiringDiagram:
    diagram: ColouredBrauerDiagram
    block_sizes: tuple

    @property
    def palette(self) -> Palette:
        return self.diagram.palette

    @cached_property
    def block_types(self) -> tuple:
        word = input_type(self.diagram)
        out, at = [], 0
        for size in self.block_sizes:
            out.append(word[at:at + size])
            at += size
        return tuple(out)

    @cached_property
    def output_word(self) -> tuple:
        return output_type(self.diagram)


def make_wiring(diagram: ColouredBrauerDiagram, block_sizes) -> WiringDiagram:
    sizes = tuple(int(b) for b in block_sizes)
    if any(b < 0 for b in sizes):
        raise BlockMismatch(f"negative block size in {sizes!r}")
    if sum(sizes) != diagram.base.m:
        raise BlockMismatch(
            f"blocks {sizes!r} sum to {sum(sizes)}, diagram has {diagram.base.m} inputs"
        )
    return WiringDiagram(diagram, sizes)


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
    inner = _tensor_all(g.palette, [f.diagram for f in fs])
    return WiringDiagram(compose_coloured(inner, g.diagram), blocks)


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
    new_sizes = tuple(f.block_sizes[b - 1] for b in images)
    word = tuple(c for b in images for c in f.block_types[b - 1])
    routed = coloured_permutation(f.palette, _concat_permutation(images, f.block_sizes), word)
    return make_wiring(compose_coloured(routed, f.diagram), new_sizes)


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


class TableCircuitAlgebra(CircuitAlgebra):
    """Extensional action tables; completeness is checked at load."""

    def __init__(self, palette, bound, carriers, entries):
        super().__init__(palette, bound, carriers, self._lookup)
        self.table = {}
        for wd, rows in entries:
            rows = dict(rows)
            for w in wd.block_types + (wd.output_word,):
                if w not in self.carriers:
                    raise MissingActionEntry(f"no carrier for word {w!r}")
            domain = list(itertools.product(*(self.carriers[w] for w in wd.block_types)))
            for combo in domain:
                if combo not in rows:
                    raise MissingActionEntry(f"table for {wd} misses inputs {combo!r}")
                if rows[combo] not in self.carriers[wd.output_word]:
                    raise MissingActionEntry(
                        f"table output {rows[combo]!r} outside carrier {wd.output_word!r}"
                    )
            if len(rows) != len(domain):
                raise MissingActionEntry(f"table for {wd} has spurious rows")
            self.table[wd] = rows

    def listed_wirings(self):
        return tuple(self.table)

    def acts_on(self, wd) -> bool:
        return wd in self.table

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
    entries = []
    for wd in wirings:
        fn = A.act(wd)
        rows = {}
        for combo in itertools.product(*(A.elements(w) for w in wd.block_types)):
            rows[combo] = fn(combo)
        entries.append((wd, rows))
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


def _grouped_composites(universe, pools, palette):
    """The pairs (g, fs) of the composition square, fs drawn from the
    pools of g's block types, as (fs, [(g, gamma(g; fs)), ...]): grouped
    by block types, fs outermost, so each tensor of an fs is built once."""
    by_types = defaultdict(list)
    for g in universe:
        by_types[g.block_types].append(g)
    for types, gs in by_types.items():
        for fs in itertools.product(*(pools[w] for w in types)):
            inner = _tensor_all(palette, [f.diagram for f in fs])
            blocks = sum((f.block_sizes for f in fs), ())
            yield fs, [(g, WiringDiagram(compose_coloured(inner, g.diagram), blocks))
                       for g in gs]


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
    decided per wiring before anything is evaluated.  An inner value of
    the square outside g's swept domain is checked by applying g to it,
    and an action that raises, MissingActionEntry included, propagates.

    The exhaustive square takes its pairs from _grouped_composites, which
    tensors each fs once for all the g with its block types.  pools[w]
    holds only wirings with output w, so every f fits its block, and
    compose_coloured still checks palettes and types; each pair is
    checked once, as through operad_gamma, and since the violations are
    sorted and checked is a count, the report does not see the order.

    A check that could check nothing is refused: samples below 1 and a
    negative budget raise InvalidParameter."""
    if samples < 1:
        raise InvalidParameter(f"samples must be at least 1, got {samples}")
    if budget < 0:
        raise InvalidParameter(f"budget must be non-negative, got {budget}")
    words = list(A.words())
    sizes = {w: len(A.elements(w)) for w in words}
    if universe is None:
        universe = (list(A.listed_wirings()) if hasattr(A, "listed_wirings")
                    else enumerate_wirings(A.palette, words, words))
    universe = [wd for wd in universe
                if all(w in sizes for w in wd.block_types) and wd.output_word in sizes]
    by_output = defaultdict(list)
    for wd in universe:
        by_output[wd.output_word].append(wd)
    # the wirings that can fill a block of type w: output w, every block
    # inhabited; built once, in universe order, for every phase below
    pools = {w: [f for f in by_output[w] if all(sizes[b] for b in f.block_types)]
             for w in words}

    id_count = sum(sizes.values())
    eq_count = sum(factorial(len(wd.block_sizes)) * prod(sizes[w] for w in wd.block_types)
                   for wd in universe)
    slot_total = {w: sum(prod(sizes[b] for b in f.block_types) for f in by_output[w])
                  for w in words}
    comp_count = sum(prod(slot_total[w] for w in g.block_types) for g in universe)
    candidates = id_count + eq_count + comp_count

    violations = []
    checked = 0

    def record(kind, lhs, rhs, *instance):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            violations.append((kind, _DETAILS[kind](lhs, rhs, *instance)))

    swept = {}

    def sweep(f):
        # f's whole input domain, chunk -> value in domain order, swept once
        # for all phases; the unit laws give many composites equal to swept wirings
        got = swept.get(f)
        if got is None:
            act_f = A.act(f)
            dom = itertools.product(*(A.elements(w) for w in f.block_types))
            got = swept[f] = {chunk: act_f(chunk) for chunk in dom}
        return got

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
        for fs, composites in _grouped_composites(acted, pools, A.palette):
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
        for _ in range(samples if inhabited else 0):
            w = rng.choice(inhabited)
            x = rng.choice(A.elements(w))
            idw = identity_wiring(A.palette, w)
            if A.acts_on(idw):
                record("identity", A.act(idw)((x,)), x, w)
        usable = [wd for wd in universe if all(sizes[w] for w in wd.block_types)]
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
        comp_ok = [g for g in universe if all(pools[w] for w in g.block_types)]
        for _ in range(samples if comp_ok else 0):
            g = rng.choice(comp_ok)
            fs, nested = [], []
            for w in g.block_types:
                f = rng.choice(pools[w])
                fs.append(f)
                nested.append(tuple(rng.choice(A.elements(b)) for b in f.block_types))
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
    # module take them (0-based positions), each built once per key and ops object
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
    ε_c from, so there the connected unit is left out and a note says so."""
    ops = _algebra_ops(A)
    laws = CIRCUIT_LAWS
    notes = ()
    if A.downward_only:
        laws = [law for law in laws if law is not connected_unit]
        notes = ("downward only: the connected unit is not in scope",)
    return run_laws([law(ops) for law in laws], seed, budget, samples, notes)


# ---------------------------------------------------------------------------
# io


def wiring_to_json(wd: WiringDiagram) -> dict:
    blob = coloured_to_json(wd.diagram)
    blob["blocks"] = list(wd.block_sizes)
    return blob


def wiring_from_json(obj: dict) -> WiringDiagram:
    if "blocks" not in obj:
        raise BlockMismatch(f"wiring diagram object lacks blocks: {obj!r}")
    return make_wiring(coloured_from_json(obj), map(whole_number, obj["blocks"]))


def _word_key(word) -> str:
    return json.dumps([encode_label(c) for c in word])


def _word_unkey(key: str) -> tuple:
    return tuple(decode_label(c) for c in json.loads(key))


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
    table is validated complete at load time."""
    try:
        palette = palette_from_json(obj["palette"])
        bound = whole_number(obj["bound"])
        carriers = {_word_unkey(k): tuple(decode_label(x) for x in xs)
                    for k, xs in obj["carriers"].items()}
        entries = []
        for entry in obj["entries"]:
            wd = wiring_from_json(entry["wd"])
            if wd.palette == palette:
                # one palette object per document: comparisons become identity checks
                wd = WiringDiagram(replace(wd.diagram, palette=palette), wd.block_sizes)
            rows = {}
            for row in entry["table"]:
                *ins, out = row
                rows[tuple(decode_label(x) for x in ins)] = decode_label(out)
            entries.append((wd, rows))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, (ColouringError, BlockMismatch, MissingActionEntry)):
            raise
        raise MissingActionEntry(f"not a circuit algebra object: {exc}") from exc
    return TableCircuitAlgebra(palette, bound, carriers, entries)
