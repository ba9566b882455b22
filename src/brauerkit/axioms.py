"""Circuit-operad laws, stated once, and the one driver that checks them.

A circuit operad is a modular operad with a monoidal product: an
external product ⊠, contractions ζ_ij of two omega-dual positions and
units ε_c at the words (c, ω c), subject to ⊠-associativity, the
external unit, commuting disjoint contractions, ζ sliding out of ⊠ and
the connected unit.  The modular operad's multiplication is ζ after ⊠;
its laws M1, M3 and M4 are here too (M2 is the commutation of
contractions).  Each law is written once against an operations object
with 0-based positions, so it runs both on a live circuit algebra
(wiring) and on a tabulated species with its operad structure
(species):

    words              the inhabited colour words, in a fixed order
    elements(w)        the elements at the word w
    box(u, v)          (a, b) -> a ⊠ b, at the word u + v
    zeta(w, i, j)      a -> ζ_ij a for i < j, at w without positions i and j
    eps(c)             ε_c, at the word (c, ω c)
    unit               the external unit at (), or None when there is none
    relabel(w, s)      a -> the action of the position permutation s on a,
                       at the word (w . s)[k] = w[s[k]]
    bound, omega       the arity bound and the colour involution

A law is a kind, a weight, its instance types each with its element
pools, and sides(t), which prepares the operations and positions of
the type t once and returns the function of the elements that gives
the two sides of its equation.  run_laws checks every instance when the
weighted candidate count fits the budget (or there is no budget), and
otherwise samples; it returns one Report.

The laws only apply the operations and compare what they give, so they
may run on numbers that stand for the elements, as
wiring.check_derived_axioms runs them: equal elements share a number.
run_laws then takes the function that turns a violation's numbers back
into elements, and the violation shows those elements.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache
from math import prod


@dataclass(frozen=True)
class Report:
    passed: bool
    mode: str          # "exhaustive" or "sampled"
    seed: int
    candidates: int
    checked: int
    violations: tuple  # sorted (kind, detail) pairs
    notes: tuple = ()


@dataclass(frozen=True)
class Law:
    kind: str
    cases: tuple   # ((instance type, element pools), ...)
    sides: object  # type -> (*elements -> (lhs, rhs)); the law holds when equal
    weight: int = 1


def _violation(law, t, xs, lhs, rhs, show):
    return law.kind, f"{t!r} on {show(xs)!r}: {show(lhs)!r} != {show(rhs)!r}"


def run_laws(laws, seed=0, budget=None, samples=300, notes=(),
             show=lambda v: v) -> Report:
    """Check the laws in order.  Exhaustive when the weighted candidate
    count fits the budget or there is no budget.  Otherwise `samples`
    rounds from random.Random(seed): each round visits the laws in
    order, picks one random type per law, then one random element per
    pool; a law without types draws nothing.  A type is prepared once.

    `checked` counts each instance visited with its law's weight: the
    exhaustive sweep adds weight x the product of the pool sizes once
    per type, so it ends equal to `candidates`; a sampled round adds
    weight per law that draws.

    A violation shows its elements xs and its two sides as show(xs),
    show(lhs) and show(rhs), by default as they are.  Laws run on numbers
    pass the function that turns numbers back into elements, so the text
    and the sort order are those of the laws run on the elements."""
    laws = [(law, [(t, pools) for t, pools in law.cases if all(pools)]) for law in laws]
    candidates = sum(law.weight * sum(prod(map(len, pools)) for _, pools in cases)
                     for law, cases in laws)
    violations = []
    checked = 0

    if budget is None or candidates <= budget:
        mode = "exhaustive"
        for law, cases in laws:
            for t, pools in cases:
                sides = law.sides(t)
                checked += law.weight * prod(map(len, pools))
                for xs in itertools.product(*pools):
                    lhs, rhs = sides(*xs)
                    if lhs != rhs:
                        violations.append(_violation(law, t, xs, lhs, rhs, show))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        prepared = cache(lambda n, t: laws[n][0].sides(t))
        for _ in range(samples):
            for n, (law, cases) in enumerate(laws):
                if cases:
                    t, pools = cases[rng.randrange(len(cases))]
                    xs = tuple(p[rng.randrange(len(p))] for p in pools)
                    checked += law.weight
                    lhs, rhs = prepared(n, t)(*xs)
                    if lhs != rhs:
                        violations.append(_violation(law, t, xs, lhs, rhs, show))
    violations.sort()
    return Report(not violations, mode, seed, candidates, checked, tuple(violations),
                  tuple(notes))


# ---------------------------------------------------------------------------
# positions


def contractable(word, omega):
    """The position pairs i < j of word that a contraction can join."""
    return [(i, j) for i in range(len(word)) for j in range(i + 1, len(word))
            if word[i] == omega(word[j])]


def drop(word, i, j):
    return tuple(c for k, c in enumerate(word) if k not in (i, j))


def shifted(pos, removed):
    # where pos lands once the positions in `removed` are deleted
    return pos - sum(1 for r in removed if r < pos)


def _cross(ops, u, v):
    # pairs (x, y): position x of u joinable to position y of v
    return [(x, y) for x in range(len(u)) for y in range(len(v))
            if u[x] == ops.omega(v[y])]


def _word_triples(ops):
    """The triples (u, v, w) of ops.words of total length at most ops.bound,
    in itertools.product order: each pool keeps the words that still fit."""
    b = ops.bound
    fits = [[w for w in ops.words if len(w) <= k] for k in range(b + 1)]
    return [(u, v, w) for u in fits[b] for v in fits[b - len(u)]
            for w in fits[b - len(u) - len(v)]]


def _multiply(ops, u, x, v, y):
    # the modular operad's multiplication: contract x of u with y of v in a ⊠ b
    box, zeta = ops.box(u, v), ops.zeta(u + v, x, len(u) + y)
    return lambda a, b: zeta(box(a, b))


# ---------------------------------------------------------------------------
# the circuit-operad laws


def product_associativity(ops):
    el = ops.elements
    cases = [((u, v, w), (el(u), el(v), el(w))) for u, v, w in _word_triples(ops)]

    def sides(t):
        u, v, w = t
        ab, ab_c = ops.box(u, v), ops.box(u + v, w)
        bc, a_bc = ops.box(v, w), ops.box(u, v + w)
        return lambda a, b, c: (ab_c(ab(a, b), c), a_bc(a, bc(b, c)))

    return Law("product-associativity", cases, sides)


def external_unit(ops):
    # a ⊠ unit = a = unit ⊠ a: two instances per element
    unit = ops.unit
    cases = [] if unit is None else [(w, (ops.elements(w),)) for w in ops.words]

    def sides(w):
        right, left = ops.box(w, ()), ops.box((), w)
        return lambda a: ((right(a, unit), left(unit, a)), (a, a))

    return Law("external-unit", cases, sides, weight=2)


def contraction_commutation(ops):
    cases = [((w, p, q), (ops.elements(w),)) for w in ops.words
             for p, q in itertools.combinations(contractable(w, ops.omega), 2)
             if not set(p) & set(q)]

    def sides(t):
        w, (i, j), (k, l) = t
        ij_kl = ops.zeta(drop(w, i, j), shifted(k, (i, j)), shifted(l, (i, j)))
        kl_ij = ops.zeta(drop(w, k, l), shifted(i, (k, l)), shifted(j, (k, l)))
        ij, kl = ops.zeta(w, i, j), ops.zeta(w, k, l)
        return lambda a: (ij_kl(ij(a)), kl_ij(kl(a)))

    return Law("contraction-commutation", cases, sides)


def product_contraction(ops):
    el = ops.elements
    cases = [((u, p, v), (el(u), el(v))) for u in ops.words
             for p in contractable(u, ops.omega)
             for v in ops.words if len(u) + len(v) <= ops.bound]

    def sides(t):
        u, (i, j), v = t
        ij, then_box = ops.zeta(u, i, j), ops.box(drop(u, i, j), v)
        box, then_ij = ops.box(u, v), ops.zeta(u + v, i, j)
        return lambda a, b: (then_box(ij(a), b), then_ij(box(a, b)))

    return Law("product-contraction", cases, sides)


def connected_unit(ops):
    # contracting slot x of a against ε_c after a ⊠ ε_c moves slot x to the end
    cases = [((w, x), (ops.elements(w),)) for w in ops.words
             if len(w) + 2 <= ops.bound for x in range(len(w))]

    def sides(t):
        w, x = t
        c = w[x]
        cw = (c, ops.omega(c))
        m = len(w)
        cycle = tuple(range(x)) + tuple(range(x + 1, m)) + (x,)
        box, zeta, unit = ops.box(w, cw), ops.zeta(w + cw, x, m + 1), ops.eps(c)
        move = ops.relabel(w, cycle)
        return lambda a: (zeta(box(a, unit)), move(a))

    return Law("connected-unit", cases, sides)


CIRCUIT_LAWS = (product_associativity, external_unit, contraction_commutation,
                product_contraction, connected_unit)


# ---------------------------------------------------------------------------
# the modular-operad laws of the derived multiplication


def multiplication_associativity(ops):
    """M1: associativity across a two-step chain u - v - w."""
    el = ops.elements
    cases = [((u, v, w, p, q), (el(u), el(v), el(w)))
             for u, v, w in _word_triples(ops)
             for p in _cross(ops, u, v) for q in _cross(ops, v, w) if q[0] != p[1]]

    def sides(t):
        u, v, w, (x1, y1), (y2, z) = t
        ab = _multiply(ops, u, x1, v, y1)
        ab_c = _multiply(ops, drop(u + v, x1, len(u) + y1),
                         len(u) - 1 + shifted(y2, (y1,)), w, z)
        bc = _multiply(ops, v, y2, w, z)
        a_bc = _multiply(ops, u, x1, drop(v + w, y2, len(v) + z), shifted(y1, (y2,)))
        return lambda a, b, c: (ab_c(ab(a, b), c), a_bc(a, bc(b, c)))

    return Law("multiplication-associativity", cases, sides)


def _pairs_of_words(ops):
    return [(u, v) for u, v in itertools.product(ops.words, repeat=2)
            if len(u) + len(v) <= ops.bound]


def contraction_multiplication(ops):
    """M3: a contraction inside one factor slides past the multiplication."""
    el = ops.elements
    cases = [((u, v, (i, j), (x, y)), (el(u), el(v)))
             for u, v in _pairs_of_words(ops)
             for i, j in contractable(u, ops.omega)
             for x, y in _cross(ops, u, v) if x not in (i, j)]

    def sides(t):
        u, v, (i, j), (x, y) = t
        ij, mul = ops.zeta(u, i, j), _multiply(ops, u, x, v, y)
        then_mul = _multiply(ops, drop(u, i, j), shifted(x, (i, j)), v, y)
        then_ij = ops.zeta(drop(u + v, x, len(u) + y), shifted(i, (x,)), shifted(j, (x,)))
        return lambda a, b: (then_mul(ij(a), b), then_ij(mul(a, b)))

    return Law("contraction-multiplication", cases, sides)


def contraction_order(ops):
    """M4: with two cross pairs, contracting either one first agrees."""
    el = ops.elements
    cases = [((u, v, p, q), (el(u), el(v)))
             for u, v in _pairs_of_words(ops)
             for p, q in itertools.permutations(_cross(ops, u, v), 2)
             if p[0] != q[0] and p[1] != q[1]]

    def sides(t):
        u, v, p, q = t

        def first(p, q):
            mul = _multiply(ops, u, p[0], v, p[1])
            then = ops.zeta(drop(u + v, p[0], len(u) + p[1]), shifted(q[0], (p[0],)),
                            len(u) - 1 + shifted(q[1], (p[1],)))
            return lambda a, b: then(mul(a, b))

        pq, qp = first(p, q), first(q, p)
        return lambda a, b: (pq(a, b), qp(a, b))

    return Law("contraction-order", cases, sides)


MODULAR_LAWS = (multiplication_associativity, contraction_commutation,
                contraction_multiplication, contraction_order)
