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
    box(u, a, v, b)    a ⊠ b, at the word u + v
    zeta(w, i, j, a)   ζ_ij a for i < j, at w without positions i and j
    eps(c)             ε_c, at the word (c, ω c)
    unit               the external unit at (), or None when there is none
    relabel(w, s, a)   the action of the position permutation s on a,
                       at the word (w . s)[k] = w[s[k]]
    bound, omega       the arity bound and the colour involution

A law is a kind, a weight, its instance types each with its element
pools, and the two sides of its equation.  run_laws checks every
instance when the weighted candidate count fits the budget (or there is
no budget), and otherwise samples; it returns one Report.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
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
    sides: object  # (type, *elements) -> (lhs, rhs); the law holds when equal
    weight: int = 1


def run_laws(laws, seed=0, budget=None, samples=300, notes=()) -> Report:
    """Check the laws in order.  Exhaustive when the weighted candidate
    count fits the budget or there is no budget.  Otherwise `samples`
    rounds from random.Random(seed): each round visits the laws in
    order, picks one random type per law, then one random element per
    pool; a law without types draws nothing."""
    laws = [(law, [(t, pools) for t, pools in law.cases if all(pools)]) for law in laws]
    candidates = sum(law.weight * sum(prod(map(len, pools)) for _, pools in cases)
                     for law, cases in laws)
    violations = []
    checked = 0

    def check(law, t, xs):
        lhs, rhs = law.sides(t, *xs)
        if lhs != rhs:
            violations.append((law.kind, f"{t!r} on {xs!r}: {lhs!r} != {rhs!r}"))

    if budget is None or candidates <= budget:
        mode = "exhaustive"
        for law, cases in laws:
            for t, pools in cases:
                for xs in itertools.product(*pools):
                    checked += law.weight
                    check(law, t, xs)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        for _ in range(samples):
            for law, cases in laws:
                if cases:
                    t, pools = cases[rng.randrange(len(cases))]
                    checked += law.weight
                    check(law, t, tuple(p[rng.randrange(len(p))] for p in pools))
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


def _multiply(ops, u, x, v, y, a, b):
    # the modular operad's multiplication: contract x of u with y of v in a ⊠ b
    return ops.zeta(u + v, x, len(u) + y, ops.box(u, a, v, b))


# ---------------------------------------------------------------------------
# the circuit-operad laws


def product_associativity(ops):
    el = ops.elements
    cases = [((u, v, w), (el(u), el(v), el(w)))
             for u, v, w in itertools.product(ops.words, repeat=3)
             if len(u) + len(v) + len(w) <= ops.bound]

    def sides(t, a, b, c):
        u, v, w = t
        return (ops.box(u + v, ops.box(u, a, v, b), w, c),
                ops.box(u, a, v + w, ops.box(v, b, w, c)))

    return Law("product-associativity", cases, sides)


def external_unit(ops):
    # a ⊠ unit = a = unit ⊠ a: two instances per element
    unit = ops.unit
    cases = [] if unit is None else [(w, (ops.elements(w),)) for w in ops.words]

    def sides(w, a):
        return (ops.box(w, a, (), unit), ops.box((), unit, w, a)), (a, a)

    return Law("external-unit", cases, sides, weight=2)


def contraction_commutation(ops):
    cases = [((w, p, q), (ops.elements(w),)) for w in ops.words
             for p, q in itertools.combinations(contractable(w, ops.omega), 2)
             if not set(p) & set(q)]

    def sides(t, a):
        w, (i, j), (k, l) = t
        return (ops.zeta(drop(w, i, j), shifted(k, (i, j)), shifted(l, (i, j)),
                         ops.zeta(w, i, j, a)),
                ops.zeta(drop(w, k, l), shifted(i, (k, l)), shifted(j, (k, l)),
                         ops.zeta(w, k, l, a)))

    return Law("contraction-commutation", cases, sides)


def product_contraction(ops):
    el = ops.elements
    cases = [((u, p, v), (el(u), el(v))) for u in ops.words
             for p in contractable(u, ops.omega)
             for v in ops.words if len(u) + len(v) <= ops.bound]

    def sides(t, a, b):
        u, (i, j), v = t
        return (ops.box(drop(u, i, j), ops.zeta(u, i, j, a), v, b),
                ops.zeta(u + v, i, j, ops.box(u, a, v, b)))

    return Law("product-contraction", cases, sides)


def connected_unit(ops):
    # contracting slot x of a against ε_c after a ⊠ ε_c moves slot x to the end
    cases = [((w, x), (ops.elements(w),)) for w in ops.words
             if len(w) + 2 <= ops.bound for x in range(len(w))]

    def sides(t, a):
        w, x = t
        c = w[x]
        cw = (c, ops.omega(c))
        m = len(w)
        cycle = tuple(range(x)) + tuple(range(x + 1, m)) + (x,)
        return (ops.zeta(w + cw, x, m + 1, ops.box(w, a, cw, ops.eps(c))),
                ops.relabel(w, cycle, a))

    return Law("connected-unit", cases, sides)


CIRCUIT_LAWS = (product_associativity, external_unit, contraction_commutation,
                product_contraction, connected_unit)


# ---------------------------------------------------------------------------
# the modular-operad laws of the derived multiplication


def multiplication_associativity(ops):
    """M1: associativity across a two-step chain u - v - w."""
    el = ops.elements
    cases = [((u, v, w, p, q), (el(u), el(v), el(w)))
             for u, v, w in itertools.product(ops.words, repeat=3)
             if len(u) + len(v) + len(w) <= ops.bound
             for p in _cross(ops, u, v) for q in _cross(ops, v, w) if q[0] != p[1]]

    def sides(t, a, b, c):
        u, v, w, (x1, y1), (y2, z) = t
        d = _multiply(ops, u, x1, v, y1, a, b)
        lhs = _multiply(ops, drop(u + v, x1, len(u) + y1),
                        len(u) - 1 + shifted(y2, (y1,)), w, z, d, c)
        e = _multiply(ops, v, y2, w, z, b, c)
        rhs = _multiply(ops, u, x1, drop(v + w, y2, len(v) + z),
                        shifted(y1, (y2,)), a, e)
        return lhs, rhs

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

    def sides(t, a, b):
        u, v, (i, j), (x, y) = t
        lhs = _multiply(ops, drop(u, i, j), shifted(x, (i, j)), v, y,
                        ops.zeta(u, i, j, a), b)
        rhs = ops.zeta(drop(u + v, x, len(u) + y), shifted(i, (x,)), shifted(j, (x,)),
                       _multiply(ops, u, x, v, y, a, b))
        return lhs, rhs

    return Law("contraction-multiplication", cases, sides)


def contraction_order(ops):
    """M4: with two cross pairs, contracting either one first agrees."""
    el = ops.elements
    cases = [((u, v, p, q), (el(u), el(v)))
             for u, v in _pairs_of_words(ops)
             for p, q in itertools.permutations(_cross(ops, u, v), 2)
             if p[0] != q[0] and p[1] != q[1]]

    def sides(t, a, b):
        u, v, p, q = t

        def first(p, q):
            d = _multiply(ops, u, p[0], v, p[1], a, b)
            return ops.zeta(drop(u + v, p[0], len(u) + p[1]), shifted(q[0], (p[0],)),
                            len(u) - 1 + shifted(q[1], (p[1],)), d)

        return first(p, q), first(q, p)

    return Law("contraction-order", cases, sides)


MODULAR_LAWS = (multiplication_associativity, contraction_commutation,
                contraction_multiplication, contraction_order)
