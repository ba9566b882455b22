"""Linear enrichment of the Brauer category.

Br_delta(m, n) is the free R-module on the open diagrams m -> n, with
composition tau_g tau_f = delta^k tau_gf where k counts the closed
components born from stacking.  Keeping delta formal recovers the
bubble count: BD with its closed-component bookkeeping embeds into
Br_t over Z[t] via (tau, k) |-> t^k tau, and that map is functorial.

Rings are value-level operation bundles, not a type-class hierarchy.
The number rings Z, Q and Z/p are instances of one class, which keeps
Python numbers in a canonical form (int, Fraction, least residue mod p)
and differs only in that form and in how values are read and written.
Z[t] has its own class: polynomial elements are tuples of coefficients
by degree with no trailing zeros, so equality is tuple equality and the
zero polynomial is ().  Elements are built by make_element alone, which
sums the coefficients of each diagram, so sums and products only list
their terms.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .brauer import (ArityMismatch, BrauerDiagram, compose_detailed, diagram_from_json,
                     diagram_to_json, tensor)
from .labels import whole_number
from .pairing import PairingError


class RingMismatch(ValueError):
    pass


class MalformedElement(ValueError):
    pass


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Ring:
    """Commutative ring interface: zero one add neg mul eq from_int parse."""

    name = "?"

    def power(self, a, k: int):
        out = self.one()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return self.eq(a, self.zero())

    def __repr__(self):
        return f"Ring({self.name})"

    # rings are compared nominally so that parsed elements match
    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class _Numbers(Ring):
    """Z, Q or Z/p on Python numbers: `canon` puts a number in the ring's
    canonical form, `read` turns text or a JSON value into a number and
    `write` turns a value into JSON."""

    def __init__(self, name, canon, read, write=None):
        self.name, self.canon, self.read = name, canon, read
        self.write = write or canon

    def zero(self):
        return self.canon(0)

    def one(self):
        return self.canon(1)

    def add(self, a, b):
        return self.canon(a + b)

    def neg(self, a):
        return self.canon(-a)

    def mul(self, a, b):
        return self.canon(a * b)

    def from_int(self, k):
        return self.canon(k)

    def from_json(self, obj):
        return self.canon(self.read(obj))

    parse = from_json  # each reader takes text and JSON values alike

    def to_json(self, a):
        return self.write(a)


_MAX_EXPONENT = 4300  # 10**exp has about the digits int() reads from text by default


def _read_fraction(obj):
    # JSON numbers go through their text, so 0.1 reads as 1/10
    text = str(obj)
    exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exp and abs(int(exp.group(1))) > _MAX_EXPONENT:  # Fraction would build 10**exp
        raise ValueError(f"decimal exponent past {_MAX_EXPONENT}: {obj!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {obj!r}") from None


class _IntPolynomials(Ring):
    """Z[t], dense coefficient tuples by degree."""

    name = "Z[t]"

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def t(self):
        return (0, 1)

    def add(self, a, b):
        width = max(len(a), len(b))
        a = a + (0,) * (width - len(a))
        b = b + (0,) * (width - len(b))
        return _strip(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _strip(out)

    def from_int(self, k):
        return _strip([k])

    def parse(self, text):
        text = text.strip()
        if text == "t":
            return self.t()
        if text.startswith("["):
            import json

            return _strip(whole_number(c) for c in json.loads(text))
        return self.from_int(whole_number(text))

    def to_json(self, a):
        return list(a)

    def from_json(self, obj):
        if isinstance(obj, list):
            return _strip(whole_number(c) for c in obj)
        return self.from_int(whole_number(obj))


ZZ = _Numbers("Z", int, whole_number)
QQ = _Numbers("Q", Fraction, _read_fraction, str)
ZPOLY = _IntPolynomials()


def integers_mod(p: int) -> Ring:
    if p < 2:
        raise ValueError(f"modulus must be >= 2: {p}")
    return _Numbers(f"Z/{p}", lambda k: k % p, whole_number)


def ring_by_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name in ("Z[t]", "Zt"):
        return ZPOLY
    if isinstance(name, str) and name.startswith("Z/"):
        return integers_mod(int(name[2:]))
    raise ValueError(f"unknown ring: {name!r}")


@dataclass(frozen=True)
class BrElement:
    ring: Ring
    m: int
    n: int
    terms: tuple  # tuple of (open BrauerDiagram, nonzero coefficient)

    def coefficient(self, d: BrauerDiagram):
        for key, c in self.terms:
            if key == d:
                return c
        return self.ring.zero()


def make_element(ring: Ring, m: int, n: int, terms) -> BrElement:
    """The element summing c d over the (diagram d, coefficient c) pairs
    of `terms`, or over the items of a mapping d -> c."""
    if isinstance(terms, Mapping):
        terms = terms.items()
    acc = {}
    zero = ring.zero()
    for d, c in terms:
        acc[d] = ring.add(acc.get(d, zero), c)
    kept = []
    for d, c in acc.items():
        if d.closed != 0:
            raise ArityMismatch(f"basis diagrams must be open: {d!r}")
        if (d.m, d.n) != (m, n):
            raise ArityMismatch(f"term arity {(d.m, d.n)} != element arity {(m, n)}")
        if not ring.is_zero(c):
            kept.append((d, c))
    kept.sort(key=lambda dc: dc[0].pairs)  # label pairs as strings, so "s10" < "s2"
    return BrElement(ring, m, n, tuple(kept))


def element_of(ring: Ring, d: BrauerDiagram, coeff=None) -> BrElement:
    """Single open diagram as an element; coeff defaults to 1."""
    coeff = ring.one() if coeff is None else coeff
    return make_element(ring, d.m, d.n, [(BrauerDiagram(d.m, d.n, d.partner), coeff)])


def br_zero(ring: Ring, m: int, n: int) -> BrElement:
    return BrElement(ring, m, n, ())


def br_add(a: BrElement, b: BrElement) -> BrElement:
    _check_rings(a, b)
    if (a.m, a.n) != (b.m, b.n):
        raise ArityMismatch(f"cannot add {(a.m, a.n)} and {(b.m, b.n)}")
    return make_element(a.ring, a.m, a.n, a.terms + b.terms)


def br_scale(coeff, a: BrElement) -> BrElement:
    return make_element(
        a.ring, a.m, a.n, [(d, a.ring.mul(coeff, c)) for d, c in a.terms]
    )


def br_compose(a: BrElement, b: BrElement, delta) -> BrElement:
    """Bilinear extension of stacking; each born loop scales by delta."""
    _check_rings(a, b)
    if a.n != b.m:
        raise ArityMismatch(f"cannot stack {a.m}->{a.n} onto {b.m}->{b.n}")
    ring = a.ring

    def terms():
        for f, cf in a.terms:
            for g, cg in b.terms:
                h, cycles = compose_detailed(f, g)
                yield (BrauerDiagram(h.m, h.n, h.partner),
                       ring.mul(ring.mul(cf, cg), ring.power(delta, len(cycles))))

    return make_element(ring, a.m, b.n, terms())


def br_tensor(a: BrElement, b: BrElement) -> BrElement:
    _check_rings(a, b)
    ring = a.ring
    return make_element(ring, a.m + b.m, a.n + b.n, [
        (tensor(f, g), ring.mul(cf, cg)) for f, cf in a.terms for g, cg in b.terms])


def _check_rings(a: BrElement, b: BrElement):
    if a.ring is not b.ring and a.ring.name != b.ring.name:
        raise RingMismatch(f"{a.ring.name} vs {b.ring.name}")


def bd_to_br_t(f: BrauerDiagram) -> BrElement:
    """(tau, k) |-> t^k tau over Z[t]; functorial for delta = t."""
    return element_of(ZPOLY, f, ZPOLY.power(ZPOLY.t(), f.closed))


def algebra_dimension(n: int) -> int:
    if n < 0:
        raise ArityMismatch(f"negative arity: {n}")
    return prod(range(1, 2 * n, 2)) if n else 1


def is_walled(f: BrauerDiagram, wall) -> bool:
    """Wall (m1, n1, m2, n2): sources split m1 | n1, targets m2 | n2.

    Walled diagrams pair {first source block, second target block}
    points with {second source block, first target block} points
    only, i.e. the pairing reads as a bijection between the two mixed
    boundary groups.
    """
    m1, n1, m2, n2 = wall
    if m1 + n1 != f.m or m2 + n2 != f.n:
        raise ArityMismatch(f"wall {wall!r} does not fit {f.m}->{f.n}")

    def group(p):
        if p < f.m:
            return 0 if p < m1 else 1
        return 1 if p - f.m < m2 else 0

    return all(group(p) != group(q) for p, q in enumerate(f.partner))


def element_to_json(a: BrElement) -> dict:
    return {
        "ring": a.ring.name,
        "m": a.m,
        "n": a.n,
        "terms": [
            {"coeff": a.ring.to_json(c), "diagram": diagram_to_json(d)}
            for d, c in a.terms
        ],
    }


def element_from_json(obj: dict) -> BrElement:
    try:
        ring = ring_by_name(obj["ring"])
        terms = [(diagram_from_json(t["diagram"]), ring.from_json(t["coeff"]))
                 for t in obj["terms"]]
        m, n = whole_number(obj["m"]), whole_number(obj["n"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, PairingError):
            raise
        raise MalformedElement(f"malformed element document: {exc}") from exc
    return make_element(ring, m, n, terms)
