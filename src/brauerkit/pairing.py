"""Fixed-point-free involutions on labelled finite sets.

A pairing on a finite set X is a partition of X into two-element
blocks, equivalently a fixed-point-free involution.  The empty set
carries the unique empty pairing.

The one non-trivial operation is composition by stacking.  Given a
pairing p_xy on X ⊔ Y and a pairing p_yz on Y ⊔ Z (same middle set Y,
X and Z disjoint), the stacked picture decomposes into alternating
chains and cycles:

  * a chain starts at a point of X ⊔ Z, alternates between the two
    involutions through Y, and ends at another point of X ⊔ Z.  The
    chains define the composite pairing on X ⊔ Z;
  * a cycle lies entirely inside Y and alternates between the two
    involutions.  Cycles are the closed components born from the
    composition; only their count (and, for the coloured theory,
    their membership) survives.

Counting blocks gives the bookkeeping identity

    |orbits(p_xy)| + |orbits(p_yz)| = |orbits(composite)| + |Y|

since a chain through k middle points uses k+1 blocks and contributes
one orbit, while a cycle through k middle points uses exactly k blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .labels import decode_labels, decode_pairs, encode_label, label_key, read_field, sort_labels


class PairingError(ValueError):
    pass


class DuplicateLabel(PairingError):
    pass


class UncoveredLabel(PairingError):
    pass


class SelfPair(PairingError):
    pass


class SharedSetMismatch(PairingError):
    pass


@dataclass(frozen=True)
class Pairing:
    carrier: tuple
    pairs: tuple  # tuple of (a, b) with a < b under label_key, sorted

    @cached_property
    def partner(self) -> dict:
        out = {}
        for a, b in self.pairs:
            out[a] = b
            out[b] = a
        return out

    def apply(self, x):
        try:
            return self.partner[x]
        except KeyError:
            raise UncoveredLabel(f"label {x!r} not in carrier") from None

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def make_pairing(carrier, pairs) -> Pairing:
    carrier = list(carrier)
    cset = set(carrier)
    if len(cset) != len(carrier):
        raise DuplicateLabel(f"carrier repeats a label: {carrier!r}")
    seen = set()
    norm = []
    for p in pairs:
        a, b = p
        if a == b:
            raise SelfPair(f"pair {p!r} repeats its label")
        if a in seen or b in seen:
            raise DuplicateLabel(f"label used twice across pairs: {p!r}")
        if a not in cset or b not in cset:
            raise UncoveredLabel(f"pair {p!r} leaves the carrier")
        seen.add(a)
        seen.add(b)
        if label_key(a) > label_key(b):
            a, b = b, a
        norm.append((a, b))
    if seen != cset:
        missing = sort_labels(cset - seen)
        raise UncoveredLabel(f"labels not covered by any pair: {missing!r}")
    norm.sort(key=lambda ab: label_key(ab[0]))
    return Pairing(tuple(sort_labels(carrier)), tuple(norm))


def orbits(p: Pairing) -> list:
    return list(p.pairs)


def compose_pairings_detailed(p_xy: Pairing, p_yz: Pairing, shared):
    """Stack two pairings along the shared set.

    Returns (composite pairing on X ⊔ Z, cycles) where cycles is a
    tuple of tuples listing, for each closed component, its shared
    labels in traversal order starting from the least label (first
    step through p_xy).
    """
    y = frozenset(shared)
    c1 = set(p_xy.carrier)
    c2 = set(p_yz.carrier)
    if not (y <= c1 and y <= c2):
        raise SharedSetMismatch("shared set must lie in both carriers")
    x = c1 - y
    z = c2 - y
    if x & z:
        raise SharedSetMismatch(f"outer boundaries overlap: {sort_labels(x & z)!r}")

    t1 = p_xy.partner
    t2 = p_yz.partner
    seen = set()
    new_pairs = []
    for start in sort_labels(x) + sort_labels(z):
        if start in seen:
            continue
        seen.add(start)
        in_first = start in x
        cur = t1[start] if in_first else t2[start]
        use_first = not in_first
        while cur in y:
            seen.add(cur)
            cur = t1[cur] if use_first else t2[cur]
            use_first = not use_first
        seen.add(cur)
        a, b = start, cur
        if label_key(a) > label_key(b):
            a, b = b, a
        new_pairs.append((a, b))

    cycles = []
    for y0 in sort_labels(y):
        if y0 in seen:
            continue
        cyc = [y0]
        seen.add(y0)
        cur = t1[y0]
        use_first = False
        while cur != y0:
            cyc.append(cur)
            seen.add(cur)
            cur = t1[cur] if use_first else t2[cur]
            use_first = not use_first
        cycles.append(tuple(cyc))

    new_pairs.sort(key=lambda ab: label_key(ab[0]))
    result = Pairing(tuple(sort_labels(x | z)), tuple(new_pairs))
    return result, tuple(cycles)


def compose_pairings(p_xy: Pairing, p_yz: Pairing, shared):
    result, cycles = compose_pairings_detailed(p_xy, p_yz, shared)
    return result, len(cycles)


def all_pairings(labels):
    """Yield every pairing on the labels, deterministically.

    Recursive least-unmatched scheme: the least remaining label is
    paired with each other remaining label in turn.  The number of
    results on 2k labels is (2k-1)!!.
    """
    labels = sort_labels(labels)
    if len(labels) % 2:
        return

    def rec(rest, acc):
        if not rest:
            yield tuple(acc)
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            acc.append((a, b))
            yield from rec(rest[1:i] + rest[i + 1:], acc)
            acc.pop()

    carrier = tuple(labels)
    for blocks in rec(labels, []):
        yield Pairing(carrier, blocks)


def pairing_to_json(p: Pairing) -> dict:
    return {
        "carrier": [encode_label(a) for a in p.carrier],
        "pairs": [[encode_label(a), encode_label(b)] for a, b in p.pairs],
    }


def pairing_from_json(obj: dict) -> Pairing:
    carrier = read_field(obj, "carrier", decode_labels, PairingError, "pairing")
    pairs = read_field(obj, "pairs", decode_pairs, PairingError, "pairing")
    return make_pairing(carrier, pairs)
