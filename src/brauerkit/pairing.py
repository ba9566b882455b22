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

One strand walk over integer positions (_walk, and _loops for the
cycles) traces every stack in the package: brauer.compose_detailed and
brauer_algebra.br_compose call it on partner tuples, and
compose_pairings_detailed is an adapter that numbers X, Y and Z as
positions and reads the walk's result back as labels.
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


def _walk(pf, pg, m: int, k: int, n: int):
    """Trace the strands of f: m -> k stacked on g: k -> n, given their
    partner tuples.  Returns the composite's partner list and, per seam
    point i (0-based), whether a strand with boundary ends crossed it;
    the seam points it did not meet lie on the closed loops born in the
    stack."""
    out = [-1] * (m + n)
    seen = [False] * k
    # seam point i is f's position m + i and g's position i; a strand
    # crosses the seam until it ends at a source of f (q < m in f) or at
    # a target of g (q >= k in g), which is the composite's m + q - k
    for start in range(m + n):
        if out[start] >= 0:
            continue
        if start < m:
            q = pf[start]
            while q >= m:  # in f at seam point q - m: cross into g
                i = q - m
                seen[i] = True
                q = pg[i]
                if q >= k:
                    q += m - k
                    break
                seen[q] = True  # in g at seam point q: cross into f
                q = pf[m + q]
        else:
            q = pg[k + start - m]
            while q < k:  # in g at seam point q: cross into f
                seen[q] = True
                # never a source of f: that strand was walked from its source
                i = pf[m + q] - m  # in f at seam point i: cross into g
                seen[i] = True
                q = pg[i]
            q += m - k
        out[start], out[q] = q, start
    return out, seen


def _loops(pf, pg, m: int, seen) -> list:
    """The closed loops at the seam that _walk left unmet, each as the
    tuple of its 1-based seam indices in traversal order: from its least
    index, through f first.  Marks the points it lists in seen."""
    loops = []
    for i in range(len(seen)):
        if seen[i]:
            continue
        loop, j, in_f = [i + 1], pf[m + i] - m, False
        while j != i:
            seen[j] = True
            loop.append(j + 1)
            j = pf[m + j] - m if in_f else pg[j]
            in_f = not in_f
        loops.append(tuple(loop))
    return loops


def compose_pairings_detailed(p_xy: Pairing, p_yz: Pairing, shared):
    """Stack two pairings along the shared set.

    Returns (composite pairing on X ⊔ Z, cycles) where cycles is a
    tuple of tuples listing, for each closed component, its shared
    labels in traversal order starting from the least label (first
    step through p_xy); the cycles are listed by least label.
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

    # X, Y and Z, each in label order, are the positions of a stack
    # xs -> ys onto ys -> zs, so a loop's least seam index is its least label
    xs, ys, zs = sort_labels(x), sort_labels(y), sort_labels(z)
    m = len(xs)
    pf, pg = _positions(p_xy, xs + ys), _positions(p_yz, ys + zs)
    out, seen = _walk(pf, pg, m, len(ys), len(zs))
    loops = () if all(seen) else _loops(pf, pg, m, seen)
    xz = xs + zs
    order = sorted(range(len(xz)), key=lambda p: label_key(xz[p]))
    rank = {p: r for r, p in enumerate(order)}
    # each pair from its lesser label, so the pairs are listed by first label
    pairs = tuple((xz[p], xz[out[p]]) for p in order if rank[p] < rank[out[p]])
    cycles = tuple(tuple(ys[i - 1] for i in loop) for loop in loops)
    return Pairing(tuple(xz[p] for p in order), pairs), cycles


def _positions(p: Pairing, carrier) -> list:
    """p's partner list over the positions of carrier, listed in order."""
    at = {a: i for i, a in enumerate(carrier)}
    return [at[p.partner[a]] for a in carrier]


def compose_pairings(p_xy: Pairing, p_yz: Pairing, shared):
    result, cycles = compose_pairings_detailed(p_xy, p_yz, shared)
    return result, len(cycles)


def all_pairings(labels):
    """Yield every pairing on the labels, deterministically.

    Recursive least-unmatched scheme: the least remaining label is
    paired with each other remaining label in turn.  The number of
    results on 2k labels is (2k-1)!!.  A repeated label is refused as
    make_pairing refuses it.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"carrier repeats a label: {labels!r}")
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
