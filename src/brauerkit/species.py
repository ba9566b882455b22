"""Finite graphical species, circuit-operad structure, and Segal checks.

A species assigns a finite set to each colour word, with the symmetric
groups acting by relabelling.  Storage convention: tables live at
sorted words only, and an element of S_w for an unsorted w is referred
to by its name in the sorted table, via the stable sorting permutation
of w.  All the derived operations below (products, contractions,
generic relabellings) reduce to stored data through that identification.

Permutations are tuples p acting on 0-based positions; the word
transport is (w . p)[i] = w[p[i]], and the presheaf is contravariant:
S(p . q) = S(q) o S(p).  The stabilizer of a sorted word is presented
by its adjacent swaps, so an action entry is either the identity with
the identity map or a swap s_k of two equal neighbouring letters, each
s_k with one map; make_species refuses any other entry and checks the
listed maps against the Coxeter relations.  A permutation acts by
bubble-sorting it into swaps, and one that needs an unlisted swap is
refused.  Each species keeps two bounded caches (CACHE_CAP entries
each): the actions it has composed and the relabellings it has prepared.

The circuit-operad checks run the laws of the axioms module on the
tables through the product and contractions, prepared once per key and
check, the stored units and the relabellings, and add the table-only
laws: unit symmetry and the equivariance of both tables against the
listed actions.

Structures on a graph are pairs (edge colouring, vertex assignment),
both as sorted tuples of pairs, so they double as labels and can sit
inside presheaf tables or JSON documents unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from types import MappingProxyType, SimpleNamespace

from .axioms import (
    CIRCUIT_LAWS,
    MODULAR_LAWS,
    Law,
    Report,
    contractable,
    drop,
    run_laws,
    shifted,
)
from .coloured import Palette, palette_from_json, palette_to_json
from .graph import (
    GraphMorphism,
    InvalidParameter,
    element_arrows,
    elements,
    glue,
    graph_from_json,
    graph_to_json,
    make_graph,
    make_xgraph,
    port_labels,
    x_certificate,
    x_iso,
)
from .labels import decode_label, decode_pairs, encode_label, label_key, sort_labels
from .wiring import ArityBoundExceeded, ColourMismatch, MissingActionEntry, _algebra_ops


class BoundTooLarge(ValueError):
    pass


class MissingRestriction(ValueError):
    pass


# ---------------------------------------------------------------------------
# position permutations


def _identity(n):
    return tuple(range(n))


def _comp(p, q):
    # (p o q)[i] = p[q[i]]
    return tuple(p[i] for i in q)


def _inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _apply(word, p):
    return tuple(word[i] for i in p)


def _sort_perm(word):
    # stable, so the permutation of an already-sorted word is the identity
    return tuple(sorted(range(len(word)), key=lambda i: (label_key(word[i]), i)))


def _block(p, q):
    return p + tuple(len(p) + i for i in q)


def _adjacent_swaps(word):
    # the transpositions of equal neighbouring letters; at a sorted word
    # they generate the stabilizer
    for k in range(len(word) - 1):
        if word[k] == word[k + 1]:
            yield _identity(k) + (k + 1, k) + tuple(range(k + 2, len(word)))


def _bubble_swaps(theta):
    # k1, k2, ... with theta o s_k1 o s_k2 o ... = identity, so that
    # theta = ... o s_k2 o s_k1; at a sorted word a stabilizing theta
    # only ever swaps two positions that carry the same letter
    cur = list(theta)
    out = []
    for end in range(len(cur) - 1, 0, -1):
        for k in range(end):
            if cur[k] > cur[k + 1]:
                cur[k], cur[k + 1] = cur[k + 1], cur[k]
                out.append(k)
    return out


def _check_coxeter(word, swap_maps, elems):
    # the listed swaps extend to an action of the subgroup they generate
    # exactly when their maps satisfy its Coxeter relations: (s_a s_b)^m = 1
    # with m = 1 for a = b, 3 for neighbours and 2 otherwise
    for a, b in itertools.combinations_with_replacement(sorted(swap_maps), 2):
        m = 1 if a == b else 3 if b == a + 1 else 2
        sa, sb = swap_maps[a], swap_maps[b]
        for e in elems:
            x = e
            for _ in range(m):
                x = sb[sa[x]]
            if x != e:
                raise InvalidParameter(
                    f"action entries at {word!r}: swaps {a} and {b} break (s{a} s{b})^{m} = 1"
                )


# entries each per-species cache holds at most; past it, results are
# computed and not stored
CACHE_CAP = 4096


def _remember(cache, key, value):
    if len(cache) < CACHE_CAP:
        cache[key] = value
    return value


# ---------------------------------------------------------------------------
# species


@dataclass(frozen=True)
class GraphicalSpecies:
    """Arity tables at sorted colour words plus stabilizer actions.

    tables: ((word, elements), ...); actions: ((word, perm, mapping), ...)
    where each perm is the identity, with the identity mapping, or an
    adjacent swap of two equal letters of its word, and mapping lists
    the bijection as (element, image) pairs.
    """

    palette: Palette
    bound: int
    tables: tuple
    actions: tuple

    @cached_property
    def table_map(self):
        return {w: es for w, es in self.tables}

    @cached_property
    def _swap_maps(self):
        # {word: {k: map of s_k}} for every word that lists a swap; a
        # listing of some of the swaps presents the parabolic subgroup
        # they generate, so the Coxeter relations among them suffice
        out = {}
        for word, perm, mapping in self.actions:
            if perm == _identity(len(word)):
                continue
            # an adjacent swap's k is the first position it moves
            k = next(i for i, v in enumerate(perm) if v != i)
            m = dict(mapping)
            if out.setdefault(word, {}).setdefault(k, m) != m:
                raise InvalidParameter(f"action entries at {word!r} give s{k} two maps")
        for word, maps in out.items():
            _check_coxeter(word, maps, self.table_map[word])
        return out

    def rep(self, word):
        word = tuple(word)
        for c in word:
            self.palette.omega(c)
        return tuple(sort_labels(word))

    def elements(self, word):
        word = tuple(word)
        if len(word) > self.bound:
            raise ArityBoundExceeded(
                f"word of length {len(word)} exceeds bound {self.bound}"
            )
        return self.table_map.get(self.rep(word), ())

    # the caches below live as long as the species and hold at most
    # CACHE_CAP entries each

    @cached_property
    def _acts(self):
        # (sorted word, theta) -> S(theta) as a function of the names
        return {}

    @cached_property
    def _transport_plans(self):
        # (word, sigma) -> S(sigma) as a function of the names: see transport
        return {}

    def _acting(self, rep_word, theta):
        key = (rep_word, theta)
        return self._acts.get(key) or _remember(self._acts, key, self._action(rep_word, theta))

    def act_name(self, rep_word, theta, name):
        return self._acting(rep_word, theta)(name)

    def _action(self, word, theta):
        if sorted(theta) != list(range(len(word))) or _apply(word, theta) != word:
            raise InvalidParameter(f"{theta!r} is not a permutation stabilizing {word!r}")
        if theta == _identity(len(theta)) or len(self.table_map.get(word, ())) <= 1:
            return lambda name: name  # the only bijection of a small set
        # theta = s_kL o ... o s_k1 and S is contravariant, so s_kL acts first;
        # bubble sort writes a reduced word, which stays inside the subgroup
        # generated by the listed swaps whenever theta lies in it
        swap_maps = self._swap_maps.get(word, {})
        mapping = {e: e for e in self.table_map[word]}
        for k in reversed(_bubble_swaps(theta)):
            if k not in swap_maps:
                raise InvalidParameter(f"no action entry reaches {theta!r} at {word!r}")
            s = swap_maps[k]
            mapping = {e: s[v] for e, v in mapping.items()}
        return mapping.__getitem__

    def _transporting(self, word, sigma):
        """S(sigma) at S_word, as a function of the element names."""
        key = (tuple(word), tuple(sigma))
        act = self._transport_plans.get(key)
        if act is None:
            word, sigma = key
            p = _sort_perm(word)
            theta = _comp(_inv(p), _comp(sigma, _sort_perm(_apply(word, sigma))))
            act = _remember(self._transport_plans, key, self._acting(_apply(word, p), theta))
        return act

    def transport(self, word, sigma, name):
        """The name of S(sigma) applied to the element named `name` of S_word."""
        return self._transporting(word, sigma)(name)


def make_species(palette, bound, tables, actions=()):
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
        raise InvalidParameter(f"bound must be a non-negative integer, got {bound!r}")
    if isinstance(tables, dict):
        tables = tables.items()
    norm_tables = {}
    for word, elems in tables:
        word = tuple(word)
        for c in word:
            palette.omega(c)
        if len(word) > bound:
            raise ArityBoundExceeded(f"table word {word!r} longer than bound {bound}")
        if word != tuple(sort_labels(word)):
            raise InvalidParameter(f"table word {word!r} is not sorted")
        if word in norm_tables:
            raise InvalidParameter(f"duplicate table word {word!r}")
        elems = tuple(elems)
        for e in elems:
            label_key(e)
        if len(set(elems)) != len(elems):
            raise InvalidParameter(f"duplicate elements at {word!r}")
        norm_tables[word] = elems

    norm_actions = []
    for word, perm, mapping in actions:
        word, perm = tuple(word), tuple(perm)
        if word not in norm_tables:
            raise InvalidParameter(f"action at unlisted word {word!r}")
        identity = perm == _identity(len(word))
        # a list, so that perm is compared by == and never hashed or sorted
        if not identity and perm not in list(_adjacent_swaps(word)):
            raise InvalidParameter(
                f"{perm!r} is neither the identity nor a swap of equal neighbours in {word!r}"
            )
        mapping = dict(mapping)
        elems = norm_tables[word]
        if set(mapping) != set(elems) or set(mapping.values()) != set(elems):
            raise InvalidParameter(f"action at {word!r} is not a table bijection")
        if identity and any(a != b for a, b in mapping.items()):
            raise InvalidParameter(f"the identity entry at {word!r} moves an element")
        norm_actions.append((word, perm, tuple(sorted(mapping.items(),
                                                      key=lambda kv: label_key(kv[0])))))

    sp = GraphicalSpecies(
        palette,
        bound,
        tuple(sorted(norm_tables.items(), key=lambda kv: label_key(kv[0]))),
        tuple(norm_actions),
    )
    sp._swap_maps  # the listed swaps must satisfy the Coxeter relations
    return sp


def terminal_species(palette, bound):
    """Singleton arities everywhere; every structure map is forced."""
    tables = {}
    for n in range(bound + 1):
        for word in itertools.combinations_with_replacement(palette.colours, n):
            tables[word] = ("*",)
    return make_species(palette, bound, tables)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(S, g):
    """All S-structures on g: an omega-compatible colouring of the edges
    together with an arity-table element per vertex."""
    for v in g.vertices:
        if g.valency(v) > S.bound:
            raise ArityBoundExceeded(
                f"vertex {v!r} has valency {g.valency(v)}, bound is {S.bound}"
            )
    omega = S.palette.omega
    out = []
    for combo in itertools.product(S.palette.colours, repeat=len(g.tau_pairs)):
        kappa = {}
        for (a, b), c in zip(g.tau_pairs, combo):
            kappa[a] = c
            kappa[b] = omega(c)
        options = []
        for v in g.vertices:
            word = tuple(kappa[e] for e in g.vertex_edges(v))
            names = S.elements(word)
            if not names:
                options = None
                break
            options.append([(v, n) for n in names])
        if options is None:
            continue
        colour_items = tuple((e, kappa[e]) for e in g.edges)
        for assign in itertools.product(*options):
            out.append((colour_items, tuple(assign)))
    return tuple(out)


def pull_back(S, structure, f):
    """The structure f^* gives on f's source: each edge takes the colour
    of its image, and each vertex the name of its image's, relabelled by
    S.transport through the order f puts on its edges.  f must map each
    vertex's edges bijectively onto its image vertex's."""
    colour_items, vertex_items = structure
    kappa = dict(colour_items)
    alpha = dict(vertex_items)
    source, target = f.source, f.target
    edge_map = f.edge_map
    out_alpha = []
    for u in source.vertices:
        v = f.vertex_map[u]
        t_edges = target.vertex_edges(v)
        pos = {e: i for i, e in enumerate(t_edges)}
        theta = tuple(pos[edge_map[e]] for e in source.vertex_edges(u))
        out_alpha.append((u, S.transport(tuple(kappa[e] for e in t_edges), theta, alpha[v])))
    return (
        tuple((e, kappa[edge_map[e]]) for e in source.edges),
        tuple(out_alpha),
    )


def transport_structure(S, witness, structure):
    """Push a structure along an isomorphism witness: the pull-back
    along its inverse."""
    inverse = GraphMorphism(
        witness.target, witness.source,
        tuple((b, a) for a, b in witness.edge_pairs),
        tuple((b, a) for a, b in witness.vertex_pairs),
    )
    return pull_back(S, structure, inverse)


# ---------------------------------------------------------------------------
# circuit-operad structure


@dataclass(frozen=True)
class CircuitOperadStructure:
    """External products, contractions, and units, tabulated at sorted words.

    boxtimes: ((word1, word2, rows), ...) with rows ((a, b, value), ...);
    contraction: ((word, i, j, rows), ...) with 0-based i < j and rows
    ((a, value), ...); epsilon: ((colour, name), ...).  external_unit is
    an element of the empty-word table, or None when the structure omits
    it (the write-up mostly suppresses that unit, so it stays optional).
    """

    boxtimes: tuple
    contraction: tuple
    epsilon: tuple
    external_unit: object = None

    @cached_property
    def box_map(self):
        return {(w1, w2): {(a, b): v for a, b, v in rows}
                for w1, w2, rows in self.boxtimes}

    @cached_property
    def zeta_map(self):
        return {(w, i, j): dict(rows) for w, i, j, rows in self.contraction}

    @cached_property
    def epsilon_map(self):
        return dict(self.epsilon)


def make_operad_structure(boxtimes, contraction, epsilon, external_unit=None):
    """The structure from dicts: boxtimes {(w1, w2): {(a, b): value}},
    contraction {(w, i, j): {a: value}}, epsilon {colour: name}."""
    box = tuple((tuple(w1), tuple(w2), tuple((a, b, v) for (a, b), v in rows.items()))
                for (w1, w2), rows in boxtimes.items())
    zeta = tuple((tuple(w), int(i), int(j), tuple(rows.items()))
                 for (w, i, j), rows in contraction.items())
    return CircuitOperadStructure(box, zeta, tuple(epsilon.items()), external_unit)


# The prepared operations of C on S: functions of the element names that
# raise MissingActionEntry on a missing row.  A stored value names an
# element at sorted words, and transport moves it to the words asked for.
def _product(S, C, w1, w2):
    if len(w1) + len(w2) > S.bound:
        raise ArityBoundExceeded(f"|{w1!r}| + |{w2!r}| exceeds bound {S.bound}")
    q1, q2 = _sort_perm(w1), _sort_perm(w2)
    r1, r2 = S.rep(w1), S.rep(w2)
    rows = C.box_map.get((r1, r2), {})
    act = S._transporting(r1 + r2, _inv(_block(q1, q2))) if rows else None

    def product(n1, n2):
        if (n1, n2) not in rows:
            raise MissingActionEntry(f"no product entry for {r1!r} x {r2!r}")
        return act(rows[n1, n2])

    return product


def _contraction(S, C, w, x, y):
    m = len(w)
    if not (0 <= x < m and 0 <= y < m and x != y):
        raise InvalidParameter(f"positions {(x, y)!r} out of range")
    if w[x] != S.palette.omega(w[y]):
        raise ColourMismatch(
            f"letters {w[x]!r}, {w[y]!r} at {(x, y)!r} are not omega-dual"
        )
    q = _sort_perm(w)
    r = _apply(w, q)
    qinv = _inv(q)
    i, j = sorted((qinv[x], qinv[y]))
    # the letter at position k of w sits at qinv[k] of r
    back = tuple(shifted(qinv[k], (i, j)) for k in range(m) if k not in (x, y))
    rows = C.zeta_map.get((r, i, j), {})
    act = S._transporting(drop(r, i, j), back) if rows else None

    def contraction(n):
        if n not in rows:
            raise MissingActionEntry(f"no contraction entry for {r!r} at {(i, j)!r}")
        return act(rows[n])

    return contraction


def apply_product(S, C, w1, n1, w2, n2):
    """Name of the external product of elements named n1, n2 of S_w1, S_w2."""
    return _product(S, C, tuple(w1), tuple(w2))(n1, n2)


def apply_contraction(S, C, w, x, y, n):
    """Name of the contraction at positions x, y of the element named n of S_w."""
    return _contraction(S, C, tuple(w), x, y)(n)


def _typing_pass(S, C):
    violations = []
    words = {w for w, es in S.tables if es}
    for (w1, w2), rows in C.box_map.items():
        for w in (w1, w2):
            if w not in S.table_map:
                violations.append(("product-typing", f"unknown word {w!r}"))
                return violations  # nothing downstream is trustworthy
        want = set(itertools.product(S.table_map[w1], S.table_map[w2]))
        if set(rows) != want:
            violations.append(("product-typing",
                               f"rows at {w1!r} x {w2!r} miss the element grid"))
        target = S.rep(w1 + w2)
        for key, val in rows.items():
            if val not in S.table_map.get(target, ()):
                violations.append(
                    ("product-typing", f"{w1!r} x {w2!r} at {key!r} -> {val!r}")
                )
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) <= S.bound and (w1, w2) not in C.box_map:
                violations.append(("product-typing",
                                   f"missing product table {w1!r} x {w2!r}"))
    for (w, i, j), rows in C.zeta_map.items():
        if w not in S.table_map or not (0 <= i < j < len(w)):
            violations.append(("contraction-typing", f"bad key {(w, i, j)!r}"))
            continue
        if w[i] != S.palette.omega(w[j]):
            violations.append(("contraction-typing",
                               f"{(i, j)!r} not omega-dual in {w!r}"))
            continue
        if set(rows) != set(S.table_map[w]):
            violations.append(("contraction-typing",
                               f"rows at {(w, i, j)!r} miss the table"))
        target = drop(w, i, j)
        for key, val in rows.items():
            if val not in S.table_map.get(target, ()):
                violations.append(
                    ("contraction-typing", f"{(w, i, j)!r} at {key!r} -> {val!r}")
                )
    for w in words:
        for i, j in contractable(w, S.palette.omega):
            if (w, i, j) not in C.zeta_map:
                violations.append(("contraction-typing",
                                   f"missing contraction table {(w, i, j)!r}"))
    eps = C.epsilon_map
    if set(eps) != set(S.palette.colours):
        violations.append(("unit-typing", "epsilon does not cover the palette"))
    for c, name in eps.items():
        word = (c, S.palette.omega(c))
        if name not in S.elements(word):
            violations.append(("unit-typing", f"epsilon[{c!r}] outside S{word!r}"))
    if C.external_unit is not None and C.external_unit not in S.elements(()):
        violations.append(("unit-typing", "external unit outside the empty-word table"))
    return violations


def _listed_perms(S, word):
    return [_identity(len(word))] + [perm for w, perm, _ in S.actions if w == word]


def _table_ops(S, C):
    # C's product, contractions and units on S, as the laws of the axioms
    # module take them (0-based positions); ⊠ and ζ are prepared once per
    # key and ops object, relabellings once per key in S's bounded cache
    prepared = cache(lambda make, *key: make(S, C, *key))
    return SimpleNamespace(
        words=[w for w, es in S.tables if es], elements=S.elements,
        bound=S.bound, omega=S.palette.omega, unit=C.external_unit,
        box=lambda u, v: prepared(_product, u, v),
        zeta=lambda w, i, j: prepared(_contraction, w, i, j),
        eps=C.epsilon_map.__getitem__,
        relabel=S._transporting,
    )


def _unit_symmetry(S, ops):
    # S(swap) ε_c = ε_{ω c}: one instance per colour
    def sides(c):
        swap, eps = ops.relabel((c, ops.omega(c)), (1, 0)), ops.eps(c)
        return lambda: (swap(eps), ops.eps(ops.omega(c)))

    return Law("unit-symmetry", [(c, ()) for c in S.palette.colours], sides)


def _equivariance_laws(S, C, ops):
    """The stored tables commute with the listed actions (table rows
    are the element pools)."""
    def product_sides(t):
        w1, w2, sigma = t
        move_val = ops.relabel(w1 + w2, _block(sigma, _identity(len(w2))))
        move_a, box = ops.relabel(w1, sigma), ops.box(w1, w2)
        return lambda row: (move_val(row[1]), box(move_a(row[0][0]), row[0][1]))

    def contraction_sides(t):
        w, i, j, sigma = t
        inv = _inv(sigma)
        x, y = inv[i], inv[j]
        sigma_hat = tuple(shifted(sigma[k], (i, j)) for k in range(len(w)) if k not in (x, y))
        move_a, zeta = ops.relabel(w, sigma), ops.zeta(w, x, y)
        move_val = ops.relabel(drop(w, i, j), sigma_hat)
        return lambda row: (zeta(move_a(row[0])), move_val(row[1]))

    return [
        Law("product-equivariance",
            [((w1, w2, sigma), (tuple(rows.items()),))
             for (w1, w2), rows in C.box_map.items() for sigma in _listed_perms(S, w1)],
            product_sides),
        Law("contraction-equivariance",
            [((w, i, j, sigma), (tuple(rows.items()),))
             for (w, i, j), rows in C.zeta_map.items() for sigma in _listed_perms(S, w)],
            contraction_sides),
    ]


def validate_circuit_operad(S, C):
    """Exhaustive axiom check within the arity bound: typing first, then
    unit symmetry, the equivariance of both tables against the listed
    actions, and the circuit-operad laws of the axioms module."""
    violations = _typing_pass(S, C)
    if violations:
        return Report(False, "exhaustive", 0, 0, 0, tuple(sorted(violations)))
    ops = _table_ops(S, C)
    laws = [_unit_symmetry(S, ops), *_equivariance_laws(S, C, ops)]
    laws += [law(ops) for law in CIRCUIT_LAWS]
    note = ("no external unit listed; its law was not in scope" if C.external_unit is None
            else "external unit present; absorption checked both ways")
    return run_laws(laws, notes=(note,))


def check_modular_axioms(S, C):
    """The multiplication derived as contraction-after-product satisfies
    the modular-operad laws, instance by instance within the bound."""
    ops = _table_ops(S, C)
    return run_laws([law(ops) for law in MODULAR_LAWS])


# ---------------------------------------------------------------------------
# the bridge from circuit algebras


def species_from_circuit_algebra(A):
    """Rebuild a circuit algebra's carriers as a species with the operad
    structure its wiring action induces: the tables of the operations
    that check_derived_axioms checks, at sorted words.  Elements are
    renamed to their carrier indices so the result is plain label data."""
    ops = _algebra_ops(A)
    palette, bound = A.palette, A.bound
    reps = []
    for n in range(bound + 1):
        reps.extend(itertools.combinations_with_replacement(palette.colours, n))
    tables = {r: tuple(range(len(A.elements(r)))) for r in reps}
    # per sorted word, the carrier index of each element's first occurrence
    index = {r: {x: i for i, x in reversed(list(enumerate(A.elements(r))))} for r in reps}

    def name(word, x):
        if x not in index[word]:
            raise ValueError(f"{x!r} is not in the carrier at {word!r}")
        return index[word][x]

    def sorted_names(word):
        # x at an unsorted word -> the name of x in the sorted table
        sort = _sort_perm(word)
        rep, move = _apply(word, sort), ops.relabel(word, sort)
        return lambda x: name(rep, x if rep == word else move(x))

    actions = [(r, perm, {i: name(r, ops.relabel(r, perm)(x))
                          for i, x in enumerate(A.elements(r))})
               for r in reps if len(tables[r]) > 1 for perm in _adjacent_swaps(r)]
    S = make_species(palette, bound, tables, actions)

    box = {}
    for r1, r2 in itertools.product(reps, repeat=2):
        if len(r1) + len(r2) > bound or not tables[r1] or not tables[r2]:
            continue
        xs, ys = A.elements(r1), A.elements(r2)
        product, to_name = ops.box(r1, r2), sorted_names(r1 + r2)
        box[(r1, r2)] = {(a, b): to_name(product(xs[a], ys[b]))
                         for a, b in itertools.product(tables[r1], tables[r2])}

    zeta = {}
    for r in reps:
        xs = A.elements(r)
        if not xs:
            continue
        for i, j in contractable(r, ops.omega):
            contraction, dropped = ops.zeta(r, i, j), drop(r, i, j)
            zeta[(r, i, j)] = {a: name(dropped, contraction(xs[a])) for a in tables[r]}

    epsilon = {c: sorted_names((c, ops.omega(c)))(ops.eps(c)) for c in palette.colours}
    external = None if ops.unit is None else name((), ops.unit)
    return S, make_operad_structure(box, zeta, epsilon, external)


# ---------------------------------------------------------------------------
# bounded free components


_V_CAP, _E_CAP, _X_CAP = 3, 8, 6


def _multigraph_key(nv, ports_at, loops, mult):
    # complete x_iso invariant for port-attached graphs: the labelled
    # multigraph data up to a permutation of the vertices
    best = None
    for pi in itertools.permutations(range(nv)):
        key = (
            tuple((ports_at[pi[i]], loops[pi[i]]) for i in range(nv)),
            tuple(mult[tuple(sorted((pi[i], pi[j])))]
                  for i in range(nv) for j in range(i + 1, nv)),
        )
        if best is None or key < best:
            best = key
    return best


def _build_class(labels, assign, nv, loops, mult):
    taken = set(labels)
    counter = itertools.count(1)

    def fresh():
        while True:
            s = ("h", next(counter))
            if s not in taken:
                taken.add(s)
                return s

    edges, tau, halves = list(labels), [], []

    def orbit(u, v):
        s1, s2 = fresh(), fresh()
        edges.extend((s1, s2))
        tau.append((s1, s2))
        halves.extend(((s1, u), (s2, v)))

    for lab, v in zip(labels, assign):
        s = fresh()
        edges.append(s)
        tau.append((lab, s))
        halves.append((s, v + 1))
    for v, k in enumerate(loops):
        for _ in range(k):
            orbit(v + 1, v + 1)
    for (u, v), k in mult.items():
        for _ in range(k):
            orbit(u + 1, v + 1)
    g = make_graph(edges, tau, halves, range(1, nv + 1))
    return make_xgraph(g, {lab: lab for lab in labels})


@lru_cache(maxsize=64)
def _enumerate(labels, v_max, e_max):
    # the class table: representatives in certificate order, {certificate: index}
    budget = e_max - len(labels)  # an orbit per port, plus inner orbits
    classes = {}
    for nv in range(v_max + 1):  # at nv = 0 only the empty graph passes, with no ports
        pair_list = list(itertools.combinations(range(nv), 2))
        for assign in itertools.product(range(nv), repeat=len(labels)):
            ports_at = tuple(
                tuple(sorted((label_key(lab) for lab, v in zip(labels, assign)
                              if v == w)))
                for w in range(nv)
            )
            for loops in itertools.product(range(budget + 1), repeat=nv):
                rem = budget - sum(loops)
                if rem < 0:
                    continue
                for counts in itertools.product(range(rem + 1),
                                                repeat=len(pair_list)):
                    if sum(counts) > rem:
                        continue
                    mult = dict(zip(pair_list, counts))
                    key = _multigraph_key(nv, ports_at, loops, mult)
                    if key not in classes:
                        classes[key] = (assign, nv, loops, mult)
    # the multigraph key is complete, so each class is built once
    reps = sorted((_build_class(labels, *shape) for shape in classes.values()),
                  key=lambda xg: repr(x_certificate(xg)))
    return tuple(reps), MappingProxyType({x_certificate(xg): i for i, xg in enumerate(reps)})


def enumerate_x_graphs(x, v_max, e_max):
    """Representatives of every admissible graph with this port labelling
    inside the bounds, one per x_iso class, in certificate order.

    e_max caps the orbit count: each port contributes one orbit, so the
    inner budget is e_max minus the number of ports."""
    labels = port_labels(x)
    if not isinstance(v_max, int) or not isinstance(e_max, int) or \
            isinstance(v_max, bool) or isinstance(e_max, bool) or \
            v_max < 0 or e_max < 0:
        raise InvalidParameter("bounds must be non-negative integers")
    if v_max > _V_CAP or e_max > _E_CAP or len(labels) > _X_CAP:
        raise BoundTooLarge(
            f"bounds capped at v_max={_V_CAP}, e_max={_E_CAP}, |X|={_X_CAP}"
        )
    return _enumerate(labels, v_max, e_max)[0]


def _classify(S, xg, structure, v_max, e_max):
    """The index of xg's class in the enumeration at its port labels, and
    the structure moved onto that class's representative."""
    reps, index = _enumerate(xg.x_labels, v_max, e_max)
    idx = index.get(x_certificate(xg))
    if idx is None:
        raise InvalidParameter("graph escaped the enumeration bounds")
    return idx, transport_structure(S, x_iso(xg, reps[idx]), structure)


def free_component(S, x, v_max, e_max):
    """The bounded free-operad component: structures on every enumerated
    class, tagged by the class index.  Classes whose valencies outrun
    the species bound carry no structures and contribute nothing."""
    out = []
    for idx, xg in enumerate(enumerate_x_graphs(x, v_max, e_max)):
        if any(xg.graph.valency(v) > S.bound for v in xg.graph.vertices):
            continue
        for st in evaluate(S, xg.graph):
            out.append((idx, st))
    return tuple(out)


def contract_free_element(S, x, v_max, e_max, element, px, py):
    """Contraction on the free component: glue the class representative
    at the two named ports and classify the result."""
    reps = enumerate_x_graphs(x, v_max, e_max)
    idx, structure = element
    xg = reps[idx]
    rho_inv = {lab: p for p, lab in xg.rho}
    if px == py or px not in rho_inv or py not in rho_inv:
        raise InvalidParameter(f"ports {(px, py)!r} are not two distinct labels")
    p1, p2 = rho_inv[px], rho_inv[py]
    old = xg.graph
    kappa = dict(structure[0])
    if kappa[p1] != S.palette.omega(kappa[p2]):
        raise ColourMismatch(
            f"ports {(px, py)!r} carry {(kappa[p1], kappa[p2])!r}, not omega-dual"
        )
    glued = glue(old, p1, p2)

    # pull back along the glue map glued -> old: the merge classes
    # {p1, tau p2} and {p2, tau p1} keep their smaller label, which goes
    # back to the member at its own vertex; kappa agrees on the two
    # members of each, so it descends
    back = {}
    for cls in ((p1, old.tau(p2)), (p2, old.tau(p1))):
        rep = min(cls, key=label_key)
        at = glued.edge_vertex.get(rep)
        back[rep] = next(e for e in cls if old.edge_vertex.get(e) == at)
    f = GraphMorphism(glued, old, tuple((e, back.get(e, e)) for e in glued.edges),
                      tuple((v, v) for v in glued.vertices))
    structure = pull_back(S, structure, f)

    gx = make_xgraph(glued, {p: lab for p, lab in xg.rho if lab not in (px, py)})
    return _classify(S, gx, structure, v_max, e_max)


def build_free_species(gen, v_max, e_max, bound):
    """Arity tables of the bounded free operad on `gen`, with the
    relabelling actions realized by re-canonicalizing each class."""
    tables = {}
    actions = []
    for n in range(bound + 1):
        labels = tuple(range(1, n + 1))
        reps = enumerate_x_graphs(labels, v_max, e_max)
        port_of = [{lab: p for p, lab in xg.rho} for xg in reps]
        by_word = {}
        for idx, st in free_component(gen, labels, v_max, e_max):
            kappa = dict(st[0])
            word = tuple(kappa[port_of[idx][k]] for k in labels)
            by_word.setdefault(word, []).append((idx, st))
        for word, els in by_word.items():
            if word != tuple(sort_labels(word)):
                continue  # unsorted words are reached through the actions
            tables[word] = tuple(els)
            for perm in _adjacent_swaps(word):
                inv = _inv(perm)
                mapping = {}
                for idx, st in els:
                    relabel = {p: inv[lab - 1] + 1 for p, lab in reps[idx].rho}
                    moved = make_xgraph(reps[idx].graph, relabel)
                    mapping[(idx, st)] = _classify(gen, moved, st, v_max, e_max)
                actions.append((word, perm, mapping))
    return make_species(gen.palette, bound, tables, actions)


# ---------------------------------------------------------------------------
# presheaf tables and the Segal condition


@dataclass(frozen=True)
class PresheafTable:
    """Finite presheaf fragment: values per listed graph, a cone leg per
    element of each listed graph, and one map per half-edge arrow."""

    graphs: tuple        # ((id, Graph), ...)
    values: tuple        # ((id, elements), ...)
    restrictions: tuple  # ((id, kind, anchor, shape_id, mapping), ...)
    arrows: tuple        # ((id, half_edge, source_id, target_id, mapping), ...)

    @cached_property
    def graph_map(self):
        return dict(self.graphs)

    @cached_property
    def value_map(self):
        return {gid: tuple(es) for gid, es in self.values}

    @cached_property
    def cone_map(self):
        return {(gid, kind, anchor): (sid, dict(mapping))
                for gid, kind, anchor, sid, mapping in self.restrictions}

    @cached_property
    def arrow_map(self):
        return {(gid, he): (src, tgt, dict(mapping))
                for gid, he, src, tgt, mapping in self.arrows}


@dataclass(frozen=True)
class SegalReport:
    passed: bool
    results: tuple  # (graph_id, ok, detail)

    @property
    def failures(self):
        return tuple(gid for gid, ok, _ in self.results if not ok)


def nerve_presheaf(S, named_graphs):
    """Evaluate S on the listed graphs and tabulate every cone leg and
    element arrow, adding shape graphs as support entries."""
    named = [(gid, g) for gid, g in named_graphs]
    entry_ids = [gid for gid, _ in named]
    if len(set(entry_ids)) != len(entry_ids):
        raise InvalidParameter("duplicate graph ids")
    table = dict(named)
    values = {gid: evaluate(S, g) for gid, g in named}
    by_graph = {}
    for gid, g in named:
        by_graph.setdefault(g, gid)
    counter = itertools.count()

    def ensure(shape):
        if shape in by_graph:
            return by_graph[shape]
        sid = ("shape", next(counter))
        by_graph[shape] = sid
        table[sid] = shape
        values[sid] = evaluate(S, shape)
        return sid

    restrictions = []
    arrows = []
    for gid, g in named:
        els = elements(g)
        shape_ids = []
        for el in els:
            sid = ensure(el.shape)
            shape_ids.append(sid)
            mapping = tuple((st, pull_back(S, st, el.into)) for st in values[gid])
            restrictions.append((gid, el.kind, el.anchor, sid, mapping))
        for ar in element_arrows(g):
            src = shape_ids[ar.corolla_index]
            tgt = shape_ids[ar.stick_index]
            mapping = tuple((st, pull_back(S, st, ar.map)) for st in values[src])
            arrows.append((gid, ar.half_edge, src, tgt, mapping))

    return PresheafTable(
        tuple(table.items()),
        tuple(values.items()),
        tuple(restrictions),
        tuple(arrows),
    )


_UNDEFINED = object()  # a cone leg's image of an element it does not map


def _equalizer_join(value_sets, arrow_rows):
    """The families of the product of value_sets that every arrow row
    (stick index, corolla index, map) equalizes, as a set of tuples in
    leg order.

    The legs are placed one at a time in breadth-first order along the
    rows.  A stick placed next to a corolla takes the value the corolla's
    map gives it, if that is one of its values; a corolla placed next to
    a stick meets only its values that the row's map sends to the stick's
    value; any further row between placed legs is checked as it closes.
    A leg with no placed neighbour takes its whole value set."""
    n = len(value_sets)
    rows_at = [[] for _ in range(n)]
    for row in arrow_rows:
        rows_at[row[0]].append(row)
        rows_at[row[1]].append(row)
    order = []
    queued = [False] * n
    for start in range(n):
        if queued[start]:
            continue
        queued[start] = True
        queue = [start]
        for leg in queue:  # the queue grows while it is read
            order.append(leg)
            for si, ci, _ in rows_at[leg]:
                other = ci if leg == si else si
                if not queued[other]:
                    queued[other] = True
                    queue.append(other)

    # partial families are tuples in placement order; slot[leg] is where
    # a placed leg's value sits
    slot = {}
    partial = [()]
    for leg in order:
        values = value_sets[leg]
        rows = [row for row in rows_at[leg] if row[0] in slot or row[1] in slot]
        if not rows:
            partial = [fam + (v,) for fam in partial for v in values]
        else:
            si, ci, mapping = rows.pop()
            if leg == si:
                p = slot[ci]
                partial = [fam + (s,) for fam in partial
                           if (s := mapping.get(fam[p])) in values]
            else:
                p = slot[si]
                index = {}
                for c in values:
                    index.setdefault(mapping.get(c), []).append(c)
                partial = [fam + (c,) for fam in partial for c in index.get(fam[p], ())]
        slot[leg] = len(slot)
        for si, ci, mapping in rows:
            i, j = slot[si], slot[ci]
            partial = [fam for fam in partial if mapping.get(fam[j]) == fam[i]]
    slots = [slot[leg] for leg in range(n)]
    return {tuple(fam[j] for j in slots) for fam in partial}


def segal_check(P, graphs=None):
    """Per listed graph: rebuild the value set as the limit of its stick
    and corolla values and test that the cone legs are jointly bijective.

    The limit is computed by an equalizer join along the element arrows
    (see _equalizer_join), leg by leg in breadth-first order; it is the
    same set of families as the product of all leg value sets filtered
    by the arrow maps, without listing that product.  A value list that
    repeats an element is refused.

    With no list given, every graph with at least one cone leg is
    checked, and so is the empty graph, whose cone is empty; support
    shapes have no cone and are left out.  A checked graph missing any
    of its legs raises MissingRestriction."""
    if graphs is None:
        with_legs = {row[0] for row in P.restrictions}
        ids = [gid for gid, g in P.graphs
               if gid in with_legs or not (g.tau_pairs or g.vertices)]
    else:
        ids = list(graphs)
    value_sets = {}

    def value_set(gid):
        if gid not in value_sets:
            es = P.value_map[gid]
            value_sets[gid] = set(es)
            if len(value_sets[gid]) != len(es):
                raise InvalidParameter(f"the value list of {gid!r} repeats an element")
        return value_sets[gid]

    results = []
    for gid in ids:
        if gid not in P.graph_map:
            raise InvalidParameter(f"unknown graph id {gid!r}")
        if gid not in P.value_map:
            raise MissingRestriction(f"graph {gid!r} has no value set")
        value_set(gid)
        g = P.graph_map[gid]
        els = elements(g)
        legs = []
        for el in els:
            key = (gid, el.kind, el.anchor)
            if key not in P.cone_map:
                raise MissingRestriction(f"no cone leg for {key!r}")
            sid, mapping = P.cone_map[key]
            if sid not in P.value_map:
                raise MissingRestriction(f"shape {sid!r} has no value set")
            legs.append((value_set(sid), mapping))
        arrow_rows = []
        for ar in element_arrows(g):
            key = (gid, ar.half_edge)
            if key not in P.arrow_map:
                raise MissingRestriction(f"no arrow map for {key!r}")
            _, _, mapping = P.arrow_map[key]
            arrow_rows.append((ar.stick_index, ar.corolla_index, mapping))

        limit = _equalizer_join([values for values, _ in legs], arrow_rows)

        image = []
        for alpha in P.value_map[gid]:
            fam = tuple(mapping.get(alpha, _UNDEFINED) for _, mapping in legs)
            if _UNDEFINED in fam:
                raise MissingRestriction(
                    f"cone leg at {gid!r} undefined on one element"
                )
            image.append(fam)

        image_set = set(image)
        injective = len(image_set) == len(image)
        onto = image_set == limit
        ok = injective and onto
        detail = f"{len(image)} elements against a limit of {len(limit)}"
        if not injective:
            detail += "; two elements share a family"
        elif not onto:
            detail += "; the canonical map misses the limit"
        results.append((gid, ok, detail))
    return SegalReport(all(ok for _, ok, _ in results), tuple(results))


# ---------------------------------------------------------------------------
# serialization


def species_to_json(S):
    return {
        "palette": palette_to_json(S.palette),
        "bound": S.bound,
        "tables": [
            {"word": [encode_label(c) for c in w],
             "elements": [encode_label(e) for e in es]}
            for w, es in S.tables
        ],
        "sigma": [
            {"word": [encode_label(c) for c in w],
             "perm": list(perm),
             "map": [[encode_label(a), encode_label(b)] for a, b in mapping]}
            for w, perm, mapping in S.actions
        ],
    }


def species_from_json(obj):
    try:
        palette = palette_from_json(obj["palette"])
        bound = obj["bound"]
        tables = [
            (tuple(decode_label(c) for c in row["word"]),
             tuple(decode_label(e) for e in row["elements"]))
            for row in obj["tables"]
        ]
        actions = [
            (tuple(decode_label(c) for c in row["word"]),
             tuple(row["perm"]),
             decode_pairs(row["map"]))
            for row in obj.get("sigma", [])
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed species document: {exc}") from exc
    return make_species(palette, bound, tables, actions)


def presheaf_to_json(P):
    return {
        "graphs": [
            {"id": encode_label(gid), "graph": graph_to_json(g)}
            for gid, g in P.graphs
        ],
        "values": [
            {"id": encode_label(gid),
             "elements": [encode_label(e) for e in es]}
            for gid, es in P.values
        ],
        "restrictions": [
            {"graph": encode_label(gid), "kind": kind,
             "anchor": encode_label(anchor), "shape": encode_label(sid),
             "map": [[encode_label(a), encode_label(b)]
                     for a, b in mapping]}
            for gid, kind, anchor, sid, mapping in P.restrictions
        ],
        "arrows": [
            {"graph": encode_label(gid),
             "edge": encode_label(he[0]), "vertex": encode_label(he[1]),
             "source": encode_label(src), "target": encode_label(tgt),
             "map": [[encode_label(a), encode_label(b)]
                     for a, b in mapping]}
            for gid, he, src, tgt, mapping in P.arrows
        ],
    }


def presheaf_from_json(obj):
    try:
        graphs = tuple(
            (decode_label(row["id"]), graph_from_json(row["graph"]))
            for row in obj["graphs"]
        )
        values = tuple(
            (decode_label(row["id"]),
             tuple(decode_label(e) for e in row["elements"]))
            for row in obj["values"]
        )
        restrictions = tuple(
            (decode_label(row["graph"]), row["kind"], decode_label(row["anchor"]),
             decode_label(row["shape"]), decode_pairs(row["map"]))
            for row in obj["restrictions"]
        )
        arrows = tuple(
            (decode_label(row["graph"]),
             (decode_label(row["edge"]), decode_label(row["vertex"])),
             decode_label(row["source"]), decode_label(row["target"]),
             decode_pairs(row["map"]))
            for row in obj.get("arrows", [])
        )
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed presheaf document: {exc}") from exc
    return PresheafTable(graphs, values, restrictions, arrows)
