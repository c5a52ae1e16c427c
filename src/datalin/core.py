"""Atoms, k-sets, data vectors, weighted hypergraphs and their group operations.

A *data vector* is a finitely supported map from k-element sets of atoms to
integer vectors of a fixed dimension d.  A *hypergraph* is the finite carrier
of a data vector: the vector itself together with an explicit vertex set
(possibly with isolated vertices).  All values are immutable after
construction and all integers are arbitrary precision.  Each class of failure
has one exception, defined here: `ShapeError` (a malformed value),
`VerificationError` (a failed self-check: a bug) and `CapExceeded` (a cap).

A data vector has one constructor.  A key that is already canonical (a
tuple of `arity` strictly increasing atoms, the first nonnegative: exactly
the keys with `kset(key) == key`) is kept after an O(k) comparison, with no
re-sort; every other key goes through `kset`, and two keys that name one
set raise `ShapeError`.

Subset weights (the weight of a vertex set X is the sum of the values at
the keys containing X) have one builder, `weight_table(a, size)`, which
builds one size and keeps its nonzero weights in one sorted dict: size 0
is one column sum over the values, size `arity` is the entries
themselves, and a middle size s adds every entry's value into each of its
C(k, s) subsets of that size.  A hypergraph keeps each size's table of
its `mu`, built on the first read of that size, for `weight`,
`weights_of_size` and `nonzero_weight_sets`, so `mu` must not be mutated
after construction.  A bare data vector keeps none (it may live as long
as its instance, a hypergraph for one call): a caller builds the sizes it
reads, one at a time.

Every sum of renamed, scaled copies goes through one kernel, `add_into`,
which adds a copy's renamed values into a dict in place and deletes a key
whose sum cancels, so the dict is empty exactly when the sum is zero: the
N walk and the decomposition update their dicts with it, and `dv_combine`
is one checked call per term and one canonicalisation.  The pairwise
operations are `dv_combine` calls: `dv_add` and `dv_sub` sum the terms
(1, a) and (+-1, b), `dv_scale` is (c, a) and `dv_permute` (1, a, pi).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

# Atoms are canonical nonnegative integers.  Input files may use arbitrary
# strings; the cli module interns them to integers at parse time.
Atom = int

# A k-set is stored as a strictly increasing tuple of atoms.
KSet = tuple[Atom, ...]

# An integer vector of dimension d.
IntVector = tuple[int, ...]


class ShapeError(ValueError):
    """Raised on arity/dimension mismatches or malformed keys."""


class VerificationError(Exception):
    """A computed answer or a construction step failed its own check."""


class CapExceeded(Exception):
    """A resource cap cut the work short; `reason` names the cap."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


def kset(atoms: Iterable[Atom]) -> KSet:
    """Canonicalize a collection of distinct atoms into a k-set."""
    t = tuple(sorted(atoms))
    if len(set(t)) != len(t):
        raise ShapeError(f"atoms are not distinct: {t}")
    if t and t[0] < 0:
        raise ShapeError(f"negative atom id: {t}")
    return t


def vec_add(a: IntVector, b: IntVector) -> IntVector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_scale(c: int, a: IntVector) -> IntVector:
    return tuple(c * x for x in a)


def zero_vec(dim: int) -> IntVector:
    return (0,) * dim


@dataclass(frozen=True)
class DataVector:
    """Finitely supported map from k-sets of atoms to Z^d, in sparse
    canonical form: no entry maps to the all-zero vector."""

    arity: int
    dim: int
    entries: Mapping[KSet, IntVector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arity, dim = self.arity, self.dim
        clean: dict[KSet, IntVector] = {}
        named: set[KSet] = set()  # keys canonicalised here or of zero values
        for key, val in self.entries.items():
            # a canonical key (kset(key) == key) is kept after an O(k) check
            if (
                type(key) is tuple
                and len(key) == arity
                and (not key or key[0] >= 0)
                and all(map(operator.lt, key, key[1:]))
            ):
                if named and key in named:
                    raise ShapeError(f"two keys name the set {key}")
            else:
                key = kset(key)
                if len(key) != arity:
                    raise ShapeError(
                        f"key {key} has length {len(key)}, arity is {arity}"
                    )
                if key in clean or key in named:
                    raise ShapeError(f"two keys name the set {key}")
                named.add(key)
            v = tuple(val)
            if len(v) != dim:
                raise ShapeError(f"value {v} has length {len(v)}, dim is {dim}")
            if any(v):
                clean[key] = v
            else:
                named.add(key)
        object.__setattr__(self, "entries", clean)

    def support(self) -> frozenset[Atom]:
        return frozenset(a for key in self.entries for a in key)

    def is_zero(self) -> bool:
        return not self.entries

    def __hash__(self) -> int:
        return hash((self.arity, self.dim, frozenset(self.entries.items())))


def dv_add(a: DataVector, b: DataVector) -> DataVector:
    """Pointwise sum, re-canonicalized."""
    return dv_combine(a.arity, a.dim, [(1, a, {}), (1, b, {})])


def dv_scale(c: int, a: DataVector) -> DataVector:
    """Multiply every value by c; c = 0 yields the empty vector."""
    return dv_combine(a.arity, a.dim, [(c, a, {})])


def dv_sub(a: DataVector, b: DataVector) -> DataVector:
    return dv_combine(a.arity, a.dim, [(1, a, {}), (-1, b, {})])


def check_injective_on(pi: Mapping[Atom, Atom], atoms: Iterable[Atom]) -> None:
    """Raise unless the renaming (extended by identity) is injective on atoms."""
    images = list(map(pi.get, atoms, atoms))
    if len(set(images)) != len(images):
        raise ShapeError(f"renaming is not injective on {sorted(set(atoms))}: {dict(pi)}")


def dv_permute(a: DataVector, pi: Mapping[Atom, Atom]) -> DataVector:
    """Forward renaming: the entry at key X moves to {pi(x) : x in X};
    atoms outside pi's domain are fixed."""
    return dv_combine(a.arity, a.dim, [(1, a, pi)])


def dv_combine(
    arity: int,
    dim: int,
    terms: Iterable[tuple[int, DataVector, Mapping[Atom, Atom]]],
) -> DataVector:
    """Sum of c * pi(a) over the terms (c, a, pi), in one pass, where pi(a)
    moves the entry at key X to {pi(x) : x in X} (atoms outside pi's domain
    are fixed).

    Each term must have the given arity and dimension, and its renaming
    must be injective on a's support (ShapeError otherwise, also at c = 0;
    each distinct vector's support is computed once per call); each term
    with c != 0 is then one `add_into` call on one dict, which is
    canonicalised once."""
    acc: dict[KSet, IntVector] = {}
    # each term's vector's support, by id; the vector is held with it, so
    # no id is reused while the call runs
    supports: dict[int, tuple[DataVector, frozenset[Atom]]] = {}
    for c, a, pi in terms:
        if a.arity != arity or a.dim != dim:
            raise ShapeError(f"shape mismatch: ({arity},{dim}) vs ({a.arity},{a.dim})")
        if pi:
            held = supports.get(id(a))
            if held is None:
                held = supports[id(a)] = (a, a.support())
            check_injective_on(pi, held[1])
        if c:
            add_into(acc, c, a.entries, pi)
    return DataVector(arity, dim, acc)


def add_into(acc: dict, c: int, entries: Mapping[KSet, IntVector], pi: Mapping) -> None:
    """Add c * pi(entries) into `acc` in place, the value at X going to the
    key tuple(sorted(pi(x) for x in X)), and delete a key whose sum cancels.
    It checks nothing: the caller guarantees c != 0, nonzero values of
    acc's dimension, and pi injective on the keys' atoms (so each renamed
    key is canonical), and then acc never holds a zero value."""
    get = acc.get
    rename = pi.get
    for key, val in entries.items():
        if pi:
            key = tuple(sorted(map(rename, key, key)))
        if c != 1:
            val = tuple([c * v for v in val])
        cur = get(key)
        if cur is not None:
            val = tuple([p + q for p, q in zip(cur, val)])
            if not any(val):  # a sum that cancels leaves no entry
                del acc[key]
                continue
        acc[key] = val


@dataclass(frozen=True)
class Hypergraph:
    """Finite-vertex k-uniform hypergraph with Z^d edge weights: one validated
    `DataVector` and an explicit vertex set that covers its keys and may hold
    isolated vertices.  `mu` is given as that vector (same arity and
    dimension, kept as is) or as a mapping (validated through one), and is
    then the vector's entries."""

    vertices: frozenset[Atom]
    arity: int
    dim: int
    mu: Mapping[KSet, IntVector] | DataVector = field(default_factory=dict)

    def __post_init__(self) -> None:
        dv = self.mu
        if not isinstance(dv, DataVector):
            dv = DataVector(self.arity, self.dim, dv)  # canonicalize + validate
        elif (dv.arity, dv.dim) != (self.arity, self.dim):
            raise ShapeError(
                f"shape mismatch: ({self.arity},{self.dim}) vs ({dv.arity},{dv.dim})"
            )
        object.__setattr__(self, "mu", dv.entries)
        object.__setattr__(self, "_data_vector", dv)
        object.__setattr__(self, "_weights", {})  # size -> weight_table, on first read
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        for key in self.mu:
            if not set(key) <= self.vertices:
                raise ShapeError(f"hyperedge {key} not within vertex set")

    def as_data_vector(self) -> DataVector:
        """The validated vector whose entries are `mu`; both are immutable."""
        return self._data_vector

    def __hash__(self) -> int:
        """By value (its vector and vertex set), so constructions can memoize on it."""
        return hash((self.vertices, self._data_vector))


def weight_table(a: DataVector, size: int) -> dict[KSet, IntVector]:
    """Nonzero weights of the size-`size` subsets of a data vector, in one
    dict with its keys sorted: the weight of X is the sum of the values at
    the keys containing X.  Size 0 is one column sum over the values and
    size `arity` the entries themselves; a middle size adds every entry's
    value into each of its subsets of that size.  Each call builds a fresh
    dict."""
    k, entries = a.arity, a.entries
    if size == 0:
        total = tuple(map(sum, zip(*entries.values())))
        return {(): total} if any(total) else {}
    if size == k:
        return {x: entries[x] for x in sorted(entries)}
    layer: dict[KSet, IntVector] = {}
    for key, val in entries.items():
        for x in itertools.combinations(key, size):
            cur = layer.get(x)
            layer[x] = val if cur is None else tuple([p + q for p, q in zip(cur, val)])
    return {x: layer[x] for x in sorted(layer) if any(layer[x])}


def encode_hypergraph(a: DataVector) -> Hypergraph:
    """Carrier hypergraph of a data vector: vertices are the atoms of the
    nonzero keys, weights are the restriction of the vector."""
    return Hypergraph(a.support(), a.arity, a.dim, a)


def weight(h: Hypergraph, x: Iterable[Atom]) -> IntVector:
    """Sum of mu(e) over hyperedges e containing x, read from the weight
    table; zero when x is not a subset of the vertex set."""
    xs = tuple(sorted(set(x)))
    if len(xs) > h.arity:
        raise ShapeError(f"|x| = {len(xs)} exceeds arity {h.arity}")
    w = weights_of_size(h, len(xs)).get(xs)
    return zero_vec(h.dim) if w is None else w


def weights_of_size(h: Hypergraph, size: int) -> Mapping[KSet, IntVector]:
    """The nonzero weights of the vertex sets of the given size, keyed by
    set in sorted order: the hypergraph's own table of that size, built on
    its first read and not to be mutated."""
    table = h._weights.get(size)
    if table is None:
        if not 0 <= size <= h.arity:
            raise ShapeError(f"need 0 <= size <= arity {h.arity}, got {size}")
        table = h._weights[size] = weight_table(h._data_vector, size)
    return table


def nonzero_weight_sets(h: Hypergraph, size: int) -> list[KSet]:
    """The vertex sets of the given size with nonzero weight, sorted."""
    return list(weights_of_size(h, size))


def hg_add(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Vertex sets unioned, weights added pointwise."""
    dv = dv_add(g.as_data_vector(), h.as_data_vector())
    return Hypergraph(g.vertices | h.vertices, g.arity, g.dim, dv)


@dataclass(frozen=True)
class Instance:
    """One solvability problem: generators, a target, shared arity/dimension."""

    arity: int
    dim: int
    generators: tuple[DataVector, ...]
    target: DataVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        for v in (*self.generators, self.target):
            if v.arity != self.arity or v.dim != self.dim:
                raise ShapeError("instance members must share arity and dimension")

    def all_atoms(self) -> frozenset[Atom]:
        atoms: set[Atom] = set(self.target.support())
        for g in self.generators:
            atoms |= g.support()
        return frozenset(atoms)


class FreshAtoms:
    """Monotone supply of atoms guaranteed fresh within one construction
    context.  Not shared across concurrent tasks."""

    def __init__(self, used: Iterable[Atom] = ()):
        self._next = max(used, default=-1) + 1

    def take(self) -> Atom:
        a = self._next
        self._next += 1
        return a

    def take_many(self, n: int) -> list[Atom]:
        return [self.take() for _ in range(n)]
