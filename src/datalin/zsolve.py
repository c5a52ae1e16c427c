"""Polynomial-time decision of Z-solvability via the local weight criterion.

The target is expressible as an integer combination of renamed generators iff
for every subset X of its carrier's vertices with |X| <= arity (including the
empty set) the weight of X is an integer combination of the generators'
weights of sets of the same cardinality.  Each layer is one classical integer
linear system: its matrix (the generators' deduplicated weights) is
factored once and every target subset of that size is one right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Hypergraph,
    Instance,
    IntVector,
    KSet,
    encode_hypergraph,
    nonzero_weight_sets,
    weight,
)
from .intlin import IntMatrix, hnf


@dataclass(frozen=True)
class LocalFailure:
    subset: KSet
    target_weight: IntVector
    num_columns: int


@dataclass(frozen=True)
class LocalReport:
    decision: bool
    failures: tuple[LocalFailure, ...]


def layer_weights(
    generators: Sequence[Hypergraph], size: int
) -> dict[IntVector, tuple[int, KSet]]:
    """Each distinct nonzero weight of a size-`size` vertex subset of the
    generator hypergraphs, mapped to the first (generator index, subset)
    carrying it; insertion order is the order of first appearance."""
    reps: dict[IntVector, tuple[int, KSet]] = {}
    for gi, g in enumerate(generators):
        for x in nonzero_weight_sets(g, size):
            w = weight(g, x)
            if w not in reps:
                reps[w] = (gi, x)
    return reps


def layer_columns(generators: Sequence[Hypergraph], size: int) -> list[IntVector]:
    """Deduplicated weights of all size-`size` vertex subsets of the
    generator hypergraphs (zero columns dropped)."""
    return list(layer_weights(generators, size))


def local_check(inst: Instance) -> LocalReport:
    """Check every layer of the local criterion and report all failing
    subsets, sorted by (size, lexicographic subset).  A layer's matrix is
    factored once, and only when the target has a nonzero subset of that
    size."""
    target_h = encode_hypergraph(inst.target)
    gen_hs = tuple(encode_hypergraph(g) for g in inst.generators)
    failures: list[LocalFailure] = []
    for size in range(0, inst.arity + 1):
        subsets = nonzero_weight_sets(target_h, size)
        if not subsets:
            continue
        cols = layer_columns(gen_hs, size)
        layer = hnf(IntMatrix.from_columns(cols, nrows=inst.dim))
        for x in subsets:
            w = weight(target_h, x)
            if layer.solve(w) is None:
                failures.append(LocalFailure(x, w, len(cols)))
    return LocalReport(decision=not failures, failures=tuple(failures))


def z_solvable(inst: Instance) -> bool:
    return local_check(inst).decision
