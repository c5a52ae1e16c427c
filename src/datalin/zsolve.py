"""Polynomial-time decision of Z-solvability via the local weight criterion.

The target is expressible as an integer combination of renamed generators iff
for every subset X of its carrier's vertices with |X| <= arity (including the
empty set) the weight of X is an integer combination of the generators'
weights of sets of the same cardinality.  Each layer is one classical integer
linear system: its matrix (the generators' deduplicated weights) is
factored once and every target subset of that size is one right-hand side.

`GeneratorLayers` owns a generator family's layers: it encodes the
generators once and builds and factors each layer on first use, so any
number of targets and decomposition steps share them.  One lazy walk,
`failing_subsets`, yields a target's failing subsets in (size, subset)
order: `check` collects all of them into a `LocalReport`, and `admits`,
for callers that need only the decision, stops at the first.  Every
layer solve goes through its `solve`, which solves each distinct (size,
right-hand side) once and keeps the answer, a solution or None; the first
solve of each is verified (M*x = y) by `HermiteForm.solve`.  It keeps
nothing on its input vectors and lives as long as its caller holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import (
    DataVector,
    Hypergraph,
    Instance,
    IntVector,
    KSet,
    encode_hypergraph,
    nonzero_weight_sets,
    weight,
    weight_table,
)
from .intlin import HermiteForm, IntMatrix, hnf


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


class Layer(NamedTuple):
    """A family's deduplicated nonzero weights of one subset size
    (`layer_weights`) and the factorisation of the matrix whose columns
    they are."""

    reps: dict[IntVector, tuple[int, KSet]]
    factor: HermiteForm


_UNSOLVED = object()  # `GeneratorLayers.solve`'s mark for a key not yet solved


class GeneratorLayers:
    """The layers of one generator family of dimension `dim`, each built
    and factored once, on first use, and each distinct right-hand side of
    a layer solved once.  A target's failing subsets come from one lazy
    walk: `check` reports them all, `admits` stops at the first."""

    def __init__(self, generators: Sequence[DataVector], dim: int):
        self.hypergraphs = tuple(encode_hypergraph(g) for g in generators)
        self.dim = dim
        self._layers: dict[int, Layer] = {}
        self._solved: dict[tuple[int, IntVector], Optional[tuple[int, ...]]] = {}

    def layer(self, size: int) -> Layer:
        layer = self._layers.get(size)
        if layer is None:
            reps = layer_weights(self.hypergraphs, size)
            factor = hnf(IntMatrix.from_columns(list(reps), nrows=self.dim))
            layer = self._layers[size] = Layer(reps, factor)
        return layer

    def solve(self, size: int, y: IntVector) -> Optional[tuple[int, ...]]:
        """`self.layer(size).factor.solve(y)`, kept for the owner's life:
        a repeat returns the same answer without solving again.  A
        `VerificationError` propagates and keeps nothing."""
        key = (size, y)
        x = self._solved.get(key, _UNSOLVED)
        if x is _UNSOLVED:
            x = self._solved[key] = self.layer(size).factor.solve(y)
        return x

    def failing_subsets(self, target: DataVector) -> Iterator[LocalFailure]:
        """The failing subsets of the local criterion for `target`, lazily,
        in (size, lexicographic subset) order.  The target's weights are
        built one size at a time (`weight_table`), and only the layers
        where the target has a nonzero subset are built, each only as far
        as the walk is taken."""
        for size in range(target.arity + 1):
            weights = weight_table(target, size)
            if not weights:
                continue
            columns = len(self.layer(size).reps)
            for x, w in weights.items():
                if self.solve(size, w) is None:
                    yield LocalFailure(x, w, columns)

    def check(self, target: DataVector) -> LocalReport:
        """Check every layer of the local criterion for `target` and report
        all failing subsets, in the order of `failing_subsets`."""
        failures = tuple(self.failing_subsets(target))
        return LocalReport(decision=not failures, failures=failures)

    def admits(self, target: DataVector) -> bool:
        """`self.check(target).decision`, stopping at the first failing
        subset."""
        return next(self.failing_subsets(target), None) is None


def local_check(inst: Instance) -> LocalReport:
    """The local criterion for one instance (`GeneratorLayers.check`)."""
    return GeneratorLayers(inst.generators, inst.dim).check(inst.target)


def z_solvable(inst: Instance) -> bool:
    """The decision of `local_check`, stopping at the first failure."""
    return GeneratorLayers(inst.generators, inst.dim).admits(inst.target)
