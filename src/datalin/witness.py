"""Constructive integer-combination witnesses.

A witness is a formal sum of renamed generator copies; verification
evaluates the sum and compares it with the target exactly.  One extractor
produces witnesses for Z-solvable instances of every arity, and every such
target takes its one path, a renamed generator copy included: the target
is decomposed through simple hypergraphs of the generator family (the
arity-k form of the arity-1 argument of Hofman, Leroux and Totzke, LICS
2017).  `extract_witness_k2` is the same extractor, restricted to arity 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .calculus import express_via_simple
from .core import Atom, DataVector, FreshAtoms, Instance, VerificationError, dv_combine
from .zsolve import GeneratorLayers


@dataclass(frozen=True)
class WitnessTerm:
    coeff: int
    generator: int
    renaming: tuple[tuple[Atom, Atom], ...]

    def renaming_map(self) -> dict[Atom, Atom]:
        return dict(self.renaming)


@dataclass(frozen=True)
class Witness:
    terms: tuple[WitnessTerm, ...]


def make_witness(raw: Iterable[tuple[int, int, Mapping[Atom, Atom]]]) -> Witness:
    """Build a witness, merging identical (generator, renaming) terms."""
    merged: dict[tuple[int, tuple[tuple[Atom, Atom], ...]], int] = {}
    for c, gi, ren in raw:
        key = (gi, tuple(sorted(ren.items())))
        merged[key] = merged.get(key, 0) + c
    return Witness(
        tuple(
            WitnessTerm(c, gi, ren)
            for (gi, ren), c in sorted(merged.items())
            if c
        )
    )


def evaluate_witness(inst: Instance, w: Witness) -> DataVector:
    def copies():
        for term in w.terms:
            if not 0 <= term.generator < len(inst.generators):
                raise IndexError(f"generator index {term.generator} out of range")
            yield term.coeff, inst.generators[term.generator], term.renaming_map()

    return dv_combine(inst.arity, inst.dim, copies())


def verify_witness(inst: Instance, w: Witness, mode: str = "Z") -> bool:
    """True iff the witness evaluates exactly to the target and, in N mode,
    all coefficients are nonnegative."""
    if mode not in ("Z", "N"):
        raise ValueError("mode must be 'Z' or 'N'")
    if mode == "N" and any(t.coeff < 0 for t in w.terms):
        return False
    return evaluate_witness(inst, w) == inst.target


# ---------------------------------------------------------------------------
# extractor


def extract_witness_general(inst: Instance) -> Optional[Witness]:
    """Witness for any arity via the simple-hypergraph decomposition of the
    target over the generator family.  Returns None exactly when the
    subset-weight membership check fails; raises CapExceeded when the
    construction outgrows its resource caps (`calculus._MAX_STEPS` and
    `calculus._MAX_TERMS`; distinct from unsolvable)."""
    # one owner factors each layer for the check and the decomposition alike
    layers = GeneratorLayers(inst.generators, inst.dim)
    if not layers.admits(inst.target):
        return None
    k = inst.arity
    fresh = FreshAtoms(inst.all_atoms())
    verts = sorted(inst.target.support())
    while len(verts) < 2 * k:
        verts.append(fresh.take())
    pieces = express_via_simple(layers, inst.target, verts)
    w = make_witness(term for _spec, terms in pieces for term in terms)
    if not verify_witness(inst, w, "Z"):
        raise VerificationError("general extraction produced a non-verifying witness")
    return w


def extract_witness_k2(inst: Instance) -> Optional[Witness]:
    """`extract_witness_general` on an arity-2 instance; raises ValueError
    for any other arity."""
    if inst.arity != 2:
        raise ValueError("extract_witness_k2 requires arity 2")
    return extract_witness_general(inst)
