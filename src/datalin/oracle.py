"""Brute-force ground truth at desk scale.

brute_force searches, exhaustively within explicit bounds, for an integer
(or nonnegative-integer) combination of renamed generator copies equal to
the target.  Every renaming maps a generator support injectively into the
target support plus a fixed number of fresh atoms; coefficients range over
the box of infinity-norm at most coeff_bound.  Within those bounds the
search is complete, so absence is bounded-search absence and presence is a
genuine witness (always re-verified before return).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Optional

from .core import (
    DataVector,
    FreshAtoms,
    Instance,
    VerificationError,
    dv_permute,
    dv_scale,
)
from .witness import Witness, make_witness, verify_witness


class OracleGuardError(Exception):
    """The estimated or actual search effort exceeded the safety guard."""


@dataclass(frozen=True)
class OracleConfig:
    coeff_bound: int
    fresh_atoms: int
    mode: str = "Z"
    max_columns: int = 20_000
    max_nodes: int = 2_000_000

    def __post_init__(self) -> None:
        if self.coeff_bound < 0 or self.fresh_atoms < 0:
            raise ValueError("bounds must be nonnegative")
        if self.mode not in ("Z", "N"):
            raise ValueError("mode must be 'Z' or 'N'")


def _columns(inst: Instance, cfg: OracleConfig):
    """Distinct evaluated generator placements: [(vector, gen index, renaming)].

    Placements differing only by a renaming of atoms outside the image are
    identical as vectors, so deduplication by evaluated vector keeps the
    column count small.
    """
    pool = sorted(inst.target.support())
    fresh = FreshAtoms(inst.all_atoms())
    fresh_list = fresh.take_many(cfg.fresh_atoms)
    full_pool = pool + fresh_list
    seen: dict[DataVector, tuple[int, dict]] = {}
    order: list[DataVector] = []
    for gi, gen in enumerate(inst.generators):
        sup = sorted(gen.support())
        if len(sup) > len(full_pool):
            continue
        for image in itertools.permutations(full_pool, len(sup)):
            ren = dict(zip(sup, image))
            vec = dv_permute(gen, ren)
            if vec.is_zero() or vec in seen:
                continue
            seen[vec] = (gi, ren)
            order.append(vec)
            if len(order) > cfg.max_columns:
                raise OracleGuardError("too many generator placements")
    return [(vec, *seen[vec]) for vec in order]


def _key_rank(key) -> tuple:
    return tuple(sorted(key, reverse=True))


def brute_force(inst: Instance, cfg: OracleConfig) -> Optional[Witness]:
    """First witness found by a complete residual-directed search, or None.

    At each node the search picks the largest data set with a nonzero
    residual value and branches on the first unassigned placement that can
    change it; every branch either zeroes that placement or commits it to a
    nonzero coefficient, so the search covers the whole coefficient box.
    Deterministic; raises OracleGuardError above max_nodes.
    """
    cols = _columns(inst, cfg)
    b = cfg.coeff_bound
    # per data set: touching columns (heaviest first) and a mutable
    # coordinatewise reachability cap over the not-yet-decided columns
    touch: dict = {}
    cap: dict = {}
    for j, (vec, _gi, _ren) in enumerate(cols):
        for key, val in vec.entries.items():
            touch.setdefault(key, []).append(j)
            c = cap.setdefault(key, [0] * inst.dim)
            for i, x in enumerate(val):
                c[i] += b * abs(x)
    for key, lst in touch.items():
        lst.sort(
            key=lambda j: -sum(abs(x) for x in cols[j][0].value(key))
        )
    if cfg.mode == "N":
        values = list(range(1, b + 1))
    else:
        values = [v for m in range(1, b + 1) for v in (m, -m)]
    nodes = 0
    decided = bytearray(len(cols))
    sentinel: list[tuple[int, int, dict]] = []
    rank_cache: dict = {}

    def rank(key):
        r = rank_cache.get(key)
        if r is None:
            r = rank_cache[key] = _key_rank(key)
        return r

    def decide(j: int, sign: int) -> None:
        decided[j] = 1 if sign > 0 else 0
        for key, val in cols[j][0].entries.items():
            c = cap[key]
            for i, x in enumerate(val):
                c[i] -= sign * b * abs(x)

    def _sub(residual: dict, c: int, vec: DataVector) -> dict:
        out = dict(residual)
        for key, val in vec.entries.items():
            cur = out.get(key)
            nxt = (
                tuple(-c * y for y in val)
                if cur is None
                else tuple(x - c * y for x, y in zip(cur, val))
            )
            if any(nxt):
                out[key] = nxt
            else:
                out.pop(key, None)
        return out

    def search(residual: dict) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > cfg.max_nodes:
            raise OracleGuardError("search node budget exceeded")
        if not residual:
            return True
        key = max(residual, key=rank)
        goal = residual[key]
        capk = cap.get(key)
        if capk is None:
            return False
        for g, c in zip(goal, capk):
            if abs(g) > c:
                return False
        j0 = next((j for j in touch[key] if not decided[j]), None)
        if j0 is None:
            return False
        vec, gi, ren = cols[j0]
        decide(j0, 1)
        try:
            for c in values:
                sentinel.append((c, gi, ren))
                if search(_sub(residual, c, vec)):
                    return True
                sentinel.pop()
            return search(residual)
        finally:
            decide(j0, -1)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, len(cols) * 2 + 1000))
    try:
        found = search(dict(inst.target.entries))
    finally:
        sys.setrecursionlimit(limit)
    if not found:
        return None
    w = make_witness(sentinel)
    if not verify_witness(inst, w, cfg.mode):
        raise VerificationError("oracle produced a non-verifying witness")
    return w


def brute_reversible(inst: Instance, index: int, cfg: OracleConfig) -> bool:
    """Bounded check that the negation of one generator is a nonnegative
    combination of generator placements (reversibility, by definition)."""
    if not 0 <= index < len(inst.generators):
        raise IndexError("generator index out of range")
    neg = dv_scale(-1, inst.generators[index])
    sub = Instance(inst.arity, inst.dim, inst.generators, neg)
    n_cfg = OracleConfig(
        cfg.coeff_bound, cfg.fresh_atoms, "N", cfg.max_columns, cfg.max_nodes
    )
    return brute_force(sub, n_cfg) is not None
