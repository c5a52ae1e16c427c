"""Brute-force ground truth at desk scale.

brute_force searches, exhaustively within explicit bounds, for an integer
(or nonnegative-integer) combination of renamed generator copies equal to
the target.  Every renaming maps a generator support injectively into the
target support plus a fixed number of fresh atoms; coefficients range over
the box of infinity-norm at most coeff_bound.  Within those bounds the
search is complete, so absence is bounded-search absence and presence is a
genuine witness (always re-verified before return).

The search state is flat.  Every data set that a placement or the target
touches is numbered once per call, in increasing rank (its atoms read from
the largest down), and the residual and the reachability cap are `int`
lists with `dim` consecutive slots per set.  Each placement is a
precomputed list of (slot, value) updates.  A branch that gives a
placement the coefficient c subtracts c times it in place; the next branch
subtracts the difference of the two coefficients, and the last branch
(coefficient 0) restores the residual.  Integer arithmetic makes this
exact, so no residual is ever copied.  One `int` bitmask of the nonzero
residual slots is kept current: as sets are numbered by rank, its highest
bit lies in the largest set with a nonzero residual, which is the set the
search branches on, and a zero mask means the target is met.  An explicit
stack of (placement, next branch, applied coefficient) frames replaces
recursion and spells out the witness when the target is met; a frame
computes each branch's coefficient from its index.  So every structure
is sized by the placement count: max_columns alone sets the memory, and
max_nodes bounds time only; a tripped guard raises `OracleGuardError`.

The oracle shares no code with the deciders: it uses `core` and the
witness verifier only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

from .core import CapExceeded, FreshAtoms, Instance, VerificationError, dv_scale
from .witness import Witness, make_witness, verify_witness


class OracleGuardError(CapExceeded):
    """The oracle's `CapExceeded`: its estimated or actual search effort
    exceeded a guard, which `reason` names: "column_cap" (`max_columns`) or
    "node_cap" (`max_nodes`)."""


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
    """Distinct evaluated generator placements: [(entries, gen index,
    renaming)], each entries dict canonical (sorted keys, no zero value).

    Placements differing only by a renaming of atoms outside the image are
    identical as vectors, so deduplication by evaluated vector keeps the
    column count small; the first (generator, renaming) of each is kept.

    Distinct image sets give distinct columns, so a generator with s
    support atoms has at least C(P, s) columns in a pool of P atoms.  That
    count is checked against max_columns before the pool is built, so the
    pool never grows with a fresh-atom count the guard would refuse anyway;
    a family with nothing to place gets no fresh atoms.
    """
    pool = sorted(inst.target.support())
    placed = [(gi, gen) for gi, gen in enumerate(inst.generators) if gen.entries]
    size = len(pool) + cfg.fresh_atoms
    if any(math.comb(size, len(gen.support())) > cfg.max_columns for _gi, gen in placed):
        raise OracleGuardError("too many generator placements", "column_cap")
    if placed:
        pool += FreshAtoms(inst.all_atoms()).take_many(cfg.fresh_atoms)
    seen: set[frozenset] = set()
    cols: list[tuple[dict, int, dict]] = []
    for gi, gen in placed:
        sup = sorted(gen.support())
        if len(sup) > len(pool):
            continue
        items = list(gen.entries.items())
        for image in itertools.permutations(pool, len(sup)):
            ren = dict(zip(sup, image))
            # a placement is injective, so a renamed key is a set once sorted
            entries = {
                tuple(sorted([ren[a] for a in key])): val for key, val in items
            }
            ident = frozenset(entries.items())
            if ident in seen:
                continue
            seen.add(ident)
            cols.append((entries, gi, ren))
            if len(cols) > cfg.max_columns:
                raise OracleGuardError("too many generator placements", "column_cap")
    return cols


def _key_rank(key) -> tuple:
    return tuple(sorted(key, reverse=True))


def brute_force(inst: Instance, cfg: OracleConfig) -> Optional[Witness]:
    """First witness found by a complete residual-directed search, or None.

    At each node the search picks the largest data set with a nonzero
    residual value (the highest bit of the nonzero-slot mask) and branches on
    the first undecided placement, heaviest first, that can change it:
    first on each nonzero coefficient, then on skipping the placement, so
    the search covers the whole coefficient box.  A node is dead when the
    set's residual exceeds what the undecided placements can still reach.
    Steps update the flat residual in place and are undone on backtrack;
    the frames live on an explicit stack.  Deterministic; raises
    OracleGuardError above max_columns placements (which set the memory)
    or max_nodes nodes (which bound the time).
    """
    cols = _columns(inst, cfg)
    b = cfg.coeff_bound
    dim = inst.dim
    keys: set = set(inst.target.entries)
    for entries, _gi, _ren in cols:
        keys.update(entries)
    index = {key: s for s, key in enumerate(sorted(keys, key=_key_rank))}
    # per placement: its nonzero slots as (slot, value) and each slot's
    # share b*|value| of the cap; per set: the touching placements, heaviest
    # first; per slot: the reachability cap over the undecided placements
    updates: list[list[tuple[int, int]]] = []
    shares: list[list[tuple[int, int]]] = []
    touch: list[list[tuple[int, int]]] = [[] for _ in index]
    cap = [0] * (len(index) * dim)
    for j, (entries, _gi, _ren) in enumerate(cols):
        upd = []
        for key, val in entries.items():
            s = index[key]
            touch[s].append((-sum(abs(x) for x in val), j))
            upd.extend((s * dim + i, x) for i, x in enumerate(val) if x)
        updates.append(upd)
        shares.append([(slot, b * abs(x)) for slot, x in upd])
        for slot, share in shares[j]:
            cap[slot] += share
    order = [[j for _w, j in sorted(lst)] for lst in touch]
    # the residual, and the bitmask of its nonzero slots: sets are numbered
    # by rank and own consecutive slots, so the highest bit of the mask lies
    # in the largest set with a nonzero residual
    residual = [0] * (len(index) * dim)
    mask = 0
    for key, val in inst.target.entries.items():
        for i, x in enumerate(val):
            if x:
                slot = index[key] * dim + i
                residual[slot] = x
                mask |= 1 << slot
    # branch k < nv of a frame gives its placement the coefficient
    # (k // ns + 1) * signs[k % ns], that is 1, -1, 2, -2, ... in Z mode and
    # 1, 2, ... in N mode, and branch nv gives it 0 (skip).  Moving to a
    # branch subtracts the new coefficient less the applied one times the
    # placement, so the skip branch restores the residual the frame started
    # from.  A frame moves one branch per node, so the node guard stops every
    # frame before branch max_nodes
    max_nodes = cfg.max_nodes
    signs = (1,) if cfg.mode == "N" else (1, -1)
    ns = len(signs)
    nv = b * ns
    decided = bytearray(len(cols))
    stack: list[list[int]] = []  # frames [placement, next branch, coefficient]
    nodes = 0
    while True:
        # evaluate the node at the current residual
        nodes += 1
        if nodes > max_nodes:
            raise OracleGuardError("search node budget exceeded", "node_cap")
        if not mask:
            break
        s = (mask.bit_length() - 1) // dim
        for i in range(s * dim, s * dim + dim):
            r = residual[i]
            if r > cap[i] or -r > cap[i]:
                break
        else:
            for j0 in order[s]:
                if not decided[j0]:
                    decided[j0] = 1
                    for slot, share in shares[j0]:
                        cap[slot] -= share
                    stack.append([j0, 0, 0])
                    break
        # move to the next node: the top frame's next branch, popping the
        # frames whose branches are exhausted
        while stack:
            frame = stack[-1]
            j, k, c = frame
            if k > nv:
                stack.pop()
                decided[j] = 0
                for slot, share in shares[j]:
                    cap[slot] += share
                continue
            coeff = (k // ns + 1) * signs[k % ns] if k < nv else 0
            frame[1] = k + 1
            frame[2] = coeff
            d = coeff - c
            if d:
                for slot, x in updates[j]:
                    old = residual[slot]
                    new = residual[slot] = old - d * x
                    if not old or not new:
                        mask ^= 1 << slot
            break
        else:
            return None
    # the met target's path: each frame's applied coefficient
    w = make_witness((c, cols[j][1], cols[j][2]) for j, _k, c in stack)
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
    return brute_force(sub, replace(cfg, mode="N")) is not None
