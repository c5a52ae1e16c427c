"""N-solvability (nonnegative combinations of renamed generator copies).

The decision follows a reduce-and-guess scheme: project data vectors to
plain integer vectors, split the generators into reversible ones (whose
negation is again a nonnegative combination, so they may be subtracted
freely) and nonreversible ones, bound the total multiplicity of
nonreversible copies by Pottier's bound on the projection system
(`intlin.pottier_base_bound`) and walk only the totals that the split's
Farkas functional allows at the target, enumerate the bounded guesses for
the nonreversible part, and solve the residual over the reversible
generators as an integer (Z) problem.  Caps make the search honest:
truncation yields INCONCLUSIVE, never a wrong certificate.  `n_solvable`
runs the public stages `reversible_partition`, `nonreversible_bound` and
the Z refusal `zsolve.z_solvable`, once each.

The split shares cone certificates: each one decides every generator it
covers, so one simplex runs per generator still undecided.  The Z refusal
and every residual check need only a decision, so each stops at its first
failing subset (`GeneratorLayers.admits`); a SOLVABLE decision carries its
guess, whose residual a caller can check again over the reversible
generators.  When every generator is reversible the only guess is the
empty one, whose residual is the target over all generators: the Z refusal
was its check, so the answer is SOLVABLE with guess `()` (it still counts
as one guess against `guess_cap`, after the `coeff_cap` test) and no
residual is checked.

The placement walk keeps one residual, the target minus the copies placed
so far, as a plain dict that `core.add_into` updates in place: placing a
copy adds -1 times its renamed entries, lifting it adds them back, and the
kernel deletes a key whose value cancels, so no frame keeps a copy and a
full guess's residual is zero exactly when the dict is empty.  A zero
residual passes over any family; a nonzero one fails at once when there
is no reversible generator (every layer's lattice is then {0}), and only
otherwise is it walked (`GeneratorLayers.admits`).  Each placement's
renaming is injective by construction and is checked again
(`VerificationError` if not), so the sorted images of a key are a
canonical key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    Atom,
    DataVector,
    FreshAtoms,
    Instance,
    IntVector,
    VerificationError,
    add_into,
    weight_table,
    zero_vec,
)
from .intlin import IntMatrix, cone_member_certificate, pottier_base_bound
from .zsolve import GeneratorLayers, z_solvable


COEFF_CAP = 10_000  # default `coeff_cap`, also `datalin nsolve --cap`'s


@dataclass(frozen=True)
class ReversibilityPartition:
    reversible: tuple[int, ...]
    nonreversible: tuple[int, ...]
    functional: IntVector  # z: z.p_r = 0 for reversible r, z.p_i > 0 otherwise
    projections: tuple[IntVector, ...]  # p_i, each generator's `data_projection`


@dataclass(frozen=True)
class NBoundData:
    coeff_bound: int
    s_max: int
    support_size: int


@dataclass(frozen=True)
class NDecision:
    status: str  # SOLVABLE | UNSOLVABLE | INCONCLUSIVE
    bounds: NBoundData
    guess: Optional[tuple[tuple[int, tuple[tuple[Atom, Atom], ...]], ...]] = None
    reason: Optional[str] = None  # INCONCLUSIVE only: "coeff_cap" | "guess_cap"


def data_projection(a: DataVector) -> IntVector:
    """The weight of the empty set (`weight_table` of size 0): the
    componentwise sum of all values; additive, scale-compatible, and
    renaming-invariant."""
    return weight_table(a, 0).get((), zero_vec(a.dim))


def reversible_partition(inst: Instance) -> ReversibilityPartition:
    """Split the generator indices by reversibility: a generator is
    reversible iff the negation of its projection lies in the rational
    nonnegative cone of all generator projections.  One cone certificate
    decides every generator it covers; a generator already decided is
    skipped.

    If -p_i = sum q_j p_j with q >= 0, every j with q_j > 0 is reversible:
    -p_j = (p_i + sum_{l != j} q_l p_l) / q_j.  If instead a Farkas z_i has
    z_i.p_l >= 0 for every l and z_i.p_i > 0, every j with z_i.p_j > 0 is
    nonreversible: z_i is nonnegative on the cone, negative on -p_j.

    `functional` is the sum z of those z_i, scaled to integers: z.p_j > 0
    for each nonreversible j (a z_i decided it and none is negative), and
    z.p_r = 0 for each reversible r (z >= 0 on p_r and -p_r, both in the
    cone).  Both are checked.  The projections are kept for the later stages."""
    projections = [data_projection(g) for g in inst.generators]
    reversible: dict[int, bool] = {}
    functional = (0,) * inst.dim
    for i, p in enumerate(projections):
        if i in reversible:
            continue
        ok, cert = cone_member_certificate(projections, tuple(-x for x in p))
        if ok:
            reversible[i] = True
            for j, q in enumerate(cert):
                if q > 0:
                    reversible[j] = True
        else:
            scale = math.lcm(*(c.denominator for c in cert))
            z = [c.numerator * (scale // c.denominator) for c in cert]
            functional = tuple(map(sum, zip(functional, z)))
            for j, pj in enumerate(projections):
                if _dot(z, pj) > 0:
                    reversible[j] = False
    for i, p in enumerate(projections):
        level = _dot(functional, p)
        if level < 0 or (level > 0) == reversible[i]:
            raise VerificationError("Farkas sum is not 0 on reversible, > 0 on others")
    order = range(len(projections))
    return ReversibilityPartition(
        tuple(i for i in order if reversible[i]),
        tuple(i for i in order if not reversible[i]),
        functional,
        tuple(projections),
    )


def _dot(z, p) -> int:
    return sum(a * b for a, b in zip(z, p))


def nonreversible_bound(
    inst: Instance, part: ReversibilityPartition
) -> NBoundData:
    """Multiplicity bound for the nonreversible part: the number of
    distinct nonreversible projections times Pottier's bound on the
    projection system (`pottier_base_bound`), and the derived support-size
    bound."""
    supp_size = len(inst.target.support())
    if not part.nonreversible:
        return NBoundData(0, 0, supp_size)
    distinct_nonrev = {part.projections[i] for i in part.nonreversible}
    coeff_bound = len(distinct_nonrev) * pottier_base_bound(
        IntMatrix.from_columns(part.projections, nrows=inst.dim),
        data_projection(inst.target),
    )
    s_max = max(
        len(inst.generators[i].support()) for i in part.nonreversible
    )
    return NBoundData(coeff_bound, s_max, supp_size + s_max * coeff_bound)


def n_solvable(
    inst: Instance,
    coeff_cap: int = COEFF_CAP,
    guess_cap: int = 1_000_000,
) -> NDecision:
    """Decide N-solvability.

    Runs `reversible_partition` and `nonreversible_bound`, then the fast
    refusal `z_solvable`: not Z-solvable over all generators implies not
    N-solvable.  With every generator reversible, that check already
    decided the one (empty) guess.  Otherwise enumerate the multiplicities
    of nonreversible copies (pruned by the projection equation), place each
    copy canonically over the target support plus fresh atoms, and Z-solve
    the residual over the reversible generators only.  Exhausted
    enumeration within the caps is a certificate of UNSOLVABLE; truncation
    reports INCONCLUSIVE with the cap that tripped as its `reason`.

    The residual is one dict that each placement updates in place and
    each backtrack restores, both through `core.add_into`.  A guess passes
    at once when it is empty, fails at once when it is not and no generator
    is reversible, and is otherwise checked as a `DataVector` over the
    reversible layers; a renaming that is not injective raises
    `VerificationError`, since the kernel checks nothing.

    Totals stop at min(coeff_bound, z.t // m), z the split's `functional`
    and m its least nonreversible z.p_i: a composition c that passes the
    projection test leaves t - sum c_i p_i in the reversible span, where z
    vanishes, so z.t = sum c_i z.p_i >= m * sum c_i; no guess changes.
    """
    gens = inst.generators
    part = reversible_partition(inst)
    bounds = nonreversible_bound(inst, part)
    if not z_solvable(inst):
        return NDecision("UNSOLVABLE", bounds)

    if bounds.coeff_bound > coeff_cap:
        return NDecision("INCONCLUSIVE", bounds, reason="coeff_cap")

    if not part.nonreversible:
        # The only guess is the empty one: its residual is the target and
        # its generators are all of them, so the Z refusal was its check.
        if guess_cap < 1:
            return NDecision("INCONCLUSIVE", bounds, reason="guess_cap")
        return NDecision("SOLVABLE", bounds, ())

    # Every guess's residual is checked against the reversible generators'
    # layers, each factored once per call.  Layer 0 holds their nonzero
    # projections (the weight of the empty set is a vector's projection),
    # which span the same lattice as all of them.
    rev = GeneratorLayers([gens[i] for i in part.reversible], inst.dim)
    target_proj = data_projection(inst.target)
    nonrev = list(part.nonreversible)
    nonrev_proj = [part.projections[i] for i in nonrev]
    level = _dot(part.functional, target_proj)
    least = min(_dot(part.functional, p) for p in nonrev_proj)
    total_cap = min(bounds.coeff_bound, level // least)
    supp = sorted(inst.target.support())
    fresh = FreshAtoms(inst.all_atoms())
    fresh_base = fresh.take()  # first canonical fresh atom id

    def options(gi, known_fresh):
        """One copy of generator gi placed canonically: its support mapped
        injectively into the target support and the fresh atoms used so
        far, some positions onto canonically numbered new fresh atoms;
        yields ((gi, renaming), fresh atoms used with it)."""
        sup = sorted(gens[gi].support())
        n = len(sup)
        pool = supp + [fresh_base + j for j in range(known_fresh)]
        new_base = fresh_base + known_fresh
        for r in range(n + 1):
            for pos_f in itertools.combinations(range(n), r):
                new = dict(zip(pos_f, range(new_base, new_base + r)))
                for old in itertools.permutations(pool, n - r):
                    olds = iter(old)
                    ren = {
                        a: new[i] if i in new else next(olds) for i, a in enumerate(sup)
                    }
                    yield (gi, ren), known_fresh + r

    residual = dict(inst.target.entries)  # the target minus the placed copies

    def placements(copies):
        """Every canonical placement of the copies, depth first on an
        explicit stack (one frame per placed copy, so any number of copies
        fits), each copy subtracted from `residual` when placed and added
        back when lifted; yields each full guess as its live list of
        (generator index, renaming), with `residual` left by it."""
        if not copies:
            yield []
            return
        terms: list = []
        frames = [options(copies[0], 0)]
        while frames:
            if len(terms) == len(frames):  # lift the top frame's last copy
                gi, ren = terms.pop()
                add_into(residual, 1, gens[gi].entries, ren)
            step = next(frames[-1], None)
            if step is None:
                frames.pop()
                continue
            (gi, ren), known_fresh = step
            if len(set(ren.values())) != len(ren):
                raise VerificationError(f"placement {ren} is not injective")
            add_into(residual, -1, gens[gi].entries, ren)
            terms.append((gi, ren))
            if len(terms) == len(copies):
                yield terms
            else:
                frames.append(options(copies[len(terms)], known_fresh))

    def guesses():
        for total in range(0, total_cap + 1):
            for counts in _compositions(total, len(nonrev)):
                # projection necessary condition for the residual
                needed = target_proj
                for c, p in zip(counts, nonrev_proj):
                    needed = tuple([x - c * y for x, y in zip(needed, p)])
                if rev.solve(0, needed) is None:
                    continue
                copies = [i for c, i in zip(counts, nonrev) for _ in range(c)]
                yield from placements(copies)

    for tried, terms in enumerate(guesses(), start=1):
        if tried > guess_cap:
            return NDecision("INCONCLUSIVE", bounds, reason="guess_cap")
        if not residual or (
            part.reversible
            and rev.admits(DataVector(inst.arity, inst.dim, residual))
        ):
            guess = tuple((gi, tuple(sorted(ren.items()))) for gi, ren in terms)
            return NDecision("SOLVABLE", bounds, guess)
    return NDecision("UNSOLVABLE", bounds)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)
