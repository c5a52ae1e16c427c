"""Constructive hypergraph toolbox: reduction matrices, cut, isolation
predicates, simple hypergraphs and their constructive expression as
combinations of renamed copies of a source hypergraph.

A *(m,a)-simple* k-hypergraph lives on pairwise disjoint vertex sets A, B, C
with |A| = |B| = m, |C| = 2(k-m)-1 (C empty when m = k), carries weight
(-1)^{|B /\\ X|} * a on every transversal m-set X (one vertex of each pair
A[i], B[i]) and weight zero on every other set of size at most m.  These
graphs are the building blocks for decomposing any hypergraph into pieces
whose weights come from a prescribed generator family: a decomposition
step places one as renamed templates, each checked once, in closed form.

Witness terms here are lists (coefficient, renaming) over one source data
vector, or (coefficient, generator index, renaming) over a family.  Every
renaming is total on the support of the referenced vector and maps each
support atom either onto a designated placement vertex or onto a context
fresh atom; this invariant is what makes the lifting identities sound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Mapping, Optional, Sequence

from .core import (
    Atom,
    CapExceeded,
    DataVector,
    FreshAtoms,
    Hypergraph,
    IntVector,
    KSet,
    ShapeError,
    VerificationError,
    add_into,
    dv_combine,
    encode_hypergraph,
    kset,
    nonzero_weight_sets,
    vec_add,
    vec_scale,
    weight,
    weight_table,
    weights_of_size,
    zero_vec,
)
from .intlin import IntMatrix, rank_full
from .zsolve import GeneratorLayers


# ---------------------------------------------------------------------------
# reduction matrices


@dataclass(frozen=True)
class ReductionMatrix:
    a: int
    b: int
    c: int
    matrix: IntMatrix
    row_index: tuple[KSet, ...]
    col_index: tuple[KSet, ...]


def reduction_matrix(a: int, b: int, c: int) -> ReductionMatrix:
    """0/1 inclusion matrix between c-subsets (rows) and b-subsets (columns)
    of the a-set {0..a-1}; indices in lexicographic order."""
    if not a >= b >= c >= 0:
        raise ShapeError("need a >= b >= c >= 0")
    ground = range(a)
    rows = tuple(itertools.combinations(ground, c))
    cols = tuple(itertools.combinations(ground, b))
    entries = [
        [1 if set(r) <= set(col) else 0 for col in cols] for r in rows
    ]
    return ReductionMatrix(a, b, c, IntMatrix.from_rows(entries), rows, cols)


def kneser_full_rank(k: int) -> bool:
    """Full rank of the inclusion matrix between k- and (k+1)-subsets of a
    (2k+1)-set, by exact elimination."""
    if k < 1:
        raise ShapeError("k must be positive")
    return rank_full(reduction_matrix(2 * k + 1, k + 1, k).matrix)


# ---------------------------------------------------------------------------
# cut


def cut(h: Hypergraph, x) -> Hypergraph:
    """Remove the vertex set x from every hyperedge containing it; the result
    is a (k-|x|)-hypergraph on the remaining vertices."""
    xs = frozenset(x)
    if len(xs) >= h.arity:
        raise ShapeError("|x| must be smaller than the arity")
    if not xs <= h.vertices:
        raise ShapeError("x must be a subset of the vertex set")
    mu = {
        kset(set(key) - xs): val
        for key, val in h.mu.items()
        if xs <= set(key)
    }
    return Hypergraph(h.vertices - xs, h.arity - len(xs), h.dim, mu)


# ---------------------------------------------------------------------------
# isolation predicates and weight identities


def is_m_isolated(h: Hypergraph, m: int) -> bool:
    """All weights of vertex sets of size at most m vanish."""
    if not 0 <= m <= h.arity:
        raise ShapeError("need 0 <= m <= arity")
    return not any(nonzero_weight_sets(h, size) for size in range(m + 1))


def proportionality_check(h: Hypergraph, x, l: int) -> bool:
    """Sum of weights of the l-supersets of x equals C(k-|x|, l-|x|) times
    the weight of x."""
    xs = kset(x)
    m = len(xs)
    if not (m <= l <= h.arity) or not set(xs) <= h.vertices:
        raise ShapeError("need x within the vertex set and |x| <= l <= arity")
    total = zero_vec(h.dim)
    for y, w in weights_of_size(h, l).items():
        if set(xs) <= set(y):
            total = vec_add(total, w)
    expected = vec_scale(comb(h.arity - m, l - m), weight(h, xs))
    return total == expected


# ---------------------------------------------------------------------------
# simple hypergraphs


@dataclass(frozen=True)
class SimpleSpec:
    """Placement of an (m,a)-simple k-hypergraph: paired vertex sequences
    A, B (A[i] paired with B[i]) and the free block C."""

    m: int
    a: IntVector
    A: tuple[Atom, ...]
    B: tuple[Atom, ...]
    C: tuple[Atom, ...]

    def transversal_weights(self) -> dict[KSet, IntVector]:
        """The nonzero size-m weights of the graph so placed:
        (-1)^{|B /\\ X|} * a on each transversal X of the pairs."""
        b_set = set(self.B)
        return {
            kset(x): vec_scale(-1 if len(b_set.intersection(x)) % 2 else 1, self.a)
            for x in itertools.product(*zip(self.A, self.B))
        } if any(self.a) else {}


def verify_simple(h: Hypergraph, spec: SimpleSpec) -> bool:
    """Check all defining properties: vertex partition and sizes, signed
    weights on transversal m-sets, zero weights on all other sets of size m,
    and (m-1)-isolation."""
    m, k = spec.m, h.arity
    blocks = {*spec.A, *spec.B, *spec.C}  # disjoint, no atom twice
    if len(spec.A) != m or len(spec.B) != m or len(blocks) != 2 * m + len(spec.C):
        return False
    if len(spec.C) != (0 if m == k else 2 * (k - m) - 1) or h.vertices != blocks:
        return False
    if weights_of_size(h, m) != spec.transversal_weights():
        return False
    return is_m_isolated(h, m - 1) if m >= 1 else True


# ---------------------------------------------------------------------------
# witness algebra over one source vector

Terms = list[tuple[int, dict[Atom, Atom]]]


def eval_terms(source: DataVector, terms: Terms) -> DataVector:
    return dv_combine(
        source.arity, source.dim, ((c, source, ren) for c, ren in terms)
    )


def merge_terms(terms: Terms) -> Terms:
    merged: dict[tuple[tuple[Atom, Atom], ...], int] = {}
    for c, ren in terms:
        key = tuple(sorted(ren.items()))
        merged[key] = merged.get(key, 0) + c
    return [(c, dict(key)) for key, c in merged.items() if c]


def _compose(outer: Mapping[Atom, Atom], inner: Mapping[Atom, Atom]) -> dict[Atom, Atom]:
    """Renaming equal to applying inner first, then outer (outer defaults to
    the identity outside its domain)."""
    return {u: outer.get(v, v) for u, v in inner.items()}


# Resource caps of one construction, read when checked: construction steps
# (recursion and improvement-loop rounds) and terms of one witness list.
_MAX_STEPS = 50_000
_MAX_TERMS = 200_000


class _Ctx:
    """One construction context: fresh-atom supply, step count, memo tables."""

    def __init__(self, used):
        self.fresh = FreshAtoms(used)
        self.steps = 0
        self.simple_cache: dict = {}

    def tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise CapExceeded("construction step cap exceeded", "step_cap")

    def check_terms(self, terms) -> None:
        if len(terms) > _MAX_TERMS:
            raise CapExceeded("witness term cap exceeded", "term_cap")


def _total_block(support, ctx: _Ctx, fixed: Mapping[Atom, Atom]) -> dict[Atom, Atom]:
    """Total renaming on `support` agreeing with `fixed` and sending every
    other support atom to a fresh atom."""
    ren = dict(fixed)
    for u in sorted(support):
        if u not in ren:
            ren[u] = ctx.fresh.take()
    return ren


def _lift(terms: Terms, support, cut_support, alpha: Atom, hi: Atom,
          lo: Atom, ctx: _Ctx) -> Terms:
    """Lift terms of the cut at `alpha` back over it: each c*rho becomes
    +c*(rho, alpha -> hi) and -c*(rho, alpha -> lo), and every other support
    atom the cut's support lost goes to a fresh atom per term."""
    stray = [u for u in support if u != alpha and u not in cut_support]
    lifted: Terms = []
    for c, ren in terms:
        base = dict(ren)
        for u in stray:
            base[u] = ctx.fresh.take()
        lifted.append((c, {**base, alpha: hi}))
        lifted.append((-c, {**base, alpha: lo}))
    return lifted


def _construct_simple(g: Hypergraph, x: KSet, ctx: _Ctx):
    """Recursive core of construct_simple; returns (hypergraph, spec, terms)."""
    ctx.tick()
    k, d = g.arity, g.dim
    m = len(x)
    a = weight(g, x)
    support = sorted(g.as_data_vector().support())

    if k == 1:
        if m == 1:
            alpha = x[0]
            alpha2 = ctx.fresh.take()
            ren1 = _total_block(support, ctx, {alpha: alpha})
            ren2 = dict(ren1)
            ren2[alpha] = alpha2
            terms: Terms = [(1, ren1), (-1, ren2)]
            hg = Hypergraph(
                {alpha, alpha2}, 1, d, {(alpha,): a, (alpha2,): vec_scale(-1, a)}
            )
            return hg, SimpleSpec(1, a, (alpha,), (alpha2,), ()), terms
        # m == 0: gather the whole mass onto one fresh vertex
        gamma = ctx.fresh.take()
        terms = []
        if support:
            beta0 = support[0]
            main = _total_block(support, ctx, {beta0: gamma})
            terms.append((1, main))
            for beta in support[1:]:
                block = _total_block(support, ctx, {beta: gamma})
                neg = dict(block)
                neg[beta] = main[beta]
                terms.append((1, block))
                terms.append((-1, neg))
        hg = Hypergraph({gamma}, 1, d, {(gamma,): a})
        return hg, SimpleSpec(0, a, (), (), (gamma,)), terms

    if m > 0:
        alpha = x[0]
        if alpha not in g.vertices:
            raise ShapeError("x must be a subset of the vertex set")
        gc = cut(g, {alpha})
        sub, sub_spec, sub_terms = _construct_simple(gc, x[1:], ctx)
        beta = ctx.fresh.take()
        beta2 = ctx.fresh.take()
        terms = _lift(
            sub_terms, support, set(gc.as_data_vector().support()),
            alpha, beta, beta2, ctx,
        )
        ctx.check_terms(terms)
        hg = Hypergraph(
            sub.vertices | {beta, beta2},
            k,
            d,
            {
                **{kset(set(key) | {beta}): val for key, val in sub.mu.items()},
                **{
                    kset(set(key) | {beta2}): vec_scale(-1, val)
                    for key, val in sub.mu.items()
                },
            },
        )
        spec = SimpleSpec(
            m, a, (*sub_spec.A, beta), (*sub_spec.B, beta2), sub_spec.C
        )
        return hg, spec, terms

    # m == 0, k >= 2: eliminate vertices until at most 2k-1 remain
    current = Hypergraph(frozenset(support), k, d, g.as_data_vector())
    terms = [(1, {u: u for u in support})]  # identity copy
    while len(current.as_data_vector().support()) > 2 * k - 1:
        ctx.tick()
        sup = sorted(current.as_data_vector().support())
        alpha = sup[-1]
        fc = cut(current, {alpha})
        workspace = [v for v in sup if v != alpha]
        entries = _express_via_simple(
            fc.as_data_vector(),
            GeneratorLayers([fc.as_data_vector()], d),
            workspace,
            ctx,
        )
        co_support = set(fc.as_data_vector().support())
        correction: Terms = []
        for spec, fam_terms in entries:
            blocks = {*spec.A, *spec.B, *spec.C}
            candidates = [v for v in sup if v != alpha and v not in blocks]
            if not candidates:
                raise VerificationError("no spare vertex for the elimination step")
            correction += _lift(
                [(c, ren) for c, _gi, ren in fam_terms], sup, co_support,
                alpha, alpha, candidates[0], ctx,
            )
        # flatten: copies of `current` become copies of g
        flattened: Terms = []
        for c, ren in correction:
            for c0, ren0 in terms:
                flattened.append((-c * c0, _compose(ren, ren0)))
        terms = merge_terms(terms + flattened)
        ctx.check_terms(terms)
        ev = eval_terms(g.as_data_vector(), terms)
        nxt = encode_hypergraph(ev)
        if alpha in ev.support() or not ev.support() < set(sup):
            raise VerificationError("elimination step failed to drop the vertex")
        current = nxt
    base_vertices = sorted(current.as_data_vector().support())
    # Individual terms may still mention eliminated vertices (those mentions
    # cancel in the sum); push them to fresh atoms with one shared renaming
    # so every term's range stays within the output vertices plus fresh.
    gone = sorted(set(support) - set(base_vertices))
    if gone:
        sigma = {u: ctx.fresh.take() for u in gone}
        terms = [(c, _compose(sigma, ren)) for c, ren in terms]
    pads = ctx.fresh.take_many(2 * k - 1 - len(base_vertices))
    verts = frozenset(base_vertices) | frozenset(pads)
    hg = Hypergraph(verts, k, d, current.as_data_vector())
    return hg, SimpleSpec(0, a, (), (), tuple(sorted(verts))), terms


def construct_simple(g: Hypergraph, x):
    """Build a (|x|, weight(g,x))-simple k-hypergraph together with a formal
    integer combination of renamed copies of g that evaluates to it.

    Returns (hypergraph, spec, terms); self-verified before returning."""
    xs = kset(x)
    if len(xs) > g.arity:
        raise ShapeError("|x| must be at most the arity")
    if not set(xs) <= g.vertices:
        raise ShapeError("x must be a subset of the vertex set")
    ctx = _Ctx(g.vertices)
    hg, spec, terms = _construct_simple(g, xs, ctx)
    terms = merge_terms(terms)
    if not verify_simple(hg, spec):
        raise VerificationError("constructed hypergraph failed simplicity check")
    if eval_terms(g.as_data_vector(), terms) != hg.as_data_vector():
        raise VerificationError("constructed witness does not evaluate to output")
    return hg, spec, terms


# ---------------------------------------------------------------------------
# expressing a hypergraph through the simple family of a generator family

FamilyTerms = list[tuple[int, int, dict[Atom, Atom]]]


def _simple_with_value(
    layers: GeneratorLayers, a: IntVector, A: tuple[Atom, ...],
    B: tuple[Atom, ...], C: tuple[Atom, ...], residual: dict, ctx: _Ctx,
):
    """Subtract an (m,a)-simple k-hypergraph on the blocks A, B, C (m = |A|)
    from `residual` in place as renamed simple templates of the family
    members, one per coefficient of the owner's size-m layer solve; return
    (spec, family witness terms).  No graph is built, and none is needed:
    - the template of (generator, xs) is (m,w)-simple and its vertices are
      exactly its blocks A' u B' u C' (`verify_simple` checks it once, as it
      enters `ctx.simple_cache`);
    - tau (A' -> A, B' -> B, sorted C' -> C) maps block onto block and pair
      onto pair, so the renamed template is (m,w)-simple on A, B, C;
    - simplicity is linear for fixed blocks, and the solve gives
      sum coeff * w = a, so the placed sum is (m,a)-simple."""
    family = layers.hypergraphs
    m = len(A)
    sol = layers.solve(m, a)
    if sol is None:
        raise VerificationError(
            f"value {a} outside the integer span of size-{m} family weights"
        )
    fam_terms: FamilyTerms = []
    for (gi, xs), coeff in zip(layers.layer(m).reps.values(), sol):
        if not coeff:
            continue
        key = (family[gi], xs)
        if key not in ctx.simple_cache:
            s_hg, s_spec, s_terms = _construct_simple(family[gi], xs, ctx)
            if not verify_simple(s_hg, s_spec):
                raise VerificationError("simple template failed its simplicity check")
            ctx.simple_cache[key] = s_hg, s_spec, s_terms
        s_hg, s_spec, s_terms = ctx.simple_cache[key]
        tau = dict(zip(s_spec.A, A))
        tau.update(zip(s_spec.B, B))
        tau.update(zip(sorted(s_spec.C), sorted(C)))
        add_into(residual, -coeff, s_hg.mu, tau)
        for c, ren in s_terms:
            fam_terms.append((coeff * c, gi, _compose(tau, ren)))
    ctx.check_terms(fam_terms)
    return SimpleSpec(m, a, A, B, C), fam_terms


def _greedy_below(l_set: KSet, pool) -> Optional[tuple[Atom, ...]]:
    """Distinct atoms b_i < a_i from the pool, aligned with sorted(l_set);
    smallest-available-first, complete for this matching problem."""
    avail = sorted(pool)
    chosen: list[Atom] = []
    for a in l_set:
        pick = next((v for v in avail if v < a), None)
        if pick is None:
            return None
        avail.remove(pick)
        chosen.append(pick)
    return tuple(chosen)


def _pick(weights: Mapping[KSet, IntVector], verts: Sequence[Atom]):
    """(L, below) for the first maximal key L of `weights`, in descending
    colex order, that `_greedy_below` serves from the other vertices; None
    if there is none.  A key's dominators (position by position at least as
    large) are colex-larger and domination is transitive, so a key is
    maximal iff no maximal key walked before it dominates it."""
    pool = set(verts)
    kept: list[KSet] = []
    for l_set in sorted(weights, key=lambda t: t[::-1], reverse=True):
        if any(all(a <= b for a, b in zip(l_set, y)) for y in kept):
            continue
        kept.append(l_set)
        below = _greedy_below(l_set, pool - set(l_set))
        if below is not None:
            return l_set, below
    return None


def _express_via_simple(
    h: DataVector,
    layers: GeneratorLayers,
    vertices: Sequence[Atom],
    ctx: _Ctx,
):
    """Decompose h into simple hypergraphs of the owner's family, supported
    inside the given vertex set.

    Level by level, for each size an improvement loop that repeatedly cancels
    a maximal nonzero-weight set L against a strictly dominated disjoint set
    L', until no nonzero weights of that size remain; at size 0 this places
    one (0, w_empty)-simple graph.  Each step picks L in one walk of the
    level's weights in descending colex order (`_pick`): a set some maximal
    set walked before it dominates is skipped, and the first maximal set
    `_greedy_below` serves is taken.  The step subtracts the placed
    (level, a)-simple graph from the residual (`_simple_with_value`) and its
    weights, +-a on the 2^level transversals of (L, below), from the level's.
    Returns [(spec, family terms)], the terms summing to h exactly."""
    k, d = h.arity, h.dim
    verts = sorted(set(vertices))
    if not set(h.support()) <= set(verts):
        raise ShapeError("working vertex set must cover the support")
    if len(verts) <= 2 * k - 1:
        raise ShapeError("working vertex set too small")
    pieces = []
    residual = dict(h.entries)  # h minus the placed graphs
    for level in range(k + 1):
        # the residual's nonzero size-`level` weights, built once and kept
        # current by `add_into` (weights are additive)
        weights = weight_table(DataVector(k, d, residual), level)
        while True:
            ctx.tick()
            if not weights:
                break
            chosen = _pick(weights, verts)
            if chosen is None:
                raise VerificationError("improvement loop stuck with nonzero weights")
            l_set, below = chosen
            c_pool = [v for v in verts if v not in l_set and v not in below]
            c_block = tuple(c_pool[: max(0, 2 * (k - level) - 1)])
            if len(c_block) < max(0, 2 * (k - level) - 1):
                raise VerificationError("not enough vertices for the free block")
            spec, fam_terms = _simple_with_value(
                layers, weights[l_set], l_set, below, c_block, residual, ctx
            )
            pieces.append((spec, fam_terms))
            add_into(weights, -1, spec.transversal_weights(), {})
    if residual:
        raise VerificationError("decomposition left a nonzero residual")
    return pieces


def express_via_simple(layers: GeneratorLayers, h: DataVector, vertices):
    """Decompose h over the family of `layers` (see `_express_via_simple`)
    in a construction context of its own; a layer the owner factored before
    is not factored again.  Returns [(spec, family terms)], each piece's
    terms summing to the (m,a)-simple graph on its spec's blocks; no graph
    is built.  Raises `core.CapExceeded` past `_MAX_STEPS` steps
    ("step_cap") or `_MAX_TERMS` terms ("term_cap"), and `VerificationError`
    where a template or the final residual fails its check."""
    used = set(vertices)
    for g in layers.hypergraphs:
        used |= g.vertices
    return _express_via_simple(h, layers, vertices, _Ctx(used))
