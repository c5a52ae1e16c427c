import hashlib
import itertools
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from datalin.core import (
    DataVector,
    Instance,
    VerificationError,
    dv_add,
    dv_combine,
    dv_permute,
    dv_scale,
    kset,
    weight_table,
    zero_vec,
)
from datalin import nsolve, zsolve
from datalin.intlin import HermiteForm, cone_member
from datalin.oracle import OracleConfig, OracleGuardError, brute_force
from datalin.witness import verify_witness
from datalin.zsolve import GeneratorLayers, local_check
from datalin.nsolve import (
    NBoundData,
    data_projection,
    n_solvable,
    nonreversible_bound,
    reversible_partition,
)

from conftest import (
    pair_generator,
    point_target,
    random_data_vector,
    small_instances,
    spy,
    triangle,
)


def test_data_projection():
    assert data_projection(triangle(0, 1, 2)) == (3,)
    assert data_projection(DataVector(1, 2, {(0,): (1, -2), (3,): (4, 0)})) == (
        5,
        -2,
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_data_projection_is_additive_and_renaming_invariant(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    a = random_data_vector(rng, 2, 1, range(4))
    b = random_data_vector(rng, 2, 1, range(4))
    assert data_projection(dv_add(a, b)) == (
        data_projection(a)[0] + data_projection(b)[0],
    )
    pi = {0: 7, 1: 8, 2: 9, 3: 10}
    assert data_projection(dv_permute(a, pi)) == data_projection(a)
    # the weight of the empty set, zero when the vector is
    assert data_projection(a) == weight_table(a, 0).get((), zero_vec(1))


def test_reversible_partition_pair_generator(ex1):
    part = reversible_partition(ex1)
    assert part.reversible == ()
    assert part.nonreversible == (0,)


def test_reversible_partition_sign_swapped():
    up = DataVector(1, 1, {(0,): (1,)})
    down = DataVector(1, 1, {(0,): (-1,)})
    inst = Instance(1, 1, (up, down), point_target(1))
    part = reversible_partition(inst)
    assert part.reversible == (0, 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_partition_matches_the_per_generator_definition(data):
    # shared certificates decide the same split as one cone test per
    # generator; zero and duplicate projections are drawn on purpose
    d = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(0, 6))
    projections = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["new", "zero", "copy"]))
        if kind == "zero":
            projections.append((0,) * d)
        elif kind == "copy" and projections:
            projections.append(data.draw(st.sampled_from(projections)))
        else:
            projections.append(
                tuple(data.draw(st.integers(-3, 3)) for _ in range(d))
            )
    # generator i carries projection p_i at atom i; a zero one is empty
    gens = tuple(
        DataVector(1, d, {(i,): p} if any(p) else {})
        for i, p in enumerate(projections)
    )
    part = reversible_partition(Instance(1, d, gens, DataVector(1, d, {})))
    rev = tuple(
        i
        for i, p in enumerate(projections)
        if cone_member(projections, tuple(-x for x in p))
    )
    assert part.reversible == rev
    assert part.nonreversible == tuple(i for i in range(n) if i not in rev)
    # the kept functional vanishes on the reversible projections and is
    # positive on the others
    levels = [sum(z * x for z, x in zip(part.functional, p)) for p in projections]
    assert [i for i, v in enumerate(levels) if v == 0] == list(rev)
    assert all(levels[i] > 0 for i in part.nonreversible)


def test_nonreversible_bound_values(ex1, ex2):
    # pair generator: one distinct projection 2, target projection 2,
    # base 2+2+2=6, exponent dim+gens=2 -> 36; support grows by 2 per copy
    b1 = nonreversible_bound(ex1, reversible_partition(ex1))
    assert b1.coeff_bound == 36
    assert b1.s_max == 2
    assert b1.support_size == 1 + 2 * 36
    # triangle: projection 3, target projection 6, base 3+6+2=11 -> 121
    b2 = nonreversible_bound(ex2, reversible_partition(ex2))
    assert b2.coeff_bound == 121
    assert b2.s_max == 3
    assert b2.support_size == 2 + 3 * 121


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_nonreversible_bound_is_pottiers_formula(inst):
    part = reversible_partition(inst)
    bound = nonreversible_bound(inst, part).coeff_bound
    if not part.nonreversible:
        assert bound == 0
        return
    proj = [data_projection(g) for g in inst.generators]
    distinct = len({proj[i] for i in part.nonreversible})
    col_norm = max(sum(abs(x) for x in p) for p in proj)
    target_norm = max(abs(x) for x in data_projection(inst.target))
    exponent = inst.dim + len(inst.generators)
    assert bound == distinct * (col_norm + target_norm + 2) ** exponent


def test_bound_is_zero_without_nonreversible_generators():
    up = DataVector(1, 1, {(0,): (1,)})
    down = DataVector(1, 1, {(0,): (-1,)})
    inst = Instance(1, 1, (up, down), point_target(1))
    b = nonreversible_bound(inst, reversible_partition(inst))
    assert b.coeff_bound == 0
    assert b.support_size == 1


def test_n_unsolvable_fast_path_via_z(ex1_odd):
    assert n_solvable(ex1_odd).status == "UNSOLVABLE"


def test_n_unsolvable_pair_instance(ex1):
    assert n_solvable(ex1).status == "UNSOLVABLE"


def test_n_unsolvable_triangle_instance(ex2):
    assert n_solvable(ex2).status == "UNSOLVABLE"


def test_n_solvable_direct_sum():
    gen = pair_generator()
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    inst = Instance(1, 1, (gen,), target)
    dec = n_solvable(inst)
    assert dec.status == "SOLVABLE"


def test_n_solvable_factors_the_reversible_projections_once(monkeypatch):
    owners = []

    def owner(*args):
        owners.append(GeneratorLayers(*args))
        return owners[-1]

    monkeypatch.setattr(nsolve, "GeneratorLayers", owner)
    factored = spy(monkeypatch, zsolve, "hnf")
    solved = spy(monkeypatch, HermiteForm, "solve")
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    dec = n_solvable(Instance(1, 1, (pair_generator(),), target))
    assert dec.status == "SOLVABLE"
    # the one owner built here holds the reversible generators, whose layer
    # 0 holds their projections; `z_solvable` builds the Z refusal's owner
    (rev,) = owners
    matrix = rev.layer(0).factor.matrix
    assert sum(args[0] is matrix for args in factored) == 1
    # one solve per composition tried: 0, 1 and 2 copies of the generator
    assert sum(args[0].matrix is matrix for args in solved) == 3


def test_n_solvable_factors_each_reversible_layer_at_most_once(monkeypatch):
    # P is nonreversible, R and its negation are reversible; the one copy of
    # P is placed on (0, 1), (0, 2) and (1, 0) before (1, 2) leaves a
    # residual in the span of R and -R.
    p = DataVector(1, 2, {(0,): (1, 0), (1,): (1, 0)})
    r = DataVector(1, 2, {(0,): (0, 1)})
    target = DataVector(1, 2, {(0,): (0, 1), (1,): (1, 0), (2,): (1, 0)})
    inst = Instance(1, 2, (p, r, dv_scale(-1, r)), target)
    factored = spy(monkeypatch, zsolve, "hnf")
    local_check(inst)
    pre = len(factored)  # the Z pre-check's own factorisations
    factored.clear()
    owners = []

    def owner(*args):
        owners.append(GeneratorLayers(*args))
        return owners[-1]

    monkeypatch.setattr(nsolve, "GeneratorLayers", owner)
    checks = spy(monkeypatch, GeneratorLayers, "admits")
    dec = n_solvable(inst)
    assert dec.status == "SOLVABLE"
    assert dec.guess == ((0, ((0, 1), (1, 2))),)
    # the 4 guesses leave nonzero residuals, each checked by the reversible
    # owner (`z_solvable` builds the Z refusal's owner)
    (rev,) = owners
    residuals = [target for owner_, target in checks if owner_ is rev]
    assert len(residuals) == 4 and not any(r.is_zero() for r in residuals)
    # layers 0 and 1 of the reversible generators, once each
    assert len(factored) == pre + inst.arity + 1


@pytest.mark.parametrize(
    "target, status",
    [
        # the 4th guess (two copies) is the first accepted
        (DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)}), "SOLVABLE"),
        # all 3 placements of one copy leave a nonzero residual
        (point_target(2), "UNSOLVABLE"),
    ],
)
def test_no_reversible_generator_takes_only_the_z_walk(monkeypatch, target, status):
    # with no reversible generator a residual passes exactly when it is
    # zero, so no guess walks the (empty) family's layers
    walks = spy(monkeypatch, GeneratorLayers, "failing_subsets")
    inst = Instance(1, 1, (pair_generator(),), target)
    assert reversible_partition(inst).reversible == ()
    assert n_solvable(inst).status == status
    assert [w[1] for w in walks] == [target]  # the Z refusal's walk


def test_placement_with_a_non_injective_renaming_raises(monkeypatch):
    # a renaming that sends two atoms to one would merge entries; the walk
    # refuses it instead of checking the residual it leaves
    def merged(pool, r):
        yield (pool[0],) * r

    tools = types.SimpleNamespace(
        combinations=itertools.combinations, permutations=merged
    )
    monkeypatch.setattr(nsolve, "itertools", tools)
    inst = Instance(1, 1, (pair_generator(),), point_target(2))
    with pytest.raises(VerificationError, match="not injective"):
        n_solvable(inst)


_ALL_REVERSIBLE = Instance(
    1,
    1,
    (DataVector(1, 1, {(0,): (1,)}), DataVector(1, 1, {(0,): (-1,)})),
    DataVector(1, 1, {(3,): (2,), (4,): (-1,)}),
)


@pytest.mark.parametrize("guess_cap", [0, 1, None])
@pytest.mark.parametrize("coeff_cap", [-1, 0, None])
def test_all_reversible_generators_take_one_z_check(
    monkeypatch, coeff_cap, guess_cap
):
    # with no nonreversible generator the empty guess is the only one, and
    # the Z refusal already checked its residual, the target
    walks = spy(monkeypatch, GeneratorLayers, "failing_subsets")
    caps = {"coeff_cap": coeff_cap, "guess_cap": guess_cap}
    dec = n_solvable(
        _ALL_REVERSIBLE, **{k: v for k, v in caps.items() if v is not None}
    )
    assert len(walks) == 1
    assert dec.bounds == NBoundData(0, 0, 2)
    if coeff_cap == -1:
        expected = ("INCONCLUSIVE", None, "coeff_cap")
    elif guess_cap == 0:
        expected = ("INCONCLUSIVE", None, "guess_cap")
    else:
        expected = ("SOLVABLE", (), None)
    assert (dec.status, dec.guess, dec.reason) == expected


def test_n_solvable_single_renamed_copy():
    gen = triangle(0, 1, 2)
    inst = Instance(2, 1, (gen,), dv_permute(gen, {0: 4, 1: 5, 2: 6}))
    assert n_solvable(inst).status == "SOLVABLE"


def test_n_inconclusive_when_capped(ex2):
    # force truncation of the coefficient range
    gen = pair_generator()
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    inst = Instance(1, 1, (gen,), target)
    dec = n_solvable(inst, coeff_cap=0, guess_cap=10)
    assert (dec.status, dec.reason) == ("INCONCLUSIVE", "coeff_cap")
    assert n_solvable(inst).reason is None


def test_guess_cap_counts_the_accepting_guess():
    # the 4th guess (two copies of the generator) is the first accepted
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    inst = Instance(1, 1, (pair_generator(),), target)
    full = n_solvable(inst)
    at_cap = n_solvable(inst, guess_cap=4)
    assert (at_cap.status, at_cap.reason) == ("SOLVABLE", None)
    assert at_cap.guess == full.guess
    capped = n_solvable(inst, guess_cap=3)
    assert (capped.status, capped.reason) == ("INCONCLUSIVE", "guess_cap")


def test_guess_cap_counts_every_guess_of_an_exhausted_search(ex1):
    # one copy of the pair generator, placed in 3 ways over atom 0 and
    # fresh atoms; none leaves a Z-solvable residual
    assert n_solvable(ex1, guess_cap=3).status == "UNSOLVABLE"
    assert n_solvable(ex1, guess_cap=2).status == "INCONCLUSIVE"


def test_placement_walk_takes_any_number_of_copies():
    # 1,500 copies of one generator: a walk that recursed once per placed
    # copy would pass Python's recursion limit
    gen = DataVector(1, 1, {(0,): (1,)})
    inst = Instance(1, 1, (gen,), DataVector(1, 1, {(1,): (1500,)}))
    dec = n_solvable(inst, coeff_cap=3_000_000)
    assert dec.status == "SOLVABLE"
    assert dec.guess == ((0, ((0, 1),)),) * 1500


def test_walk_stops_at_the_level_of_the_functional(monkeypatch):
    # x+y and x+y+z against 1 at a new atom: Pottier allows 432 copies, but
    # z = (1) allows 1 // 2 = 0, so the walk tests only the empty
    # composition; without the level it tested 93,961 on the way to the
    # same answer
    solves = spy(monkeypatch, GeneratorLayers, "solve")
    triple = DataVector(1, 1, {(0,): (1,), (1,): (1,), (2,): (1,)})
    inst = Instance(1, 1, (pair_generator(), triple), point_target(1, atom=3))
    dec = n_solvable(inst, guess_cap=1)
    assert (dec.status, dec.bounds.coeff_bound) == ("UNSOLVABLE", 432)
    on_reversible = [c for c in solves if c[0].hypergraphs == () and c[1] == 0]
    assert len(on_reversible) == 1


def test_n_solvable_runs_each_public_stage_once(monkeypatch):
    stages = [
        spy(monkeypatch, nsolve, name)
        for name in ("reversible_partition", "nonreversible_bound", "z_solvable")
    ]
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    inst = Instance(1, 1, (pair_generator(),), target)
    assert n_solvable(inst).status == "SOLVABLE"
    assert [len(calls) for calls in stages] == [1, 1, 1]
    assert all(calls[0][0] is inst for calls in stages)


def test_n_solvable_projects_each_generator_once(monkeypatch):
    # generator 0 is nonreversible and 1, 2 are a reversible pair: the
    # partition's projections serve the bound and the walk
    projected = spy(monkeypatch, nsolve, "data_projection")
    gens = tuple(
        DataVector(1, 2, {(0,): p}) for p in ((1, 0), (0, 1), (0, -1))
    )
    target = DataVector(1, 2, {(0,): (1, 0), (1,): (0, 1)})
    dec = n_solvable(Instance(1, 2, gens, target))
    assert dec.status == "SOLVABLE"
    assert [gi for gi, _ in dec.guess] == [0]  # the walk placed generator 0
    assert [sum(a is g for (a,) in projected) for g in gens] == [1, 1, 1]


# (status, reason, coeff_bound) of each instance of the seed-7 stream of
# acceptance criterion 6, at its caps: S SOLVABLE, U UNSOLVABLE, and
# INCONCLUSIVE with reason C coeff_cap or G guess_cap, then the bound.
_CRITERION_6_ANSWERS = """
    U36 S36 C8192 C2000 U81 C686 C1024 S9 S25 U64
    U361 U25 S16 U100 S16 U49 S25 C2000 U121 U169
    C2000 S49 U121 U686 C432 C686 C432 S25 S9 U169
    U3456 U36 C1024 S36 U216 U686 C3456 C2000 U49 C432
    U25 S49 C1458 S250 C3456 S25 S16 C686 C1458 C512
    S125 U100 S16 C1458 U25 S9 C432 C1458 C5488 U36
    C686 C686 S25 S25 U36 U64 U343 C686 S25 C1024
    C11664 C2000 C2000 S36 U216 C686 C432 U49 C5488 C3456
    S36 S16 S25 C432 U169 U36 U1458 C2662 C2000 U225
    U100 S64 U49 C1458 U81 C2000 G100 U125 S125 U196
""".split()


def test_criterion_6_stream_answers_are_pinned():
    # the instances of tests/test_acceptance.py's criterion 6, drawn in the
    # same order from the same seed, without the oracle
    rng = random.Random(7)
    pool = list(range(4))

    def rand_nonneg(k, atoms):
        entries = {}
        for e in itertools.combinations(sorted(atoms), k):
            v = (rng.randint(0, 2),)
            if any(v):
                entries[e] = v
        return DataVector(k, 1, entries)

    codes = {
        ("SOLVABLE", None): "S",
        ("UNSOLVABLE", None): "U",
        ("INCONCLUSIVE", "coeff_cap"): "C",
        ("INCONCLUSIVE", "guess_cap"): "G",
    }
    answers = []
    for _ in range(100):
        k = rng.randint(1, 2)
        gens = []
        while len(gens) < rng.randint(1, 2):
            g = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
            if not g.is_zero():
                gens.append(g)
        target = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
        dec = n_solvable(
            Instance(k, 1, tuple(gens), target), coeff_cap=300, guess_cap=20_000
        )
        answers.append(f"{codes[dec.status, dec.reason]}{dec.bounds.coeff_bound}")
    assert answers == _CRITERION_6_ANSWERS


def _criterion_6_instances():
    """The instances of tests/test_acceptance.py's criterion 6, drawn in the
    same order from the same seed."""
    rng = random.Random(7)
    pool = list(range(4))

    def rand_nonneg(k, atoms):
        entries = {}
        for e in itertools.combinations(sorted(atoms), k):
            v = (rng.randint(0, 2),)
            if any(v):
                entries[e] = v
        return DataVector(k, 1, entries)

    for _ in range(100):
        k = rng.randint(1, 2)
        gens = []
        while len(gens) < rng.randint(1, 2):
            g = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
            if not g.is_zero():
                gens.append(g)
        target = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
        yield Instance(k, 1, tuple(gens), target)


def test_a_complete_oracle_agrees_on_the_criterion_6_stream():
    # With no reversible generator, the split's functional z is positive on
    # every projection p_i, and an N-solution's projections sum to the
    # target's t, so it has at most B = z.t // min z.p_i copies, which use
    # at most s_max * B atoms off the target.  The oracle bounded by these
    # is complete within its guards, so both of its answers are checked.
    def dot(z, p):
        return sum(a * b for a, b in zip(z, p))

    settled = 0
    for inst in _criterion_6_instances():
        part = reversible_partition(inst)
        if part.reversible:
            continue
        z = part.functional
        b = max(dot(z, data_projection(inst.target)), 0) // min(
            dot(z, p) for p in part.projections
        )
        s_max = max(len(g.support()) for g in inst.generators)
        cfg = OracleConfig(max(b, 1), max(s_max * b, 1), "N", max_nodes=20_000)
        try:
            w = brute_force(inst, cfg)
        except OracleGuardError:
            continue
        dec = n_solvable(inst, coeff_cap=300, guess_cap=20_000)
        if w is not None:
            assert verify_witness(inst, w, mode="N")
            assert dec.status != "UNSOLVABLE"
        else:
            assert dec.status != "SOLVABLE"
        settled += 1
    assert settled >= 79


def _ndecide_like_stream(seed, count=300):
    """Instances shaped like perfbench's ndecide, drawn here: arity 1 or 2
    alternately, dimension 1-2, nonnegative generators on atoms 0..k
    (values 0..2, never empty) and a target summing 3 - k renamed copies
    of them over 5 (arity 1) or 4 atoms.  Every fifth instance doubles
    generators and target and adds one odd entry (Z-unsolvable), and
    alternate blocks of five list a negated generator."""
    rng = random.Random(seed)

    def nonneg(k, d):
        while True:
            entries = {
                key: tuple(rng.randint(0, 2) for _ in range(d))
                for key in itertools.combinations(range(k + 1), k)
                if rng.random() < 0.8
            }
            vec = DataVector(k, d, entries)
            if not vec.is_zero():
                return vec

    for i in range(count):
        k = 1 + i % 2
        d = rng.randint(1, 2)
        pool = list(range(5 if k == 1 else 4))
        gens = [nonneg(k, d) for _ in range(rng.randint(1, 3 - k))]
        target = DataVector(k, d, {})
        while target.is_zero():
            for _ in range(3 - k):
                g = rng.choice(gens)
                sup = sorted(g.support())
                pi = dict(zip(sup, rng.sample(pool, len(sup))))
                target = dv_add(target, dv_permute(g, pi))
        if i % 5 == 4:
            gens = [dv_scale(2, g) for g in gens]
            odd = [2 * rng.randint(0, 2) for _ in range(d)]
            odd[rng.randrange(d)] += 1
            key = tuple(sorted(rng.sample(pool, k)))
            target = dv_add(dv_scale(2, target), DataVector(k, d, {key: tuple(odd)}))
        if (i // 5) % 2:
            gens.append(dv_scale(-1, rng.choice(gens)))
        yield Instance(k, d, tuple(gens), target)


def test_seeded_stream_decisions_are_pinned():
    # status, reason, bounds and guess of every decision, hashed, so a
    # change to any decision of the stream shows
    digest = hashlib.sha256()
    for inst in _ndecide_like_stream(11):
        dec = n_solvable(inst, coeff_cap=10**9, guess_cap=20_000)
        digest.update(repr((dec.status, dec.reason, dec.bounds, dec.guess)).encode())
    assert digest.hexdigest() == (
        "59455e4461e07223582efb50e688c549c8e9ce489ce4ab613248c2ac6323c528"
    )


@st.composite
def nonneg_instances(draw):
    """Arity 1 or 2, dimension 1, atoms 0..3: one or two generators with
    values 1..2, sometimes with the negation of the first one added (which
    makes both reversible), and a target with values 1..2."""
    k = draw(st.integers(min_value=1, max_value=2))
    keys = st.frozensets(st.integers(min_value=0, max_value=3), min_size=k, max_size=k)

    def vec(min_size):
        return st.dictionaries(
            keys, st.integers(min_value=1, max_value=2), min_size=min_size, max_size=3
        ).map(lambda e: DataVector(k, 1, {kset(x): (v,) for x, v in e.items()}))

    gens = draw(st.lists(vec(1), min_size=1, max_size=2))
    if draw(st.booleans()):
        gens.append(dv_scale(-1, gens[0]))
    return Instance(k, 1, tuple(gens), draw(vec(0)))


# renamings of atoms 0..3 into 0..7
_renamings = st.permutations(range(8)).map(lambda p: dict(enumerate(p[:4])))
_N_CAPS = {"coeff_cap": 300, "guess_cap": 5_000}


def _agree(a, b):
    """Neither decision is SOLVABLE where the other is UNSOLVABLE."""
    return {a.status, b.status} != {"SOLVABLE", "UNSOLVABLE"}


@settings(max_examples=300, deadline=None)
@given(nonneg_instances(), _renamings, st.data())
def test_n_answers_survive_renaming_reordering_duplication(inst, pi, data):
    dec = n_solvable(inst, **_N_CAPS)
    gens = inst.generators
    renamed = Instance(
        inst.arity, 1, tuple(dv_permute(g, pi) for g in gens), dv_permute(inst.target, pi)
    )
    twice = data.draw(st.integers(min_value=0, max_value=len(gens) - 1))
    for variant in (
        renamed,
        Instance(inst.arity, 1, gens[::-1], inst.target),
        Instance(inst.arity, 1, (*gens, gens[twice]), inst.target),
    ):
        assert _agree(dec, n_solvable(variant, **_N_CAPS))


@settings(max_examples=150, deadline=None)
@given(nonneg_instances(), _renamings, st.data())
def test_a_solvable_answer_is_consistent(inst, pi, data):
    dec = n_solvable(inst, **_N_CAPS)
    if dec.status != "SOLVABLE":
        return
    assert zsolve.z_solvable(inst)
    # the guess places nonreversible copies only, and the reversible
    # generators Z-solve what it leaves
    part = reversible_partition(inst)
    assert all(gi in part.nonreversible for gi, _ in dec.guess)
    residual = dv_combine(
        inst.arity,
        1,
        [(1, inst.target, {}), *((-1, inst.generators[gi], dict(r)) for gi, r in dec.guess)],
    )
    rev = GeneratorLayers([inst.generators[i] for i in part.reversible], 1)
    assert rev.admits(residual)
    # one more renamed copy of a generator keeps the target solvable
    gi = data.draw(st.integers(min_value=0, max_value=len(inst.generators) - 1))
    more = dv_add(inst.target, dv_permute(inst.generators[gi], pi))
    grown = Instance(inst.arity, 1, inst.generators, more)
    assert n_solvable(grown, **_N_CAPS).status != "UNSOLVABLE"
