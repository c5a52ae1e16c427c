import dataclasses
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from datalin.core import (
    CapExceeded,
    DataVector,
    FreshAtoms,
    Instance,
    VerificationError,
    dv_permute,
    dv_scale,
    kset,
)
from datalin.oracle import (
    OracleConfig,
    OracleGuardError,
    _columns,
    brute_force,
    brute_reversible,
)
from datalin.witness import Witness, verify_witness

from conftest import (
    edge_target,
    pair_generator,
    point_target,
    random_data_vector,
    triangle,
)


def test_oracle_finds_pair_combination(ex1):
    w = brute_force(ex1, OracleConfig(coeff_bound=1, fresh_atoms=2))
    assert w is not None
    assert verify_witness(ex1, w, mode="Z")


def test_oracle_certifies_absence_for_odd_target(ex1_odd):
    assert (
        brute_force(ex1_odd, OracleConfig(coeff_bound=2, fresh_atoms=2))
        is None
    )


def test_oracle_n_mode_rejects_pair_instance(ex1):
    # the Z-witness needs a negative coefficient; no N-combination exists
    w = brute_force(ex1, OracleConfig(coeff_bound=3, fresh_atoms=2, mode="N"))
    assert w is None


def test_oracle_n_mode_finds_nonnegative_combination():
    gen = pair_generator()
    target = DataVector(1, 1, {(0,): (1,), (1,): (2,), (2,): (1,)})
    inst = Instance(1, 1, (gen,), target)
    w = brute_force(inst, OracleConfig(coeff_bound=2, fresh_atoms=1, mode="N"))
    assert w is not None
    assert all(t.coeff > 0 for t in w.terms)
    assert verify_witness(inst, w, mode="N")


def test_oracle_guard_trips_on_tiny_budget(ex2):
    with pytest.raises(OracleGuardError) as trip:
        brute_force(
            ex2,
            OracleConfig(coeff_bound=2, fresh_atoms=3, max_nodes=3),
        )
    assert trip.value.reason == "node_cap"


def test_oracle_column_guard():
    gen = triangle(0, 1, 2)
    inst = Instance(2, 1, (gen,), edge_target(6))
    with pytest.raises(OracleGuardError) as trip:
        brute_force(
            inst,
            OracleConfig(coeff_bound=1, fresh_atoms=3, max_columns=2),
        )
    assert trip.value.reason == "column_cap"


def test_a_guard_trip_is_a_cap_not_a_bug():
    # `cli.main` reports every `CapExceeded` as INCONCLUSIVE (exit 3) and
    # any other exception, `VerificationError` included, as a bug (exit 4)
    assert issubclass(OracleGuardError, CapExceeded)
    assert not issubclass(CapExceeded, VerificationError)


@pytest.mark.parametrize(
    "generators, target, bounds, budget, outcome",
    [
        ((pair_generator(),), point_target(2), {"fresh_atoms": 200_000}, {}, OracleGuardError),
        ((), point_target(2), {"fresh_atoms": 200_000}, {}, None),
        (
            (pair_generator(),),
            point_target(2),
            {"coeff_bound": 200_000},
            {"max_nodes": 1_000},
            OracleGuardError,
        ),
        ((pair_generator(),), DataVector(1, 1), {"coeff_bound": 10**9}, {}, Witness(())),
    ],
    ids=["fresh-atoms", "fresh-atoms-nothing-placed", "coeff-bound", "coeff-bound-default-budget"],
)
def test_oracle_memory_is_set_by_its_guards(generators, target, bounds, budget, outcome):
    # 200,000 fresh atoms give more placements than max_columns allows, so
    # the guard trips before the pool is built, and an empty family needs
    # no pool; a frame carries its own coefficient, so no structure grows
    # with the coefficient bound or the node budget, not even before a
    # search that meets its (zero) target at the first node
    inst = Instance(1, 1, generators, target)
    cfg = dataclasses.replace(OracleConfig(2, 2, **budget), **bounds)
    tracemalloc.start()
    try:
        if outcome is OracleGuardError:
            with pytest.raises(OracleGuardError):
                brute_force(inst, cfg)
        else:
            assert brute_force(inst, cfg) == outcome
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_monotone_in_fresh_atoms(ex1):
    # with no fresh atoms the pair combination cannot be placed
    none = brute_force(ex1, OracleConfig(coeff_bound=2, fresh_atoms=0))
    some = brute_force(ex1, OracleConfig(coeff_bound=2, fresh_atoms=2))
    assert none is None and some is not None


def test_brute_reversible_pair_generator(ex1):
    # -generator is not an N-sum of renamed copies: all weights nonnegative
    assert not brute_reversible(ex1, 0, OracleConfig(2, 2, "N"))


def test_brute_reversible_sign_swapped_generators():
    up = DataVector(1, 1, {(0,): (1,)})
    down = DataVector(1, 1, {(0,): (-1,)})
    inst = Instance(1, 1, (up, down), point_target(1))
    assert brute_reversible(inst, 0, OracleConfig(2, 2, "N"))
    assert brute_reversible(inst, 1, OracleConfig(2, 2, "N"))


def test_oracle_validates_config(ex1):
    with pytest.raises(ValueError):
        brute_force(ex1, OracleConfig(coeff_bound=-1, fresh_atoms=0))


# ---------------------------------------------------------------------------
# node order, pinned: instances drawn as acceptance criteria 5 (Z) and 6 (N)
# draw them, one seeded generator per instance


def _z_style(seed):
    rng = random.Random(seed)
    pool = list(range(5))
    k, d = rng.randint(1, 3), rng.randint(1, 2)
    gens = []
    while len(gens) < rng.randint(1, 3):
        g = random_data_vector(rng, k, d, rng.sample(pool, rng.randint(k, min(5, k + 2))))
        if not g.is_zero():
            gens.append(g)
    atoms = rng.sample(pool, rng.randint(k, min(5, k + 2)))
    return Instance(k, d, tuple(gens), random_data_vector(rng, k, d, atoms))


def _n_style(seed):
    rng = random.Random(seed)
    pool = list(range(4))

    def rand_nonneg(k, atoms):
        entries = {}
        for e in itertools.combinations(sorted(atoms), k):
            v = (rng.randint(0, 2),)
            if any(v):
                entries[e] = v
        return DataVector(k, 1, entries)

    k = rng.randint(1, 2)
    gens = []
    while len(gens) < rng.randint(1, 2):
        g = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
        if not g.is_zero():
            gens.append(g)
    target = rand_nonneg(k, rng.sample(pool, rng.randint(k, min(4, k + 2))))
    return Instance(k, 1, tuple(gens), target)


def _reversibility(seed, index):
    """The instance `brute_reversible(_n_style(seed), index, ...)` searches."""
    inst = _n_style(seed)
    neg = dv_scale(-1, inst.generators[index])
    return Instance(inst.arity, inst.dim, inst.generators, neg)


_Z = OracleConfig(3, 2, "Z")  # criterion 5's oracle bounds
_N = OracleConfig(4, 3, "N")  # criterion 6's, for brute_force
_REV = OracleConfig(4, 2, "N")  # criterion 6's, for brute_reversible

# name: (instance, bounds, nodes the search visits, terms of the witness
# found or None).  z-108 and z-125 trip criterion 5's guard of 50_000 nodes.
NODE_TABLE = {
    "z-1": (lambda: _z_style(1), _Z, 15, [
        (1, 0, ((0, 3), (1, 5))), (1, 0, ((0, 3), (1, 6))),
        (1, 0, ((0, 5), (1, 3))), (1, 0, ((0, 5), (1, 6))),
        (1, 0, ((0, 6), (1, 3))), (1, 0, ((0, 6), (1, 5))),
        (-2, 2, ((2, 5),)), (-2, 2, ((2, 6),)),
    ]),
    "z-4": (lambda: _z_style(4), _Z, 9758, [
        (1, 0, ((0, 1), (3, 5), (4, 6))), (-1, 0, ((0, 1), (3, 6), (4, 5))),
        (-2, 0, ((0, 5), (3, 1), (4, 6))), (2, 0, ((0, 5), (3, 6), (4, 1))),
        (3, 0, ((0, 6), (3, 1), (4, 5))), (-1, 0, ((0, 6), (3, 5), (4, 1))),
        (1, 1, ((0, 1),)), (2, 1, ((0, 5),)), (-3, 1, ((0, 6),)),
    ]),
    "z-59": (lambda: _z_style(59), _Z, 295, [
        (1, 0, ((0, 0), (1, 4))), (1, 0, ((0, 0), (1, 5))),
        (1, 0, ((0, 4), (1, 0))), (1, 0, ((0, 4), (1, 5))),
        (1, 0, ((0, 5), (1, 0))), (1, 0, ((0, 5), (1, 4))),
        (1, 1, ((0, 4), (3, 5))),
    ]),
    "n-1": (lambda: _n_style(1), _N, 24028, [(2, 1, ((0, 3),))]),
    "n-22": (lambda: _n_style(22), _N, 99628, [(2, 0, ((0, 0), (3, 3)))]),
    "z-9": (lambda: _z_style(9), _Z, 8, None),
    "z-14": (lambda: _z_style(14), _Z, 4103, None),
    "n-15": (lambda: _n_style(15), _N, 11, None),
    "n-20": (lambda: _n_style(20), _N, 4256, None),
    "rev-6-1": (lambda: _reversibility(6, 1), _REV, 35791, None),
    "z-108": (lambda: _z_style(108), _Z, 55014, None),
    "z-125": (lambda: _z_style(125), _Z, 75447, None),
}


@pytest.mark.parametrize("name", NODE_TABLE)
def test_node_order_is_pinned(name):
    # A search that visits the same nodes in the same order completes within
    # exactly `nodes` nodes and finds the same first witness.
    make, cfg, nodes, terms = NODE_TABLE[name]
    inst = make()
    w = brute_force(inst, dataclasses.replace(cfg, max_nodes=nodes))
    got = None if w is None else [(t.coeff, t.generator, t.renaming) for t in w.terms]
    assert got == terms
    with pytest.raises(OracleGuardError):
        brute_force(inst, dataclasses.replace(cfg, max_nodes=nodes - 1))


def test_search_is_iterative(monkeypatch):
    # 1,200 levels deep: one node per point of the target, plus the leaf
    def refuse(_limit):
        raise AssertionError("the search must not depend on the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    point = DataVector(1, 1, {(0,): (1,)})
    target = DataVector(1, 1, {(a,): (1,) for a in range(1200)})
    inst = Instance(1, 1, (point,), target)
    w = brute_force(inst, OracleConfig(1, 0, "Z", max_nodes=1201))
    assert w is not None and len(w.terms) == 1200
    with pytest.raises(OracleGuardError):
        brute_force(inst, OracleConfig(1, 0, "Z", max_nodes=1200))


# ---------------------------------------------------------------------------
# placements against the definitional construction


def _reference_columns(inst, cfg):
    """Every injective placement of every generator into the target's atoms
    plus `fresh_atoms` fresh ones, evaluated with `dv_permute` and
    deduplicated as `DataVector`s, first (generator, renaming) kept."""
    pool = sorted(inst.target.support())
    full_pool = pool + FreshAtoms(inst.all_atoms()).take_many(cfg.fresh_atoms)
    seen = {}
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
            if len(seen) > cfg.max_columns:
                raise OracleGuardError("too many generator placements", "column_cap")
    return [(vec, gi, ren) for vec, (gi, ren) in seen.items()]


@st.composite
def _placement_instances(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=2))
    keys = st.frozensets(st.integers(min_value=0, max_value=4), min_size=k, max_size=k)
    vals = st.tuples(*([st.integers(min_value=-2, max_value=2)] * d))
    vec = st.dictionaries(keys, vals, max_size=3).map(
        lambda e: DataVector(k, d, {kset(x): v for x, v in e.items()})
    )
    gens = draw(st.lists(vec, min_size=1, max_size=3))
    return Instance(k, d, tuple(gens), draw(vec))


@settings(max_examples=150, deadline=None)
@given(_placement_instances(), st.integers(min_value=0, max_value=2), st.data())
def test_columns_match_the_definitional_placements(inst, fresh, data):
    cfg = OracleConfig(1, fresh)
    ref = _reference_columns(inst, cfg)
    cols = _columns(inst, cfg)
    assert [(DataVector(inst.arity, inst.dim, e), gi, ren) for e, gi, ren in cols] == ref
    # every entries dict is already canonical
    assert all(DataVector(inst.arity, inst.dim, e).entries == e for e, _, _ in cols)
    # the column guard trips at the same count
    cap = data.draw(st.integers(min_value=0, max_value=len(ref) + 1))
    capped = OracleConfig(1, fresh, max_columns=cap)
    if len(ref) > cap:
        with pytest.raises(OracleGuardError):
            _reference_columns(inst, capped)
        with pytest.raises(OracleGuardError):
            _columns(inst, capped)
    else:
        assert len(_columns(inst, capped)) == len(_reference_columns(inst, capped))
