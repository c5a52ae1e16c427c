from hypothesis import given, settings, strategies as st

from datalin.core import DataVector, Instance, dv_permute, encode_hypergraph, kset
from datalin.zsolve import LocalFailure, layer_columns, local_check, z_solvable

from conftest import edge_target, pair_generator, point_target, triangle


def test_pair_generator_even_target_solvable(ex1):
    report = local_check(ex1)
    assert report.decision
    assert report.failures == ()
    assert z_solvable(ex1)


def test_pair_generator_odd_target_unsolvable(ex1_odd):
    report = local_check(ex1_odd)
    assert not report.decision
    # the total weight 3 is not an even multiple of the generator total 2
    assert any(f.subset == () for f in report.failures)
    assert not z_solvable(ex1_odd)


def test_triangle_edge_six_solvable(ex2):
    assert z_solvable(ex2)


def test_triangle_edge_three_fails_at_a_singleton(ex2_odd):
    report = local_check(ex2_odd)
    assert not report.decision
    singles = [f for f in report.failures if len(f.subset) == 1]
    assert singles, "expected a singleton-layer failure"
    # each endpoint of the weight-3 edge has odd vertex weight, while every
    # vertex weight of a triangle is even
    assert {f.target_weight for f in singles} == {(3,)}


def test_layer_columns_dedup():
    gens = (
        encode_hypergraph(triangle(0, 1, 2)),
        encode_hypergraph(triangle(5, 6, 7)),
    )
    assert layer_columns(gens, 1) == [(2,)]
    assert layer_columns(gens, 0) == [(3,)]
    assert layer_columns(gens, 2) == [(1,)]


def test_zero_target_always_solvable():
    inst = Instance(1, 1, (pair_generator(),), DataVector(1, 1, {}))
    assert z_solvable(inst)


def test_no_generators_nonzero_target_unsolvable():
    inst = Instance(1, 1, (), point_target(1))
    assert not z_solvable(inst)


def test_multidimensional_target():
    gen = DataVector(1, 2, {(0,): (1, 1), (1,): (1, -1)})
    good = Instance(1, 2, (gen,), DataVector(1, 2, {(5,): (2, 0)}))
    assert z_solvable(good)
    bad = Instance(1, 2, (gen,), DataVector(1, 2, {(5,): (1, 0)}))
    assert not z_solvable(bad)


def test_failure_report_is_sorted(ex2_odd):
    report = local_check(ex2_odd)
    keys = [(len(f.subset), f.subset) for f in report.failures]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# metamorphic: renaming, reordering and duplicating generators


@st.composite
def small_instances(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    d = draw(st.integers(min_value=1, max_value=2))
    keys = st.frozensets(st.integers(min_value=0, max_value=5), min_size=k, max_size=k)
    vals = st.tuples(*([st.integers(min_value=-2, max_value=2)] * d))

    def vec():
        return st.dictionaries(keys, vals, max_size=4).map(
            lambda e: DataVector(k, d, {kset(x): v for x, v in e.items()})
        )

    gens = draw(st.lists(vec(), min_size=1, max_size=3))
    return Instance(k, d, tuple(gens), draw(vec()))


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.permutations(list(range(12))), st.randoms())
def test_local_check_is_invariant_under_renaming_reordering_duplication(
    inst, perm, rnd
):
    report = local_check(inst)
    pi = dict(enumerate(perm))
    renamed = local_check(
        Instance(
            inst.arity,
            inst.dim,
            tuple(dv_permute(g, pi) for g in inst.generators),
            dv_permute(inst.target, pi),
        )
    )
    assert renamed.decision == report.decision
    mapped = sorted(
        (LocalFailure(kset(pi[a] for a in f.subset), f.target_weight, f.num_columns)
         for f in report.failures),
        key=lambda f: (len(f.subset), f.subset),
    )
    assert list(renamed.failures) == mapped
    gens = list(inst.generators)
    gens += rnd.sample(gens, rnd.randint(1, len(gens)))
    rnd.shuffle(gens)
    shuffled = Instance(inst.arity, inst.dim, tuple(gens), inst.target)
    assert local_check(shuffled) == report
