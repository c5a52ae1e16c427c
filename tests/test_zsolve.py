import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from datalin.core import (
    DataVector,
    Instance,
    VerificationError,
    dv_permute,
    dv_scale,
    encode_hypergraph,
    kset,
)
from datalin import zsolve
from datalin.intlin import HermiteForm, IntMatrix
from datalin.zsolve import LocalFailure, layer_columns, local_check, z_solvable

from conftest import (
    pair_generator,
    point_target,
    small_instances,
    spy,
    triangle,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_local_check_factors_each_needed_layer_once(monkeypatch, ex2):
    factored = spy(monkeypatch, zsolve, "hnf")
    solved = spy(monkeypatch, HermiteForm, "solve")
    local_check(ex2)
    assert len(factored) == 3  # sizes 0, 1 and 2
    # subsets (), (0,) and (0, 1): (1,) weighs 6 like (0,), so the owner
    # solves that right-hand side of layer 1 once
    assert len(solved) == 3
    factored.clear()
    # the empty set's weight is zero, so layer 0 has no right-hand side
    balanced = DataVector(1, 1, {(0,): (1,), (1,): (-1,)})
    local_check(Instance(1, 1, (pair_generator(),), balanced))
    assert len(factored) == 1


def test_a_repeated_right_hand_side_is_solved_once(monkeypatch):
    solved = spy(monkeypatch, HermiteForm, "solve")
    layers = zsolve.GeneratorLayers([triangle(0, 1, 2)], 1)
    x = layers.solve(1, (4,))
    assert x is not None and layers.solve(1, (4,)) is x
    # an unsolvable right-hand side is kept as well; vertex weights are even
    assert layers.solve(1, (3,)) is None and layers.solve(1, (3,)) is None
    # the same right-hand side of another layer is a solve of its own
    assert layers.solve(2, (4,)) == (4,)
    assert [args[1] for args in solved] == [(4,), (3,), (4,)]


def test_a_failed_verification_is_not_kept(monkeypatch):
    layers = zsolve.GeneratorLayers([triangle(0, 1, 2)], 1)
    product = IntMatrix.mul_vec
    monkeypatch.setattr(
        IntMatrix, "mul_vec", lambda m, x: tuple(v + 1 for v in product(m, x))
    )
    for _ in range(2):
        with pytest.raises(VerificationError):
            layers.solve(1, (4,))
    monkeypatch.undo()
    assert layers.solve(1, (4,)) == (2,)


# Runs under `python -O`, which strips asserts: with the matrix product
# patched to be off by one, the first solve of each right-hand side on an
# owner still fails its verification, memo or not.
_BROKEN_PRODUCT = """
import sys
from datalin.core import DataVector, Instance, VerificationError
from datalin.intlin import IntMatrix
from datalin.zsolve import local_check
product = IntMatrix.mul_vec
IntMatrix.mul_vec = lambda m, x: tuple(v + 1 for v in product(m, x))
assert False, "asserts are live"
pair = DataVector(1, 1, {(0,): (1,), (1,): (1,)})
try:
    local_check(Instance(1, 1, (pair,), DataVector(1, 1, {(5,): (2,)})))
except VerificationError as exc:
    print(sys.flags.optimize, type(exc).__name__, exc)
"""


def test_local_check_verifies_each_first_solve_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_PRODUCT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "1 VerificationError HNF solver produced a non-solution\n"


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_admits_and_the_walk_agree_with_check(inst):
    report = zsolve.GeneratorLayers(inst.generators, inst.dim).check(inst.target)
    # fresh owners, so neither answer comes from the other's memo
    fresh = zsolve.GeneratorLayers(inst.generators, inst.dim)
    assert fresh.admits(inst.target) == report.decision
    walk = zsolve.GeneratorLayers(inst.generators, inst.dim)
    assert tuple(walk.failing_subsets(inst.target)) == report.failures
    assert z_solvable(inst) == report.decision


def test_admits_stops_at_the_first_failure(monkeypatch):
    # the total 5 is odd over the pair generator's total 2, so layer 0
    # fails first; the singletons 3 and 2 then solve in layer 1
    target = DataVector(1, 1, {(0,): (3,), (1,): (2,)})
    solved = spy(monkeypatch, HermiteForm, "solve")
    report = zsolve.GeneratorLayers([pair_generator()], 1).check(target)
    assert [f.subset for f in report.failures] == [()]
    assert [args[1] for args in solved] == [(5,), (3,), (2,)]
    solved.clear()
    assert not zsolve.GeneratorLayers([pair_generator()], 1).admits(target)
    assert [args[1] for args in solved] == [(5,)]


def test_admits_builds_the_target_weights_up_to_the_first_failure(
    monkeypatch, ex2_odd
):
    # the edge worth 3 passes layer 0 (the triangle's total is 3) and first
    # fails at its singletons, which the triangle weighs 2 each
    built = spy(monkeypatch, zsolve, "weight_table")
    gens, target = ex2_odd.generators, ex2_odd.target
    assert not zsolve.GeneratorLayers(gens, 1).admits(target)
    assert [args[1] for args in built] == [0, 1]
    built.clear()
    report = zsolve.GeneratorLayers(gens, 1).check(target)
    assert report.failures[0].subset == (0,)
    assert [args[1] for args in built] == [0, 1, 2]


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


# ---------------------------------------------------------------------------
# metamorphic: scaling the target (Z side)


def test_scaling_can_repair_a_failure(ex1_odd):
    # 3 at one atom fails (odd total over an even generator), 6 does not:
    # scaling may remove failures, so decisions are not scale-invariant
    assert not z_solvable(ex1_odd)
    doubled = Instance(1, 1, ex1_odd.generators, dv_scale(2, ex1_odd.target))
    assert z_solvable(doubled)


@settings(max_examples=60, deadline=None)
@given(small_instances(), st.integers(-4, 4).filter(bool))
def test_scaled_target_fails_on_a_subset_of_the_failing_sets(inst, c):
    # a layer weight in the generators' lattice stays there when scaled, and
    # scaling by c != 0 keeps exactly the same nonzero subsets
    def scaled(factor):
        return local_check(
            Instance(
                inst.arity, inst.dim, inst.generators,
                dv_scale(factor, inst.target),
            )
        )

    report = local_check(inst)
    failing = {f.subset for f in report.failures}
    assert {f.subset for f in scaled(c).failures} <= failing
    negated = scaled(-1)
    assert negated.decision == report.decision
    assert [(f.subset, f.num_columns) for f in negated.failures] == [
        (f.subset, f.num_columns) for f in report.failures
    ]
