import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from datalin import calculus, zsolve
from datalin.calculus import CapExceeded
from datalin.cli import AtomTable, emit_instance, main
from datalin.core import (
    DataVector,
    Instance,
    dv_add,
    dv_combine,
    dv_permute,
    encode_hypergraph,
)
from datalin.intlin import IntMatrix
from datalin.witness import (
    Witness,
    WitnessTerm,
    evaluate_witness,
    extract_witness_general,
    extract_witness_k2,
    make_witness,
    verify_witness,
)
from datalin.zsolve import layer_weights, z_solvable

from conftest import (
    edge_target,
    pair_generator,
    point_target,
    random_data_vector,
    small_instances,
    spy,
    triangle,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def term(coeff, gi, ren):
    return (coeff, gi, ren)


def test_make_witness_merges_and_drops_zeros():
    w = make_witness(
        [
            term(1, 0, {0: 3, 1: 4}),
            term(2, 0, {1: 4, 0: 3}),
            term(5, 0, {0: 7, 1: 8}),
            term(-5, 0, {0: 7, 1: 8}),
        ]
    )
    assert len(w.terms) == 1
    assert w.terms[0].coeff == 3


def test_evaluate_and_verify_simple_combination(ex1):
    # v_{0,2} + v_{0,3} - v_{2,3} places weight 2 at atom 0
    w = make_witness(
        [
            term(1, 0, {0: 0, 1: 2}),
            term(1, 0, {0: 0, 1: 3}),
            term(-1, 0, {0: 2, 1: 3}),
        ]
    )
    assert evaluate_witness(ex1, w) == ex1.target
    assert verify_witness(ex1, w, mode="Z")
    assert not verify_witness(ex1, w, mode="N")  # a negative coefficient


def test_verify_rejects_wrong_value(ex1):
    w = make_witness([term(1, 0, {0: 0, 1: 2})])
    assert not verify_witness(ex1, w, mode="Z")


def test_verify_rejects_bad_generator_index(ex1):
    w = Witness((WitnessTerm(1, 5, ((0, 0), (1, 2))),))
    with pytest.raises(IndexError):
        verify_witness(ex1, w, mode="Z")


def test_explicit_fourteen_term_combination(ex2):
    # atoms: gamma=0, delta=1, alpha=2, beta=3, epsilon=4; the 12 signed
    # triangles plus twice the triangle alpha,delta,gamma hit the single
    # edge {gamma,delta} with weight exactly 6
    def tri(x, y, z):
        a, b, c = sorted((x, y, z))
        return {0: a, 1: b, 2: c}

    g, d, al, b, e = 0, 1, 2, 3, 4
    raw = [
        term(1, 0, tri(b, d, g)),
        term(-1, 0, tri(b, d, al)),
        term(1, 0, tri(d, g, e)),
        term(-1, 0, tri(d, e, al)),
        term(1, 0, tri(b, al, e)),
        term(-1, 0, tri(b, g, e)),
        term(1, 0, tri(d, b, g)),
        term(-1, 0, tri(g, b, al)),
        term(1, 0, tri(d, e, g)),
        term(-1, 0, tri(g, e, al)),
        term(1, 0, tri(e, b, al)),
        term(-1, 0, tri(e, b, d)),
        term(2, 0, tri(al, d, g)),
    ]
    w = make_witness(raw)
    assert evaluate_witness(ex2, w) == ex2.target
    assert verify_witness(ex2, w, mode="Z")


def test_extract_witness_k2_on_triangle_instance(ex2):
    w = extract_witness_k2(ex2)
    assert w is not None
    assert verify_witness(ex2, w, mode="Z")


def test_extract_witness_k2_unsolvable_returns_none(ex2_odd):
    assert extract_witness_k2(ex2_odd) is None


def test_extract_witness_k2_rejects_other_arities(ex1):
    with pytest.raises(ValueError):
        extract_witness_k2(ex1)


def test_extract_witness_general_arity_one(ex1, ex1_odd):
    w = extract_witness_general(ex1)
    assert w is not None and verify_witness(ex1, w, mode="Z")
    assert extract_witness_general(ex1_odd) is None


def test_extract_witness_general_arity_two(ex2):
    w = extract_witness_general(ex2)
    assert w is not None and verify_witness(ex2, w, mode="Z")


def test_decomposition_gives_a_renamed_triangle_copy_one_term():
    gen = triangle(0, 1, 2, weight=2)
    target = dv_permute(gen, {0: 5, 1: 6, 2: 7})
    inst = Instance(2, 1, (gen,), target)
    w = extract_witness_general(inst)
    assert w is not None and verify_witness(inst, w, mode="Z")
    assert len(w.terms) == 1 and w.terms[0].coeff == 1


def test_extract_witness_arity_three():
    gen = DataVector(3, 1, {(0, 1, 2): (1,)})
    target = DataVector(3, 1, {(3, 4, 5): (5,)})
    inst = Instance(3, 1, (gen,), target)
    w = extract_witness_general(inst)
    assert w is not None and verify_witness(inst, w, mode="Z")


def test_extractors_agree_with_decision_on_random_instances():
    rng = random.Random(9)
    checked = 0
    while checked < 20:
        gens = tuple(
            g
            for g in (
                random_data_vector(rng, 2, 1, rng.sample(range(4), 3))
                for _ in range(rng.randint(1, 2))
            )
            if not g.is_zero()
        )
        if not gens:
            continue
        target = random_data_vector(rng, 2, 1, rng.sample(range(4), 3))
        inst = Instance(2, 1, gens, target)
        w = extract_witness_k2(inst)
        if z_solvable(inst):
            assert w is not None and verify_witness(inst, w, mode="Z")
        else:
            assert w is None
        checked += 1


def _triangle_target(atoms, count):
    """Sum of `count` unit triangles of random sign on random atom triples."""
    rng = random.Random(atoms)
    total = DataVector(2, 1, {})
    for _ in range(count):
        a, b, c = sorted(rng.sample(range(atoms), 3))
        total = dv_add(total, triangle(a, b, c, rng.choice((1, -1))))
    return total


@pytest.mark.parametrize(
    "atoms, count, edges, steps, terms",
    [(30, 50, 124, 157, 247), (60, 235, 522, 583, 765)],
)
def test_triangle_target_witness_sizes(monkeypatch, atoms, count, edges, steps, terms):
    # Another choice of the set each decomposition step cancels changes the
    # number of simple graphs placed (the merged witness may stay the same).
    placed = spy(monkeypatch, calculus, "_simple_with_value")
    inst = Instance(2, 1, (triangle(0, 1, 2),), _triangle_target(atoms, count))
    assert len(inst.target.entries) == edges
    w = extract_witness_general(inst)
    assert w is not None and verify_witness(inst, w)
    assert (len(placed), len(w.terms)) == (steps, terms)


def test_each_simple_template_is_verified_once(monkeypatch):
    # A step places renamed templates in closed form: `verify_simple` runs
    # once per template, as it enters the context's cache, not once per step.
    contexts = []

    class Recorded(calculus._Ctx):
        def __init__(self, used):
            super().__init__(used)
            contexts.append(self)

    monkeypatch.setattr(calculus, "_Ctx", Recorded)
    checked = spy(monkeypatch, calculus, "verify_simple")
    placed = spy(monkeypatch, calculus, "_simple_with_value")
    inst = Instance(2, 1, (triangle(0, 1, 2),), _triangle_target(30, 50))
    w = extract_witness_general(inst)
    assert w is not None and verify_witness(inst, w)
    [ctx] = contexts
    templates = {id(hg): spec for hg, spec, _terms in ctx.simple_cache.values()}
    assert sorted(id(hg) for hg, _spec in checked) == sorted(templates)
    assert all(templates[id(hg)] is spec for hg, spec in checked)
    assert len(checked) == len(ctx.simple_cache) < len(placed) == 157


# Runs under `python -O`, which strips asserts: a template that comes back
# with a vertex outside its blocks is not simple, and its one check raises
# (its entries are unchanged, so the witness itself would still verify).
_BROKEN_TEMPLATE = """
import sys
from datalin import calculus
from datalin.core import DataVector, Hypergraph, Instance, VerificationError
from datalin.witness import extract_witness_general
construct = calculus._construct_simple
def broken(g, x, ctx):
    hg, spec, terms = construct(g, x, ctx)
    return Hypergraph(hg.vertices | {10**6}, hg.arity, hg.dim, hg.mu), spec, terms
calculus._construct_simple = broken
assert False, "asserts are live"
gen = DataVector(2, 1, {(0, 1): (1,), (0, 2): (1,), (1, 2): (1,)})
try:
    extract_witness_general(Instance(2, 1, (gen,), DataVector(2, 1, {(0, 1): (6,)})))
except VerificationError as exc:
    print(sys.flags.optimize, type(exc).__name__, exc)
"""


def test_a_non_simple_template_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_TEMPLATE],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "1 VerificationError simple template failed its simplicity check\n"


def _planted_z_stream(seed, count=120):
    """Z-solvable instances drawn here, as `datalin gen` draws one: arity 1-3
    in turn, dimension 1-2, one or two generators with values -2..2 on
    atoms 0..k+1, and a target that `dv_combine` sums from one to three
    copies with coefficients +-1 or +-2, each renamed into atoms 0..5; a
    target that cancels to zero is drawn again."""
    rng = random.Random(seed)
    atoms = list(range(6))
    for i in range(count):
        k = 1 + i % 3
        d = rng.randint(1, 2)
        gens = []
        while len(gens) < rng.randint(1, 2):
            g = random_data_vector(rng, k, d, range(k + 2))
            if not g.is_zero():
                gens.append(g)
        target = DataVector(k, d, {})
        while target.is_zero():
            copies = []
            for _ in range(rng.randint(1, 3)):
                g = rng.choice(gens)
                sup = sorted(g.support())
                pi = dict(zip(sup, rng.sample(atoms, len(sup))))
                copies.append((rng.choice((-2, -1, 1, 2)), g, pi))
            target = dv_combine(k, d, copies)
        yield Instance(k, d, tuple(gens), target)


def test_seeded_stream_witnesses_are_pinned():
    # every extracted witness, hashed, so a change to any witness of the
    # stream shows (no instance of it reaches a cap)
    digest = hashlib.sha256()
    for inst in _planted_z_stream(5):
        w = extract_witness_general(inst)
        assert w is not None and verify_witness(inst, w)
        digest.update(repr(w).encode())
    assert digest.hexdigest() == (
        "6e2eaf637614990221d4ca41f824a554552f099d3a7eb9205a9c520a522a9c06"
    )


@settings(max_examples=100, deadline=None)
@given(small_instances(max_generators=2))
def test_z_solvable_iff_the_general_extractor_verifies(inst):
    w = extract_witness_general(inst)
    assert z_solvable(inst) == (w is not None and verify_witness(inst, w))


_COPY_1 = DataVector(1, 2, {(0,): (1, -1), (1,): (2, 0), (2,): (0, 3)})
_COPY_3 = DataVector(3, 1, {(0, 1, 2): (1,), (0, 2, 3): (-1,), (1, 2, 3): (1,)})


@pytest.mark.parametrize(
    "inst",
    [
        Instance(1, 1, (pair_generator(),), point_target(2)),
        Instance(2, 1, (triangle(0, 1, 2),), edge_target(6)),
        # targets that are renamed generator copies take the decomposition too
        Instance(1, 2, (_COPY_1,), dv_permute(_COPY_1, {0: 4, 1: 0, 2: 7})),
        Instance(3, 1, (_COPY_3,), dv_permute(_COPY_3, {0: 2, 1: 5, 2: 3, 3: 7})),
    ],
    ids=["arity-1", "arity-2", "arity-1-copy", "arity-3-copy"],
)
def test_general_extraction_factors_each_layer_once(monkeypatch, inst):
    # the membership check and the decomposition share one layer owner
    calls = spy(monkeypatch, zsolve, "hnf")
    w = extract_witness_general(inst)
    assert w is not None and verify_witness(inst, w)
    family = [encode_hypergraph(g) for g in inst.generators]
    factored = [args[0] for args in calls]
    for size in range(inst.arity + 1):
        m = IntMatrix.from_columns(list(layer_weights(family, size)), nrows=inst.dim)
        assert factored.count(m) == 1


@pytest.mark.parametrize("cap", ["_MAX_STEPS", "_MAX_TERMS"])
def test_extraction_past_a_cap_raises_cap_exceeded(
    monkeypatch, capsys, tmp_path, ex2, cap
):
    assert extract_witness_general(ex2) is not None
    monkeypatch.setattr(calculus, cap, 1)
    reason = {"_MAX_STEPS": "step_cap", "_MAX_TERMS": "term_cap"}[cap]
    with pytest.raises(CapExceeded) as exc:
        extract_witness_general(ex2)
    assert exc.value.reason == reason
    # `witness --json` names the cap that tripped
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(emit_instance(ex2, AtomTable())))
    assert main(["witness", "--json", str(path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "INCONCLUSIVE",
        json.dumps({"command": "witness", "reason": reason, "status": "cap"},
                   separators=(",", ":")),
    ]
