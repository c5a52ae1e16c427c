import random

import pytest
from hypothesis import example, given, settings, strategies as st

from datalin import calculus, zsolve
from datalin.calculus import (
    SimpleSpec,
    construct_simple,
    cut,
    eval_terms,
    express_via_simple,
    is_m_isolated,
    kneser_full_rank,
    merge_terms,
    proportionality_check,
    reduction_matrix,
    verify_simple,
)
from datalin.core import (
    DataVector,
    Hypergraph,
    ShapeError,
    dv_add,
    dv_permute,
    dv_scale,
    encode_hypergraph,
    weight,
)

from conftest import random_hypergraph, spy, triangle


# ---------------------------------------------------------------------------
# reduction matrices


def test_reduction_matrix_4_3_1_entries():
    # rows: singletons of {0,1,2,3}; columns: 3-subsets, both lexicographic
    r = reduction_matrix(4, 3, 1)
    assert r.row_index == ((0,), (1,), (2,), (3,))
    assert r.col_index == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert [list(row) for row in r.matrix.entries] == [
        [1, 1, 1, 0],
        [1, 1, 0, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
    ]


def test_reduction_matrix_4_2_1_entries():
    r = reduction_matrix(4, 2, 1)
    assert r.col_index == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert [list(row) for row in r.matrix.entries] == [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    assert all(sum(row) == 3 for row in r.matrix.entries)


def test_reduction_matrix_b_equals_c_is_identity():
    r = reduction_matrix(5, 2, 2)
    n = len(r.row_index)
    assert [list(row) for row in r.matrix.entries] == [
        [1 if i == j else 0 for j in range(n)] for i in range(n)
    ]


def test_reduction_matrix_rejects_bad_order():
    with pytest.raises(ShapeError):
        reduction_matrix(2, 3, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kneser_full_rank(k):
    assert kneser_full_rank(k)


# ---------------------------------------------------------------------------
# cut


def tetrahedron(d=1):
    verts = frozenset({0, 1, 2, 3})
    mu = {
        (0, 1, 2): (1,),
        (0, 1, 3): (1,),
        (0, 2, 3): (1,),
        (1, 2, 3): (1,),
    }
    return Hypergraph(verts, 3, d, mu)


def test_cut_tetrahedron_to_triangle():
    t = cut(tetrahedron(), {0})
    assert t.arity == 2
    assert t.vertices == frozenset({1, 2, 3})
    # the face avoiding the cut vertex disappears
    assert dict(t.mu) == {(1, 2): (1,), (1, 3): (1,), (2, 3): (1,)}


def test_cut_rejects_bad_arguments():
    with pytest.raises(ShapeError):
        cut(tetrahedron(), {7})
    with pytest.raises(ShapeError):
        cut(tetrahedron(), {0, 1, 2})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cut_weight_transfer(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    h = random_hypergraph(rng, 3, 1, range(5))
    alpha = data.draw(st.sampled_from(sorted(h.vertices)))
    c = cut(h, {alpha})
    for y in [(x,) for x in h.vertices if x != alpha] + [
        (a, b)
        for a in h.vertices
        for b in h.vertices
        if a < b and alpha not in (a, b)
    ]:
        assert weight(c, y) == weight(h, tuple(sorted(set(y) | {alpha})))


# ---------------------------------------------------------------------------
# isolation and proportionality


def test_is_m_isolated():
    empty = Hypergraph(frozenset({0, 1, 2}), 2, 1, {})
    assert all(is_m_isolated(empty, m) for m in range(3))
    g1 = Hypergraph(frozenset({0, 1, 2}), 2, 1, {(0, 2): (5,), (1, 2): (-5,)})
    assert is_m_isolated(g1, 0)
    assert not is_m_isolated(g1, 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_proportionality_identity(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    k = data.draw(st.integers(1, 3))
    h = random_hypergraph(rng, k, 1, range(k + 2))
    m = data.draw(st.integers(0, k))
    x = tuple(sorted(rng.sample(sorted(h.vertices), m)))
    for l in range(m, k + 1):
        assert proportionality_check(h, x, l)


# ---------------------------------------------------------------------------
# simple hypergraphs


def test_example_triangle_is_0_simple():
    # triangle with edge weights x, y, z is (0, x+y+z)-simple
    g0 = Hypergraph(
        frozenset({0, 1, 2}),
        2,
        1,
        {(0, 1): (1,), (1, 2): (2,), (0, 2): (3,)},
    )
    assert verify_simple(g0, SimpleSpec(0, (6,), (), (), (0, 1, 2)))
    assert not verify_simple(g0, SimpleSpec(0, (5,), (), (), (0, 1, 2)))


def test_example_path_is_1_simple():
    # edges {a,c} -> +a and {b,c} -> -a with A={a}, B={b}, C={c}
    g1 = Hypergraph(frozenset({0, 1, 2}), 2, 1, {(0, 2): (5,), (1, 2): (-5,)})
    assert verify_simple(g1, SimpleSpec(1, (5,), (0,), (1,), (2,)))
    assert not verify_simple(g1, SimpleSpec(1, (-5,), (0,), (1,), (2,)))


def test_example_four_cycle_is_2_simple():
    # transversal 2-sets alternate +a/-a; pair-internal edges are absent
    a = (7,)
    g2 = Hypergraph(
        frozenset({0, 1, 2, 3}),
        2,
        1,
        {(0, 1): (7,), (0, 3): (-7,), (1, 2): (-7,), (2, 3): (7,)},
    )
    assert verify_simple(g2, SimpleSpec(2, a, (0, 1), (2, 3), ()))


def test_triangle_fails_m1_spec():
    g0 = encode_hypergraph(triangle(0, 1, 2))
    assert not verify_simple(g0, SimpleSpec(1, (3,), (0,), (1,), (2,)))


def _self_check_pair(g, xs):
    hg, spec, terms = construct_simple(g, xs)
    assert verify_simple(hg, spec)
    assert eval_terms(g.as_data_vector(), terms) == hg.as_data_vector()
    assert spec.m == len(xs)
    assert spec.a == weight(g, xs)


def test_construct_simple_small_examples():
    g = encode_hypergraph(triangle(0, 1, 2))
    _self_check_pair(g, (0,))
    _self_check_pair(g, (0, 1))
    _self_check_pair(g, ())


def test_construct_simple_arity_one():
    g = Hypergraph(frozenset({0, 1}), 1, 1, {(0,): (1,), (1,): (1,)})
    _self_check_pair(g, (0,))
    _self_check_pair(g, ())


def test_construct_simple_random(subtests=None):
    rng = random.Random(5)
    done = 0
    while done < 25:
        k = rng.randint(1, 3)
        h = random_hypergraph(rng, k, 1, range(rng.randint(k, k + 2)))
        if h.as_data_vector().is_zero():
            continue
        m = rng.randint(0, k)
        xs = tuple(sorted(rng.sample(sorted(h.vertices), m)))
        _self_check_pair(h, xs)
        done += 1


def test_construct_simple_rejects_bad_x():
    g = encode_hypergraph(triangle(0, 1, 2))
    with pytest.raises(ShapeError):
        construct_simple(g, (9,))
    with pytest.raises(ShapeError):
        construct_simple(g, (0, 1, 2))


# ---------------------------------------------------------------------------
# formal term combinations


def test_merge_and_eval_terms():
    g = triangle(0, 1, 2).entries
    dv = DataVector(2, 1, g)
    terms = [(1, {0: 0, 1: 1, 2: 2}), (2, {0: 0, 1: 1, 2: 2})]
    merged = merge_terms(terms)
    assert merged == [(3, {0: 0, 1: 1, 2: 2})]
    assert eval_terms(dv, merged) == dv_scale(3, dv)


def test_express_via_simple_reconstructs_target():
    gen = triangle(0, 1, 2)
    target = DataVector(2, 1, {(0, 1): (6,)})
    layers = zsolve.GeneratorLayers([gen], 1)
    pieces = express_via_simple(layers, target, tuple(range(6)))
    total = DataVector(2, 1, {})
    simple_sum = DataVector(2, 1, {})
    for hg, spec, fam_terms in pieces:
        assert verify_simple(hg, spec)
        simple_sum = dv_add(simple_sum, hg.as_data_vector())
        for c, gi, ren in fam_terms:
            total = dv_add(total, dv_scale(c, dv_permute(gen, ren)))
    assert simple_sum == target
    assert total == target


def test_decomposition_factors_each_level_once(monkeypatch):
    factored = spy(monkeypatch, zsolve, "hnf")
    placed = spy(monkeypatch, calculus, "_simple_with_value")
    target = dv_add(triangle(0, 1, 2, 2), triangle(2, 3, 4, -1))
    layers = zsolve.GeneratorLayers([triangle(0, 1, 2)], 1)
    express_via_simple(layers, target, tuple(range(7)))
    levels = [len(args[2]) for args in placed]
    assert len(levels) > 3
    assert len(factored) == len(set(levels)) == 3


def test_decomposition_reads_residual_weights_once_per_level(monkeypatch):
    tables = spy(monkeypatch, calculus, "weight_table")
    placed = spy(monkeypatch, calculus, "_simple_with_value")
    target = dv_add(triangle(0, 1, 2, 2), triangle(2, 3, 4, -1))
    layers = zsolve.GeneratorLayers([triangle(0, 1, 2)], 1)
    pieces = express_via_simple(layers, target, tuple(range(7)))
    assert len(placed) == len(pieces) > 3
    # the residual's tables, each of the one level read; a nested
    # decomposition would have a lower arity
    builds = [args for args in tables if args[0].arity == target.arity]
    assert [size for _, size in builds] == list(range(target.arity + 1))


@st.composite
def _pick_cases(draw):
    """A family of equal-size sets and a vertex list for `calculus._pick`."""
    k = draw(st.integers(min_value=1, max_value=3))
    ksets = st.frozensets(
        st.integers(min_value=0, max_value=7), min_size=k, max_size=k
    ).map(lambda x: tuple(sorted(x)))
    fam = sorted(draw(st.sets(ksets, max_size=25)))
    return fam, sorted(draw(st.sets(st.integers(min_value=0, max_value=9))))


@settings(max_examples=300, deadline=None)
@given(_pick_cases())
# (2, 4, 7) is served but (5, 6, 7) dominates it, and no maximal set is served
@example(([(1, 2, 6), (1, 3, 6), (2, 3, 7), (2, 4, 7), (5, 6, 7)], [1, 3, 6, 7, 8, 9]))
def test_pick_matches_the_quadratic_definition(case):
    fam, verts = case

    def dominates(x, y):
        return all(a <= b for a, b in zip(x, y))

    maximal = [x for x in fam if not any(y != x and dominates(x, y) for y in fam)]
    maximal.sort(key=lambda t: tuple(reversed(t)), reverse=True)
    served = (
        (x, calculus._greedy_below(x, set(verts) - set(x))) for x in maximal
    )
    expected = next(((x, b) for x, b in served if b is not None), None)
    assert calculus._pick(dict.fromkeys(fam), verts) == expected
