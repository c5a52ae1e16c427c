import itertools

import pytest
from hypothesis import given, settings, strategies as st

from datalin.core import (
    DataVector,
    FreshAtoms,
    Hypergraph,
    Instance,
    ShapeError,
    dv_add,
    dv_combine,
    dv_permute,
    dv_scale,
    dv_sub,
    encode_hypergraph,
    equivalent,
    hg_add,
    kset,
    nonzero_weight_sets,
    weight,
)

from conftest import pair_generator, triangle


atoms_st = st.integers(min_value=0, max_value=6)


def small_vec(k, d=1):
    return st.dictionaries(
        st.tuples(*([atoms_st] * k)).map(lambda t: tuple(sorted(set(t)))).filter(
            lambda t: len(t) == k
        ),
        st.tuples(*([st.integers(min_value=-3, max_value=3)] * d)),
        max_size=5,
    ).map(lambda e: DataVector(k, d, {k2: v for k2, v in e.items() if any(v)}))


perm_st = st.permutations(list(range(7)))


def test_datavector_canonicalizes_and_drops_zeros():
    v = DataVector(2, 1, {(1, 0): (1,), (2, 3): (0,)})
    assert v.entries == {(0, 1): (1,)}
    assert v.support() == frozenset({0, 1})
    assert v.value((1, 0)) == (1,)
    assert v.value((0, 2)) == (0,)


def test_datavector_shape_errors():
    with pytest.raises(ShapeError):
        DataVector(2, 1, {(0, 0): (1,)})
    with pytest.raises(ShapeError):
        DataVector(1, 2, {(0,): (1,)})


def test_arithmetic_basics():
    a = pair_generator()
    b = DataVector(1, 1, {(0,): (-1,), (2,): (4,)})
    s = dv_add(a, b)
    assert s.entries == {(1,): (1,), (2,): (4,)}
    assert dv_sub(s, b) == a
    assert dv_scale(0, a).is_zero()
    assert dv_scale(-2, a).value((0,)) == (-2,)


@given(small_vec(2), perm_st, perm_st)
def test_permute_is_a_group_action(v, p1, p2):
    pi1 = dict(enumerate(p1))
    pi2 = dict(enumerate(p2))
    composed = {u: pi2[pi1[u]] for u in pi1}
    assert dv_permute(dv_permute(v, pi1), pi2) == dv_permute(v, composed)


@given(small_vec(2), small_vec(2), perm_st)
def test_permute_is_additive(a, b, p):
    pi = dict(enumerate(p))
    assert dv_permute(dv_add(a, b), pi) == dv_add(
        dv_permute(a, pi), dv_permute(b, pi)
    )


def test_permute_requires_injectivity_on_support():
    v = pair_generator()
    with pytest.raises(ShapeError):
        dv_permute(v, {0: 5, 1: 5})
    # collapsing atoms outside the support is fine
    out = dv_permute(v, {0: 2, 7: 9, 8: 9})
    assert out.support() == frozenset({1, 2})


def fold_copies(arity, dim, terms):
    """The reference sum: one dv_add per renamed, scaled copy."""
    acc = DataVector(arity, dim, {})
    for c, a, pi in terms:
        acc = dv_add(acc, dv_scale(c, dv_permute(a, pi)))
    return acc


@st.composite
def copy_terms(draw):
    """Arity 1-3, dimension 1-2, and up to five (coefficient, vector,
    renaming) terms; each renaming is empty or injective on atoms 0..6."""
    k = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=2))
    renamings = st.one_of(
        st.just({}),
        st.lists(
            st.integers(min_value=0, max_value=12), min_size=7, max_size=7, unique=True
        ).map(lambda images: dict(enumerate(images))),
    )
    term = st.tuples(st.integers(min_value=-3, max_value=3), small_vec(k, d), renamings)
    return k, d, draw(st.lists(term, max_size=5))


@settings(max_examples=200, deadline=None)
@given(copy_terms())
def test_combine_equals_the_dv_add_fold(case):
    k, d, terms = case
    assert dv_combine(k, d, terms) == fold_copies(k, d, terms)
    # every copy cancelled by its negation: the empty vector
    negated = [(-c, a, pi) for c, a, pi in terms]
    assert dv_combine(k, d, terms + negated).entries == {}


def test_combine_cancels_and_renames():
    tri = triangle(0, 1, 2)
    moved = {0: 3, 1: 4, 2: 5}
    assert dv_combine(2, 1, [(2, tri, {}), (-2, tri, {}), (0, tri, moved)]).is_zero()
    out = dv_combine(2, 1, [(1, tri, {}), (-1, tri, {2: 3})])
    assert out.entries == {(0, 2): (1,), (1, 2): (1,), (0, 3): (-1,), (1, 3): (-1,)}
    assert dv_combine(1, 2, []) == DataVector(1, 2, {})


def test_combine_shape_errors():
    v = pair_generator()
    with pytest.raises(ShapeError):
        dv_combine(1, 1, [(1, v, {}), (1, v, {0: 5, 1: 5})])
    with pytest.raises(ShapeError):  # as dv_permute: checked even at c = 0
        dv_combine(1, 1, [(0, v, {0: 1})])
    with pytest.raises(ShapeError):
        dv_combine(2, 1, [(1, v, {})])
    with pytest.raises(ShapeError):
        dv_combine(1, 2, [(1, v, {})])
    with pytest.raises(ShapeError):
        dv_combine(1, 1, [(1, v, {}), (1, DataVector(1, 2, {(0,): (1, 1)}), {})])


def test_weight_sums_over_superset_edges():
    h = encode_hypergraph(triangle(0, 1, 2))
    assert weight(h, ()) == (3,)
    assert weight(h, (0,)) == (2,)
    assert weight(h, (0, 1)) == (1,)
    assert weight(h, (5,)) == (0,)  # outside the vertex set


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=2))
    verts = draw(st.frozensets(atoms_st, min_size=k))
    mu = draw(
        st.dictionaries(
            st.sampled_from(list(itertools.combinations(sorted(verts), k))),
            st.tuples(*([st.integers(min_value=-2, max_value=2)] * d)),
        )
    )
    return Hypergraph(verts, k, d, mu)


def scan_weight(h, x):
    """The definition: the sum of mu(e) over the hyperedges e containing x."""
    total = (0,) * h.dim
    for key, val in h.mu.items():
        if set(x) <= set(key):
            total = tuple(a + b for a, b in zip(total, val))
    return total


@given(hypergraphs())
def test_weight_table_matches_the_definitional_scan(h):
    atoms = sorted(h.vertices) + [max(h.vertices) + 1]  # one atom outside
    for size in range(h.arity + 1):
        nonzero = []
        for x in itertools.combinations(atoms, size):
            w = scan_weight(h, x)
            assert weight(h, x) == weight(h, x[::-1]) == w
            if any(w):
                nonzero.append(x)
        assert nonzero_weight_sets(h, size) == nonzero
    with pytest.raises(ShapeError):
        weight(h, atoms[: h.arity + 1])


def test_weight_is_additive():
    g = encode_hypergraph(triangle(0, 1, 2))
    h = Hypergraph(frozenset({0, 1, 2}), 2, 1, {(0, 1): (4,)})
    s = hg_add(g, h)
    for x in [(), (0,), (0, 1), (1, 2)]:
        assert weight(s, x) == (weight(g, x)[0] + weight(h, x)[0],)


def test_equivalent_detects_isomorphism():
    g = encode_hypergraph(triangle(0, 1, 2))
    h = encode_hypergraph(triangle(5, 7, 9))
    assert equivalent(g, h)
    assert not equivalent(g, encode_hypergraph(triangle(0, 1, 2, weight=2)))


def test_fresh_atoms_are_new_and_monotone():
    fresh = FreshAtoms({3, 10})
    a, b = fresh.take(), fresh.take()
    assert a == 11 and b == 12
    fresh.reserve({20})
    assert fresh.take() == 21


def test_instance_atoms_and_validation():
    inst = Instance(1, 1, (pair_generator(),), DataVector(1, 1, {(4,): (2,)}))
    assert inst.all_atoms() == frozenset({0, 1, 4})
    with pytest.raises(ShapeError):
        Instance(1, 1, (pair_generator(),), DataVector(2, 1, {(0, 1): (1,)}))


def test_kset_and_subsets():
    assert kset([3, 1, 2]) == (1, 2, 3)
