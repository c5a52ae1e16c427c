import itertools

import pytest
from hypothesis import given, settings, strategies as st

from datalin.core import (
    DataVector,
    FreshAtoms,
    Hypergraph,
    Instance,
    ShapeError,
    add_into,
    dv_add,
    dv_combine,
    dv_permute,
    dv_scale,
    dv_sub,
    encode_hypergraph,
    hg_add,
    kset,
    nonzero_weight_sets,
    weight,
    weight_table,
    weights_of_size,
)
from datalin import core

from conftest import pair_generator, spy, triangle


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


class _ListKeyed:
    """A mapping stand-in whose keys are lists, which no dict can hold."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


def test_datavector_canonicalizes_and_drops_zeros():
    v = DataVector(2, 1, {(1, 0): (1,), (2, 3): (0,)})
    assert v.entries == {(0, 1): (1,)}
    assert v.support() == frozenset({0, 1})
    assert v.entries[(0, 1)] == (1,)
    assert (0, 2) not in v.entries
    # unsorted tuples, other iterables and list values are canonicalised;
    # canonical keys are kept as they are
    w = DataVector(2, 2, {(5, 2): [1, 0], frozenset({4, 0}): (0, 2), (1, 3): (1, 1)})
    assert w.entries == {(2, 5): (1, 0), (0, 4): (0, 2), (1, 3): (1, 1)}
    assert all(type(k) is tuple and type(v) is tuple for k, v in w.entries.items())
    listed = DataVector(3, 1, _ListKeyed([([4, 0, 2], [7]), ([1, 2, 3], [0])]))
    assert listed.entries == {(0, 2, 4): (7,)}
    assert DataVector(1, 1, {(0,): (1,)}) == DataVector(1, 1, {frozenset({0}): [1]})


def test_datavector_shape_errors():
    with pytest.raises(ShapeError):
        DataVector(2, 1, {(0, 0): (1,)})
    with pytest.raises(ShapeError):
        DataVector(1, 2, {(0,): (1,)})
    bad_keys = {
        (0, 0): "not distinct",  # repeated atom
        (3, 1, 3): "not distinct",  # repeated and too long
        (-1, 2): "negative atom",
        (-2, -1): "negative atom",  # increasing, yet negative
        (2, -1): "negative atom",
        (0, 1, 2): "has length 3",
        (4,): "has length 1",
    }
    for key, message in bad_keys.items():
        with pytest.raises(ShapeError, match=message):
            DataVector(2, 1, {key: (1,)})
    with pytest.raises(ShapeError, match="not distinct"):
        DataVector(2, 1, _ListKeyed([([1, 1], (1,))]))
    with pytest.raises(ShapeError, match="has length 0, dim is 1"):
        DataVector(1, 1, {(0,): (1,), (1,): ()})
    # a renaming onto a negative atom gives a key no DataVector holds
    v = DataVector(1, 1, {(0,): (1,), (2,): (1,)})
    with pytest.raises(ShapeError, match="negative atom"):
        dv_combine(1, 1, [(1, v, {0: -1})])


def test_datavector_refuses_two_keys_for_one_set():
    # in any key order and with any values, a zero one included, a second
    # key for a set is an error, not a value dropped or kept silently
    spellings = [(2, 1), (1, 2), frozenset({1, 2})]
    for keys in itertools.permutations(spellings, 2):
        for values in [((1,), (5,)), ((0,), (5,)), ((5,), (0,))]:
            with pytest.raises(ShapeError, match=r"two keys name the set \(1, 2\)"):
                DataVector(2, 1, dict(zip(keys, values)))
    with pytest.raises(ShapeError, match="two keys name the set"):
        DataVector(2, 1, _ListKeyed([([2, 1], (1,)), ([1, 2], (5,))]))
    with pytest.raises(ShapeError, match="two keys name the set"):
        Hypergraph(frozenset({1, 2}), 2, 1, {(2, 1): (1,), (1, 2): (5,)})


def test_arithmetic_basics():
    a = pair_generator()
    b = DataVector(1, 1, {(0,): (-1,), (2,): (4,)})
    s = dv_add(a, b)
    assert s.entries == {(1,): (1,), (2,): (4,)}
    assert dv_sub(s, b) == a
    assert dv_scale(0, a).is_zero()
    assert dv_scale(-2, a).entries[(0,)] == (-2,)


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


def dict_combine(terms):
    """Reference by plain dict arithmetic: the entries of the sum of
    c * (a renamed by pi) over the terms, zeros dropped."""
    total = {}
    for c, a, pi in terms:
        for key, val in a.entries.items():
            image = tuple(sorted(pi.get(x, x) for x in key))
            cur = total.get(image, (0,) * a.dim)
            total[image] = tuple(x + c * y for x, y in zip(cur, val))
    return {key: val for key, val in total.items() if any(val)}


@st.composite
def shaped_vectors(draw):
    """Two vectors of one shape (arity 1-3, dimension 1-2), a third of
    another shape, a coefficient and a partial renaming of atoms 0..6 into
    0..9, which need not be injective on a vector's support."""
    k = draw(st.integers(min_value=1, max_value=3))
    d = draw(st.integers(min_value=1, max_value=2))
    k2, d2 = draw(
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2))
        .filter(lambda s: s != (k, d))
    )
    pi = draw(st.dictionaries(atoms_st, st.integers(min_value=0, max_value=9), max_size=7))
    c = draw(st.integers(min_value=-3, max_value=3))
    return draw(small_vec(k, d)), draw(small_vec(k, d)), draw(small_vec(k2, d2)), c, pi


@settings(max_examples=300, deadline=None)
@given(shaped_vectors())
def test_pairwise_ops_match_dict_arithmetic(case):
    a, b, other, c, pi = case
    assert dv_add(a, b).entries == dict_combine([(1, a, {}), (1, b, {})])
    assert dv_sub(a, b).entries == dict_combine([(1, a, {}), (-1, b, {})])
    assert dv_scale(c, a).entries == dict_combine([(c, a, {})])
    for result in (dv_add(a, b), dv_sub(a, b), dv_scale(c, a)):
        assert (result.arity, result.dim) == (a.arity, a.dim)
    mismatch = f"shape mismatch: ({a.arity},{a.dim}) vs ({other.arity},{other.dim})"
    for op in (dv_add, dv_sub):
        with pytest.raises(ShapeError) as err:
            op(a, other)
        assert str(err.value) == mismatch
    support = sorted(a.support())
    images = [pi.get(x, x) for x in support]
    if len(set(images)) == len(images):
        assert dv_permute(a, pi).entries == dict_combine([(1, a, pi)])
    else:
        with pytest.raises(ShapeError) as err:
            dv_permute(a, pi)
        assert str(err.value) == f"renaming is not injective on {support}: {pi}"


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
    assert dv_combine(k, d, terms).entries == dict_combine(terms)
    # the kernel on one dict: dv_combine's entries in its order, never a
    # zero value on the way (so empty iff the sum is zero), inputs untouched
    before = [dict(a.entries) for _, a, _ in terms]
    acc = {}
    for c, a, pi in terms:
        if c:
            add_into(acc, c, a.entries, pi)
            assert all(map(any, acc.values()))
    combined = dv_combine(k, d, terms).entries
    assert list(acc.items()) == list(combined.items())
    assert [a.entries for _, a, _ in terms] == before
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
    if draw(st.booleans()):
        mu = DataVector(k, d, mu)
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
        nonzero = {}
        for x in itertools.combinations(atoms, size):
            w = scan_weight(h, x)
            assert weight(h, x) == weight(h, x[::-1]) == w
            if any(w):
                nonzero[x] = w
        assert nonzero_weight_sets(h, size) == list(nonzero)
        # one size's builder gives the same sorted dict
        table = weight_table(h.as_data_vector(), size)
        assert list(table.items()) == list(nonzero.items())
    with pytest.raises(ShapeError):
        weight(h, atoms[: h.arity + 1])


def test_a_hypergraph_builds_each_size_on_its_first_read(monkeypatch):
    built = spy(monkeypatch, core, "weight_table")
    dv = DataVector(3, 1, {(0, 1, 2): (1,), (1, 2, 3): (2,)})
    g = encode_hypergraph(dv)
    assert built == []
    assert weight(g, (2, 1)) == (3,)
    assert [args[1] for args in built] == [2]
    # later reads of size 2 use the kept table
    assert nonzero_weight_sets(g, 2) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert weights_of_size(g, 2) is weights_of_size(g, 2)
    assert weight(g, (0, 3)) == (0,)
    assert [args[1] for args in built] == [2]
    assert weight(g, ()) == (3,)
    assert [args[1] for args in built] == [2, 0]
    # the kept tables are not part of its value
    assert g == encode_hypergraph(dv) and hash(g) == hash(encode_hypergraph(dv))


def test_weight_is_additive():
    g = encode_hypergraph(triangle(0, 1, 2))
    h = Hypergraph(frozenset({0, 1, 2}), 2, 1, {(0, 1): (4,)})
    s = hg_add(g, h)
    for x in [(), (0,), (0, 1), (1, 2)]:
        assert weight(s, x) == (weight(g, x)[0] + weight(h, x)[0],)
    assert s.as_data_vector() == dv_add(g.as_data_vector(), h.as_data_vector())


def test_hypergraph_keeps_the_vector_it_is_given(monkeypatch):
    dv = triangle(0, 1, 2)
    built = spy(monkeypatch, DataVector, "__post_init__")
    g = encode_hypergraph(dv)
    assert built == []
    assert g.as_data_vector() is dv
    assert g.mu is dv.entries and g.vertices == frozenset({0, 1, 2})


def test_hypergraph_checks_a_given_vector():
    dv = triangle(0, 1, 2)
    with pytest.raises(ShapeError):
        Hypergraph(frozenset({0, 1, 2}), 3, 1, dv)
    with pytest.raises(ShapeError):
        Hypergraph(frozenset({0, 1, 2}), 2, 2, dv)
    with pytest.raises(ShapeError):
        Hypergraph(frozenset({0, 1}), 2, 1, dv)


def test_value_types_compare_and_hash_by_value():
    a = DataVector(2, 1, {(0, 1): (2,), (1, 2): (-1,)})
    b = DataVector(2, 1, {(2, 1): (-1,), (0, 2): (0,), (1, 0): (2,)})
    assert list(a.entries) != list(b.entries)
    assert a == b and hash(a) == hash(b)
    assert a != DataVector(2, 2, {(0, 1): (2, 0), (1, 2): (-1, 0)})
    assert DataVector(1, 1) != DataVector(2, 1) and DataVector(1, 1) != DataVector(1, 2)
    assert a != dict(a.entries) and a != (a.arity, a.dim, a.entries)
    g = Hypergraph(frozenset({0, 1, 2}), 2, 1, a)
    h = Hypergraph({2, 1, 0}, 2, 1, dict(b.entries))
    assert g == h and hash(g) == hash(h)
    assert g != Hypergraph(frozenset({0, 1, 2, 3}), 2, 1, a)
    # the simple-graph cache keys on (hypergraph, set)
    cache = {(g, (0,)): "built"}
    assert cache[(h, (0,))] == "built"
    assert (Hypergraph(frozenset({0, 1, 2, 3}), 2, 1, a), (0,)) not in cache


def test_fresh_atoms_are_new_and_monotone():
    fresh = FreshAtoms({3, 10})
    a, b = fresh.take(), fresh.take()
    assert a == 11 and b == 12
    assert fresh.take_many(2) == [13, 14]


def test_instance_atoms_and_validation():
    inst = Instance(1, 1, (pair_generator(),), DataVector(1, 1, {(4,): (2,)}))
    assert inst.all_atoms() == frozenset({0, 1, 4})
    with pytest.raises(ShapeError):
        Instance(1, 1, (pair_generator(),), DataVector(2, 1, {(0, 1): (1,)}))


def test_kset_and_subsets():
    assert kset([3, 1, 2]) == (1, 2, 3)
