"""Shared builders for the test suite."""

import itertools
import random

import pytest
from hypothesis import strategies as st

from datalin.core import DataVector, Hypergraph, Instance, kset


def pair_generator(x=0, y=1):
    """Arity-1 vector worth 1 at each of two atoms."""
    return DataVector(1, 1, {(x,): (1,), (y,): (1,)})


def point_target(value, atom=0):
    return DataVector(1, 1, {(atom,): (value,)})


def triangle(a, b, c, weight=1):
    """Arity-2 vector: the three edges of the triangle a,b,c, each `weight`."""
    entries = {
        tuple(sorted(e)): (weight,)
        for e in itertools.combinations((a, b, c), 2)
    }
    return DataVector(2, 1, entries)


def edge_target(value, x=0, y=1):
    return DataVector(2, 1, {tuple(sorted((x, y))): (value,)})


@pytest.fixture
def ex1():
    """Arity-1 instance: pair generator, target 2 at a single atom."""
    return Instance(1, 1, (pair_generator(),), point_target(2))


@pytest.fixture
def ex1_odd():
    """Same generator, target 3 at a single atom (not Z-solvable)."""
    return Instance(1, 1, (pair_generator(),), point_target(3))


@pytest.fixture
def ex2():
    """Arity-2 instance: unit triangle generator, single edge of weight 6."""
    return Instance(2, 1, (triangle(0, 1, 2),), edge_target(6))


@pytest.fixture
def ex2_odd():
    """Unit triangle generator, single edge of weight 3 (not Z-solvable)."""
    return Instance(2, 1, (triangle(0, 1, 2),), edge_target(3))


def no_leaving_row(*args):
    """Patched in for `intlin._leaving_row`: a ratio test that finds no
    row.  It reaches the simplex's phase-1 "unbounded" branch, which no
    input can reach."""
    return None


def spy(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that records the positional
    arguments of each call; returns the record."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def random_data_vector(rng: random.Random, k, d, atoms, lo=-2, hi=2, p=0.6):
    entries = {}
    for e in itertools.combinations(sorted(atoms), k):
        if rng.random() < p:
            v = tuple(rng.randint(lo, hi) for _ in range(d))
            if any(v):
                entries[e] = v
    return DataVector(k, d, entries)


def random_hypergraph(rng: random.Random, k, d, atoms, lo=-2, hi=2, p=0.6):
    dv = random_data_vector(rng, k, d, atoms, lo, hi, p)
    return Hypergraph(frozenset(atoms), k, d, dict(dv.entries))


@st.composite
def small_instances(draw, max_generators=3):
    """Arity 1 or 2, dimension 1 or 2, atoms 0..5, values in -2..2, at most
    four entries per vector and 1..max_generators generators."""
    k = draw(st.integers(min_value=1, max_value=2))
    d = draw(st.integers(min_value=1, max_value=2))
    keys = st.frozensets(st.integers(min_value=0, max_value=5), min_size=k, max_size=k)
    vals = st.tuples(*([st.integers(min_value=-2, max_value=2)] * d))

    def vec():
        return st.dictionaries(keys, vals, max_size=4).map(
            lambda e: DataVector(k, d, {kset(x): v for x, v in e.items()})
        )

    gens = draw(st.lists(vec(), min_size=1, max_size=max_generators))
    return Instance(k, d, tuple(gens), draw(vec()))
