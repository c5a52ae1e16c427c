import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from datalin import intlin
from datalin.intlin import (
    IntMatrix,
    cone_member,
    cone_member_certificate,
    hnf,
    inf_norm,
    matrix_one_inf_norm,
    one_norm,
    pottier_base_bound,
    rank,
    rank_full,
    z_solve_system,
)
from datalin.core import ShapeError, VerificationError

from conftest import no_leaving_row


SRC = Path(__file__).resolve().parent.parent / "src"

# Runs under `python -O`, which strips asserts: with the matrix product
# patched to be off by one, the HNF solver's re-verification must still fail.
_BROKEN_PRODUCT = """
import sys
from datalin.core import VerificationError
from datalin.intlin import IntMatrix, z_solve_system
product = IntMatrix.mul_vec
IntMatrix.mul_vec = lambda m, x: tuple(v + 1 for v in product(m, x))
assert False, "asserts are live"
try:
    z_solve_system(IntMatrix.from_rows([[2]]), (4,))
except VerificationError as exc:
    print(sys.flags.optimize, type(exc).__name__, exc)
"""


def test_self_check_raises_verification_error_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_PRODUCT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "1 VerificationError HNF solver produced a non-solution\n"


# Also under `python -O`: with a ratio test that leaves at the row of
# largest ratio, the simplex ends on a negative coefficient, which the
# integer check of its certificate must still refuse.
_WRONG_LEAVING_ROW = """
import sys
from datalin import intlin
from datalin.core import VerificationError
def largest_ratio(tab, basis, entering):
    rows = [i for i, row in enumerate(tab) if row[entering] > 0]
    return max(rows, key=lambda i: (tab[i][-1] / tab[i][entering], -i))
intlin._leaving_row = largest_ratio
assert False, "asserts are live"
try:
    intlin.cone_member_certificate([(1, 0), (1, 1)], (1, 2))
except VerificationError as exc:
    print(sys.flags.optimize, type(exc).__name__, exc)
"""


def test_cone_certificate_check_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_LEAVING_ROW],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == (
        "1 VerificationError simplex certificate has a negative coefficient\n"
    )


def last_nonzero_row(tab, basis, entering):
    """Patched in for `intlin._leaving_row`: the last row with any nonzero
    entry in the entering column, whatever its sign or ratio."""
    return [i for i, row in enumerate(tab) if row[entering]][-1]


@pytest.mark.parametrize(
    "gens, y, message",
    [
        ([(1, 0), (1, 1)], (1, 2), "negative coefficient"),
        ([(1, 1), (1, -1)], (2, 0), "common denominator must be positive"),
        ([(2, 1), (1, 2)], (3, 3), "z.y must be negative"),
    ],
)
def test_cone_certificate_is_checked_in_integers(monkeypatch, gens, y, message):
    # pivoting on a wrong row leaves a wrong tableau: a negative
    # coefficient, a negative common denominator, or a functional that is
    # not negative on the target
    monkeypatch.setattr(intlin, "_leaving_row", last_nonzero_row)
    with pytest.raises(VerificationError, match=message):
        cone_member_certificate(gens, y)


def test_matrix_construction_and_multiply():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m.column(1) == (2, 4)
    assert m.mul_vec((1, -1)) == (-1, -1)
    assert IntMatrix.from_columns([[1, 3], [2, 4]]) == m
    assert IntMatrix.from_columns([[1, 3], [2, 4]], nrows=2) == m
    assert IntMatrix.from_columns([], nrows=3).rows == 3
    assert IntMatrix.from_columns([(), ()]) == IntMatrix(0, 2, ())


@pytest.mark.parametrize(
    "cols, nrows",
    [
        ([(1,), (2, 3)], None),  # a longer column after the first
        ([(1, 2), (3,)], None),  # a shorter column after the first
        ([(1, 2), (3, 4)], 3),  # a row count the columns contradict
    ],
    ids=["longer", "shorter", "nrows"],
)
def test_from_columns_refuses_ragged_columns(cols, nrows):
    with pytest.raises(ShapeError):
        IntMatrix.from_columns(cols, nrows=nrows)


# hnf's factors (h, u, pivots) of fixed matrices, pinned: every solve,
# witness and guess downstream depends on them exactly.
HNF_PINS = [
    (IntMatrix(2, 0, ((), ())), (), (), ()),
    (IntMatrix(0, 3, ()), ((), (), ()), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ()),
    (IntMatrix.from_rows([[2, 3]]), ((1,), (0,)), ((-1, 1), (3, -2)), ((0, 0),)),
    (
        IntMatrix.from_rows([[-4, 6, -10]]),
        ((-2,), (0,), (0,)),
        ((2, 1, 0), (-3, -2, 0), (-4, -1, 1)),
        ((0, 0),),
    ),
    (
        IntMatrix.from_rows([[0, 1], [1, 0]]),
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((0, 0), (1, 1)),
    ),
    (
        IntMatrix.from_rows([[1, 2], [0, 0], [3, 5]]),
        ((1, 0, 3), (0, 0, -1)),
        ((1, 0), (-2, 1)),
        ((0, 0), (2, 1)),
    ),
    (
        IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]]),
        ((1, 2), (0, 0), (0, 0)),
        ((1, 0, 0), (-2, 1, 0), (-3, 0, 1)),
        ((0, 0),),
    ),
    (
        IntMatrix.from_rows([[0, 0, 0], [6, -10, 15]]),
        ((0, 1), (0, 0), (0, 0)),
        ((-4, -1, 1), (-5, -3, 0), (10, 3, -2)),
        ((1, 0),),
    ),
    (
        IntMatrix.from_rows(
            [[2, -3, 5, 0, 7], [1, 4, -2, 6, -1], [0, 3, 3, -5, 2]]
        ),
        ((1, 6, 3), (0, 1, -16), (0, 0, 1), (0, 0, 0), (0, 0, 0)),
        (
            (2, 1, 0, 0, 0),
            (-3, -2, 0, 2, 0),
            (1, 0, 1, 0, -1),
            (7, 0, -7, -3, 3),
            (-20, 3, -21, -2, 22),
        ),
        ((0, 0), (1, 1), (2, 2)),
    ),
]


@pytest.mark.parametrize("m, h, u, pivots", HNF_PINS)
def test_hnf_factors_are_pinned(m, h, u, pivots):
    f = hnf(m)
    assert (f.matrix, f.h, f.u, f.pivots) == (m, h, u, pivots)


def test_norms():
    assert inf_norm((-3, 2)) == 3
    assert one_norm((-3, 2)) == 5
    # maximum column 1-norm
    assert matrix_one_inf_norm(IntMatrix.from_rows([[1, -2], [3, 1]])) == 4


def test_z_solve_known_cases():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert z_solve_system(m, (4, -9)) == (2, -3)
    assert z_solve_system(m, (1, 0)) is None  # parity obstruction
    # underdetermined: any returned solution must substitute back
    m2 = IntMatrix.from_rows([[1, 2, 3]])
    x = z_solve_system(m2, (7,))
    assert x is not None and m2.mul_vec(x) == (7,)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_z_solve_finds_planted_solutions(data):
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 4))
    ent = st.integers(-4, 4)
    m = IntMatrix.from_rows(
        [[data.draw(ent) for _ in range(cols)] for _ in range(rows)]
    )
    planted = [data.draw(ent) for _ in range(cols)]
    y = m.mul_vec(planted)
    x = z_solve_system(m, y)
    assert x is not None
    assert m.mul_vec(x) == y


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_z_solve_none_means_no_solution_small(data):
    # exhaustively confirm absence on tiny boxes when the solver says None
    m = IntMatrix.from_rows(
        [[data.draw(st.integers(-2, 2)) for _ in range(2)] for _ in range(2)]
    )
    y = (data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    if z_solve_system(m, y) is None:
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert m.mul_vec((a, b)) != y


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(0, 4))
    ent = st.integers(-4, 4)
    return IntMatrix.from_rows(
        [[draw(ent) for _ in range(cols)] for _ in range(rows)]
    )


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.data())
def test_hnf_factorisation_properties(m, data):
    f = hnf(m)
    assert f.matrix == m
    assert len(f.h) == len(f.u) == m.cols
    # M * U = H, column by column
    for h_col, u_col in zip(f.h, f.u):
        assert m.mul_vec(u_col) == h_col
    # column echelon form at the recorded pivots
    assert [c for _, c in f.pivots] == list(range(len(f.pivots)))
    rows = [i for i, _ in f.pivots]
    assert rows == sorted(set(rows))
    for i, c in f.pivots:
        assert f.h[c][i] != 0
        assert not any(f.h[c][:i])
        assert all(f.h[j][i] == 0 for j in range(c + 1, m.cols))
    assert not any(any(col) for col in f.h[len(f.pivots):])
    # one factorisation serves every right-hand side, in any order, exactly
    # as a fresh solve does, and a planted right-hand side always solves
    ent = st.integers(-6, 6)
    ys = [
        tuple(data.draw(ent) for _ in range(m.rows))
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    planted = [tuple(data.draw(ent) for _ in range(m.cols)) for _ in range(3)]
    ys += [m.mul_vec(x0) for x0 in planted]
    fresh = [z_solve_system(m, y) for y in ys]
    assert [f.solve(y) for y in ys] == fresh
    assert [f.solve(y) for y in reversed(ys)] == fresh[::-1]
    for y, x in zip(ys[-len(planted):], fresh[-len(planted):]):
        assert x is not None and m.mul_vec(x) == y


def test_hnf_solve_rejects_wrong_length():
    with pytest.raises(ShapeError):
        hnf(IntMatrix.from_rows([[1, 2]])).solve((1, 2))


def test_unbounded_phase1_raises_verification_error(monkeypatch):
    monkeypatch.setattr(intlin, "_leaving_row", no_leaving_row)
    with pytest.raises(VerificationError, match="unbounded"):
        cone_member_certificate([(1, 0), (0, 1)], (1, 1))


def test_pottier_base_bound_values():
    assert pottier_base_bound(IntMatrix.from_rows([[2]]), (3,)) == 49
    assert (
        pottier_base_bound(IntMatrix.from_rows([[1, 2], [0, 1]]), (1, 1))
        == 1296
    )
    # bound certifies absence: 2a+4b=3 has no N-solution
    m = IntMatrix.from_rows([[2, 4]])
    box = range(min(pottier_base_bound(m, (3,)), 10) + 1)
    assert all(m.mul_vec(x) != (3,) for x in itertools.product(box, repeat=m.cols))


def test_cone_membership():
    gens = [(1, 0), (0, 1)]
    assert cone_member(gens, (3, 5))
    assert not cone_member(gens, (-1, 0))
    ok, cert = cone_member_certificate(gens, (-1, 0))
    assert not ok
    # Farkas functional: nonnegative on generators, negative on the target
    assert all(sum(z * g[i] for i, z in enumerate(cert)) >= 0 for g in gens)
    assert sum(z * y for z, y in zip(cert, (-1, 0))) < 0


def check_cone_certificate(data, max_d, min_n, max_n, bound):
    """Draw generators and a target, and check the certificate returned."""
    d = data.draw(st.integers(1, max_d))
    n = data.draw(st.integers(min_n, max_n))
    ent = st.integers(-bound, bound)
    gens = [tuple(data.draw(ent) for _ in range(d)) for _ in range(n)]
    y = tuple(data.draw(ent) for _ in range(d))
    ok, cert = cone_member_certificate(gens, y)
    if ok:
        assert all(q >= 0 for q in cert)
        for i in range(d):
            assert sum(q * g[i] for q, g in zip(cert, gens)) == y[i]
    else:
        assert all(
            sum(z * g[i] for i, z in enumerate(cert)) >= 0 for g in gens
        )
        assert sum(z * yi for z, yi in zip(cert, y)) < 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cone_certificates_are_sound(data):
    check_cone_certificate(data, 3, 1, 4, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cone_certificates_verify_on_large_entries(data):
    # entries up to 10**12 make the tableau's minors large, so every
    # pivot's exact division is exercised
    check_cone_certificate(data, 5, 0, 6, 10**12)


def test_rank():
    assert rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank_full(IntMatrix.from_rows([[1, 0], [0, 5]]))
    assert not rank_full(IntMatrix.from_rows([[1, 1], [1, 1]]))


def fraction_rank(rows, ncols):
    """Reference rank: Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][col]:
                f = m[i][col] / m[rk][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rank_matches_rational_elimination(data):
    r = data.draw(st.integers(min_value=0, max_value=6))
    c = data.draw(st.integers(min_value=0, max_value=6))
    entry = st.integers(min_value=-3, max_value=3)
    rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    m = IntMatrix(r, c, tuple(map(tuple, rows)))
    expected = fraction_rank(rows, c)
    assert rank(m) == expected
    assert rank_full(m) == (expected == min(r, c))
