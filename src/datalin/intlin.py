"""Exact integer and rational linear algebra.

Z-solvability of classical linear systems via column-style Hermite normal
form, split into a factor step and a solve step: `hnf(m)` factors M once
into an immutable `HermiteForm`, whose `.solve(y)` decides one right-hand
side by a triangular solve and re-verifies M*x = y.  `z_solve_system(m, y)`
is the one-shot `hnf(m).solve(y)`; callers that solve many right-hand sides
against one matrix (a layer of the Z criterion) hold the factorisation
instead; `rank` reads the pivot count of the same factorisation.  Also:
membership in the nonnegative rational cone by a phase-1 simplex with
Bland's rule on an all-integer tableau (fraction-free pivoting over one
common denominator D), and Pottier's exponential norm bound on minimal
nonnegative solutions.  The simplex verifies its certificate in integers,
on the numerators over D; fractions appear only in the certificate it
returns.  No floating point anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import IntVector, ShapeError, VerificationError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ent = tuple(tuple(row) for row in self.entries)
        if len(ent) != self.rows or any(len(row) != self.cols for row in ent):
            raise ShapeError("matrix entries do not match declared shape")
        object.__setattr__(self, "entries", ent)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return IntMatrix(r, c, tuple(tuple(row) for row in rows))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        """The matrix with these columns; `nrows` is required when there
        are none and must agree with them otherwise.  Columns of unequal
        length raise `ShapeError`."""
        if not cols:
            if nrows is None:
                raise ShapeError("empty column list needs an explicit row count")
            return IntMatrix(nrows, 0, ((),) * nrows)
        r = len(cols[0])
        if any(len(col) != r for col in cols):
            raise ShapeError("columns differ in length")
        if nrows is not None and nrows != r:
            raise ShapeError(f"columns have {r} rows, not the declared {nrows}")
        return IntMatrix(r, len(cols), tuple(zip(*cols)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def mul_vec(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.cols:
            raise ShapeError("vector length does not match column count")
        return tuple(sum(map(operator.mul, row, x)) for row in self.entries)


def inf_norm(v: Iterable[int]) -> int:
    return max((abs(x) for x in v), default=0)


def one_norm(v: Iterable[int]) -> int:
    return sum(abs(x) for x in v)


def matrix_one_inf_norm(m: IntMatrix) -> int:
    """Max over columns of the column 1-norm."""
    return max((one_norm(m.column(j)) for j in range(m.cols)), default=0)


@dataclass(frozen=True)
class HermiteForm:
    """Column-style Hermite factorisation M*U = H of one integer matrix.

    `h` and `u` hold the columns of H and of the unimodular U, so that
    M * u[j] = h[j].  H is in column echelon form: `pivots` lists (row i,
    column c) with rows increasing and c = 0, 1, ...; h[c][i] is nonzero,
    h[c] is zero above row i, every later column is zero in row i, and the
    columns after the last pivot are zero.  Immutable, so one factorisation
    serves any number of right-hand sides."""

    matrix: IntMatrix
    h: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, int], ...]

    def solve(self, y: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Some integer solution x of M*x = y, or None.

        A triangular solve over the pivots with exact divisibility checks
        decides solvability; the returned x is verified by multiplication
        with M before returning."""
        m = self.matrix
        if len(y) != m.rows:
            raise ShapeError("right-hand side length does not match row count")
        residual = list(y)
        t = []
        for i, c in self.pivots:
            col = self.h[c]
            coeff, rem = divmod(residual[i], col[i])
            if rem:
                return None
            t.append(coeff)
            if coeff:
                residual = [a - coeff * b for a, b in zip(residual, col)]
        if any(residual):
            return None
        x = [0] * m.cols
        for coeff, col in zip(t, self.u):
            if coeff:
                x = [a + coeff * b for a, b in zip(x, col)]
        x = tuple(x)
        if m.mul_vec(x) != tuple(y):
            raise VerificationError("HNF solver produced a non-solution")
        return x


def hnf(m: IntMatrix) -> HermiteForm:
    """Factor M once: column operations, recorded in a unimodular
    transform, bring M to column echelon form (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  Row by row, the first
    column of least nonzero |entry| at or after the pivot position is
    swapped into it and reduces every later column, until no later column
    is nonzero in that row.  Deterministic, so every solve gives the same
    x for the same M and y."""
    r, n = m.rows, m.cols
    # column-major working copies; U starts as the identity
    h = [list(col) for col in zip(*m.entries)] if r else [[] for _ in range(n)]
    u = [[0] * n for _ in range(n)]
    for j, col in enumerate(u):
        col[j] = 1
    pivots: list[tuple[int, int]] = []  # (row, column-position)
    c = 0
    for i in range(r):
        if c == n:
            break
        while True:
            jmin, least = -1, 0
            for j in range(c, n):
                a = h[j][i]
                if a:
                    a = abs(a)
                    if jmin < 0 or a < least:
                        jmin, least = j, a
            if jmin < 0:
                break
            h[c], h[jmin] = h[jmin], h[c]
            u[c], u[jmin] = u[jmin], u[c]
            hc, uc = h[c], u[c]
            p = hc[i]
            done = True
            for j in range(c + 1, n):
                a = h[j][i]
                if a:
                    q = a // p
                    h[j] = hj = [x - q * y for x, y in zip(h[j], hc)]
                    u[j] = [x - q * y for x, y in zip(u[j], uc)]
                    if hj[i]:
                        done = False
            if done:
                pivots.append((i, c))
                c += 1
                break
    return HermiteForm(
        m, tuple(map(tuple, h)), tuple(map(tuple, u)), tuple(pivots)
    )


def z_solve_system(m: IntMatrix, y: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Some integer solution x of M*x = y, or None: `hnf(m).solve(y)`.

    It factors M on every call; a caller with several right-hand sides for
    one matrix factors it once with `hnf` and solves each with the result."""
    return hnf(m).solve(y)


def pottier_base_bound(m: IntMatrix, y: Sequence[int]) -> int:
    """(||M||_{1,inf} + ||y||_inf + 2) ** (rows + cols), exactly.  When M*x = y
    has no solution x in N^cols with ||x||_inf at most this bound, it has
    none at all (any minimal solution fits in the box)."""
    return (matrix_one_inf_norm(m) + inf_norm(y) + 2) ** (m.rows + m.cols)


def cone_member_certificate(
    gens: Sequence[IntVector], y: Sequence[int]
):
    """(True, rational coefficients q >= 0 with sum q_i g_i = y) or
    (False, Farkas functional z with z.g_i >= 0 for all i and z.y < 0).

    Phase-1 simplex with Bland's rule on an all-integer tableau
    (fraction-free pivoting of Edmonds, also called Bareiss pivoting): T and
    one common denominator D > 0 stand for the rational tableau T / D, and
    every entry of T is a minor of the initial [sA | I | sy], so each
    pivot's division by the previous D is exact.  The pivots are those of
    the rational simplex; always terminates.  The certificate is verified
    on its integer numerators over D (D > 0; q >= 0 and sum q_i g_i = D*y,
    or z.y < 0 and z.g_i >= 0) before it is returned as fractions; a
    failed check raises `VerificationError`."""
    d = len(y)
    for g in gens:
        if len(g) != d:
            raise ShapeError("generator dimension mismatch")
    n = len(gens)
    sign = [1 if y[i] >= 0 else -1 for i in range(d)]
    # tableau rows: d constraints; columns: n real + d artificial + rhs
    tab = [
        [sign[i] * gens[j][i] for j in range(n)]
        + [1 if t == i else 0 for t in range(d)]
        + [sign[i] * y[i]]
        for i in range(d)
    ]
    den = 1
    basis = list(range(n, n + d))
    while True:
        # D times column j's reduced cost is D * cost_j (0 on the real
        # columns, 1 on the artificial ones) minus the column summed over
        # the artificial rows; only its sign is read
        art = [row for row, b in zip(tab, basis) if b >= n]
        cost = [0] * n + [den] * d
        entering = next(
            (j for j in range(n + d) if sum(r[j] for r in art) > cost[j]), None
        )
        if entering is None:
            break
        leave = _leaving_row(tab, basis, entering)
        if leave is None:
            raise VerificationError("phase-1 objective unbounded below (impossible)")
        prow = tab[leave]
        piv = prow[entering]
        for i in range(d):
            if i != leave:
                f = tab[i][entering]
                tab[i] = [(piv * a - f * b) // den for a, b in zip(tab[i], prow)]
        den = piv
        basis[leave] = entering
    if den <= 0:
        raise VerificationError("simplex common denominator must be positive")
    art = [row for row, b in zip(tab, basis) if b >= n]
    if sum(row[-1] for row in art) == 0:
        q = [0] * n
        for row, b in zip(tab, basis):
            if b < n:
                q[b] = row[-1]
        if any(qj < 0 for qj in q):
            raise VerificationError("simplex certificate has a negative coefficient")
        for i in range(d):
            if sum(qj * g[i] for qj, g in zip(q, gens)) != den * y[i]:
                raise VerificationError("simplex certificate failed re-verification")
        return True, tuple(Fraction(qj, den) for qj in q)
    # simplex multipliers pi_i = 1 - (reduced cost of artificial column
    # n+i), which is that column summed over the artificial rows, over D
    z = [-sign[i] * sum(row[n + i] for row in art) for i in range(d)]
    if sum(map(operator.mul, z, y)) >= 0:
        raise VerificationError("Farkas functional failed: z.y must be negative")
    for g in gens:
        if sum(map(operator.mul, z, g)) < 0:
            raise VerificationError("Farkas functional failed: z.g must be nonnegative")
    return False, tuple(Fraction(zi, den) for zi in z)


def _leaving_row(
    tab: list[list[int]], basis: list[int], entering: int
) -> Optional[int]:
    """The ratio test: among rows with a positive entry in the entering
    column, the one of least ratio (right-hand side, the last column) /
    entry, ties to the least basic variable (Bland's rule); None when no
    entry is positive.  Ratios are compared exactly by cross-multiplying
    the two positive entries."""
    best = None
    for i, row in enumerate(tab):
        a = row[entering]
        if a <= 0:
            continue
        if best is not None:
            ours, theirs = row[-1] * tab[best][entering], tab[best][-1] * a
            if ours > theirs or (ours == theirs and basis[i] > basis[best]):
                continue
        best = i
    return best


def cone_member(gens: Sequence[IntVector], y: Sequence[int]) -> bool:
    """True iff y is a nonnegative rational combination of gens."""
    ok, _ = cone_member_certificate(gens, y)
    return ok


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the pivot count of M's Hermite form, since
    M * U = H with U unimodular and H in column echelon form."""
    return len(hnf(m).pivots)


def rank_full(m: IntMatrix) -> bool:
    """True iff the rank over the rationals equals min(rows, cols)."""
    return rank(m) == min(m.rows, m.cols)
