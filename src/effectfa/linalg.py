"""Exact linear algebra over the rationals.

Dense matrices are tuples of tuples of `Fraction`; everything is computed
with exact pivoting (first non-zero entry in row order) so results are
deterministic and reproducible.  Scale is small throughout the package, so
no sparsity or numerical tricks are needed.
"""

from __future__ import annotations

from fractions import Fraction

Vec = tuple
Mat = tuple

_F0 = Fraction(0)
_F1 = Fraction(1)


def zero_vec(n: int) -> Vec:
    return (_F0,) * n


def identity(n: int) -> Mat:
    return tuple(tuple(_F1 if i == j else _F0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _F0)


def vec_mat(v: Vec, m: Mat) -> Vec:
    if not m:
        return ()
    cols = len(m[0])
    return tuple(
        sum((v[i] * m[i][j] for i in range(len(v))), _F0) for j in range(cols)
    )


def mat_mul(a: Mat, b: Mat) -> Mat:
    return tuple(vec_mat(row, b) for row in a)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


class RowSpace:
    """Incrementally maintained row space with exact echelon reduction."""

    def __init__(self, width: int):
        self.width = width
        self._echelon: list = []  # reduced rows, one pivot column each
        self._pivots: list = []

    def reduce(self, v: Vec) -> Vec:
        v = list(v)
        for row, p in zip(self._echelon, self._pivots):
            if v[p] != 0:
                c = v[p] / row[p]
                for j in range(p, self.width):
                    v[j] -= c * row[j]
        return tuple(v)

    def add(self, v: Vec) -> bool:
        """Add ``v`` to the space; True iff it was independent."""
        r = self.reduce(v)
        for j, x in enumerate(r):
            if x != 0:
                self._echelon.append(r)
                self._pivots.append(j)
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self._echelon)


def solve_linear(a: Mat, b: Vec):
    """One exact solution of ``a @ x = b``, or None if inconsistent.

    Free variables are set to zero; pivoting is deterministic, so the
    returned solution is reproducible.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(a[i]) + [b[i]] for i in range(m)]
    pivots = []  # (row, col)
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [_F0] * n
    for i, c in pivots:
        x[c] = rows[i][n]
    return tuple(x)


def feasible_nonneg(a: Mat, b: Vec):
    """A solution of ``a @ x = b`` with ``x >= 0``, or None if infeasible.

    Phase-1 simplex on exact rationals with Bland's rule, so it terminates
    and never suffers from round-off.  ``a`` is m x n with small m, n.
    """
    m = len(b)
    n = len(a[0]) if a else 0
    if m == 0:
        return zero_vec(n)
    # Tableau rows: n structural + m artificial columns + rhs; keep b >= 0.
    rows = []
    for i in range(m):
        r = list(a[i]) + [_F0] * m + [b[i]]
        if r[-1] < 0:
            r = [-x for x in r]
        r[n + i] = _F1
        rows.append(r)
    basis = [n + i for i in range(m)]
    # Objective: minimize the sum of artificials; its reduced-cost row is the
    # sum of all constraint rows (artificials are basic with cost one).
    z = [sum(r[j] for r in rows) for j in range(n + m + 1)]
    for j in range(n, n + m):
        z[j] = _F0

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # Unbounded cannot happen in phase 1; guard anyway.
            return None
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter

    if z[-1] != 0:
        return None
    x = [_F0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return tuple(x)
