"""Exact linear algebra over the rationals.

Dense matrices are tuples of tuples of `Fraction`; everything is computed
with exact pivoting (first non-zero entry in row order) so results are
deterministic and reproducible.

Two kernels keep the hot loops cheap without leaving exact arithmetic:

* Word products (:func:`word_value`, :func:`word_product`) run on integers.
  Each letter matrix is scaled by the LCM ``d`` of its entries'
  denominators, a vector is a list of integer numerators over one integer
  denominator, and one step multiplies by the integer matrix, multiplies the
  denominator by ``d`` and divides out the gcd of the denominator and all
  numerators (the shared-denominator idea of fraction-free elimination,
  Bareiss, *Math. Comp.* 22, 1968).  A `Fraction` is built only from the
  final numerator and denominator, and it normalises, so the value is the
  one `Fraction` arithmetic gives.  The step itself (:func:`_int_step`) is
  shared with the word-tree walk of :func:`effectfa.automata.word_values`.
* :class:`RowSpace` records, for each echelon row, its coordinates in the
  vectors added so far, so the coordinates of any vector in the span come
  out of the same elimination (:meth:`RowSpace.coords`) instead of a fresh
  linear solve per vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

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


def _int_vector(v: Vec) -> tuple:
    """``(numerators, den)`` with ``v[i] == numerators[i] / den``.

    ``den`` is the LCM of the entries' denominators.
    """
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _int_matrix(m: Mat) -> tuple:
    """``(d, columns)``: the integer columns of ``d * m``.

    ``d`` is the LCM of the entries' denominators.  Columns, because a
    vector-matrix step is one dot product per column.
    """
    d = lcm(*(x.denominator for row in m for x in row))
    return d, tuple(
        tuple(x.numerator * (d // x.denominator) for x in col) for col in zip(*m)
    )


def _int_run(rows, w, matrix_of) -> list:
    """Each row of ``rows`` times the letter matrices of ``w``, on integers.

    Returns one ``(numerators, den)`` pair per row, in lowest terms: after
    each step the gcd of the denominator and all numerators is divided out.
    ``matrix_of(x)`` gives letter ``x``'s rational matrix; it is called once
    per distinct letter, in order of first occurrence, so it may raise on an
    unknown letter.
    """
    vectors = [_int_vector(r) for r in rows]
    # Every prime of a denominator divides ``radix``: denominators only ever
    # gain the factors of the initial ones and of the letter scales.  So the
    # common factor is sought among the divisors of ``gcd(radix, den)``, a
    # short integer, and no gcd of two long integers is taken.
    radix = lcm(*(den for _, den in vectors))
    mats = {}
    for x in w:
        m = mats.get(x)
        if m is None:
            m = mats[x] = _int_matrix(matrix_of(x))
            radix = lcm(radix, m[0])
        vectors = [_int_step(nums, den, m, radix) for nums, den in vectors]
    return vectors


def _int_step(nums, den, matrix, radix) -> tuple:
    """The vector ``nums / den`` times the letter matrix ``matrix``.

    ``matrix`` is ``(d, columns)`` from :func:`_int_matrix`; the result is
    ``(numerators, den)`` in lowest terms, provided every prime of ``den``
    and of ``d`` divides ``radix`` (the common factor is sought among the
    divisors of ``gcd(radix, den)``).
    """
    d, cols = matrix
    nums = [sum(map(mul, nums, col)) for col in cols]
    den *= d
    g = gcd(radix, den)
    while g != 1:
        g = gcd(g, *nums)
        if g == 1:
            break
        nums = [y // g for y in nums]
        den //= g
        g = gcd(g, den)
    return nums, den


def word_value(initial: Vec, w, matrix_of, final: Vec) -> Fraction:
    """``initial @ M(w[0]) @ ... @ M(w[-1]) @ final``, exactly, on integers.

    ``matrix_of(x)`` is the rational matrix ``M(x)`` of letter ``x``.
    """
    ((nums, den),) = _int_run((initial,), w, matrix_of)
    f_nums, f_den = _int_vector(final)
    return Fraction(sum(map(mul, nums, f_nums)), den * f_den)


def word_product(n: int, w, matrix_of) -> Mat:
    """The ``n`` x ``n`` matrix ``M(w[0]) @ ... @ M(w[-1])``, exactly, on integers."""
    return tuple(
        tuple(Fraction(y, den) for y in nums)
        for nums, den in _int_run(identity(n), w, matrix_of)
    )


class RowSpace:
    """Incrementally maintained row space with exact echelon reduction.

    Each echelon row also carries its coordinates in the basis formed by the
    independent vectors added so far, so :meth:`coords` reads a vector's
    coordinates off the same elimination that decides membership.
    """

    def __init__(self, width: int):
        self.width = width
        self._echelon: list = []  # reduced rows, one pivot column each
        self._pivots: list = []
        self._coords: list = []  # per echelon row, its coordinates in the basis

    def _eliminate(self, v: Vec) -> tuple:
        """``(remainder, factors)``: ``v`` is the remainder plus the echelon
        rows scaled by the factors."""
        v = list(v)
        factors = []
        for row, p in zip(self._echelon, self._pivots):
            c = _F0
            if v[p] != 0:
                c = Fraction(v[p]) / row[p]
                for j in range(p, self.width):
                    v[j] -= c * row[j]
            factors.append(c)
        return v, factors

    def _combine(self, factors) -> list:
        """Basis coordinates of the echelon rows combined with ``factors``."""
        out = [_F0] * self.dim
        for c, t in zip(factors, self._coords):
            if c != 0:
                for i, x in enumerate(t):
                    out[i] += c * x
        return out

    def reduce(self, v: Vec) -> Vec:
        return tuple(self._eliminate(v)[0])

    def add(self, v: Vec) -> bool:
        """Add ``v`` to the space; True iff it was independent."""
        r, factors = self._eliminate(v)
        for j, x in enumerate(r):
            if x != 0:
                # r = v - sum(c_i * row_i), and v is the next basis vector.
                t = [-y for y in self._combine(factors)] + [_F1]
                self._echelon.append(tuple(r))
                self._pivots.append(j)
                self._coords.append(t)
                return True
        return False

    def coords(self, v: Vec):
        """Coordinates of ``v`` in the basis of the independent vectors added
        so far, in order of addition, or None if ``v`` is outside the span."""
        r, factors = self._eliminate(v)
        if any(x != 0 for x in r):
            return None
        return tuple(self._combine(factors))

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
