"""Exact linear algebra over the rationals, and the integer form it runs on.

Dense matrices are tuples of tuples of `Fraction`; everything is computed
with exact pivoting (first non-zero entry in row order) so results are
deterministic and reproducible.

Exact rationals run on integers: numerators over one LCM of their
denominators (the shared-denominator idea of fraction-free elimination,
Bareiss, *Math. Comp.* 22, 1968).  This module owns that form:
:func:`_int_vector` converts a dense vector and :func:`_int_lines` any set
of rows or columns, sparse or dense; no other module converts.

* Word products.  A vector is integer numerators over one denominator, and
  one step (:func:`_int_step`) multiplies it by a letter's integer lines,
  the denominator by the letter's scale, and divides out the common factor
  (:func:`_lowest_terms`): ``v M`` on columns, ``M v`` on rows, as the
  linear kernels of :func:`effectfa.automata._kernel` step an output column
  backward.  A whole word is one blocked fold, :func:`_int_run`, forward
  on columns behind :func:`word_value` and :func:`word_product`, backward
  on a linear machine's letter rows behind
  :func:`effectfa.automata.eval_word`.  It reads the word in blocks built
  by pairwise doubling (:func:`_pairing`, :func:`_int_product`), pairing a
  level only while that costs fewer multiplications than the steps it
  saves.  A `Fraction` is built only from the final numerator and
  denominator, so the value is the one `Fraction` arithmetic gives.
* Semirings other than the rationals (:func:`_semiring_step`).  A column is
  the ``(row index, weight)`` pairs of its non-zero entries, and a step
  takes, per column, the semiring sum of ``mul(v[i], weight)``: ``min`` or
  ``max`` of ``v[i] + weight`` on the tropical semirings, ``any`` on the
  boolean one, the semiring's own ``add``/``mul`` otherwise.

Both steps serve the word-tree walk of
:func:`effectfa.automata.word_values` and the pair closures, one letter at
a time; the closure on two linear machines covers the pairs it reaches by
their span in a :class:`RowSpace`.  :class:`RowSpace` eliminates on
integers: primitive echelon rows, integer cross-multiplication, and per
row its coordinates in the vectors added so far, so a vector's coordinates
come out of the same elimination (:meth:`RowSpace.coords`).
:func:`feasible_nonneg`, the phase-1 simplex behind the bialgebra preimage
solves and hull pruning, pivots fraction-free on an integer tableau over
one common denominator, divided exactly by the previous pivot.
:func:`solve_linear` is the one Gauss-Jordan elimination left on
`Fraction`s; the library no longer calls it, and it stays only because the
benchmark's probes call it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd, lcm
from operator import mul

Vec = tuple
Mat = tuple

_F0 = Fraction(0)
_F1 = Fraction(1)


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
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v], den


def _int_lines(lines, index) -> tuple:
    """``(d, rows)``: each of ``lines``, ``(key, weight)`` pairs, as
    ``len(index)`` integers, ``d * weight`` at ``index[key]`` and 0
    elsewhere, where ``d`` is the LCM of every weight's denominator.  A
    sparse line is a weight map's items, with a ``state -> position`` dict;
    a dense row ``r`` is ``tuple(enumerate(r))``, with ``range(len(r))``.
    Each line is read twice, so it must be a sequence."""
    d = lcm(*[w.denominator for line in lines for _, w in line])
    width = len(index)
    rows = []
    for line in lines:
        nums = [0] * width
        for k, w in line:
            nums[index[k]] = w.numerator * (d // w.denominator)
        rows.append(nums)
    return d, rows


def _int_letters(rows, letters, matrix_of) -> tuple:
    """``(starts, mats)``: the rational ``rows`` as ``(numerators, den)``,
    and each distinct letter ``x`` of ``letters`` as the ``(d, columns)`` of
    its dense matrix ``matrix_of(x)``, called in order of first occurrence,
    so that it may raise on an unknown letter."""
    starts = [_int_vector(r) for r in rows]
    mats = {}
    for x in dict.fromkeys(letters):
        m = matrix_of(x)
        mats[x] = _int_lines([tuple(enumerate(col)) for col in zip(*m)], range(len(m)))
    return starts, mats


def _radix(vectors, mats) -> int:
    """The ``radix`` of :func:`_int_step`: the LCM of the denominators of
    ``vectors`` (``(numerators, den)``) and of the letter scales of ``mats``
    (``(d, lines)``).  Steps only multiply these, so every prime of a later
    denominator divides it too."""
    return lcm(*[den for _, den in vectors], *[d for d, _ in mats.values()])


def _int_read(v, final) -> Fraction:
    """The dot product of the vectors ``v`` and ``final``, both
    ``(numerators, den)``, as a `Fraction`."""
    (nums, den), (f_nums, f_den) = v, final
    return Fraction(sum(map(mul, nums, f_nums)), den * f_den)


def _int_step(nums, den, matrix, radix) -> tuple:
    """The vector ``nums / den`` times the letter matrix ``matrix``.

    ``matrix`` is ``(d, columns)`` from :func:`_int_lines`; the result is
    ``(numerators, den)`` in lowest terms (:func:`_lowest_terms`), provided
    every prime of ``den`` and of ``d`` divides ``radix``.  Given
    ``(d, rows)`` instead, it is the matrix times the column ``nums / den``.
    """
    d, cols = matrix
    return _lowest_terms([sum(map(mul, nums, col)) for col in cols], den * d, radix)


def _int_product(first, second, radix) -> tuple:
    """The ``(d, columns)`` matrix of ``first`` times ``second``, both
    ``(d, columns)``, with the common factor of its scale and entries
    divided out (:func:`_lowest_terms`).  Given ``(d, rows)``, it is the
    rows of ``second`` times ``first``."""
    (d1, cols1), (d2, cols2) = first, second
    rows1 = tuple(zip(*cols1))
    nums, d = _lowest_terms(
        [sum(map(mul, row, col)) for col in cols2 for row in rows1], d1 * d2, radix
    )
    entries = iter(nums)
    return d, tuple(tuple(islice(entries, len(rows1))) for _ in cols2)


def _pairing(tokens, ids: int, n: int, rows: int) -> tuple:
    """``(blocks, tokens)``: the blocks :func:`_int_run` builds for the
    token sequence ``tokens`` (integers below ``ids``) and the sequence it
    then steps.

    Each level pairs consecutive tokens, left to right; an odd last token
    is carried to the next level as it is.  ``blocks[i]`` is the ``(left,
    right)`` tokens of the block that becomes token ``ids + i``; each
    distinct pair is one block.  A block's matrix costs ``n**3`` products
    of short integers to build, for ``n`` states, and each use of it saves
    one step of ``rows`` vectors, ``rows * n**2`` products with a long
    integer.  So a level is paired only while ``fresh * n < pairs * rows``,
    where ``pairs`` is the number of pairs on the level and ``fresh`` the
    number of those not built before.
    """
    built = {}
    while True:
        pairs = len(tokens) // 2
        level = dict.fromkeys(zip(tokens[0::2], tokens[1::2]))
        fresh = [p for p in level if p not in built]
        if len(fresh) * n >= pairs * rows:
            return list(built), tokens
        for p in fresh:
            built[p] = ids + len(built)
        tokens = [built[p] for p in zip(tokens[0::2], tokens[1::2])] + tokens[2 * pairs :]


def _int_run(vectors, mats, w, backward: bool = False) -> list:
    """Each vector of ``vectors``, ``(numerators, den)``, times the letter
    matrices ``mats[x]`` of ``w``: ``v M(w)`` on ``(d, columns)`` letters,
    or with ``backward`` ``M(w) v`` on ``(d, rows)`` letters, ``w`` read
    right to left.

    The word is read in blocks built by pairwise doubling
    (:func:`_pairing`): a block's matrix is the product of its two halves'
    (:func:`_int_product`), and each vector takes one :func:`_int_step` per
    block.  The blocks' denominators are products of the letters', so every
    prime of them divides the :func:`_radix` and the vectors come out in
    lowest terms, as one step per letter would leave them.  A word whose
    blocks repeat, such as ``a^k`` (repeated squaring), takes far fewer
    steps than letters; the idea is that of evaluation on compressed words
    (Lohrey, *Groups Complex. Cryptol.* 4(2), 2012).  Letters are numbered
    in the order of ``mats`` and blocks after them, in a table of their
    own, so a block never stands for a letter, whatever the letters are (a
    tuple such as ``('a', 'b')`` included).
    """
    radix = _radix(vectors, mats)
    table = list(mats.values())
    ids = {x: i for i, x in enumerate(mats)}
    n = len(table[0][1]) if table else 0
    word = reversed(w) if backward else w
    blocks, tokens = _pairing([ids[x] for x in word], len(table), n, len(vectors))
    for left, right in blocks:
        table.append(_int_product(table[left], table[right], radix))
    for t in tokens:
        m = table[t]
        vectors = [_int_step(nums, den, m, radix) for nums, den in vectors]
    return vectors


def _lowest_terms(nums, den, radix) -> tuple:
    """``(numerators, den)``: the integers ``nums`` over ``den`` with their
    common factor divided out, provided every prime of ``den`` divides
    ``radix``.

    The common factor is sought among the divisors of ``gcd(radix, den)``,
    a short integer, so no gcd of two long integers is taken.
    """
    g = gcd(radix, den)
    while g != 1:
        g = gcd(g, *nums)
        if g == 1:
            break
        nums = [y // g for y in nums]
        den //= g
        g = gcd(g, den)
    return nums, den


def _semiring_matrix(s, m: Mat) -> tuple:
    """Per column of ``m``, the ``(row index, weight)`` pairs of its entries
    that are not the zero of the semiring ``s``."""
    return tuple(
        tuple((i, w) for i, w in enumerate(col) if not s.is_zero(w)) for col in zip(*m)
    )


def _semiring_step(s):
    """The step ``step(v, columns)`` of the semiring ``s``: the list ``v`` of
    weights times the matrix with these :func:`_semiring_matrix` columns.

    Entry ``j`` of the result is the semiring sum over column ``j`` of
    ``mul(v[i], weight)``, skipping zero entries of ``v``, in the order
    :func:`~effectfa.effects.bind` multiplies (vector weight first).
    Min-plus and max-plus take ``min``/``max`` of ``v[i] + weight`` and
    boolean takes ``any``; other semirings use their own ``add``/``mul``.
    """
    if s.name in ("minplus", "maxplus"):
        opt = min if s.name == "minplus" else max
        bottom = s.zero

        def step(v, cols):
            return [
                opt([v[i] + w for i, w in col if v[i] is not bottom], default=bottom)
                for col in cols
            ]

    elif s.name == "boolean":
        # A stored boolean weight is ``True``, so ``mul(v[i], True)`` is ``v[i]``.
        def step(v, cols):
            return [any([v[i] for i, _ in col]) for col in cols]

    else:

        def step(v, cols):
            live = [not s.is_zero(x) for x in v]
            sums = []
            for col in cols:
                terms = [s.mul(v[i], w) for i, w in col if live[i]]
                sums.append(reduce(s.add, terms) if terms else s.zero)
            return sums

    return step


def word_value(initial: Vec, w, matrix_of, final: Vec) -> Fraction:
    """``initial @ M(w[0]) @ ... @ M(w[-1]) @ final``, exactly, on integers.

    ``matrix_of(x)`` is the rational matrix ``M(x)`` of letter ``x``.
    """
    (v,) = _int_run(*_int_letters((initial,), w, matrix_of), w)
    return _int_read(v, _int_vector(final))


def word_product(n: int, w, matrix_of) -> Mat:
    """The ``n`` x ``n`` matrix ``M(w[0]) @ ... @ M(w[-1])``, exactly, on integers."""
    return tuple(
        tuple(Fraction(y, den) for y in nums)
        for nums, den in _int_run(*_int_letters(identity(n), w, matrix_of), w)
    )


class RowSpace:
    """Incrementally maintained row space, eliminated on integers.

    Echelon rows are primitive integer vectors (content 1, positive pivot),
    one pivot column each.  A vector's integer numerators are reduced by
    ``v <- (r/g)*v - (x/g)*row`` per echelon row, where ``r`` is the row's
    pivot entry, ``x`` the vector's entry in that column and
    ``g = gcd(r, x)``, so no fraction arises.  Each echelon row also carries
    its coordinates in the basis formed by the independent vectors added so
    far, as integer numerators over one denominator, so :meth:`coords` reads
    a vector's coordinates off the same elimination that decides membership.
    `Fraction`s are built only where :meth:`coords` returns them.
    """

    def __init__(self, width: int):
        self.width = width
        self._echelon: list = []  # primitive integer rows, one pivot column each
        self._pivots: list = []
        # Per echelon row, ``(numerators, den)``: the row is the sum of
        # ``numerators[i] * basis[i]`` divided by ``den``.
        self._coords: list = []

    def _eliminate(self, nums) -> tuple:
        """``(remainder, scale, factors)``: ``scale * nums`` is the remainder
        plus the echelon rows scaled by the (integer) factors."""
        x = list(nums)
        scale = 1
        factors = []
        for row, p in zip(self._echelon, self._pivots):
            y = x[p]
            if y:
                r = row[p]
                g = gcd(r, y)
                r //= g
                y //= g
                if r == 1:
                    x = [a - y * b for a, b in zip(x, row)]
                else:
                    x = [r * a - y * b for a, b in zip(x, row)]
                    scale *= r
                    factors = [r * f for f in factors]
            factors.append(y)
        return x, scale, factors

    def _combine(self, factors, den: int) -> tuple:
        """``(numerators, d)``: the basis coordinates of the echelon rows
        combined with ``factors`` and divided by ``den``."""
        d = lcm(*(t[1] for f, t in zip(factors, self._coords) if f))
        out = [0] * self.dim
        for f, (t, t_den) in zip(factors, self._coords):
            if f:
                f *= d // t_den
                for i, a in enumerate(t):
                    out[i] += f * a
        return out, d * den

    def _place(self, nums, den: int):
        """Coordinates ``(numerators, d)`` of the vector ``nums / den``, or
        None after adding it to the space as the next basis vector.

        ``nums`` are integers; this is the entry point for callers that keep
        their vectors as integer numerators over one denominator.
        """
        x, scale, factors = self._eliminate(nums)
        p = next((j for j, a in enumerate(x) if a), None)
        if p is None:
            return self._combine(factors, scale * den)
        # x = scale * den * v - sum(f_k * row_k), and v is the next basis
        # vector; the new row is x over its content, signed so the pivot is
        # positive.
        c = gcd(*x)
        if x[p] < 0:
            c = -c
        t, t_den = self._combine(factors, 1)
        t = [-a for a in t] + [scale * den * t_den]
        t_den *= c
        g = gcd(t_den, *t)
        if t_den < 0:
            g = -g
        self._echelon.append([a // c for a in x])
        self._pivots.append(p)
        self._coords.append(([a // g for a in t], t_den // g))
        return None

    def add(self, v: Vec) -> bool:
        """Add ``v`` to the space; True iff it was independent."""
        return self._place(*_int_vector(v)) is None

    def coords(self, v: Vec):
        """Coordinates of ``v`` in the basis of the independent vectors added
        so far, in order of addition, or None if ``v`` is outside the span."""
        nums, den = _int_vector(v)
        x, scale, factors = self._eliminate(nums)
        if any(x):
            return None
        out, d = self._combine(factors, scale * den)
        return tuple(Fraction(a, d) for a in out)

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

    Phase-1 simplex with Bland's rule, so it terminates, on an integer
    tableau pivoted fraction-free (Edmonds, *J. Res. NBS* 71B, 1967; the
    exact division of Bareiss, *Math. Comp.* 22, 1968).  Every row of
    ``a`` and ``b`` is scaled by one common LCM ``L`` of their
    denominators, so the structural columns and the right-hand side are
    integers and the artificial columns stay the identity; that scales the
    artificial variables by ``L`` and the phase-1 objective by ``L``, and
    keeps the sign of every reduced cost and the order of every ratio, so
    Bland's rule enters and leaves the same columns as on the rational
    tableau.  The tableau is held as integers over one positive common
    denominator ``d``, the previous pivot (1 at the start).  A pivot on
    ``p`` keeps the pivot row and replaces every other entry ``t`` by
    ``(p*t - t_c*r)/d``, which divides exactly; the objective row is
    updated the same way.  Ratios are compared by cross-multiplication.
    A `Fraction` is built only for the returned solution, which is the one
    the rational simplex returns.  ``a`` is m x n with small m, n.

    A caller that solves many targets over one ``a`` converts its rows
    once with :func:`_int_lines` and calls :func:`_nonneg_solve` per
    target, as this function does for its one target.
    """
    n = len(a[0]) if a else 0
    return _nonneg_solve(_int_lines([tuple(enumerate(r)) for r in a], range(n)), b)


def _nonneg_solve(columns: tuple, b: Vec):
    """:func:`feasible_nonneg` on ``a`` given as its integer rows ``(s,
    rows)`` (:func:`_int_lines`).

    The common scale is the LCM of ``s`` and the denominator of ``b``
    (:func:`_int_vector`), so the rows of ``a`` and ``b`` are only
    multiplied by that over their own.
    """
    scale_a, a = columns
    m = len(b)
    n = len(a[0]) if a else 0
    if m == 0:
        return (_F0,) * n
    b, scale_b = _int_vector(b)
    scale = lcm(scale_a, scale_b)
    k, k_b = scale // scale_a, scale // scale_b
    # Tableau rows: n structural + m artificial columns + rhs; keep b >= 0.
    rows = []
    for i in range(m):
        r = [x * k for x in a[i]]
        r += [0] * m
        r.append(b[i] * k_b)
        if r[-1] < 0:
            r = [-x for x in r]
        r[n + i] = 1
        rows.append(r)
    basis = [n + i for i in range(m)]
    # Objective: minimize the sum of artificials; its reduced-cost row is the
    # sum of all constraint rows (artificials are basic with cost one).
    z = [sum(col) for col in zip(*rows)]
    z[n : n + m] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        # The least ratio rhs/entry over rows with a positive entry, ties
        # to the least basic column; both sides share ``d``, which cancels.
        leave = None
        for i, row in enumerate(rows):
            y = row[enter]
            if y > 0:
                if leave is None:
                    leave, top, bottom = i, row[-1], y
                    continue
                lhs, rhs = row[-1] * bottom, top * y
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, top, bottom = i, row[-1], y
        if leave is None:
            # Unbounded cannot happen in phase 1; guard anyway.
            return None
        pivot_row = rows[leave]
        p = pivot_row[enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                if f:
                    rows[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
                else:
                    rows[i] = [p * x // d for x in row]
        f = z[enter]
        z = [(p * x - f * y) // d for x, y in zip(z, pivot_row)]
        d = p
        basis[leave] = enter

    if z[-1] != 0:
        return None
    x = [_F0] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = Fraction(rows[i][-1], d)
    return tuple(x)
