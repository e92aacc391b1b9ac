import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fraction_feasible_nonneg
from effectfa.exactnum import INF, NEG_INF, semiring_builtin
from effectfa.linalg import (
    RowSpace,
    _int_letters,
    _int_lines,
    _nonneg_solve,
    _int_product,
    _int_run,
    _radix,
    _pairing,
    _semiring_matrix,
    _semiring_step,
    dot,
    feasible_nonneg,
    identity,
    mat_mul,
    solve_linear,
    transpose,
    vec_mat,
    word_product,
    word_value,
)


def rand_vec(rng, n):
    return tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))


def linear_combination(coeffs, basis, width):
    out = [F(0)] * width
    for c, b in zip(coeffs, basis):
        out = [x + c * y for x, y in zip(out, b)]
    return tuple(out)


def combine(rng, basis, width):
    """A seeded combination of ``basis`` (the zero vector if it is empty)."""
    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
    return linear_combination(coeffs, basis, width)


def test_rowspace_coords_match_solve_linear():
    rng = random.Random(501)
    for _ in range(30):
        width = rng.randint(1, 6)
        space = RowSpace(width)
        basis = []
        for _ in range(rng.randint(1, width + 2)):
            # mix fresh vectors with combinations of earlier ones
            v = rand_vec(rng, width) if rng.random() < 0.6 else combine(rng, basis, width)
            if space.add(v):
                basis.append(v)
        if not basis:
            continue
        bt = transpose(tuple(basis))
        for _ in range(8):
            v = combine(rng, basis, width)
            c = space.coords(v)
            assert c is not None
            assert c == solve_linear(bt, v)
            assert linear_combination(c, basis, width) == v
        for _ in range(8):
            v = rand_vec(rng, width)
            assert space.coords(v) == solve_linear(bt, v)


def test_rowspace_coords_outside_the_span_is_none():
    space = RowSpace(3)
    assert space.coords((F(0), F(0), F(0))) == ()
    assert space.coords((F(1), F(0), F(0))) is None
    assert space.add((F(1), F(2), F(0)))
    assert space.add((F(2), F(4), F(1)))
    assert not space.add((F(3), F(6), F(-1)))
    assert space.coords((F(3), F(6), F(-1))) == (F(5), F(-1))
    assert space.coords((F(0), F(1), F(0))) is None
    assert space.dim == 2


def rand_matrix(rng, n, m):
    return tuple(rand_vec(rng, m) for _ in range(n))


def test_word_kernel_matches_fraction_products():
    rng = random.Random(502)
    for _ in range(20):
        n = rng.randint(0, 5)
        mats = {x: rand_matrix(rng, n, n) for x in "ab"}
        if rng.random() < 0.3:
            mats["a"] = tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
        initial, final = rand_vec(rng, n), rand_vec(rng, n)
        for length in (0, 1, 2, 5, 30):
            w = tuple(rng.choice("ab") for _ in range(length))
            m = identity(n)
            v = initial
            for x in w:
                m = mat_mul(m, mats[x])
                v = vec_mat(v, mats[x])
            assert word_product(n, w, mats.__getitem__) == m
            assert word_value(initial, w, mats.__getitem__, final) == dot(v, final)


def test_word_kernel_accepts_int_entries():
    mats = {"a": ((1, 2), (0, -1))}
    assert word_value((1, 1), "aa", mats.__getitem__, (1, 0)) == 1
    assert word_product(2, "aa", mats.__getitem__) == ((1, 0), (0, 1))
    assert word_value((F(1, 2), 0), "a", mats.__getitem__, (0, F(1, 3))) == F(1, 3)


def test_word_kernel_keeps_vectors_in_lowest_terms():
    # The factor 3 that cancels on 'b' comes from the vector's denominator,
    # not from the letter's scale (which is 1).
    mats = {"a": ((F(1, 2), F(1, 3)), (F(1, 6), F(2, 3))), "b": ((1, 0), (2, 0))}
    start = (F(1, 3), F(1, 3))
    ((nums, den),) = _int_run(*_int_letters((start,), "b", mats.__getitem__), "b")
    assert (nums, den) == ([1, 0], 1)
    # After 'aaa' the vector is (1, 3)/8; 'b' gives (4, 0)/8, a common
    # factor 4 above the letter scales' largest power of 2.
    halve = {"a": ((F(1, 2), 0), (0, F(1, 2))), "b": ((1, 0), (1, 0))}
    starts, letters = _int_letters(((1, 3),), "ab", halve.__getitem__)
    ((nums, den),) = _int_run(starts, letters, "aaab")
    assert (nums, den) == ([1, 0], 2)
    rng = random.Random(503)
    for _ in range(10):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        rows = identity(2) + ((F(1, 3), F(1, 3)),)
        for nums, den in _int_run(*_int_letters(rows, w, mats.__getitem__), w):
            assert gcd(den, *nums) == 1


_WEIGHT = st.one_of(
    st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)
_ROWS = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.lists(_WEIGHT, min_size=n, max_size=n), max_size=4)
    )
)


@settings(max_examples=150, deadline=None)
@given(_ROWS, st.randoms(use_true_random=False))
@example((0, []), random.Random(0))
@example((0, [[], []]), random.Random(0))
@example((3, [[F(0)] * 3, [F(0)] * 3]), random.Random(0))
@example((3, [[F(0)] * 3, [F(1, 2), F(0), F(-2, 3)]]), random.Random(0))
def test_int_lines_is_fraction_scaling(shape, rnd):
    # The same rows given dense (every entry, in order) and sparse (the
    # non-zero entries only, keyed by name, in any order) convert alike:
    # each weight times the LCM of all the denominators.
    n, rows = shape
    d = lcm(*(w.denominator for row in rows for w in row))
    want = [[d * w for w in row] for row in rows]
    names = [f"q{i}" for i in range(n)]
    sparse = []
    for row in rows:
        line = [(q, w) for q, w in zip(names, row) if w]
        rnd.shuffle(line)
        sparse.append(tuple(line))
    got_dense = _int_lines([tuple(enumerate(row)) for row in rows], range(n))
    got_sparse = _int_lines(sparse, {q: i for i, q in enumerate(names)})
    assert got_dense == got_sparse == (d, want)
    assert all(type(y) is int for row in got_sparse[1] for y in row)


def test_int_product_is_the_fraction_product_in_lowest_terms():
    rng = random.Random(504)
    for _ in range(20):
        n = rng.randint(0, 4)
        first, second = rand_matrix(rng, n, n), rand_matrix(rng, n, n)
        if rng.random() < 0.2:
            second = tuple(tuple(F(0) for _ in range(n)) for _ in range(n))
        starts, mats = _int_letters((), "xy", {"x": first, "y": second}.__getitem__)
        d, cols = _int_product(mats["x"], mats["y"], _radix(starts, mats))
        assert gcd(d, *(y for col in cols for y in col)) == 1
        rows = tuple(tuple(F(y, d) for y in row) for row in zip(*cols))
        assert rows == mat_mul(first, second)


def _expand(pairs, ids, tokens):
    """The letter ids that ``_pairing``'s tokens stand for, block by block."""
    out = []
    for t in tokens:
        out += _expand(pairs, ids, pairs[t - ids]) if t >= ids else [t]
    return out


def test_pairing_pairs_a_level_while_fresh_times_states_is_below_pairs():
    # (ab)^3: three pairs, one of them fresh.
    tokens = [0, 1] * 3
    assert _pairing(tokens, 2, 2, 1) == ([(0, 1)], [2, 2, 2])
    assert _pairing(tokens, 2, 3, 1) == ([], tokens)
    # Two rows stepped at once save two steps per use.
    assert _pairing(tokens, 2, 3, 2) == ([(0, 1)], [2, 2, 2])
    # a^11 on one state: repeated squaring, with the odd last token carried
    # and paired on the next level.
    assert _pairing([0] * 11, 1, 1, 1) == ([(0, 0), (1, 1), (1, 0)], [2, 2, 3])
    assert _pairing([], 2, 1, 1) == ([], [])
    assert _pairing([1], 2, 0, 1) == ([], [1])
    rng = random.Random(505)
    for _ in range(50):
        ids = rng.randint(1, 3)
        pattern = [rng.randrange(ids) for _ in range(rng.randint(1, 4))]
        tokens = (pattern * 60)[: rng.randint(0, 200)]
        n, rows = rng.randint(1, 8), rng.randint(1, 3)
        pairs, out = _pairing(tokens, ids, n, rows)
        assert len(set(pairs)) == len(pairs)
        assert _expand(pairs, ids, out) == tokens


class FractionRowSpace:
    """The `Fraction` elimination that :class:`RowSpace` replaced, kept as
    its oracle: echelon rows and their basis coordinates as `Fraction`s."""

    def __init__(self, width):
        self.width = width
        self._echelon = []
        self._pivots = []
        self._coords = []

    def _eliminate(self, v):
        v = list(v)
        factors = []
        for row, p in zip(self._echelon, self._pivots):
            c = F(0)
            if v[p] != 0:
                c = F(v[p]) / row[p]
                for j in range(p, self.width):
                    v[j] -= c * row[j]
            factors.append(c)
        return v, factors

    def _combine(self, factors):
        out = [F(0)] * self.dim
        for c, t in zip(factors, self._coords):
            if c != 0:
                for i, x in enumerate(t):
                    out[i] += c * x
        return out

    def add(self, v):
        r, factors = self._eliminate(v)
        for j, x in enumerate(r):
            if x != 0:
                t = [-y for y in self._combine(factors)] + [F(1)]
                self._echelon.append(tuple(r))
                self._pivots.append(j)
                self._coords.append(t)
                return True
        return False

    def coords(self, v):
        r, factors = self._eliminate(v)
        if any(x != 0 for x in r):
            return None
        return tuple(self._combine(factors))

    @property
    def dim(self):
        return len(self._echelon)


def mixed_vec(rng, n):
    """Mixed denominators, negative entries, and zero entries or whole rows."""
    if rng.random() < 0.1:
        return (F(0),) * n
    return tuple(
        F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 6, 7, 12, 35, 64)))
        if rng.random() < 0.75
        else F(0)
        for _ in range(n)
    )


def check_rowspace_invariants(space, basis):
    """Echelon rows are primitive integer vectors with a positive pivot, and
    each row is its recorded combination of the basis, in lowest terms."""
    for row, p, (nums, den) in zip(space._echelon, space._pivots, space._coords):
        assert all(type(x) is int for x in row) and gcd(*row) == 1
        assert row[p] > 0 and not any(row[:p])
        assert den > 0 and gcd(den, *nums) == 1
        combo = linear_combination([F(y, den) for y in nums], basis, space.width)
        assert combo == tuple(F(x) for x in row)


@pytest.mark.parametrize("seed", [520, 521, 522])
def test_rowspace_matches_the_fraction_elimination(seed):
    rng = random.Random(seed)
    for _ in range(25):
        width = rng.randint(0, 7)
        space, oracle = RowSpace(width), FractionRowSpace(width)
        basis = []
        for _ in range(rng.randint(1, width + 4)):
            v = mixed_vec(rng, width) if rng.random() < 0.6 else combine(rng, basis, width)
            added = space.add(v)
            assert added == oracle.add(v)
            if added:
                basis.append(v)
            assert space.dim == oracle.dim == len(basis)
            check_rowspace_invariants(space, basis)
            for u in (mixed_vec(rng, width), combine(rng, basis, width)):
                c = space.coords(u)
                assert c == oracle.coords(u)
                assert c is None or all(type(x) is F for x in c)


def test_rowspace_place_takes_integer_numerators():
    space = RowSpace(3)
    assert space._place([2, 4, 0], 3) is None  # (2/3, 4/3, 0)
    assert space._place([0, 0, 5], 1) is None
    nums, den = space._place([3, 6, -5], 2)  # (3/2, 3, -5/2)
    assert [F(y, den) for y in nums] == [F(9, 4), F(-1, 2)]
    assert space.coords((F(3, 2), F(3), F(-5, 2))) == (F(9, 4), F(-1, 2))
    assert space._place([0, 0, 0], 7) == ([0, 0], 7)
    assert space.dim == 2


def test_semiring_step_on_each_kind():
    minplus, maxplus = semiring_builtin("minplus"), semiring_builtin("maxplus")
    boolean = semiring_builtin("boolean")
    m = ((2, INF), (0, 5))
    cols = _semiring_matrix(minplus, m)
    assert cols == (((0, 2), (1, 0)), ((1, 5),))
    step = _semiring_step(minplus)
    assert step([1, 1], cols) == [1, 6]
    assert step([INF, 1], cols) == [1, 6]
    assert step([1, INF], cols) == [3, INF]
    assert step([INF, INF], cols) == [INF, INF]
    m = ((2, NEG_INF), (0, 5))
    assert _semiring_step(maxplus)([1, 1], _semiring_matrix(maxplus, m)) == [3, 6]
    bm = ((True, False), (True, True))
    bstep = _semiring_step(boolean)
    assert bstep([True, False], _semiring_matrix(boolean, bm)) == [True, False]
    assert bstep([False, False], _semiring_matrix(boolean, bm)) == [False, False]


def rand_lp(rng):
    """A seeded system ``a @ x = b``: feasible by construction or with a
    random right-hand side, with zero rows and columns, repeated rows (ratio
    ties) and negative right-hand sides; or, one time in three, a
    bialgebra preimage system (:func:`graph_lp`)."""
    if rng.random() < 1 / 3:
        return graph_lp(rng)
    m, n = rng.randint(0, 5), rng.randint(0, 8)
    dens = rng.choice(((1,), (1, 2, 3), (1, 2, 3, 4, 6, 35)))

    def entry():
        return F(0) if rng.random() < 0.35 else F(rng.randint(-6, 6), rng.choice(dens))

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.2:
        a[rng.randrange(m)] = [F(0)] * n
    if n and rng.random() < 0.2:
        j = rng.randrange(n)
        for row in a:
            row[j] = F(0)
    if rng.random() < 0.5:
        x = [F(rng.randint(0, 3), rng.choice(dens)) if rng.random() < 0.5 else F(0) for _ in range(n)]
        b = [sum((r[j] * x[j] for j in range(n)), F(0)) for r in a]
    else:
        b = [entry() for _ in range(m)]
    if m > 1 and rng.random() < 0.4:
        # A positive multiple of another row: its ratios tie with that row's.
        i, k = rng.sample(range(m), 2)
        c = F(rng.randint(1, 3), rng.choice(dens))
        a[k], b[k] = [c * y for y in a[i]], c * b[i]
    return tuple(tuple(r) for r in a), tuple(b)


def graph_lp(rng):
    """Convex coefficients of a stochastic k x k matrix over some of the
    maps on k points: the maps' 0/1 matrices flattened as columns, a row of
    ones, and a target whose rows repeat, so many ratios tie."""
    k = rng.choice((2, 3))
    maps = list(itertools.product(range(k), repeat=k))
    maps = rng.sample(maps, rng.randint(1, len(maps)))
    a = [[F(f[i] == j) for f in maps] for i in range(k) for j in range(k)]
    a.append([F(1)] * len(maps))
    pool = []
    for _ in range(2):
        w = [rng.randint(0, 3) for _ in range(k)]
        w[rng.randrange(k)] += 1
        pool.append([F(y, sum(w)) for y in w])
    b = [y for _ in range(k) for y in rng.choice(pool)]
    return tuple(map(tuple, a)), tuple(b) + (F(1),)


@pytest.mark.parametrize("seed", [530, 531, 532])
def test_feasible_nonneg_matches_the_fraction_simplex(seed):
    rng = random.Random(seed)
    seen = dict.fromkeys(
        ("feasible", "infeasible", "negative rhs", "tie", "zero row", "zero column", "m == 0"), 0
    )
    for _ in range(400):
        a, b = rand_lp(rng)
        ties = []
        expected = fraction_feasible_nonneg(a, b, ties)
        x = feasible_nonneg(a, b)
        assert x == expected, (a, b)
        m, n = len(b), len(a[0]) if a else 0
        if x is None:
            seen["infeasible"] += 1
        else:
            seen["feasible"] += 1
            assert len(x) == n and all(type(y) is F and y >= 0 for y in x)
            assert all(dot(row, x) == y for row, y in zip(a, b))
        seen["negative rhs"] += any(y < 0 for y in b)
        # Bland's tie-break overrode the first row with the least ratio.
        seen["tie"] += any(later < first for first, later in ties)
        seen["zero row"] += any(not any(row) for row in a) and n > 0
        seen["zero column"] += any(not any(col) for col in zip(*a))
        seen["m == 0"] += m == 0
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("seed", [4, 18])
def test_columns_converted_once_serve_every_target(seed):
    # One conversion of ``a``, then targets whose denominators the columns'
    # LCM may or may not cover: each answer is the Fraction simplex's.
    rng = random.Random(seed)
    covered = scaled = 0
    for _ in range(60):
        a, b = rand_lp(rng)
        n = len(a[0]) if a else 0
        columns = _int_lines([tuple(enumerate(r)) for r in a], range(n))
        targets = [b] + [
            tuple(y * F(rng.randint(1, 4), rng.choice((1, 5, 7))) for y in b)
            for _ in range(4)
        ]
        for t in targets:
            assert _nonneg_solve(columns, t) == fraction_feasible_nonneg(a, t), (a, t)
            if columns[0] % lcm(*(y.denominator for y in t)):
                scaled += 1
            else:
                covered += 1
    assert covered >= 20 and scaled >= 20, (covered, scaled)


def test_feasible_nonneg_small_cases():
    assert feasible_nonneg((), ()) == ()
    assert feasible_nonneg(((),), (F(0),)) == ()
    assert feasible_nonneg(((),), (F(1),)) is None
    assert feasible_nonneg(((F(1), F(1)),), (F(-1),)) is None
    assert feasible_nonneg(((F(-1), F(1)),), (F(-2),)) == (F(2), F(0))
    # Systems with several feasible vertices, where the pivots decide which
    # one comes back.  Here a ratio tie goes to the least basic column; the
    # greatest would return (1/2, 1/2, 0, 1).
    a = ((F(2), F(0), F(0), F(1)), (F(0), F(0), F(2), F(1)), (F(2), F(2), F(2), F(0)))
    b = (F(2), F(1), F(2))
    expected = (F(3, 4), F(0), F(1, 4), F(1, 2))
    assert feasible_nonneg(a, b) == fraction_feasible_nonneg(a, b) == expected
    # Here the first tied row would return (0, 1, 0, 1), and so would a
    # scale per row, which weighs the phase-1 objective differently.
    h = F(1, 2)
    a = ((F(0), F(1), F(1), F(1)), (F(0), h, F(0), h), (h, F(1), h, F(0)))
    b = (F(2), F(1), F(1))
    expected = (F(2), F(0), F(0), F(2))
    assert feasible_nonneg(a, b) == fraction_feasible_nonneg(a, b) == expected
