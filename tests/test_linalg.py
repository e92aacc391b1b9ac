import random
from fractions import Fraction as F
from math import gcd

from effectfa.linalg import (
    RowSpace,
    _int_run,
    dot,
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
    ((nums, den),) = _int_run(((F(1, 3), F(1, 3)),), "b", mats.__getitem__)
    assert (nums, den) == ([1, 0], 1)
    # After 'aaa' the vector is (1, 3)/8; 'b' gives (4, 0)/8, a common
    # factor 4 above the letter scales' largest power of 2.
    halve = {"a": ((F(1, 2), 0), (0, F(1, 2))), "b": ((1, 0), (1, 0))}
    ((nums, den),) = _int_run(((1, 3),), "aaab", halve.__getitem__)
    assert (nums, den) == ([1, 0], 2)
    rng = random.Random(503)
    for _ in range(10):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
        rows = identity(2) + ((F(1, 3), F(1, 3)),)
        for nums, den in _int_run(rows, w, mats.__getitem__):
            assert gcd(den, *nums) == 1
