import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectfa import (
    Move,
    Position,
    apply_rule,
    canonical_rep,
    expected_value,
    find_holes,
    is_winning,
    solve,
    spread,
    sweep,
)
from effectfa import convexgame
from effectfa.errors import IllegalMoveError, InputError, InterfaceError, PreconditionError


def pos(d):
    return Position(d)


def test_expected_values():
    assert expected_value(pos({1: 1})) == F(1, 2)
    assert expected_value(pos({0: F(1, 3), 2: F(2, 3)})) == F(1, 2)
    assert expected_value(pos({0: F(1, 2), 3: F(1, 2)})) == F(9, 16)


def test_canonical_representatives():
    assert canonical_rep(F(1, 2)) == pos({1: 1})
    assert canonical_rep(F(1)) == pos({0: 1})
    assert canonical_rep(F(9, 16)) == pos({0: F(1, 8), 1: F(7, 8)})
    with pytest.raises(InputError):
        canonical_rep(F(0))
    with pytest.raises(InputError):
        canonical_rep(F(3, 2))


def test_canonical_rep_roundtrip_on_grid():
    for num in range(1, 65):
        x = F(num, 64)
        rep = canonical_rep(x)
        assert is_winning(rep)
        assert expected_value(rep) == x


def test_merge_to_the_middle():
    p = pos({0: F(1, 3), 2: F(2, 3)})
    assert apply_rule(p, Move(0, F(1, 3), "merge")) == pos({1: 1})


def test_split_coefficients():
    p = apply_rule(pos({1: 1}), Move(0, F(1, 6), "split"))
    assert p == pos({0: F(1, 6), 1: F(1, 2), 2: F(1, 3)})


def test_split_then_merge_restores():
    start = pos({1: 1})
    there = apply_rule(start, Move(0, F(1, 6), "split"))
    assert apply_rule(there, Move(0, F(1, 6), "merge")) == start


def test_rule_preserves_expected_value():
    rng = random.Random(81)
    p = pos({0: F(1, 4), 1: F(1, 4), 2: F(1, 4), 3: F(1, 4)})
    for _ in range(30):
        n = rng.randint(0, 2)
        direction = rng.choice(["split", "merge"])
        lam = F(1, rng.randint(12, 24))
        try:
            q = apply_rule(p, Move(n, lam, direction))
        except IllegalMoveError:
            continue
        assert expected_value(q) == expected_value(p)
        p = q


def test_illegal_moves_raise():
    with pytest.raises(IllegalMoveError):
        apply_rule(pos({0: 1}), Move(0, F(1, 4), "split"))  # nothing at index 1
    with pytest.raises(IllegalMoveError):
        apply_rule(pos({0: 1}), Move(0, F(1, 3), "merge"))  # nothing at index 2
    with pytest.raises(InputError):
        Move(0, F(1, 2), "split")  # amount above 1/3
    with pytest.raises(InputError):
        Move(-1, F(1, 4), "split")
    with pytest.raises(InputError):
        Move(0, F(1, 4), "sideways")


def test_find_holes():
    assert find_holes(pos({0: 1})) == []
    assert find_holes(pos({0: F(1, 2), 3: F(1, 2)})) == [(0, 3)]
    assert find_holes(pos({0: F(1, 2), 2: F(1, 4), 5: F(1, 4)})) == [(0, 2), (2, 3)]


def test_spread_identity_on_hole_free():
    p = pos({2: F(1, 2), 3: F(1, 2)})
    q, trace = spread(p)
    assert q == p and trace == []


def test_spread_patches_holes():
    p = pos({0: F(1, 2), 3: F(1, 2)})
    q, trace = spread(p)
    assert find_holes(q) == []
    assert expected_value(q) == F(9, 16)
    assert all(m.direction == "split" for m in trace)
    p2 = pos({0: F(1, 3), 2: F(2, 3)})
    q2, trace2 = spread(p2)
    assert find_holes(q2) == []
    assert len(trace2) == 1 and trace2[0].index == 1


def test_sweep_requires_hole_free_non_winning():
    with pytest.raises(PreconditionError):
        sweep(pos({0: 1}))
    with pytest.raises(PreconditionError):
        sweep(pos({0: F(1, 2), 3: F(1, 2)}))


def test_sweep_shrinks_range_three():
    p = pos({0: F(1, 4), 1: F(1, 2), 2: F(1, 4)})
    q, trace = sweep(p)
    assert q.range <= 2
    assert expected_value(q) == expected_value(p)
    assert trace


def test_sweep_strictly_decreases_range():
    p, _ = spread(pos({0: F(1, 2), 3: F(1, 2)}))
    while not is_winning(p):
        q, _ = sweep(p)
        assert q.range < p.range
        assert find_holes(q) == []
        p = q


def test_solve_examples():
    final, trace = solve(pos({0: F(1, 3), 2: F(2, 3)}))
    assert final == pos({1: 1})
    assert [m.direction for m in trace] == ["merge"]
    final, _ = solve(pos({0: F(1, 2), 3: F(1, 2)}))
    assert final == pos({0: F(1, 8), 1: F(7, 8)})
    final, trace = solve(pos({5: 1}))
    assert final == pos({5: 1}) and trace == []


def test_solve_traces_replay():
    rng = random.Random(83)
    for _ in range(60):
        ks = rng.sample(range(0, 9), rng.randint(1, 5))
        ws = [rng.randint(1, 64) for _ in ks]
        total = sum(ws)
        p = pos({k: F(w, total) for k, w in zip(ks, ws)})
        final, trace = solve(p)
        assert is_winning(final)
        assert final == canonical_rep(expected_value(p))
        replay = p
        for m in trace:
            replay = apply_rule(replay, m)
        assert replay == final


def _replay(p, trace):
    for m in trace:
        p = apply_rule(p, m)  # raises if a move is illegal
    return p


def test_wide_gap_trace_is_short():
    # Spreading the gap 4..11 leaves a 4^-k ladder of transit coefficients;
    # uniform passes alone took 105,931 moves here.
    p = pos({4: F(16, 29), 11: F(1, 116), 12: F(51, 116)})
    final, trace = solve(p)
    assert final == pos({4: F(1589, 14848), 5: F(13259, 14848)})
    assert len(trace) <= 2000
    assert _replay(p, trace) == final


def test_wide_window_traces_are_bounded():
    # Up to 6 points in a window of 10 exponents anywhere in 0..16.
    rng = random.Random(1019)
    for _ in range(200):
        lo = rng.randint(0, 7)
        ks = rng.sample(range(lo, lo + 10), rng.randint(1, 6))
        ws = [rng.randint(1, 64) for _ in ks]
        p = pos({k: F(w, sum(ws)) for k, w in zip(ks, ws)})
        final, trace = solve(p)
        assert final == canonical_rep(expected_value(p))
        assert len(trace) <= 2000
        assert _replay(p, trace) == final


def test_fill_keeps_mass_and_value_and_fills_the_interior():
    rng = random.Random(1021)
    for _ in range(100):
        lo = rng.randint(0, 5)
        hi = lo + rng.randint(3, 9)
        ws = [rng.randint(1, 64) for _ in range(lo, hi + 1)]
        # A steep ladder on the interior, as spreading a wide gap leaves.
        for i in range(1, len(ws) - 1):
            ws[i] = F(ws[i], 4 ** rng.randint(0, 12))
        p = pos({n: F(w) / sum(ws) for n, w in zip(range(lo, hi + 1), ws)})
        c = dict(p.items())
        trace = []
        convexgame._fill(c, lo, hi, trace)
        q = pos(c)  # checks that the mass is still 1
        assert sorted(c) == list(range(lo, hi + 1))
        assert all(c[n] > 0 for n in range(lo + 1, hi))
        assert c[lo] >= p.weight(lo) / 2 and c[hi] >= p.weight(hi) / 2
        assert expected_value(q) == expected_value(p)
        assert trace and all(m.direction == "merge" for m in trace)
        assert _replay(p, trace) == q


def test_is_winning():
    assert is_winning(pos({5: 1}))
    assert is_winning(pos({0: F(1, 8), 1: F(7, 8)}))
    assert not is_winning(pos({0: F(1, 2), 2: F(1, 2)}))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=32),
        min_size=1,
        max_size=5,
    )
)
def test_solve_reaches_canonical_everywhere(raw):
    total = sum(raw.values())
    p = Position({k: F(v, total) for k, v in raw.items()})
    final, _ = solve(p)
    assert final == canonical_rep(expected_value(p))


def test_position_validation():
    with pytest.raises(InputError):
        Position({0: F(1, 2)})
    with pytest.raises(InputError):
        Position({-1: F(1)})
    with pytest.raises(InputError):
        Position({0: F(3, 2), 1: F(-1, 2)})


def test_game_values_are_exact():
    # A float mass or amount is a binary approximation, rejected as Dist
    # rejects one; ints and rational literals are read as Fractions, and
    # other text is rejected.
    with pytest.raises(InterfaceError) as caught:
        Position({0: 0.1, 1: 0.9})
    assert str(caught.value) == "mass 0.1 at exponent 0 is not an exact rational"
    assert Position({0: F(1, 2), 1: "1/2"}) == pos({0: F(1, 2), 1: F(1, 2)})
    with pytest.raises(InterfaceError) as caught:
        Position({0: F(1, 2), 1: "0.5"})
    assert str(caught.value) == "mass '0.5' at exponent 1 is not an exact rational"
    assert Position({0: 1}) == pos({0: F(1)})
    with pytest.raises(InterfaceError) as caught:
        apply_rule(pos({0: F(1, 2), 2: F(1, 2)}), Move(0, 0.25, "merge"))
    assert str(caught.value) == "amount 0.25 is not an exact rational"
    assert Move(0, "1/4", "merge") == Move(0, F(1, 4), "merge")
    with pytest.raises(InterfaceError):
        Move(0, " 1/4", "merge")
    m = Move(0, F(1, 4), "merge")
    assert type(m.lam) is F
    assert apply_rule(pos({0: F(1, 2), 2: F(1, 2)}), m) == pos(
        {0: F(1, 4), 1: F(3, 4)}
    )


def test_bool_is_no_exponent_or_index():
    with pytest.raises(InputError) as caught:
        Position({True: 1})
    assert str(caught.value) == "exponent True must be a natural number"
    for index in (True, False, "0"):
        with pytest.raises(InputError) as caught:
            Move(index, F(1, 4), "merge")
        assert str(caught.value) == "the rule index must be a natural number"
