import random
import sys
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
from effectfa.cli import parse_position
from effectfa.errors import (
    IllegalMoveError,
    InputError,
    InterfaceError,
    ParseError,
    PreconditionError,
)

from conftest import fraction_solve


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


def test_spread_appends_a_cell_when_it_splits_the_top():
    # The gap 0..7 is patched right to left from 7, whose split lands on 8.
    q, trace = spread(pos({0: F(1, 2), 7: F(1, 2)}))
    assert q.support == tuple(range(9))
    assert _moves(trace[:2]) == [(6, "1/8", "split"), (5, "1/32", "split")]
    assert [m.index for m in trace] == [6, 5, 4, 3, 2, 1]
    assert q.weight(8) == F(1, 4) and expected_value(q) == F(129, 256)


def test_spread_makes_the_first_moves_of_the_fraction_solver():
    # Apart from the {n, n+2} supports, which one merge wins, solving starts
    # with spreading; the oracle spreads a Fraction dict hole by hole.
    rng = random.Random(1049)
    cases = list(_positions(rng, 100, wide=False)) + list(_positions(rng, 50, wide=True))
    cases += [pos({0: F(1, 2), 7: F(1, 2)}), pos({2: F(1, 3), 6: F(1, 3), 13: F(1, 3)})]
    spread_some = 0
    for p in cases:
        supp = p.support
        if len(supp) == 2 and supp[1] == supp[0] + 2:
            continue
        q, trace = spread(p)
        _, want = fraction_solve(p)
        assert _moves(trace) == _moves(want)[: len(trace)]
        assert find_holes(q) == [] and _replay(p, trace) == q
        spread_some += bool(trace)
    assert spread_some > 50


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
    # An odd top: the merge takes half of it, 1/6, over a doubled window.
    final, trace = solve(pos({0: F(2, 3), 2: F(1, 3)}))
    assert trace == [Move(0, F(1, 6), "merge")]
    assert final == pos({0: F(1, 2), 1: F(1, 2)})


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
        start, x, den = convexgame._window(dict(p.items()))
        assert start == lo
        trace = []
        den = convexgame._fill(x, lo, den, trace)
        c = convexgame._cells(lo, x, den)  # the cells that did not run dry
        q = pos(c)  # checks that the mass is still 1
        assert sorted(c) == list(range(lo, hi + 1))
        assert all(c[n] > 0 for n in range(lo + 1, hi))
        assert c[lo] >= p.weight(lo) / 2 and c[hi] >= p.weight(hi) / 2
        assert expected_value(q) == expected_value(p)
        assert trace and all(m.direction == "merge" for m in trace)
        assert _replay(p, trace) == q


def test_balance_keeps_mass_and_value_and_the_window():
    rng = random.Random(1039)
    scaled = 0
    for _ in range(100):
        lo = rng.randint(0, 5)
        hi = lo + rng.randint(3, 9)
        # Odd numerators on a steep ladder: quartering a rung needs the
        # window scaled by 4 first.
        ws = [F(rng.randrange(1, 64, 2), 4 ** rng.randint(0, 12)) for _ in range(lo, hi + 1)]
        p = pos({n: w / sum(ws) for n, w in zip(range(lo, hi + 1), ws)})
        _, x, den = convexgame._window(dict(p.items()))
        start, trace = den, []
        den = convexgame._balance(x, lo, den, trace)
        c = convexgame._cells(lo, x, den)
        q = pos(c)  # checks that the mass is still 1
        assert sorted(c) == list(range(lo, hi + 1))
        assert expected_value(q) == expected_value(p)
        # Balanced on return, so the 64-round cap did not end the loop; a
        # round is a run of splits whose indices fall.
        assert all(2 * x[i] >= x[i + 1] for i in range(1, len(x) - 2))
        rounds = 1 + sum(b.index >= a.index for a, b in zip(trace, trace[1:]))
        assert rounds < 64
        r = p
        for m in trace:  # each move splits a quarter off its right neighbour
            assert m.direction == "split" and m.lam == r.weight(m.index + 1) / 4
            r = apply_rule(r, m)
        assert r == q
        scaled += any(start % m.lam.denominator for m in trace)
    assert scaled  # some window was scaled before a split


def _positions(rng, count, wide):
    """Up to 6 points in 0..8 (criterion 9), or with ``wide`` up to 6 points
    in a window of 10 exponents anywhere in 0..16."""
    for _ in range(count):
        lo, span = (rng.randint(0, 7), 10) if wide else (0, 9)
        ks = rng.sample(range(lo, lo + span), rng.randint(1, 6))
        ws = [rng.randint(1, 64) for _ in ks]
        yield pos({k: F(w, sum(ws)) for k, w in zip(ks, ws)})


def test_solver_moves_are_those_construction_builds(monkeypatch):
    # The solver builds its moves with Move._of_checked; each must equal the
    # move construction builds from its fields, with a Fraction amount.  No
    # merge pass may leave a negative cell or empty an interior one, no
    # spread, fill step or balance may leave a zero cell in its window, only
    # a spread may widen the window (by the one cell a split at its top
    # appends), and no position returned may store a zero mass.  Sweeping a
    # wide window alone can take 10^5 moves and more, so fewer wide
    # positions are swept than solved.
    made = {"_spread": 0, "_pass": 0, "_fill": 0, "_balance": 0}  # moves per step

    def no_dry_cell(name, step):
        def checked(x, *args):
            width, trace = len(x), args[-1]
            before = len(trace)
            out = step(x, *args)
            made[name] += len(trace) - before
            assert min(x) >= 0 and all(x[1:-1])
            assert name == "_pass" or all(x)
            assert len(x) == width or name == "_spread" and len(x) == width + 1
            return out

        return checked

    for name in made:
        monkeypatch.setattr(convexgame, name, no_dry_cell(name, getattr(convexgame, name)))

    def check(p, final, moves):
        assert all(w > 0 for _, w in final.items())
        for m in moves:
            assert type(m.lam) is F
            assert Move(m.index, m.lam, m.direction) == m
        assert _replay(p, moves) == final == canonical_rep(expected_value(p))

    rng = random.Random(1031)
    narrow = list(_positions(rng, 100, wide=False))
    wide = list(_positions(rng, 50, wide=True))
    for p in narrow + wide:
        check(p, *solve(p))
    solved = dict(made)
    assert all(solved.values())  # the checks above saw every step make moves
    for p in narrow + wide[:10]:
        q, trace = spread(p)
        while not is_winning(q):
            q, more = sweep(q)
            assert all(w > 0 for _, w in q.items())
            trace += more
        check(p, q, trace)
    assert made["_pass"] > solved["_pass"]


def test_solve_builds_a_fraction_only_for_each_amount_and_final_cell():
    # From the read to the final cells the solver runs on integers: every
    # Fraction made (Fraction.__new__, which Fraction arithmetic calls too)
    # is an emitted amount, shared by the moves of a pass, or a final mass.
    made = 0

    def count(frame, event, arg):
        nonlocal made
        made += event == "call" and frame.f_code is F.__new__.__code__

    rng = random.Random(1051)
    for p in list(_positions(rng, 60, wide=False)) + list(_positions(rng, 30, wide=True)):
        made = 0
        sys.setprofile(count)
        try:
            final, trace = solve(p)
        finally:
            sys.setprofile(None)
        assert made == len({id(m.lam) for m in trace}) + len(final.support)


def _moves(trace):
    return [(m.index, str(m.lam), m.direction) for m in trace]


def _over(rng, den):
    """Up to 6 points in 0..9 whose masses are multiples of ``1/den``."""
    ks = rng.sample(range(10), rng.randint(1, min(6, den)))
    cuts = sorted(rng.sample(range(1, den), len(ks) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return pos({k: F(w, den) for k, w in zip(ks, parts)})


def test_solve_prints_what_the_fraction_solver_prints(monkeypatch):
    # The integer window must emit the moves of the move-by-move Fraction
    # solver in tests/conftest.py, amount text included, and its final.
    fills = []
    fill = convexgame._fill
    monkeypatch.setattr(convexgame, "_fill", lambda *a: fills.append(1) or fill(*a))
    rng = random.Random(1033)
    cases = list(_positions(rng, 80, wide=False)) + list(_positions(rng, 40, wide=True))
    cases += [_over(rng, den) for den in (3, 7, 29) for _ in range(25)]
    cases += [  # won by the single merge of an {n, n+2} support
        pos({0: F(1, 3), 2: F(2, 3)}),
        pos({3: F(1, 4), 5: F(3, 4)}),
        pos({4: F(5, 7), 6: F(2, 7)}),
        pos({1: F(9, 29), 3: F(20, 29)}),
        pos({0: F(2, 3), 2: F(1, 3)}),  # an odd top: merge 0 1/6
    ]
    filled = [  # filled before their passes; the first is the CI position
        pos({4: F(16, 29), 11: F(1, 116), 12: F(51, 116)}),
        pos({0: F(29, 55), 9: F(26, 55)}),
        pos({0: F(1, 2), 3: F(1, 2)}),
        pos({1: F(3, 7), 8: F(4, 7)}),
        pos({0: F(1, 3), 5: F(1, 3), 9: F(1, 3)}),
    ]
    cases += [  # the pool's longest balances: 19, 18 and 15 rounds of splits
        pos({5: F(17, 57), 11: F(14, 171), 12: F(52, 171), 14: F(6, 19)}),
        pos({0: F(13, 61), 6: F(41, 122), 7: F(21, 122), 9: F(17, 61)}),
        pos({7: F(1, 4), 15: F(3, 4)}),
    ]
    for p in cases + filled:
        del fills[:]
        final, trace = solve(p)
        want_final, want = fraction_solve(p)
        assert _moves(trace) == _moves(want)
        assert final == want_final
        assert fills or p not in filled


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


def test_reading_a_position_keeps_every_error_text():
    # The total is checked on integers; each error names what it always did,
    # the total as an exact Fraction, and the reader repeats it.
    for d, text, message in [
        ({0: F(3, 2), 1: F(-1, 2)}, "3/2*0 + -1/2*1", "negative mass -1/2 at exponent 1"),
        ({0: F(1, 2)}, "1/2*0", "total mass 1/2 is not 1"),
        ({0: F(1, 3), 4: F(1, 2)}, "1/3*0 + 1/2*4", "total mass 5/6 is not 1"),
        ({0: F(2, 3), 1: F(4, 9)}, "2/3*0 + 4/9*1", "total mass 10/9 is not 1"),
        ({0: 0, 3: F(0)}, "0*0 + 0*3", "total mass 0 is not 1"),
    ]:
        with pytest.raises(InputError) as caught:
            Position(d)
        assert str(caught.value) == message
        with pytest.raises(ParseError) as caught:
            parse_position(text)
        assert str(caught.value) == message
    # Zero masses are dropped; ints and text are read by rational, floats not.
    p = Position({0: F(1, 4), 2: 0, 5: "0", 7: "3/4"})
    assert p.items() == ((0, F(1, 4)), (7, F(3, 4))) and p.support == (0, 7)
    assert Position({3: 1}).items() == ((3, F(1)),)
    with pytest.raises(InterfaceError) as caught:
        Position({0: F(1, 2), 1: 0.5})
    assert str(caught.value) == "mass 0.5 at exponent 1 is not an exact rational"
    # The reader sums the masses of a repeated exponent before checking.
    assert parse_position("1/2*0 + 1/4*0 + 1/4*1") == pos({0: F(3, 4), 1: F(1, 4)})
    assert parse_position("1/2*1 + 0*0 + 1/2*2") == pos({1: F(1, 2), 2: F(1, 2)})


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=40),
        max_size=6,
    ),
    st.integers(min_value=-2, max_value=2),
)
def test_a_position_is_read_exactly_when_its_masses_sum_to_one(raw, off):
    # Masses w/(total + off) over several reduced denominators: the check on
    # integers must agree with the Fraction sum whether off is 0 or not.
    den = sum(raw.values()) + off
    if den <= 0:
        return
    d = {n: F(w, den) for n, w in raw.items()}
    if sum(d.values()) == 1:
        assert Position(d).items() == tuple(sorted((n, w) for n, w in d.items() if w))
    else:
        with pytest.raises(InputError) as caught:
            Position(d)
        assert str(caught.value) == f"total mass {sum(d.values(), F(0))} is not 1"


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
