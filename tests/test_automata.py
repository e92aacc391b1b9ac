import random
from dataclasses import replace
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    chain_machine,
    choice_npfa,
    coin_pfa,
    difference_bound,
    minplus_walk,
    npfa_brute_force,
    rand_npfa,
    rand_dist,
    rand_pfa,
    rand_wfa,
    walk_agrees,
)
from effectfa import (
    CONVEX,
    Channel,
    ConvexSet,
    DIST,
    Dist,
    EffAutomaton,
    INF,
    INTERVAL_MAX,
    INTERVAL_MIN,
    INTERVAL_PAIR,
    Monad,
    NEG_INF,
    SEMIRING_SELF,
    SemiringDescriptor,
    UNIT_INTERVAL,
    WeightedVec,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bind,
    convex_output,
    eval_npfa,
    eval_pfa_pathsum,
    eval_word,
    identity_channel,
    is_pure_automaton,
    iterated_transition,
    kleisli_compose,
    purify_initial,
    semiring_check,
    unit,
    weighted,
    words_upto,
)
from effectfa.automata import (
    _equivalent,
    _is_linear,
    _kernel,
    _pair_key,
    collapse,
    disagreements,
    word_values,
)
from effectfa.effects import CONVEX_CHOICE_LIMIT
from effectfa.errors import CapabilityError, InputError, InterfaceError
from effectfa.linalg import _int_lines, _pairing


def word(n, letter="a"):
    return (letter,) * n


def test_coin_language_values():
    coin = coin_pfa()
    for n in range(4):
        assert eval_word(coin, word(n)) == 1 - F(1, 2**n)


def test_iterated_transition_empty_is_identity():
    coin = coin_pfa()
    assert iterated_transition(coin, ()) == identity_channel(DIST, coin.states)


def test_iterated_transition_single_and_double():
    coin = coin_pfa()
    one = iterated_transition(coin, word(1))
    assert one("q0") == Dist({"q0": F(1, 2), "q1": F(1, 2)})
    assert one("q1") == Dist({"q1": 1})
    two = iterated_transition(coin, word(2))
    assert two("q0") == Dist({"q0": F(1, 4), "q1": F(3, 4)})


def test_iterated_transition_rejects_foreign_letter():
    with pytest.raises(InputError):
        iterated_transition(coin_pfa(), ("z",))
    with pytest.raises(InputError):
        eval_word(coin_pfa(), ("z",))


def test_word_split_morphism_property():
    rng = random.Random(21)
    a = rand_pfa(rng, 3, 2)
    for w in words_upto(a.alphabet, 4):
        for cut in range(len(w) + 1):
            u, v = w[:cut], w[cut:]
            glued = kleisli_compose(
                iterated_transition(a, u), iterated_transition(a, v)
            )
            assert glued == iterated_transition(a, w)


def test_pathsum_is_an_oracle_for_eval():
    coin = coin_pfa()
    assert eval_pfa_pathsum(coin, word(2)) == F(3, 4)
    assert eval_pfa_pathsum(coin, ()) == 0
    rng = random.Random(1)
    for _ in range(8):
        a = rand_pfa(rng, 3, 2, pure_init=False)
        for w in words_upto(a.alphabet, 5):
            assert eval_pfa_pathsum(a, w) == eval_word(a, w)


def test_pathsum_requires_dist():
    with pytest.raises(CapabilityError):
        eval_pfa_pathsum(minplus_walk(), ())


def test_minplus_walk_counts_letters():
    walk = minplus_walk()
    for n in range(6):
        assert eval_word(walk, word(n)) == n


def test_npfa_choice_semantics():
    a = choice_npfa()
    assert eval_npfa(a, word(1), "max") == 1
    assert eval_npfa(a, word(1), "min") == 0
    assert eval_npfa(a, word(1), "interval") == (0, 1)
    assert eval_word(a, word(1)) == (0, 1)
    assert eval_npfa(a, (), "interval") == (0, 0)


def test_eval_word_respects_maxmin_modes():
    from effectfa import INTERVAL_MAX, INTERVAL_MIN
    from dataclasses import replace

    base = choice_npfa()
    maxed = replace(base, output_algebra=INTERVAL_MAX)
    mined = replace(base, output_algebra=INTERVAL_MIN)
    for n in range(4):
        w = word(n)
        assert eval_word(maxed, w) == eval_npfa(base, w, "max")
        assert eval_word(mined, w) == eval_npfa(base, w, "min")


def test_npfa_needs_convex_and_known_mode():
    with pytest.raises(CapabilityError):
        eval_npfa(coin_pfa(), (), "max")
    with pytest.raises(InputError):
        eval_npfa(choice_npfa(), (), "best")


def test_min_at_most_max_on_random_npfas():
    rng = random.Random(4)
    for _ in range(100):
        a = rand_npfa(rng, rng.randint(1, 3), rng.randint(1, 2), 3)
        for w in words_upto(a.alphabet, 5):
            lo = eval_npfa(a, w, "min")
            hi = eval_npfa(a, w, "max")
            assert lo <= hi


def test_singleton_generator_npfa_matches_pfa():
    rng = random.Random(6)
    for _ in range(10):
        pfa = rand_pfa(rng, 3, 2, pure_init=False)
        npfa = EffAutomaton(
            monad=CONVEX,
            states=pfa.states,
            alphabet=pfa.alphabet,
            init=ConvexSet([pfa.init]),
            trans={k: ConvexSet([d]) for k, d in pfa.trans.items()},
            output={q: convex_output(v) for q, v in pfa.output.items()},
            output_algebra=INTERVAL_PAIR,
        )
        for w in words_upto(pfa.alphabet, 3):
            expected = eval_pfa_pathsum(pfa, w)
            assert eval_npfa(npfa, w, "max") == expected
            assert eval_npfa(npfa, w, "min") == expected
            assert eval_npfa(npfa, w, "interval") == (expected, expected)


def test_interval_bounds_attained_by_generator_selections():
    rng = random.Random(8)
    for _ in range(10):
        a = rand_npfa(rng, rng.randint(1, 3), 1, 3)
        for w in words_upto(a.alphabet, 4):
            lo, hi = eval_npfa(a, w, "interval")
            assert lo == npfa_brute_force(a, w, "min")
            assert hi == npfa_brute_force(a, w, "max")


def _forward_hull_interval(a, w):
    """(min low, max high) over the generators of the forward-propagated hull."""
    final = bind(a.init, iterated_transition(a, w))
    los = [sum((x * a.output[q][0] for q, x in d.items()), F(0)) for d in final.generators]
    his = [sum((x * a.output[q][1] for q, x in d.items()), F(0)) for d in final.generators]
    return (min(los), max(his))


def test_eval_word_matches_dp_for_convex():
    # The oracle pushes convex sets forward; eval_word runs the backward DP.
    rng = random.Random(15)
    for _ in range(10):
        a = rand_npfa(rng, 2, 2, 3, pure_init=False)
        for w in words_upto(a.alphabet, 4):
            assert eval_word(a, w) == _forward_hull_interval(a, w)


def _fraction_dp(a, w, mode):
    """The backward generator DP on plain `Fraction`s, one side at a time:
    per state, collapse each generator of its transition value through the
    table of the suffix and keep the optimum.  Written out here, apart from
    the library's integer kernel, as its oracle."""
    sides = {"max": [(max, 1)], "min": [(min, 0)], "interval": [(min, 0), (max, 1)]}

    def collapse_through(value, table, opt):
        return opt(
            sum((p * table[r] for r, p in g.items()), F(0)) for g in value.generators
        )

    values = []
    for opt, comp in sides[mode]:
        table = {q: a.output[q][comp] for q in a.states}
        for x in reversed(w):
            table = {
                q: collapse_through(a.trans[(q, x)], table, opt) for q in a.states
            }
        values.append(collapse_through(a.init, table, opt))
    return tuple(values) if len(values) == 2 else values[0]


def _thirds_fifths_sevenths(rng, carrier):
    den = rng.choice([3, 5, 7, 15, 21, 35])
    counts = [0] * len(carrier)
    for _ in range(den):
        counts[rng.randrange(len(carrier))] += 1
    return Dist({x: F(k, den) for x, k in zip(carrier, counts) if k})


def _convex_machine(rng, n, letters, algebra):
    states = tuple(f"q{i}" for i in range(n))
    alphabet = ("a", "b")[:letters]

    def hull():
        return ConvexSet(
            [_thirds_fifths_sevenths(rng, states) for _ in range(rng.randint(1, 3))]
        )

    def out():
        lo = F(rng.randint(0, 7), 7)
        hi = lo if rng.random() < 0.7 else lo + (1 - lo) * F(rng.randint(0, 5), 5)
        return convex_output((lo, hi))

    return EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=alphabet,
        init=hull() if rng.random() < 0.5 else unit(CONVEX, states[0]),
        trans={(q, x): hull() for q in states for x in alphabet},
        output={q: out() for q in states},
        output_algebra=algebra,
    )


def test_integer_convex_kernel_matches_a_fraction_dp():
    rng = random.Random(909)
    modes = {INTERVAL_PAIR: "interval", INTERVAL_MAX: "max", INTERVAL_MIN: "min"}
    for k in range(36):
        algebra = list(modes)[k % 3]
        a = _convex_machine(rng, 1 + k % 3, 1 + k % 2, algebra)
        words = [tuple(rng.choice(a.alphabet) for _ in range(n)) for n in (0, 1, 7, 30)]
        for w in words:
            assert eval_word(a, w) == _fraction_dp(a, w, modes[algebra])
            for mode in ("max", "min", "interval"):
                assert eval_npfa(a, w, mode) == _fraction_dp(a, w, mode)
        for w, v in word_values(a, 4):
            assert v == _fraction_dp(a, w, modes[algebra])
        # The kernel's table stays in lowest terms along the longest word.
        table, step, _, backward = _kernel(a, a.alphabet)
        assert backward
        for x in reversed(words[-1]):
            table = step(table, x)
            nums, den = table
            assert gcd(den, *nums) == 1


def test_eval_word_on_convex_machine_wider_than_choice_limit():
    # From a uniform start on n states, one letter step needs 2**n generator
    # choices.  State q_i outputs 1 if i is even, else 0, and on "a" either
    # stays or moves to q0/q1 with probability 1/2 each.  After k letters the
    # interval is [2**-(k+1), 1 - 2**-(k+1)].
    n = 18
    assert 2**n > CONVEX_CHOICE_LIMIT
    states = tuple(f"q{i}" for i in range(n))
    mix = Dist({"q0": F(1, 2), "q1": F(1, 2)})
    a = EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=("a",),
        init=ConvexSet([Dist({q: F(1, n) for q in states})]),
        trans={(q, "a"): ConvexSet([Dist({q: 1}), mix]) for q in states},
        output={q: convex_output(1 - i % 2) for i, q in enumerate(states)},
        output_algebra=INTERVAL_PAIR,
    )
    for k in range(6):
        edge = F(1, 2 ** (k + 1))
        assert eval_word(a, word(k)) == (edge, 1 - edge)


def test_purify_pure_machine_is_inert():
    coin = coin_pfa()
    pure = purify_initial(coin)
    assert len(pure.states) == len(coin.states) + 1
    for n in range(9):
        assert eval_word(pure, word(n)) == eval_word(coin, word(n))


def test_purify_mixed_dist_initial():
    coin = coin_pfa()
    mixed = EffAutomaton(
        monad=DIST,
        states=coin.states,
        alphabet=coin.alphabet,
        init=Dist({"q0": F(1, 2), "q1": F(1, 2)}),
        trans=coin.trans,
        output=coin.output,
        output_algebra=UNIT_INTERVAL,
    )
    pure = purify_initial(mixed)
    assert pure.init_pure_state() is not None
    for n in range(9):
        assert eval_word(pure, word(n)) == eval_word(mixed, word(n))


def test_purify_weighted_language_preserved():
    rng = random.Random(10)
    for name in ("boolean", "rational", "minplus"):
        a = rand_wfa(rng, name, 3, 1)
        pure = purify_initial(a)
        for w in words_upto(a.alphabet, 8):
            assert a.monad.semiring.eq(eval_word(pure, w), eval_word(a, w))
        b = rand_wfa(rng, name, 2, 2)
        pure = purify_initial(b)
        for w in words_upto(b.alphabet, 8):
            assert b.monad.semiring.eq(eval_word(pure, w), eval_word(b, w))


def test_purify_convex_preserves_interval_language():
    rng = random.Random(12)
    for _ in range(6):
        a = rand_npfa(rng, 2, 2, 2, pure_init=False)
        pure = purify_initial(a)
        for w in words_upto(a.alphabet, 8):
            assert eval_npfa(pure, w, "interval") == eval_npfa(a, w, "interval")


def test_is_pure_automaton():
    assert not is_pure_automaton(coin_pfa())
    dirac = lambda q: Dist({q: 1})
    dfa = EffAutomaton(
        monad=DIST,
        states=("s",),
        alphabet=("a",),
        init=unit(DIST, "s"),
        trans={("s", "a"): dirac("s")},
        output={"s": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    assert is_pure_automaton(dfa)


def test_output_algebra_compatibility_enforced():
    with pytest.raises(InterfaceError):
        EffAutomaton(
            monad=DIST,
            states=("s",),
            alphabet=("a",),
            init=unit(DIST, "s"),
            trans={("s", "a"): Dist({"s": 1})},
            output={"s": F(1)},
            output_algebra=INTERVAL_PAIR,
        )


def test_transition_totality_enforced():
    with pytest.raises(InterfaceError):
        EffAutomaton(
            monad=DIST,
            states=("s", "t"),
            alphabet=("a",),
            init=unit(DIST, "s"),
            trans={("s", "a"): Dist({"s": 1})},
            output={"s": F(1), "t": F(0)},
            output_algebra=UNIT_INTERVAL,
        )


def test_missing_transitions_are_listed_in_declared_order():
    # The pairs follow states x letters, whatever the string hash seed.
    with pytest.raises(InterfaceError) as e:
        EffAutomaton(
            monad=DIST,
            states=("s", "t"),
            alphabet=("a", "b"),
            init=unit(DIST, "s"),
            trans={("t", "a"): Dist({"s": 1})},
            output={"s": F(1), "t": F(0)},
            output_algebra=UNIT_INTERVAL,
        )
    assert str(e.value) == (
        "transition table not total; missing [('s', 'a'), ('s', 'b'), ('t', 'b')]"
    )


def test_convex_transition_off_the_states_is_rejected():
    with pytest.raises(InterfaceError):
        EffAutomaton(
            monad=CONVEX,
            states=("q",),
            alphabet=("a",),
            init=unit(CONVEX, "q"),
            trans={("q", "a"): ConvexSet([Dist({"q": 1}), Dist({"zz": 1})])},
            output={"q": convex_output(1)},
            output_algebra=INTERVAL_PAIR,
        )


def test_initial_value_off_the_states_is_rejected():
    with pytest.raises(InterfaceError):
        EffAutomaton(
            monad=DIST,
            states=("q",),
            alphabet=("a",),
            init=Dist({"q": F(1, 2), "zz": F(1, 2)}),
            trans={("q", "a"): Dist({"q": 1})},
            output={"q": F(1)},
            output_algebra=UNIT_INTERVAL,
        )


def test_float_rational_weight_is_rejected():
    rational = weighted("rational")
    with pytest.raises(InterfaceError, match="inexact"):
        EffAutomaton(
            monad=rational,
            states=("p",),
            alphabet=("a",),
            init=WeightedVec(rational.semiring, {"p": F(1)}),
            trans={("p", "a"): WeightedVec(rational.semiring, {"p": 0.5})},
            output={"p": F(1)},
            output_algebra=SEMIRING_SELF,
        )


@pytest.mark.parametrize(
    "monad, algebra, value",
    [(DIST, UNIT_INTERVAL, 0.5), (CONVEX, INTERVAL_PAIR, (F(0), 0.5))],
    ids=["dist", "convex"],
)
def test_float_output_is_rejected(monad, algebra, value):
    with pytest.raises(InterfaceError, match="exact"):
        EffAutomaton(
            monad=monad,
            states=("q",),
            alphabet=("a",),
            init=unit(monad, "q"),
            trans={("q", "a"): unit(monad, "q")},
            output={"q": value},
            output_algebra=algebra,
        )


def test_letter_channels_are_built_once():
    coin = coin_pfa()
    assert coin.letter_channel("a") is coin.letter_channel("a")
    assert coin.letter_channel("a") == Channel(
        DIST, coin.states, coin.states, {q: coin.trans[(q, "a")] for q in coin.states}
    )
    with pytest.raises(InputError):
        coin.letter_channel("b")


# ---------------------------------------------------------------------------
# Linear machines evaluate on the integer kernel; the oracle below is the
# Fraction fold of ``bind`` over the letter channels, written out here.


def bind_fold_value(a, w):
    v = a.init
    for x in w:
        v = bind(v, a.letter_channel(x))
    return collapse(a.monad, a.output_algebra, v, a.output)


def rational_machine(states, alphabet, init, trans, output):
    """A rational-weighted machine from plain weight dicts."""
    rational = weighted("rational")
    s = rational.semiring
    return EffAutomaton(
        monad=rational,
        states=states,
        alphabet=alphabet,
        init=WeightedVec(s, init),
        trans={k: WeightedVec(s, v) for k, v in trans.items()},
        output=output,
        output_algebra=SEMIRING_SELF,
    )


def test_eval_word_matches_bind_fold_on_seeded_dist_machines():
    rng = random.Random(404)
    for _ in range(12):
        a = rand_pfa(
            rng,
            rng.randint(1, 5),
            rng.randint(1, 2),
            max_den=rng.randint(1, 9),
            pure_init=rng.random() < 0.5,
        )
        for w in words_upto(a.alphabet, 4):
            value = eval_word(a, w)
            assert value == bind_fold_value(a, w)
            assert value == eval_pfa_pathsum(a, w)
        for _ in range(3):
            w = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(5, 60)))
            assert eval_word(a, w) == bind_fold_value(a, w)


def test_eval_word_matches_bind_fold_on_rational_machines_with_negative_weights():
    rng = random.Random(405)
    negative = 0
    for _ in range(12):
        a = rand_wfa(rng, "rational", rng.randint(1, 5), rng.randint(1, 2))
        negative += any(
            x < 0 for t in a.trans.values() for _, x in t.items()
        )
        for w in list(words_upto(a.alphabet, 4)) + [
            tuple(rng.choice(a.alphabet) for _ in range(40))
        ]:
            assert eval_word(a, w) == bind_fold_value(a, w)
    assert negative > 0


def test_eval_word_when_every_numerator_cancels_part_way():
    # Every reachable vector is a multiple of (1, 2): 'a' keeps that line,
    # and on 'z' the two states' weights cancel exactly to the zero vector.
    a = rational_machine(
        ("p", "q"),
        ("a", "z"),
        {"p": F(1, 3), "q": F(2, 3)},
        {
            ("p", "a"): {"p": F(1, 2), "q": F(1, 5)},
            ("q", "a"): {"p": F(-3, 7), "q": F(-16, 35)},
            ("p", "z"): {"p": F(2, 3), "q": F(-4, 9)},
            ("q", "z"): {"p": F(-1, 3), "q": F(2, 9)},
        },
        {"p": F(5, 2), "q": F(-1, 4)},
    )
    for w in [("z",), ("a", "z"), ("z", "a", "a"), ("a",) * 5 + ("z",) + ("a",) * 5]:
        assert eval_word(a, w) == 0 == bind_fold_value(a, w)
    for n in range(6):
        assert eval_word(a, word(n)) == bind_fold_value(a, word(n)) != 0
    for w in words_upto(a.alphabet, 4):
        assert eval_word(a, w) == bind_fold_value(a, w)


def test_eval_word_with_int_weights_and_outputs():
    a = rational_machine(
        ("p", "q"),
        ("a", "b"),
        {"p": 1, "q": -2},
        {
            ("p", "a"): {"p": 2, "q": 1},
            ("q", "a"): {"q": -1},
            ("p", "b"): {"q": 3},
            ("q", "b"): {"p": 1, "q": 1},
        },
        {"p": 1, "q": 0},
    )
    for w in words_upto(a.alphabet, 4):
        assert eval_word(a, w) == bind_fold_value(a, w)
    coin = coin_pfa()
    dist_int_outputs = EffAutomaton(
        monad=DIST,
        states=coin.states,
        alphabet=coin.alphabet,
        init=coin.init,
        trans=coin.trans,
        output={"q0": 0, "q1": 1},
        output_algebra=UNIT_INTERVAL,
    )
    for n in range(6):
        assert eval_word(dist_int_outputs, word(n)) == 1 - F(1, 2**n)


def test_eval_word_on_the_empty_word_is_the_initial_collapse():
    rng = random.Random(406)
    machines = [coin_pfa(), rand_pfa(rng, 3, 2, pure_init=False)]
    machines += [rand_wfa(rng, "rational", 3, 2) for _ in range(3)]
    for a in machines:
        assert eval_word(a, ()) == collapse(
            a.monad, a.output_algebra, a.init, a.output
        )


def test_eval_word_on_a_thousand_letters():
    assert eval_word(coin_pfa(), word(1000)) == 1 - F(1, 2**1000)
    rng = random.Random(407)
    for a in (rand_pfa(rng, 3, 2, pure_init=False), rand_wfa(rng, "rational", 3, 2)):
        w = tuple(rng.choice(a.alphabet) for _ in range(1000))
        assert eval_word(a, w) == bind_fold_value(a, w)


def test_eval_word_on_a_hundred_thousand_letters():
    # Blocks of a unary word are its powers of two, so this is repeated
    # squaring: a few dozen steps, not one per letter.
    assert eval_word(coin_pfa(), word(100_000)) == 1 - F(1, 2**100_000)


def test_eval_word_rejects_unknown_letters_on_linear_machines():
    rng = random.Random(408)
    for a in (coin_pfa(), rand_wfa(rng, "rational", 2, 2)):
        for w in [("z",), ("a",) * 50 + ("z",), ("a", "z", "a")]:
            with pytest.raises(InputError):
                eval_word(a, w)


# Letters of the blocked-fold property: a tuple letter next to the two
# strings it is made of, so a block's key can never stand for a letter.
MIXED_LETTERS = ("a", "b", ("a", "b"))


def _mixed_words(max_len):
    """Words over :data:`MIXED_LETTERS`: of length 0, 1 or 2, and long
    ones of at least half ``max_len`` letters, odd lengths included, both
    periodic (a short pattern repeated and cut) and arbitrary."""
    letter = st.sampled_from(MIXED_LETTERS)
    length = st.integers(max_len // 2, max_len)
    periodic = st.builds(
        lambda pattern, n: tuple((pattern * n)[:n]),
        st.lists(letter, min_size=1, max_size=3),
        length,
    )
    arbitrary = length.flatmap(lambda n: st.lists(letter, min_size=n, max_size=n))
    short = st.lists(letter, max_size=2)
    return st.one_of(short.map(tuple), periodic, arbitrary.map(tuple))


def _with_mixed_letters(a, third):
    """``a`` (over ``a`` and ``b``) with the letter ``('a', 'b')`` added,
    whose transition from each state ``q`` is ``third[(q, 'a')]``."""
    trans = dict(a.trans)
    for q in a.states:
        trans[(q, MIXED_LETTERS[2])] = third[(q, "a")]
    return replace(a, alphabet=MIXED_LETTERS, trans=trans)


def fraction_fold(a, w):
    """The initial row times the letter matrices of ``w`` times the output
    column, by `Fraction` vector-matrix products read off the transitions."""
    v = [a.init.weight(q) for q in a.states]
    for x in w:
        v = [
            sum((c * a.trans[(q, x)].weight(p) for c, q in zip(v, a.states)), F(0))
            for p in a.states
        ]
    return sum((c * a.output[q] for c, q in zip(v, a.states)), F(0))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2), _mixed_words(10))
@example(0, 1, ("a",) * 10)
@example(1, 2, (("a", "b"), "a") * 5)
def test_blocked_fold_matches_path_sums_on_dist_machines(seed, n, w):
    rng = random.Random(seed)
    a = rand_pfa(rng, n, 2, pure_init=False)
    a = _with_mixed_letters(a, rand_pfa(rng, n, 1).trans)
    assert eval_word(a, w) == eval_pfa_pathsum(a, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), _mixed_words(80))
@example(0, 2, ("a",) * 77)
@example(1, 3, ("b", ("a", "b"), "a") * 21)
def test_blocked_fold_matches_fraction_folds_on_rational_machines(seed, n, w):
    rng = random.Random(seed)
    a = rand_wfa(rng, "rational", n, 2)
    a = _with_mixed_letters(a, rand_wfa(rng, "rational", n, 1).trans)
    assert eval_word(a, w) == fraction_fold(a, w)


def test_many_states_on_a_short_word_build_no_block():
    rng = random.Random(409)
    a = rand_pfa(rng, 12, 2, pure_init=False)
    w = tuple(rng.choice(a.alphabet) for _ in range(20))
    # The rule's inputs: 10 pairs of at most 4 kinds, 12 states, one vector,
    # the word read backward from the output column.
    ids = {x: i for i, x in enumerate(dict.fromkeys(w))}
    tokens = [ids[x] for x in reversed(w)]
    assert _pairing(tokens, len(ids), 12, 1) == ([], tokens)
    assert eval_word(a, w) == fraction_fold(a, w)
    # The same word on two states is read in blocks, to the same value.
    small = rand_pfa(rng, 2, 2, pure_init=False)
    pairs, blocked = _pairing(tokens, len(ids), 2, 1)
    assert pairs and len(blocked) < len(w)
    assert eval_word(small, w) == fraction_fold(small, w)


def _word_tree_machines(rng):
    yield coin_pfa()
    yield rand_pfa(rng, 3, 2, pure_init=False)
    for name in ("rational", "minplus", "maxplus", "boolean"):
        yield rand_wfa(rng, name, 3, 2)
    yield rand_npfa(rng, 3, 2, 2, pure_init=False)
    for algebra in (INTERVAL_MAX, INTERVAL_MIN):
        yield replace(rand_npfa(rng, 2, 2, 3), output_algebra=algebra)


@pytest.mark.parametrize("seed", [8, 9])
def test_word_values_match_eval_word_in_words_upto_order(seed):
    for a in _word_tree_machines(random.Random(seed)):
        for alphabet in (a.alphabet, a.alphabet[::-1]):
            got = list(word_values(a, 4, alphabet))
            assert [w for w, _ in got] == list(words_upto(alphabet, 4))
            for w, v in got:
                assert v == eval_word(a, w)
                assert type(v) is type(eval_word(a, w))


def test_word_values_reduce_linear_vectors_like_eval_word():
    # 1/3 and 1/6 weights: denominators grow and cancel along the tree
    rat = weighted("rational")
    s = rat.semiring
    a = EffAutomaton(
        monad=rat,
        states=("p", "q"),
        alphabet=("a", "b"),
        init=WeightedVec(s, {"p": F(1, 2), "q": F(-1, 4)}),
        trans={
            ("p", "a"): WeightedVec(s, {"p": F(1, 3), "q": F(2, 3)}),
            ("q", "a"): WeightedVec(s, {"p": F(-1, 6)}),
            ("p", "b"): WeightedVec(s, {"q": 6}),
            ("q", "b"): WeightedVec(s, {"p": F(3, 2), "q": F(1, 2)}),
        },
        output={"p": F(1), "q": F(-2)},
        output_algebra=SEMIRING_SELF,
    )
    for w, v in word_values(a, 6):
        assert v == eval_word(a, w)


def test_word_values_reject_unknown_letters():
    with pytest.raises(InputError):
        next(word_values(coin_pfa(), 2, ("a", "z")))
    with pytest.raises(InputError):
        next(word_values(choice_npfa(), 2, ("a", "z")))


def test_convex_eval_names_the_first_unknown_letter():
    # The backward DP reads the word right to left, but the kernel looks its
    # letters up in word order, as every other machine does.
    for a in (coin_pfa(), choice_npfa()):
        with pytest.raises(InputError, match="'z'"):
            eval_word(a, ("z", "y"))
    with pytest.raises(InputError, match="'z'"):
        eval_npfa(choice_npfa(), ("a", "z", "y"), "max")


def test_disagreements_come_in_words_upto_order():
    coin = coin_pfa()
    # outputs swapped on the absorbing state only from length 2 on
    other = replace(
        coin,
        trans={**coin.trans, ("q0", "a"): Dist({"q0": F(1, 4), "q1": F(3, 4)})},
    )
    got = list(disagreements(coin, other, 3))
    assert [w for w, _, _ in got] == [word(1), word(2), word(3)]
    assert got[0] == (word(1), F(1, 2), F(3, 4))
    assert list(disagreements(coin, coin, 5)) == []


def test_a_difference_on_the_empty_word_takes_no_closure_step(monkeypatch):
    from effectfa import automata

    # The walk steps the kernels the closure built, so only the steps taken
    # inside ``_equivalent`` are counted, each as the pair it decides.
    steps = []
    deciding = []

    def recording(m, letters, algebra=None):
        start, step, read, backward = _kernel(m, letters, algebra)

        def counted(v, x):
            steps.extend(deciding)
            return step(v, x)

        return start, counted, read, backward

    def equivalent(a, b, *args):
        deciding.append((a, b))
        try:
            return _equivalent(a, b, *args)
        finally:
            deciding.clear()

    coin = coin_pfa()
    later = replace(
        coin,
        trans={**coin.trans, ("q0", "a"): Dist({"q0": F(1, 4), "q1": F(3, 4)})},
    )
    at_eps = replace(coin, output={"q0": F(1, 2), "q1": F(1)})
    rational = rand_wfa(random.Random(927), "rational", 2, 2)  # value -2/3 on eps
    doubled = replace(rational, output={q: 2 * v for q, v in rational.output.items()})
    pairs = [(coin, at_eps), (rational, doubled), (coin, later)]
    expected = [
        [
            (w, va, vb)
            for w in words_upto(a.alphabet, 3)
            for va, vb in [(eval_word(a, w), eval_word(b, w))]
            if va != vb
        ]
        for a, b in pairs
    ]
    monkeypatch.setattr(automata, "_kernel", recording)
    monkeypatch.setattr(automata, "_equivalent", equivalent)
    for (a, b), want in zip(pairs[:2], expected):
        got = list(disagreements(a, b, 3))
        assert got == want and got[0][0] == ()
    assert steps == []
    # A pair that agrees on the empty word is stepped until it differs.
    assert list(disagreements(coin, later, 3)) == expected[2]
    assert steps and all(pair == (coin, later) for pair in steps)


def test_the_linear_kernel_converts_a_letter_when_a_step_reads_it(monkeypatch):
    from effectfa import automata

    converted = []

    def counting(lines, index):
        converted.append(len(lines))
        return _int_lines(lines, index)

    two = EffAutomaton(
        monad=DIST,
        states=("p", "q"),
        alphabet=("a", "b"),
        init=unit(DIST, "p"),
        trans={
            ("p", "a"): Dist({"p": F(1, 2), "q": F(1, 2)}),
            ("p", "b"): Dist({"q": F(1)}),
            ("q", "a"): Dist({"q": F(1)}),
            ("q", "b"): Dist({"p": F(1, 3), "q": F(2, 3)}),
        },
        output={"p": F(0), "q": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    at_eps = replace(two, output={"p": F(1, 2), "q": F(1)})
    at_a = replace(two, trans={**two.trans, ("p", "a"): Dist({"p": F(1, 4), "q": F(3, 4)})})
    monkeypatch.setattr(automata, "_int_lines", counting)
    assert _equivalent(two, at_eps, 3) is False
    assert converted == []
    # The first step reads a and differs, so b is never converted: two
    # rows per machine.
    assert _equivalent(two, at_a, 3) is False
    assert converted == [2, 2]
    monkeypatch.undo()
    for b in (at_eps, at_a):
        want = [
            (w, va, vb)
            for w in words_upto(two.alphabet, 3)
            for va, vb in [(eval_word(two, w), eval_word(b, w))]
            if va != vb
        ]
        assert want and list(disagreements(two, b, 3)) == want


@pytest.mark.parametrize("name", ["minplus", "maxplus"])
def test_inexact_tropical_weight_is_rejected(name):
    monad = weighted(name)
    s = monad.semiring
    with pytest.raises(InterfaceError, match="inexact"):
        EffAutomaton(
            monad=monad,
            states=("q",),
            alphabet=("a",),
            init=WeightedVec(s, {"q": 0}),
            trans={("q", "a"): WeightedVec(s, {"q": 0.5})},
            output={"q": 0},
            output_algebra=SEMIRING_SELF,
        )


@pytest.mark.parametrize("name, bad", [("minplus", 0.5), ("maxplus", True)])
def test_inexact_tropical_output_is_rejected(name, bad):
    monad = weighted(name)
    s = monad.semiring
    with pytest.raises(InterfaceError, match="exact"):
        EffAutomaton(
            monad=monad,
            states=("q",),
            alphabet=("a",),
            init=WeightedVec(s, {"q": 0}),
            trans={("q", "a"): WeightedVec(s, {"q": 1})},
            output={"q": bad},
            output_algebra=SEMIRING_SELF,
        )


def test_tropical_infinity_is_an_exact_weight():
    for name, inf in (("minplus", INF), ("maxplus", NEG_INF)):
        monad = weighted(name)
        s = monad.semiring
        a = EffAutomaton(
            monad=monad,
            states=("q", "r"),
            alphabet=("a",),
            init=WeightedVec(s, {"q": 0}),
            trans={("q", "a"): WeightedVec(s, {"r": 2}), ("r", "a"): WeightedVec(s, {})},
            output={"q": inf, "r": 1},
            output_algebra=SEMIRING_SELF,
        )
        assert eval_word(a, word(1)) == 3
        assert eval_word(a, word(2)) is inf


# Column kernels of the non-rational semirings, checked against the ``bind``
# fold above (``bind_fold_value``) in value and type.


def _sparse_wfa(rng, name, n_states, pure_init, empty_rows=0.3, dead_letter=False):
    """A seeded 2-letter machine whose letter rows are empty (all zero) with
    probability ``empty_rows``; with ``dead_letter`` every row of ``b`` is
    empty, so a word's vector is all zero from its first ``b`` on."""
    monad = weighted(name)
    s = monad.semiring
    states = tuple(f"q{i}" for i in range(n_states))

    def weight():
        if name == "boolean":
            return True
        return rng.randint(-2, 5) if rng.random() < 0.9 else s.zero

    def row(empty):
        if empty:
            return WeightedVec(s, {})
        return WeightedVec(s, {q: weight() for q in states if rng.random() < 0.6})

    init = (
        unit(monad, states[0])
        if pure_init
        else WeightedVec(s, {q: weight() for q in states if rng.random() < 0.7})
    )
    trans = {
        (q, x): row(rng.random() < empty_rows or (dead_letter and x == "b"))
        for q in states
        for x in ("a", "b")
    }
    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=("a", "b"),
        init=init,
        trans=trans,
        output={q: weight() if rng.random() < 0.8 else s.zero for q in states},
        output_algebra=SEMIRING_SELF,
    )


def _kernel_machines(seed):
    rng = random.Random(seed)
    for name in ("minplus", "maxplus", "boolean"):
        for n in (1, 3, 6):
            for pure_init in (True, False):
                yield _sparse_wfa(rng, name, n, pure_init)
        yield _sparse_wfa(rng, name, 4, False, empty_rows=1.0)  # every row empty
        yield _sparse_wfa(rng, name, 4, False, dead_letter=True)
        yield rand_wfa(rng, name, 4, 2)


@pytest.mark.parametrize("seed", [910, 911])
def test_semiring_kernel_matches_the_bind_fold(seed):
    rng = random.Random(seed + 1000)
    for a in _kernel_machines(seed):
        words = [(), ("a",), ("b",), ("a", "b", "a"), ("b", "a", "a")]
        words += [tuple(rng.choice("ab") for _ in range(k)) for k in (7, 40)]
        words.append(tuple(rng.choice("aaaab") for _ in range(1000)))
        for w in words:
            want = bind_fold_value(a, w)
            got = eval_word(a, w)
            assert got == want, (a.monad, w)
            assert type(got) is type(want)
        for w, v in word_values(a, 5):
            want = bind_fold_value(a, w)
            assert v == want and type(v) is type(want)


def test_semiring_kernel_vectors_that_die_part_way():
    s = weighted("minplus").semiring
    a = EffAutomaton(
        monad=weighted("minplus"),
        states=("p", "q"),
        alphabet=("a", "b"),
        init=WeightedVec(s, {"p": 0, "q": 4}),
        trans={
            ("p", "a"): WeightedVec(s, {"q": 1}),
            ("q", "a"): WeightedVec(s, {"p": 2}),
            ("p", "b"): WeightedVec(s, {}),
            ("q", "b"): WeightedVec(s, {"q": 0}),
        },
        output={"p": 0, "q": INF},
        output_algebra=SEMIRING_SELF,
    )
    assert eval_word(a, ()) == 0
    assert eval_word(a, ("a", "a")) == 3
    # After 'a b' only q carries weight, and q's output is infinite.
    assert eval_word(a, ("a", "b")) is INF
    # After 'b b a' only p is live (from q); after 'a b a b' nothing is.
    assert eval_word(a, ("b", "b", "a")) == 6
    assert eval_word(a, ("a", "b", "a", "b") + ("a",) * 996) is INF
    assert eval_word(a, ("b", "a", "b", "a")) is INF


# Min-plus and max-plus kernels step offset-normalised configurations and
# remember each step.  Their oracles add weights along state paths and never
# normalise.


def tropical_path_value(a, w):
    """The optimum over state paths of init weight, transition weights and
    output weight along ``w`` (``min`` for min-plus, ``max`` for max-plus),
    kept per state in a dict: a forward programme over paths, written apart
    from the kernel."""
    s = a.monad.semiring
    opt = min if s.name == "minplus" else max
    best = dict(a.init.items())
    for x in w:
        reach = {}
        for q, v in best.items():
            for p, c in a.trans[(q, x)].items():
                reach[p] = v + c if p not in reach else opt(reach[p], v + c)
        best = reach
    ends = [v + a.output[q] for q, v in best.items() if a.output[q] is not s.zero]
    return opt(ends) if ends else s.zero


def _tropical_machines(seed):
    rng = random.Random(seed)
    for name in ("minplus", "maxplus"):
        for n in (1, 2, 5, 12):
            yield _sparse_wfa(rng, name, n, True)
            yield _sparse_wfa(rng, name, n, False, empty_rows=0.5)
            yield _sparse_wfa(rng, name, n, False, dead_letter=True)
            yield rand_wfa(rng, name, n, 2)


@pytest.mark.parametrize("seed", [950, 951])
def test_tropical_eval_matches_the_path_optimum(seed):
    rng = random.Random(seed + 1000)
    dead = live = partial = 0
    for a in _tropical_machines(seed):
        words = [(), ("a",), ("b", "a")]
        words += [tuple(rng.choice("ab") for _ in range(k)) for k in (9, 300)]
        words += [tuple(rng.choice("aaaaaaab") for _ in range(1000)), ("a",) * 1000]
        for w in words:
            want = tropical_path_value(a, w)
            got = eval_word(a, w)
            assert got == want and type(got) is type(want), (a.monad, w)
            if len(w) <= 9:
                pushed = bind(a.init, iterated_transition(a, w))
                assert got == collapse(a.monad, a.output_algebra, pushed, a.output)
            start, step, _, _ = _kernel(a, a.alphabet)
            v = start
            for x in w:
                v = step(v, x)
            config, offset = v
            finite = [y for y in config if y is not a.monad.semiring.zero]
            assert (offset is None) == (not finite)
            dead += not finite
            live += bool(finite)
            partial += 0 < len(finite) < len(config)
    assert dead and live and partial


def _counter(name="minplus"):
    """Two states that count the ``a``s and the ``b``s read: ``min(#a, #b)``
    on min-plus, ``max(#a, #b)`` on max-plus."""
    monad = weighted(name)
    s = monad.semiring
    return EffAutomaton(
        monad=monad,
        states=("p", "q"),
        alphabet=("a", "b"),
        init=WeightedVec(s, {"p": 0, "q": 0}),
        trans={
            ("p", "a"): WeightedVec(s, {"p": 1}),
            ("p", "b"): WeightedVec(s, {"p": 0}),
            ("q", "a"): WeightedVec(s, {"q": 0}),
            ("q", "b"): WeightedVec(s, {"q": 1}),
        },
        output={"p": 0, "q": 0},
        output_algebra=SEMIRING_SELF,
    )


def test_the_counter_gives_the_least_letter_count():
    a = _counter()
    for k in (0, 1, 2, 7, 1000, 5000):
        assert eval_word(a, word(k)) == 0
        assert eval_word(a, ("a", "b") * k) == k
        assert eval_word(a, word(k, "b") + word(k + 3)) == k
    rng = random.Random(952)
    for _ in range(20):
        w = tuple(rng.choice("aab") for _ in range(rng.randint(0, 400)))
        assert eval_word(a, w) == min(w.count("a"), w.count("b"))
        assert eval_word(_counter("maxplus"), w) == max(w.count("a"), w.count("b"))


def _configurations(a, limit=200):
    """Every offset-normalised vector reachable in ``a``, by a search over
    the path programme's dicts: a vector minus the optimum of its entries.
    None if there are more than ``limit``."""
    s = a.monad.semiring
    opt = min if s.name == "minplus" else max

    def normal(best):
        low = opt(best.values()) if best else 0
        return frozenset((q, v - low) for q, v in best.items())

    def forward(best, x):
        reach = {}
        for q, v in best:
            for p, c in a.trans[(q, x)].items():
                reach[p] = v + c if p not in reach else opt(reach[p], v + c)
        return reach

    seen = {normal(dict(a.init.items()))}
    todo = list(seen)
    while todo:
        config = todo.pop()
        for x in a.alphabet:
            nxt = normal(forward(config, x))
            if nxt not in seen:
                if len(seen) == limit:
                    return None
                seen.add(nxt)
                todo.append(nxt)
    return seen


def test_a_long_word_steps_each_configuration_once_per_letter(monkeypatch):
    from effectfa import automata
    from effectfa.linalg import _semiring_step

    steps = [0]

    def counting(s):
        step = _semiring_step(s)

        def counted(v, cols):
            steps[0] += 1
            return step(v, cols)

        return counted

    monkeypatch.setattr(automata, "_semiring_step", counting)
    rng = random.Random(953)
    machines = [minplus_walk()]
    machines += [_closing_tropical_machine(name) for name in _CLOSING_TROPICAL]
    machines += list(_tropical_machines(954))
    closing = 0
    for a in machines:
        configs = _configurations(a)
        if configs is None:
            continue
        closing += 1
        w = tuple(rng.choice(a.alphabet) for _ in range(3000))
        steps[0] = 0
        assert eval_word(a, w) == tropical_path_value(a, w)
        # the fold's misses, plus the one output step of ``read``
        assert steps[0] <= len(configs) * len(a.alphabet) + 1, (a, len(configs))
    assert closing >= 20
    # the counter's configurations do not close, but on (a.b)^k it meets two
    steps[0] = 0
    assert eval_word(_counter(), ("a", "b") * 15000) == 15000
    assert steps[0] <= 2 * 2 + 1


def test_the_memo_bound_keeps_values_and_step_counts_below_it(monkeypatch):
    from effectfa import automata
    from effectfa.linalg import _semiring_step

    steps = [0]

    def counting(s):
        step = _semiring_step(s)

        def counted(v, cols):
            steps[0] += 1
            return step(v, cols)

        return counted

    def run(a, w, bound):
        monkeypatch.setattr(automata, "_TROPICAL_MEMO_BOUND", bound)
        steps[0] = 0
        return eval_word(a, w), steps[0]

    monkeypatch.setattr(automata, "_semiring_step", counting)
    rng = random.Random(955)
    machines = [minplus_walk(), _counter(), _counter("maxplus")]
    machines += [_closing_tropical_machine(name) for name in _CLOSING_TROPICAL]
    machines += list(_tropical_machines(956))
    full, bound = automata._TROPICAL_MEMO_BOUND, 6
    below = past = 0
    for a in machines:
        w = tuple(rng.choice(a.alphabet) for _ in range(2000))
        value, unbounded = run(a, w, full)
        bounded = run(a, w, bound)
        assert bounded[0] == value == tropical_path_value(a, w)
        configs = _configurations(a)
        if configs is not None and len(configs) <= bound:
            # No letter's memo fills: every configuration is stepped once.
            below += 1
            assert bounded == (value, unbounded)
        elif bounded[1] > unbounded:
            # A configuration the full memo did not take is stepped again.
            past += 1
    assert below >= 10 and past >= 10, (below, past)
    # The counter meets two configurations on (a.b)^k and a new one per
    # letter on a^k: a bound of 2 changes neither value nor step count.
    for w, value in ((("a", "b") * 3000, 3000), (word(3000), 0)):
        bounded = run(_counter(), w, 2)
        assert bounded == run(_counter(), w, full) and bounded[0] == value


def test_tropical_kernels_reject_unknown_letters():
    for a in (_counter(), _counter("maxplus"), minplus_walk()):
        with pytest.raises(InputError):
            eval_word(a, word(500) + ("z",))
        with pytest.raises(InputError):
            next(word_values(a, 2, ("a", "z")))


# 2x2 boolean matrices: a semiring whose multiplication does not commute.
_BZ = ((False, False), (False, False))
_BI = ((True, False), (False, True))


def _bmat_add(x, y):
    return tuple(tuple(p or q for p, q in zip(r, t)) for r, t in zip(x, y))


def _bmat_mul(x, y):
    return tuple(
        tuple(any(x[i][k] and y[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


BOOL_MATRICES = SemiringDescriptor(
    name="bool-2x2",
    zero=_BZ,
    one=_BI,
    add=_bmat_add,
    mul=_bmat_mul,
    is_add_idempotent=True,
    is_mul_commutative=False,
)


def _rand_bmat(rng):
    return tuple(tuple(rng.random() < 0.5 for _ in range(2)) for _ in range(2))


def test_bool_matrix_semiring_is_lawful_and_not_commutative():
    rng = random.Random(912)
    sample = [_rand_bmat(rng) for _ in range(5)]
    assert semiring_check(BOOL_MATRICES, sample) == []
    x, y = ((True, True), (False, False)), ((False, False), (True, False))
    assert _bmat_mul(x, y) != _bmat_mul(y, x)


def test_user_semiring_kernel_keeps_the_multiplication_order():
    rng = random.Random(913)
    monad = Monad("weighted", BOOL_MATRICES)
    s = BOOL_MATRICES
    for n in (2, 3, 5):
        states = tuple(f"q{i}" for i in range(n))

        def vec():
            return WeightedVec(s, {q: _rand_bmat(rng) for q in states if rng.random() < 0.6})

        a = EffAutomaton(
            monad=monad,
            states=states,
            alphabet=("a", "b"),
            init=vec(),
            trans={(q, x): vec() for q in states for x in ("a", "b")},
            output={q: _rand_bmat(rng) for q in states},
            output_algebra=SEMIRING_SELF,
        )
        for k in (0, 1, 2, 3, 8, 60):
            w = tuple(rng.choice("ab") for _ in range(k))
            assert eval_word(a, w) == bind_fold_value(a, w)
        for w, v in word_values(a, 4):
            assert v == bind_fold_value(a, w)


def test_word_values_call_neither_bind_nor_vec_mat(monkeypatch):
    def forbidden(*args):
        raise AssertionError("word values must run on the column kernels")

    rng = random.Random(914)
    machines = [coin_pfa(), rand_pfa(rng, 3, 2, pure_init=False)]
    machines += [rand_wfa(rng, name, 3, 2) for name in ("rational", "minplus", "maxplus", "boolean")]
    want = {id(a): [(w, bind_fold_value(a, w)) for w in words_upto(a.alphabet, 3)] for a in machines}
    monkeypatch.setattr("effectfa.automata.bind", forbidden)
    monkeypatch.setattr("effectfa.effects.bind", forbidden)
    monkeypatch.setattr("effectfa.linalg.vec_mat", forbidden)
    for a in machines:
        assert [(w, eval_word(a, w)) for w in words_upto(a.alphabet, 3)] == want[id(a)]
        assert list(word_values(a, 3)) == want[id(a)]


def test_boolean_weights_must_be_bool():
    boolean = weighted("boolean")
    s = boolean.semiring

    def machine(weight, out=True):
        return EffAutomaton(
            monad=boolean,
            states=("q",),
            alphabet=("a",),
            init=WeightedVec(s, {"q": True}),
            trans={("q", "a"): WeightedVec(s, {"q": weight})},
            output={"q": out},
            output_algebra=SEMIRING_SELF,
        )

    for bad in (7, "yes", 2.5, 1, F(1)):
        with pytest.raises(InterfaceError):
            machine(bad)
        with pytest.raises(InterfaceError):
            machine(True, out=bad)
    a = machine(True)
    assert eval_word(a, ("a", "a")) is True
    assert eval_word(machine(False), ("a",)) is False


# The exact decision in front of the word walk.  Its oracle is the walk
# itself, taken beyond the length by which two machines that differ must
# have differed.


def _renamed(a):
    """``a`` with its states renamed and listed in reverse: the same language."""
    name = {q: f"r{i}" for i, q in enumerate(a.states)}
    return EffAutomaton(
        monad=a.monad,
        states=tuple(name[q] for q in reversed(a.states)),
        alphabet=a.alphabet,
        init=a.init.map(name.get),
        trans={(name[q], x): v.map(name.get) for (q, x), v in a.trans.items()},
        output={name[q]: v for q, v in a.output.items()},
        output_algebra=a.output_algebra,
    )


def _perturbed(rng, a, make_row):
    """``a`` with one transition row replaced by ``make_row()``."""
    key = rng.choice(sorted(a.trans))
    return replace(a, trans={**a.trans, key: make_row()})


def _decision_pairs(seed):
    from effectfa import from_linear, minimize, to_linear

    rng = random.Random(seed)
    for n in (1, 2, 3):
        a = rand_pfa(rng, n, 2, pure_init=n != 2)
        states = a.states
        yield a, _renamed(a)
        yield a, purify_initial(a)
        yield a, from_linear(minimize(to_linear(a)))  # dist against rational
        yield a, rand_pfa(rng, n, 2)
        yield a, _perturbed(rng, a, lambda: rand_dist(rng, states))
        yield purify_initial(a), _perturbed(rng, a, lambda: rand_dist(rng, states))
        r = rand_wfa(rng, "rational", n, 2)
        yield r, _renamed(r)
        yield r, from_linear(minimize(to_linear(r)))
        yield r, _perturbed(rng, r, lambda: rand_wfa(rng, "rational", n, 2).init)
        yield from_linear(minimize(to_linear(a))), a
    for n in (1, 2):
        a = rand_wfa(rng, "boolean", n, 2)

        def row():
            return rand_wfa(rng, "boolean", n, 2).init

        yield a, _renamed(a)
        yield a, purify_initial(a)
        yield a, rand_wfa(rng, "boolean", n, 2)
        yield a, _perturbed(rng, a, row)
        yield purify_initial(a), _perturbed(rng, a, row)


@pytest.mark.parametrize("seed", [920, 921, 922])
def test_equivalent_matches_the_walk_beyond_the_difference_bound(seed):
    outcomes = set()
    for a, b in _decision_pairs(seed):
        got = _equivalent(a, b)
        assert got == walk_agrees(a, b, difference_bound(a, b)), (a, b)
        outcomes.add(got)
    assert outcomes == {True, False}


def _monoid_machine(a):
    """The machine ``verify`` checks ``to-monoid``'s recognizer of ``a`` as."""
    return automaton_to_recognizer(a)._machine


def _bialgebra_machine(a):
    """The machine ``verify`` checks ``to-bialgebra``'s recognizer of ``a`` as."""
    return automaton_to_bialgebra(a)._machine


@pytest.mark.parametrize(
    "monad, outputs, rebuild",
    [
        (DIST, (F(1, 2), F(1, 3)), None),
        (DIST, (F(1, 2), F(1, 3)), _monoid_machine),
        (DIST, (F(1, 2), F(1, 3)), _bialgebra_machine),
        (weighted("boolean"), (True, False), None),
        (weighted("boolean"), (True, False), _monoid_machine),
    ],
    ids=["dist", "dist-monoid", "dist-bialgebra", "boolean", "boolean-monoid"],
)
def test_a_difference_beyond_maxlen_is_still_not_reported(monad, outputs, rebuild):
    a, b = (chain_machine(monad, out) for out in outputs)
    if rebuild is not None:
        b = rebuild(b)
    assert _equivalent(a, b) is False
    assert list(disagreements(a, b, 1)) == []
    assert [w for w, _, _ in disagreements(a, b, 2)] == [word(2)]


def test_a_closure_cut_at_maxlen_agrees_without_a_walk(monkeypatch):
    from effectfa import automata

    walked = []

    def counting(a, maxlen, alphabet=None, kernel=None):
        walked.append(a)
        return word_values(a, maxlen, alphabet, kernel)

    monkeypatch.setattr(automata, "word_values", counting)
    rng = random.Random(923)
    a = rand_pfa(rng, 3, 2)
    # six states: more independent futures than a closure cut at length 0
    # or 1 reaches, so the cut, not the end of the closure, stops it
    big = purify_initial(purify_initial(_renamed(purify_initial(a))))
    for maxlen in (0, 1):
        assert _equivalent(a, big, maxlen) is True
        assert list(disagreements(a, big, maxlen)) == []
    assert walked == []
    other = _perturbed(rng, big, lambda: rand_dist(rng, big.states))
    assert list(disagreements(a, other, 1)) == [
        (w, va, vb)
        for w in words_upto(a.alphabet, 1)
        for va, vb in [(eval_word(a, w), eval_word(other, w))]
        if va != vb
    ]


def _walk_step_count(letters, maxlen):
    """The kernel steps a walk to ``maxlen`` over ``letters`` letters takes
    on one machine: one per non-empty word."""
    return sum(letters**n for n in range(1, maxlen + 1))


def _counting_kernels(monkeypatch):
    """Count the steps of every kernel built from here on: one counter per
    :func:`_kernel` (one per machine), appended to the list returned."""
    from effectfa import automata

    steps = []

    def counting_kernel(m, letters, algebra=None):
        start, step, read, backward = _kernel(m, letters, algebra)
        count = [0]
        steps.append(count)

        def counting(v, x):
            count[0] += 1
            return step(v, x)

        return start, counting, read, backward

    monkeypatch.setattr(automata, "_kernel", counting_kernel)
    return steps


def test_the_exact_search_takes_at_most_the_walk_steps(monkeypatch):
    for a, b in _decision_pairs(924):
        linear = _is_linear(a.monad)
        # Without a length, the closure ends by itself: Tzeng's basis holds
        # at most one pair per state, Hopcroft-Karp merges at most once
        # per reachable boolean vector.
        if linear:
            cap = len(a.alphabet) * (len(a.states) + len(b.states))
        else:
            cap = len(a.alphabet) * (2 ** len(a.states) + 2 ** len(b.states))
        for maxlen in (0, 1, 2, 3, 10, None):
            steps = _counting_kernels(monkeypatch)
            got = _equivalent(a, b, maxlen)
            monkeypatch.undo()
            assert len(steps) == 2  # one kernel per machine
            bound = cap if maxlen is None else _walk_step_count(len(a.alphabet), maxlen)
            assert all(count <= bound for count, in steps)
            if maxlen is None:
                assert got == walk_agrees(a, b, difference_bound(a, b))
            else:
                assert got == (not _walked_differences(a, b, maxlen))


def test_the_closure_is_cut_at_maxlen():
    # Each pair first differs at ``a.b`` or ``a.a``: on the union-find, the
    # span and the keyed congruence.
    # Without a length, the keyed closure gives no answer.
    rotors = _rotor(True), _rotor(False)
    linear = tuple(chain_machine(DIST, out) for out in (F(1, 2), F(1, 3)))
    keyed = tuple(chain_machine(weighted("minplus"), out) for out in (1, 2))
    for (a, b), exact in [(rotors, False), (linear, False), (keyed, None)]:
        assert _equivalent(a, b, 0) is True
        assert _equivalent(a, b, 1) is True
        assert _equivalent(a, b, 2) is False
        assert _equivalent(a, b, 10**9) is False
        assert _equivalent(a, b) is exact


def test_a_zero_difference_column_takes_no_step(monkeypatch):
    # All outputs zero: both output columns are zero, so the start pair
    # spans nothing and the closure ends before its first step.
    rng = random.Random(928)
    a, b = rand_pfa(rng, 3, 2), rand_wfa(rng, "rational", 2, 2)
    a = replace(a, output=dict.fromkeys(a.states, F(0)))
    b = replace(b, output=dict.fromkeys(b.states, F(0)))
    for maxlen in (None, 0, 5):
        steps = _counting_kernels(monkeypatch)
        assert _equivalent(a, b, maxlen) is True
        monkeypatch.undo()
        assert steps == [[0], [0]]


def _only_letter_a(a):
    return replace(
        a, alphabet=("a",), trans={k: v for k, v in a.trans.items() if k[1] == "a"}
    )


def test_unknown_letters_still_raise_before_anything_is_decided():
    two = rand_pfa(random.Random(925), 2, 2)
    for one in (coin_pfa(), _monoid_machine(coin_pfa()), _bialgebra_machine(coin_pfa())):
        with pytest.raises(InputError, match="'b'"):
            list(disagreements(two, one, 3))
    boolean = weighted("boolean")
    chain = chain_machine(boolean, True)
    with pytest.raises(InputError, match="'b'"):
        list(disagreements(chain, _only_letter_a(chain), 3))


def test_equivalent_linear_and_boolean_pairs_never_walk(monkeypatch):
    from effectfa import automata

    def forbidden(*args):
        raise AssertionError("an equivalent pair must not be walked")

    rng = random.Random(926)
    pairs = [(a, purify_initial(_renamed(a))) for a in (rand_pfa(rng, 3, 2), coin_pfa())]
    for name in ("rational", "boolean"):
        r = rand_wfa(rng, name, 3, 2)
        pairs.append((r, _renamed(r)))
    for a, _ in list(pairs):
        pairs.append((a, _monoid_machine(a)))
        if _is_linear(a.monad):
            pairs.append((a, _bialgebra_machine(a)))
    monkeypatch.setattr(automata, "word_values", forbidden)
    for a, b in pairs:
        assert list(disagreements(a, b, 40)) == []


def _rotor(last_output):
    """A boolean machine on ``s, t, u, c0..c7``: ``a.b`` leads from ``s`` to
    the sink ``u``, whose output is ``last_output``; ``b`` leads into the
    ``c`` ring, where ``b`` rotates and ``a`` adds ``c0``, so words starting
    with ``b`` reach all 255 non-empty sets of ring states."""
    monad = weighted("boolean")
    ring = tuple(f"c{i}" for i in range(8))

    def to(*states):
        return WeightedVec(monad.semiring, dict.fromkeys(states, True))

    trans = {("s", "a"): to("t"), ("s", "b"): to("c0"), ("t", "a"): to("t")}
    trans |= {("t", "b"): to("u"), ("u", "a"): to("u"), ("u", "b"): to("u")}
    for i, c in enumerate(ring):
        trans |= {(c, "a"): to(c, "c0"), (c, "b"): to(ring[(i + 1) % 8])}
    return EffAutomaton(
        monad=monad,
        states=("s", "t", "u") + ring,
        alphabet=("a", "b"),
        init=to("s"),
        trans=trans,
        output={q: q == "u" and last_output for q in ("s", "t", "u") + ring},
        output_algebra=SEMIRING_SELF,
    )


def test_an_early_difference_is_found_before_a_deep_subtree(monkeypatch):
    # ``equiv`` stops at the first difference, so the search in front of the
    # walk must not spend its budget on the ring before it meets ``a.b``.
    from effectfa import automata

    steps = []

    def counting_kernel(a, letters, algebra=None):
        start, step, read, backward = _kernel(a, letters, algebra)
        return start, lambda v, x: steps.append(x) or step(v, x), read, backward

    a, b = _rotor(True), _rotor(False)
    assert difference_bound(a, b) > 2 * 255
    monkeypatch.setattr(automata, "_kernel", counting_kernel)
    assert next(disagreements(a, b, 12))[0] == ("a", "b")
    # the search: at most a walk to length 2 on both machines; the walk:
    # the four words before ``a.b`` (a, b, a.a, a.b) on both machines
    assert len(steps) <= 2 * _walk_step_count(2, 2) + 2 * 4


def test_other_semirings_and_convex_machines_are_walked():
    rng = random.Random(927)
    machines = [rand_wfa(rng, name, 2, 2) for name in ("minplus", "maxplus")]
    machines += [rand_npfa(rng, 2, 2, 2), choice_npfa()]
    for a in machines:
        assert _equivalent(a, a) is None


def test_a_huge_maxlen_stops_at_the_first_difference():
    a, b = (chain_machine(DIST, out) for out in (F(1, 2), F(1, 3)))
    assert next(disagreements(a, b, 10**9))[0] == word(2)


# The breadth-first pair search in front of the walk for min-plus, max-plus
# and convex pairs.  Its oracle is the plain walk over every word.


def _walked_differences(a, b, maxlen):
    """Every word up to ``maxlen`` on which ``a`` and ``b`` differ, by the
    word walk alone."""
    from effectfa.automata import outputs_equal

    walks = zip(word_values(a, maxlen), word_values(b, maxlen, a.alphabet))
    return [(w, va, vb) for (w, va), (_, vb) in walks if not outputs_equal(a, va, vb)]


def _search_pairs(seed):
    rng = random.Random(seed)
    for name in ("minplus", "maxplus"):
        for n in (1, 2, 3):
            a = rand_wfa(rng, name, n, 2)

            def row():
                return rand_wfa(rng, name, n, 2).init

            yield a, _renamed(a)
            yield a, purify_initial(a)
            yield a, _monoid_machine(a)
            yield a, rand_wfa(rng, name, n, 2)
            yield a, _perturbed(rng, a, row)
            yield _monoid_machine(a), purify_initial(_perturbed(rng, a, row))
        dead = _sparse_wfa(rng, name, 3, False, dead_letter=True)
        yield dead, _renamed(dead)
        yield dead, _perturbed(rng, dead, lambda: WeightedVec(dead.monad.semiring, {}))
    for n in (1, 2):
        a = rand_npfa(rng, n, 2, 2, pure_init=n != 2)

        def gens():
            return ConvexSet([rand_dist(rng, a.states) for _ in range(2)])

        yield a, _renamed(a)
        yield a, purify_initial(a)
        yield a, _monoid_machine(a)
        yield a, rand_npfa(rng, n, 2, 2)
        yield a, _perturbed(rng, a, gens)
        yield purify_initial(a), _perturbed(rng, a, gens)


@pytest.mark.parametrize("seed", [940, 941])
def test_the_pair_search_lists_what_the_walk_lists(seed):
    differing = agreeing = 0
    for a, b in _search_pairs(seed):
        assert _pair_key(a, b) is not None
        for maxlen in (0, 1, 2, 4, 6):
            want = _walked_differences(a, b, maxlen)
            assert list(disagreements(a, b, maxlen)) == want, (a, b, maxlen)
            differing += bool(want)
            agreeing += not want
    assert differing and agreeing


def test_the_pair_search_takes_at_most_the_walk_steps(monkeypatch):
    for a, b in _search_pairs(942):
        for maxlen in (0, 1, 2, 3, 10):
            steps = _counting_kernels(monkeypatch)
            got = _equivalent(a, b, maxlen)
            monkeypatch.undo()
            assert len(steps) == 2  # one kernel per machine
            bound = _walk_step_count(len(a.alphabet), maxlen)
            assert all(count <= bound for count, in steps)
            assert got == (not _walked_differences(a, b, maxlen))


def test_the_walk_after_a_search_or_decision_reuses_its_kernels(monkeypatch):
    from effectfa import automata

    built = []

    def counting_kernel(m, letters, algebra=None):
        if letters:  # the empty word's value needs no letter
            built.append(m)
        return _kernel(m, letters, algebra)

    rng = random.Random(946)
    a = rand_npfa(rng, 2, 2, 2)
    pairs = [(a, _perturbed(rng, a, lambda: ConvexSet([rand_dist(rng, a.states)])))]
    pairs.append((_rotor(True), _rotor(False)))
    coin = coin_pfa()
    pairs.append((coin, replace(coin, output={"q0": F(0), "q1": F(1, 2)})))
    for a, b in pairs:
        want = _walked_differences(a, b, 4)
        assert want
        built.clear()
        monkeypatch.setattr(automata, "_kernel", counting_kernel)
        assert list(disagreements(a, b, 4)) == want
        monkeypatch.undo()
        assert built == [a, b]


def _convex_copy(a):
    """The linear machine ``a`` as a convex one of single generators, read
    at its maximum: the same language."""
    return EffAutomaton(
        monad=CONVEX,
        states=a.states,
        alphabet=a.alphabet,
        init=ConvexSet([a.init]),
        trans={k: ConvexSet([v]) for k, v in a.trans.items()},
        output={q: convex_output(v) for q, v in a.output.items()},
        output_algebra=INTERVAL_MAX,
    )


def test_a_linear_pair_key_needs_a_backward_kernel_on_both_sides():
    # Linear and convex kernels both extend a word at its front, so their
    # pairs are keyed; min-plus and boolean kernels extend it at its end.
    rng = random.Random(947)
    linear = rand_pfa(rng, 2, 2)
    convex = replace(rand_npfa(rng, 2, 2, 2), output_algebra=INTERVAL_MAX)
    copy = _convex_copy(linear)
    forward = [rand_wfa(rng, name, 2, 2) for name in ("minplus", "boolean")]
    for a, b in [(linear, convex), (convex, linear), (linear, copy)]:
        assert _pair_key(a, b) is not None
    for m in forward:
        assert _pair_key(linear, m) is None
        assert _pair_key(m, linear) is None
    assert _equivalent(linear, copy, 6) is True
    assert list(disagreements(linear, copy, 6)) == []
    for a, b in [(linear, convex), (convex, linear)] + [(linear, m) for m in forward]:
        want = _walked_differences(a, b, 3)
        assert want
        assert list(disagreements(a, b, 3)) == want


@pytest.mark.parametrize("name", ["minplus", "maxplus"])
def test_a_dead_tropical_vector_is_keyed_apart_from_a_live_one(name):
    s = weighted(name).semiring
    bottom = s.zero
    a = rand_wfa(random.Random(943), name, 2, 2)
    key = _pair_key(a, a)

    def value(*weights):
        # the kernel value of the vector ``weights``: the start value of
        # ``a`` with that initial vector
        init = WeightedVec(s, {q: w for q, w in zip(a.states, weights) if w is not bottom})
        return _kernel(replace(a, init=init), ())[0]

    def k(va, vb):
        return key(value(*va), value(*vb))

    # a shift of both vectors by one constant is the same configuration
    assert k([0, 2], [1, bottom]) == k([3, 5], [4, bottom])
    assert k([0, 2], [1, bottom]) != k([0, 2], [2, bottom])
    # a dead vector has no offset, and is never a live vector
    assert k([bottom, bottom], [1, 4]) == k([bottom, bottom], [6, 9])
    assert k([bottom, bottom], [1, 4]) != k([0, 0], [1, 4])
    assert k([bottom, bottom], [1, 4]) != k([bottom, 0], [1, 4])
    assert k([bottom, bottom], [bottom, bottom]) != k([0, 0], [0, 0])


# Per tropical semiring, the rows of ``p a``, ``p b``, ``q a``, ``q b`` and
# the outputs of ``p`` and ``q`` of a machine whose pairs with its monoid
# machine close after at most five levels, at eleven and ten keys.
_CLOSING_TROPICAL = {
    "minplus": (({"p": 1, "q": 2}, {"p": 2, "q": 2}, {"p": 3, "q": 2}, {"q": 2}), (0, 1)),
    "maxplus": (({"q": 2}, {"q": 0}, {"q": 2}, {"p": 1, "q": 3}), (0, 2)),
}


def _closing_tropical_machine(name):
    s = weighted(name).semiring
    rows, (out_p, out_q) = _CLOSING_TROPICAL[name]
    keys = [(q, x) for q in "pq" for x in "ab"]
    return EffAutomaton(
        monad=weighted(name),
        states=("p", "q"),
        alphabet=("a", "b"),
        init=WeightedVec(s, {"p": 0}),
        trans={k: WeightedVec(s, row) for k, row in zip(keys, rows)},
        output={"p": out_p, "q": out_q},
        output_algebra=SEMIRING_SELF,
    )


def _closing_convex_machine():
    """Two letters of point-mass choices: every DP table holds outputs only."""
    def choose(*states):
        return ConvexSet([Dist({q: 1}) for q in states])

    return EffAutomaton(
        monad=CONVEX,
        states=("p", "q"),
        alphabet=("a", "b"),
        init=unit(CONVEX, "p"),
        trans={
            ("p", "a"): choose("p", "q"),
            ("p", "b"): choose("p"),
            ("q", "a"): choose("q"),
            ("q", "b"): choose("p", "q"),
        },
        output={"p": convex_output(0), "q": convex_output(1)},
        output_algebra=INTERVAL_PAIR,
    )


def test_equivalent_searched_pairs_whose_closure_finishes_never_walk(monkeypatch):
    from effectfa import automata, recognizer_to_automaton

    def forbidden(*args):
        raise AssertionError("an equivalent pair must not be walked")

    machines = [minplus_walk(), choice_npfa(), _closing_convex_machine()]
    machines += [_closing_tropical_machine(name) for name in _CLOSING_TROPICAL]
    pairs = []
    for a in machines:
        rec = automaton_to_recognizer(a)
        pairs += [(a, _renamed(a)), (a, purify_initial(a)), (a, rec._machine)]
        pairs.append((a, recognizer_to_automaton(rec)))
    monkeypatch.setattr(automata, "word_values", forbidden)
    for a, b in pairs:
        assert list(disagreements(a, b, 40)) == []


def test_a_user_declared_semiring_is_still_walked(monkeypatch):
    from effectfa import automata

    walked = []

    def counting(a, maxlen, alphabet=None, kernel=None):
        walked.append(a)
        return word_values(a, maxlen, alphabet, kernel)

    rng = random.Random(945)
    s = BOOL_MATRICES
    states = ("q0", "q1")

    def vec():
        return WeightedVec(s, {q: _rand_bmat(rng) for q in states if rng.random() < 0.6})

    a = EffAutomaton(
        monad=Monad("weighted", s),
        states=states,
        alphabet=("a", "b"),
        init=vec(),
        trans={(q, x): vec() for q in states for x in ("a", "b")},
        output={q: _rand_bmat(rng) for q in states},
        output_algebra=SEMIRING_SELF,
    )
    assert _pair_key(a, a) is None
    assert _pair_key(a, _renamed(a)) is None
    monkeypatch.setattr(automata, "word_values", counting)
    assert list(disagreements(a, _renamed(a), 3)) == []
    assert len(walked) == 2
    other = _perturbed(rng, a, vec)
    assert list(disagreements(a, other, 3)) == _walked_differences(a, other, 3)


def test_a_convex_table_keys_with_its_denominator():
    # ``a`` halves its value on every letter: its DP tables are (1, 0) over
    # 1, 2, 4, ..., with the same numerators on every level.
    def machine(trans, output):
        return EffAutomaton(
            monad=CONVEX,
            states=("p", "z"),
            alphabet=("a",),
            init=unit(CONVEX, "p"),
            trans={(q, "a"): ConvexSet([Dist(row)]) for q, row in trans.items()},
            output={q: convex_output(v) for q, v in output.items()},
            output_algebra=INTERVAL_PAIR,
        )

    halving = machine({"p": {"p": F(1, 2), "z": F(1, 2)}, "z": {"z": 1}}, {"p": 1, "z": 0})
    constant = machine({"p": {"p": 1}, "z": {"z": 1}}, {"p": 1, "z": 0})
    assert [w for w, _, _ in disagreements(halving, constant, 2)] == [word(1), word(2)]
