"""The checks every effect value goes through, and values the readers share.

``Dist`` is checked against an oracle written here; ``Channel``,
``EffAutomaton``, ``bind`` and ``double_strength`` are pinned to the exact
InterfaceError text for each kind of bad value.  Every constructor that
takes a number reads it by the one rule of ``exactnum.rational``.
"""

from dataclasses import replace
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectfa import (
    CONVEX,
    DIST,
    INTERVAL_PAIR,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    ConvexSet,
    Dist,
    EffAutomaton,
    FormalCombo,
    Move,
    Position,
    WeightedVec,
    bind,
    canonical_rep,
    convex_output,
    double_strength,
    eval_word,
    expected_value,
    weighted,
)
from effectfa import exactnum
from effectfa.cli import parse_automaton, print_automaton
from effectfa.effects import Channel
from effectfa.errors import InputError, InterfaceError

RAT = weighted("rational")
MINPLUS = weighted("minplus")

# Large primes, so sums over them need large common denominators.
PRIMES = (1_000_003, 999_983, 2**61 - 1, 3)

weights = st.one_of(
    st.integers(-2, 2),
    st.just(0),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.builds(F, st.integers(-5, 10**6), st.sampled_from(PRIMES)),
)


def _oracle(w):
    """The message Dist(w) raises, or None if it accepts: every weight at
    least 0 (the first negative one in order is named), mass exactly 1."""
    for x, v in w.items():
        if F(v) < 0:
            return f"negative probability {F(v)} at {x!r}"
    total = sum((F(v) for v in w.values()), F(0))
    return None if total == 1 else f"probability mass {total} is not 1"


@settings(max_examples=400, deadline=None)
@given(
    w=st.dictionaries(st.sampled_from("abcdef"), weights, max_size=6),
    complete=st.sampled_from([None, "a", "f"]),
)
def test_dist_accepts_exactly_what_the_oracle_accepts(w, complete):
    if complete is not None:
        # Make the mass exactly 1 through one weight, which may turn negative.
        w.pop(complete, None)
        w[complete] = 1 - sum((F(v) for v in w.values()), F(0))
    expected = _oracle(w)
    if expected is None:
        d = Dist(w)
        assert d.items() == tuple((x, F(v)) for x, v in w.items() if v != 0)
        assert all(type(v) is F for _, v in d.items())
    else:
        with pytest.raises(ValueError) as caught:
            Dist(w)
        assert str(caught.value) == expected


P = Dist({"p": 1})
HALF = Dist({"p": F(1, 2), "q": F(1, 2)})

# (monad, bad entry, message of the entry check), one per kind of fault.
BAD_ENTRIES = [
    (DIST, WeightedVec(RAT.semiring, {"p": F(1)}), "has the wrong effect type"),
    (DIST, ConvexSet([P]), "has the wrong effect type"),
    (CONVEX, P, "has the wrong effect type"),
    (RAT, P, "has the wrong effect type"),
    (RAT, WeightedVec(MINPLUS.semiring, {"p": 1}), "has the wrong effect type"),
    (MINPLUS, WeightedVec(RAT.semiring, {"p": F(1)}), "has the wrong effect type"),
    (DIST, Dist({"p": F(1, 2), "z": F(1, 2)}), "puts weight outside the carrier"),
    (RAT, WeightedVec(RAT.semiring, {"z": F(1)}), "puts weight outside the carrier"),
    (CONVEX, ConvexSet([Dist({"z": 1})]), "puts weight outside the carrier"),
    (
        CONVEX,
        ConvexSet([P, HALF, Dist({"q": F(1, 3), "z": F(2, 3)})]),
        "puts weight outside the carrier",
    ),
    (RAT, WeightedVec(RAT.semiring, {"p": 0.5}), "has an inexact rational weight 0.5"),
    (
        RAT,
        WeightedVec(RAT.semiring, {"p": F(1), "q": 0.25}),
        "has an inexact rational weight 0.25",
    ),
    (MINPLUS, WeightedVec(MINPLUS.semiring, {"p": 1.5}), "has an inexact minplus weight 1.5"),
    (RAT, WeightedVec(RAT.semiring, {"p": True}), "has an inexact rational weight True"),
]
BAD_IDS = [
    "weighted-in-dist",
    "convex-in-dist",
    "dist-in-convex",
    "dist-in-weighted",
    "minplus-in-rational",
    "rational-in-minplus",
    "dist-outside",
    "weighted-outside",
    "convex-outside",
    "convex-third-generator-outside",
    "float-rational-weight",
    "float-second-weight",
    "float-minplus-weight",
    "bool-rational-weight",
]
STATES = ("p", "q")
ALGEBRA = {"dist": UNIT_INTERVAL, "weighted": SEMIRING_SELF, "convex": INTERVAL_PAIR}


def _good(monad):
    if monad.kind == "dist":
        return P
    if monad.kind == "convex":
        return ConvexSet([P, HALF])
    return WeightedVec(monad.semiring, {"p": monad.semiring.one})


def _output(monad, v=0):
    if monad.kind == "convex":
        return (F(v), F(v))
    if monad.kind == "dist":
        return F(v)
    return monad.semiring.parse(str(v))


def _machine(monad, init=None, entry=None, output=None):
    good = _good(monad)
    return EffAutomaton(
        monad=monad,
        states=STATES,
        alphabet=("a",),
        init=good if init is None else init,
        trans={("p", "a"): good, ("q", "a"): good if entry is None else entry},
        output=output or {q: _output(monad) for q in STATES},
        output_algebra=ALGEBRA[monad.kind],
    )


@pytest.mark.parametrize("monad, bad, message", BAD_ENTRIES, ids=BAD_IDS)
def test_channels_and_machines_name_each_bad_value(monad, bad, message):
    _machine(monad)
    with pytest.raises(InterfaceError) as caught:
        Channel(monad, STATES, STATES, {"p": _good(monad), "q": bad})
    assert str(caught.value) == f"entry at 'q' {message}"
    with pytest.raises(InterfaceError) as caught:
        _machine(monad, entry=bad)
    assert str(caught.value) == f"transitions on 'a': entry at 'q' {message}"
    with pytest.raises(InterfaceError) as caught:
        _machine(monad, init=bad)
    assert str(caught.value) == f"the initial value {message}"


@pytest.mark.parametrize("monad", [DIST, RAT, CONVEX], ids=lambda m: m.kind)
def test_a_non_value_is_named(monad):
    with pytest.raises(InterfaceError) as caught:
        Channel(monad, STATES, STATES, {"p": _good(monad), "q": "p"})
    assert str(caught.value) == "not an effect value: 'p'"
    ch = Channel(monad, STATES, STATES, {q: _good(monad) for q in STATES})
    with pytest.raises(InterfaceError) as caught:
        bind(3, ch)
    assert str(caught.value) == "not an effect value: 3"
    with pytest.raises(InterfaceError) as caught:
        double_strength(_good(monad), (1, 2))
    assert str(caught.value) == "not an effect value: (1, 2)"


@pytest.mark.parametrize(
    "field, names, what",
    [("states", ("p", "p"), "state"), ("alphabet", ("a", "a"), "letter")],
)
def test_a_machine_repeats_no_state_and_no_letter(field, names, what):
    # Unchecked, states ('p', 'p') evaluated with a bare IndexError and
    # printed a file that the reader refuses ("repeated state").
    good = _machine(DIST)
    with pytest.raises(InterfaceError) as caught:
        replace(good, **{field: names})
    assert str(caught.value) == f"repeated {what} in {names!r}"


def test_a_channel_table_must_be_its_domain():
    with pytest.raises(InterfaceError) as caught:
        Channel(DIST, STATES, STATES, {"p": P})
    assert str(caught.value) == "channel table must be total on its domain"
    with pytest.raises(InterfaceError) as caught:
        Channel(DIST, ("p",), STATES, {"p": P, "q": P})
    assert str(caught.value) == "channel table must be total on its domain"


@pytest.mark.parametrize(
    "monad, outputs, shown, what",
    [
        (DIST, {"p": 0.5, "q": F(1)}, "0.5", "rational"),
        (RAT, {"p": F(0), "q": 0.25}, "0.25", "rational weight"),
        (MINPLUS, {"p": 0, "q": 1.0}, "1.0", "minplus weight"),
        (CONVEX, {"p": (F(0), F(0)), "q": (0.5, F(1))}, "(0.5, Fraction(1, 1))",
         "rational"),
        (CONVEX, {"p": (F(0), F(0)), "q": (F(0), 1.0)}, "(Fraction(0, 1), 1.0)",
         "rational"),
    ],
    ids=["dist", "rational", "minplus", "convex-low", "convex-high"],
)
def test_float_outputs_are_rejected(monad, outputs, shown, what):
    q = next(q for q, v in outputs.items() if "." in repr(v))
    with pytest.raises(InterfaceError) as caught:
        _machine(monad, output=outputs)
    assert str(caught.value) == f"output {shown} at {q!r} is not an exact {what}"


@pytest.mark.parametrize(
    "monad, output",
    [(DIST, True), (CONVEX, (F(0), True)), (RAT, False)],
    ids=["dist", "convex", "rational"],
)
def test_bool_outputs_are_rejected(monad, output):
    # A bool is an int to Python, but no rational to the library.
    what = "rational weight" if monad.kind == "weighted" else "rational"
    with pytest.raises(InterfaceError) as caught:
        _machine(monad, output={"p": output, "q": _output(monad)})
    assert str(caught.value) == f"output {output!r} at 'p' is not an exact {what}"


@pytest.mark.parametrize(
    "value", [(F(1, 2),), (F(0), F(1, 2), F(1))], ids=["1-tuple", "3-tuple"]
)
def test_convex_output_takes_only_pairs(value):
    # The same rule as a convex machine's output map.
    with pytest.raises(InterfaceError) as caught:
        convex_output(value)
    assert str(caught.value) == f"convex outputs are (low, high) pairs; got {value!r}"


@pytest.mark.parametrize(
    "t, monad",
    [
        (P, RAT),
        (WeightedVec(RAT.semiring, {"p": F(1)}), DIST),
        (WeightedVec(MINPLUS.semiring, {"p": 0}), RAT),
        (WeightedVec(RAT.semiring, {"p": F(1)}), MINPLUS),
        (ConvexSet([P]), DIST),
        (P, CONVEX),
    ],
    ids=["dist-into-rational", "rational-into-dist", "minplus-into-rational",
         "rational-into-minplus", "convex-into-dist", "dist-into-convex"],
)
def test_bind_and_double_strength_reject_mismatched_types(t, monad):
    ch = Channel(monad, STATES, STATES, {q: _good(monad) for q in STATES})
    with pytest.raises(InterfaceError) as caught:
        bind(t, ch)
    assert str(caught.value) == "effect value and channel have different effect types"
    with pytest.raises(InterfaceError) as caught:
        double_strength(t, _good(monad))
    assert str(caught.value) == "double strength needs matching effect types"
    with pytest.raises(InterfaceError) as caught:
        double_strength(_good(monad), t)
    assert str(caught.value) == "double strength needs matching effect types"


def test_bind_reads_support_through_the_channel():
    # bind checks the value's type; a point off the channel's domain is
    # named by the channel.
    ch = Channel(DIST, STATES, STATES, {q: P for q in STATES})
    with pytest.raises(InterfaceError) as caught:
        bind(Dist({"z": 1}), ch)
    assert str(caught.value) == "'z' is not in the channel domain"


SHARED = """\
monad convex
alphabet a b
states p q r
init p:1/3 q:1/3 r:1/3
trans p a -> p:1/3 q:1/3 r:1/3 | q:1
trans p b -> q:1
trans q a -> p:1/3 q:1/3 r:1/3
trans q b -> q:1 | p:1/3 q:1/3 r:1/3
trans r a -> r:1
trans r b -> q:1
output p:0 q:1/2 r:1
"""


def test_shared_generators_read_as_the_machine_built_entry_by_entry():
    a = parse_automaton(SHARED)
    third = {"p": F(1, 3), "q": F(1, 3), "r": F(1, 3)}

    def d(w):
        return Dist(dict(w))

    built = EffAutomaton(
        monad=CONVEX,
        states=("p", "q", "r"),
        alphabet=("a", "b"),
        init=ConvexSet([d(third)]),
        trans={
            ("p", "a"): ConvexSet([d(third), d({"q": 1})]),
            ("p", "b"): ConvexSet([d({"q": 1})]),
            ("q", "a"): ConvexSet([d(third)]),
            ("q", "b"): ConvexSet([d({"q": 1}), d(third)]),
            ("r", "a"): ConvexSet([d({"r": 1})]),
            ("r", "b"): ConvexSet([d({"q": 1})]),
        },
        output={"p": (F(0), F(0)), "q": (F(1, 2), F(1, 2)), "r": (F(1), F(1))},
        output_algebra=INTERVAL_PAIR,
    )
    assert a == built
    for key, value in a.trans.items():
        assert value.generators == built.trans[key].generators
    assert print_automaton(a) == print_automaton(built) == SHARED


def test_a_large_uniform_file_evaluates_exactly():
    # Every row is uniform over all states, listed from a different state,
    # so no two rows share their tokens; every literal is the same.
    n = 40
    states = [f"s{i}" for i in range(n)]
    lines = ["monad dist", "alphabet a b", "states " + " ".join(states), "init s0:1"]
    for i in range(n):
        for k, x in enumerate("ab"):
            row = " ".join(f"{states[(i + k + j) % n]}:1/{n}" for j in range(n))
            lines.append(f"trans s{i} {x} -> {row}")
    lines.append("output s0:1 " + " ".join(f"{q}:0" for q in states[1:]))
    text = "\n".join(lines) + "\n"
    a = parse_automaton(text)
    assert a.trans[("s3", "b")].weight("s7") == F(1, n)
    assert print_automaton(parse_automaton(print_automaton(a))) == print_automaton(a)
    assert eval_word(a, ("a", "b")) == F(1, n)


# A value of each kind a caller might hand in: exact ones in (0, 1], and
# ones the rule refuses.
_unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool)
numbers_handed_in = st.one_of(
    _unit_fractions,
    st.just(1),
    st.booleans(),
    st.floats(min_value=0, max_value=1, exclude_min=True),
    _unit_fractions.map(str),
    st.sampled_from(
        [" 1/2", "1/2 ", "0.5", "\u0661", "\u0661/\u0662", "1_0", "1/0", "+1", "", "1e0"]
    ),
    st.sampled_from([Decimal("0.5"), None]),
)


def _point(pair):
    lo, hi = pair
    assert lo == hi
    return lo


def _readings(v, rest):
    """The number each constructor holds when handed ``v``; ``rest`` makes
    up the mass of the ones that need it."""
    return {
        "Dist": lambda: Dist({"x": v, "y": rest}).weight("x"),
        "Position": lambda: Position({0: v, 1: rest}).weight(0),
        "Move": lambda: Move(0, v, "merge").lam,
        "convex_output": lambda: _point(convex_output(v)),
        "canonical_rep": lambda: expected_value(canonical_rep(v)),
        "FormalCombo": lambda: FormalCombo(
            {(): v, ("a",): rest} if rest else {(): v}
        ).terms[()],
    }


@settings(max_examples=300, deadline=None)
@given(v=numbers_handed_in)
def test_every_constructor_reads_a_number_by_the_one_rule(v):
    try:
        r = exactnum.rational(v, "value")
    except InterfaceError:
        r = None
    rest = F(1, 2) if r is None else 1 - r
    for site, reading in _readings(v, rest).items():
        for _ in range(2):
            if r is None:
                with pytest.raises(InterfaceError) as caught:
                    reading()
                message = str(caught.value)
                assert repr(v) in message, (site, message)
                assert message.endswith("is not an exact rational"), (site, message)
            elif site == "Move" and r > F(1, 3):
                with pytest.raises(InputError):
                    reading()
            else:
                held = reading()
                assert held == r and type(held) is F, (site, v, held)
