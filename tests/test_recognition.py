import random
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import partial

import pytest

from conftest import (
    choice_npfa,
    coin_pfa,
    difference_bound,
    even_dfa,
    fraction_feasible_nonneg,
    free_extension_enumerated,
    full_transformation_dfa,
    minplus_walk,
    npfa_brute_force,
    rand_channel,
    rand_convex_channel,
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
    EffMorphism,
    EffRecognizer,
    FinMonoid,
    INTERVAL_MAX,
    INTERVAL_MIN,
    INTERVAL_PAIR,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    WeightedVec,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bialgebra_to_automaton,
    bind,
    check_central,
    convex_output,
    decompose_channel,
    eval_npfa,
    eval_word,
    free_extension_word,
    identity_channel,
    is_pure,
    kleisli_compose,
    lambda_channel,
    outputs_equal,
    purify_initial,
    recognizer_to_automaton,
    tm_multiply,
    unit,
    verify_recognition,
    weighted,
    witness_xi0,
    words_upto,
    xi,
    xi_preimage,
)
from effectfa import recognition
from effectfa.automata import EffAutomaton, collapse
from effectfa.cli import parse_recognizer, print_automaton, print_bialgebra
from effectfa.errors import (
    CapabilityError,
    InputError,
    IntegrityError,
    InterfaceError,
    ResourceError,
)
from effectfa.linalg import solve_linear
from effectfa.monoids import _generator_name
from effectfa.recognition import BialgRecognizer

RAT = weighted("rational")
MINPLUS = weighted("minplus")


def test_witness_sizes_and_embeddings():
    q2 = ("q0", "q1")
    m, images = witness_xi0(DIST, q2)
    assert len(m) == 4
    swap = ("q1", "q0")
    assert images[swap]("q0") == Dist({"q1": 1})
    assert is_pure(images[swap])

    m, images = witness_xi0(MINPLUS, q2)
    assert len(m) == 9
    nowhere = (None, None)
    assert images[nowhere]("q0") == WeightedVec(MINPLUS.semiring, {})

    m, images = witness_xi0(CONVEX, ("q0",))
    assert len(m) == 1
    assert images[("q0",)]("q0") == unit(CONVEX, "q0")


@pytest.mark.parametrize("monad", [DIST, RAT, CONVEX])
def test_witness_embedding_is_a_monoid_morphism(monad):
    q2 = ("q0", "q1")
    m, images = witness_xi0(monad, q2)
    for x in m.elements:
        for y in m.elements:
            assert kleisli_compose(images[x], images[y]) == images[m.mul(x, y)]


@pytest.mark.parametrize("monad", [DIST, RAT])
def test_witness_extension_turns_products_into_composition(monad):
    rng = random.Random(23)
    q2 = ("q0", "q1")
    m, images = witness_xi0(monad, q2)

    def rand_value():
        if monad.kind == "dist":
            counts = {}
            for _ in range(4):
                counts[rng.choice(m.elements)] = counts.get(rng.choice(m.elements), 0) + 1
            total = sum(counts.values())
            return Dist({k: F(v, total) for k, v in counts.items()})
        return WeightedVec(
            monad.semiring,
            {rng.choice(m.elements): F(rng.randint(-2, 3)) for _ in range(3)},
        )

    for _ in range(20):
        t1, t2 = rand_value(), rand_value()
        lhs = xi(tm_multiply(m, t1, t2), q2, q2)
        rhs = kleisli_compose(xi(t1, q2, q2), xi(t2, q2, q2))
        assert lhs == rhs


def test_uncurried_witness_is_central_for_weighted_and_convex():
    rng = random.Random(31)
    for monad, size in ((MINPLUS, 2), (RAT, 2), (CONVEX, 2)):
        carrier = tuple(f"q{i}" for i in range(size))
        m, images = witness_xi0(monad, carrier)
        domain = tuple((q, f) for q in carrier for f in m.elements)
        table = {(q, f): images[f](q) for q, f in domain}
        uncurried = Channel(monad, domain, carrier, table)
        probes = []
        for _ in range(5):
            if monad.kind == "convex":
                probes.append(rand_convex_channel(rng, ("u", "v"), 2, max_den=2))
            elif monad.kind == "dist":
                probes.append(rand_channel(rng, ("u", "v")))
            else:
                s = monad.semiring
                probes.append(
                    Channel(
                        monad,
                        ("u", "v"),
                        ("u", "v"),
                        {
                            x: WeightedVec(
                                s, {y: rng.randint(0, 2) for y in ("u", "v")}
                            )
                            for x in ("u", "v")
                        },
                    )
                )
        assert check_central(uncurried, probes) == []


def test_preimage_of_coin_letter():
    ch = coin_pfa().letter_channel("a")
    pre = xi_preimage(ch)
    assert pre == Dist({("q0", "q1"): F(1, 2), ("q1", "q1"): F(1, 2)})
    assert xi(pre, ch.domain, ch.codomain) == ch


def test_preimage_weighted_entrywise():
    s = RAT.semiring
    ch = Channel(
        RAT,
        ("q0", "q1"),
        ("q0", "q1"),
        {
            "q0": WeightedVec(s, {"q0": F(2), "q1": F(3)}),
            "q1": WeightedVec(s, {"q1": F(1)}),
        },
    )
    pre = xi_preimage(ch)
    assert dict(pre.items()) == {
        ("q0", None): F(2),
        ("q1", None): F(3),
        (None, "q1"): F(1),
    }
    assert xi(pre, ch.domain, ch.codomain) == ch


def test_convex_preimage_bounds_report_the_measured_size():
    wide = tuple(f"q{i}" for i in range(5))
    ch = Channel(CONVEX, wide, wide, {q: unit(CONVEX, q) for q in wide})
    with pytest.raises(ResourceError, match="at most 4 states; the channel has 5"):
        xi_preimage(ch)
    carrier = ("q0", "q1")
    many = ConvexSet(
        [Dist({"q0": F(k, 4), "q1": 1 - F(k, 4)}) for k in range(5)]
    )
    ch = Channel(CONVEX, carrier, carrier, {"q0": many, "q1": unit(CONVEX, "q1")})
    with pytest.raises(
        ResourceError, match="at most 4 generators per state; state 'q0' has 5"
    ):
        xi_preimage(ch)


def test_preimage_convex_singletons_degenerate():
    ch = choice_npfa().letter_channel("a")
    pre = xi_preimage(ch)
    assert xi(pre, ch.domain, ch.codomain) == ch
    single = Channel(
        CONVEX,
        ("q0",),
        ("q0",),
        {"q0": unit(CONVEX, "q0")},
    )
    pre = xi_preimage(single)
    assert pre == ConvexSet([Dist({("q0",): 1})])


@pytest.mark.parametrize("monad", [DIST, RAT, MINPLUS, CONVEX])
def test_preimage_section_on_random_channels(monad):
    rng = random.Random(41)
    carrier = ("q0", "q1", "q2")
    for _ in range(30):
        if monad.kind == "dist":
            ch = rand_channel(rng, carrier)
        elif monad.kind == "convex":
            ch = rand_convex_channel(rng, carrier, 2)
        else:
            s = monad.semiring
            table = {}
            for q in carrier:
                if monad.semiring.name == "rational":
                    w = {p: F(rng.randint(-2, 3), rng.randint(1, 2)) for p in carrier}
                else:
                    w = {p: rng.randint(0, 3) for p in carrier if rng.random() < 0.6}
                table[q] = WeightedVec(s, w)
            ch = Channel(monad, carrier, carrier, table)
        assert xi(xi_preimage(ch), carrier, carrier) == ch


def test_coin_recognizer_structure():
    coin = coin_pfa()
    rec = automaton_to_recognizer(coin)
    ident = ("q0", "q1")
    jump = ("q1", "q1")
    assert rec.morphism.letter("a") == Dist({ident: F(1, 2), jump: F(1, 2)})
    assert rec.predicate[ident] == 0
    assert rec.predicate[jump] == 1
    assert rec.evaluate(("a",)) == F(1, 2)
    assert verify_recognition(coin, rec, 8) == []


def test_pure_dfa_recognizer_is_classical():
    dfa = even_dfa()
    rec = automaton_to_recognizer(dfa)
    img = rec.morphism.letter("a")
    assert img.is_dirac()
    assert set(rec.predicate.values()) <= {F(0), F(1)}
    assert verify_recognition(dfa, rec, 8) == []


def test_minplus_recognizer_over_partial_functions():
    walk = EffAutomaton(
        monad=MINPLUS,
        states=("q0", "q1"),
        alphabet=("a",),
        init=WeightedVec(MINPLUS.semiring, {"q0": 0}),
        trans={
            ("q0", "a"): WeightedVec(MINPLUS.semiring, {"q0": 1, "q1": 0}),
            ("q1", "a"): WeightedVec(MINPLUS.semiring, {"q1": 2}),
        },
        output={"q0": 0, "q1": 1},
        output_algebra=SEMIRING_SELF,
    )
    rec = automaton_to_recognizer(walk)
    # Of the 9 partial maps on two states the letter's three singleton maps
    # generate the identity, q0->q0, q0->q1, q1->q1 and the empty map.
    assert len(rec.morphism.target) == 5
    assert len(witness_xi0(MINPLUS, walk.states)[0]) == 9
    assert verify_recognition(walk, rec, 4) == []


def test_recognizer_to_automaton_reproduces_coin():
    m = FinMonoid.from_table(
        ["0", "1"],
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
        "0",
    )
    rec = EffRecognizer(
        morphism=EffMorphism(
            target=m,
            monad=DIST,
            alphabet=("a",),
            letters={"a": Dist({"0": F(1, 2), "1": F(1, 2)})},
        ),
        predicate={"0": F(0), "1": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    aut = recognizer_to_automaton(rec)
    coin = coin_pfa()
    rename = {"0": "q0", "1": "q1"}
    assert aut.init == Dist({"0": 1})
    for (q, x), t in aut.trans.items():
        expected = coin.trans[(rename[q], x)]
        assert t.map(lambda s: rename[s]) == expected
    for q, v in aut.output.items():
        assert coin.output[rename[q]] == v
    for n in range(11):
        assert eval_word(aut, ("a",) * n) == eval_word(coin, ("a",) * n)


def test_parity_morphism_gives_two_state_dfa():
    z2 = FinMonoid.from_table(
        ["e", "g"],
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        "e",
    )
    rec = EffRecognizer(
        morphism=EffMorphism(
            target=z2, monad=DIST, alphabet=("a",), letters={"a": Dist({"g": 1})}
        ),
        predicate={"e": F(1), "g": F(0)},
        output_algebra=UNIT_INTERVAL,
    )
    aut = recognizer_to_automaton(rec)
    dfa = even_dfa()
    for n in range(9):
        assert eval_word(aut, ("a",) * n) == eval_word(dfa, ("a",) * n)


def test_weighted_recognizer_round_trip():
    rng = random.Random(47)
    for name in ("boolean", "rational", "minplus", "maxplus"):
        a = rand_wfa(rng, name, 2, 2)
        rec = automaton_to_recognizer(a)
        assert verify_recognition(a, rec, 5) == []
        back = recognizer_to_automaton(rec)
        for w in words_upto(a.alphabet, 6):
            assert a.monad.semiring.eq(eval_word(back, w), eval_word(a, w))


def test_convex_recognizer_round_trip():
    a = choice_npfa()
    rec = automaton_to_recognizer(a)
    assert verify_recognition(a, rec, 4) == []
    back = recognizer_to_automaton(rec)
    for n in range(5):
        w = ("a",) * n
        assert eval_npfa(back, w, "interval") == eval_npfa(a, w, "interval")


def test_convex_recognizer_three_states():
    # At three states the recognizer side multiplies choice counts per
    # support element, so keep per-transition choices singleton here; the
    # non-degenerate choice structure is covered at two states above.
    from conftest import rand_dist

    rng = random.Random(43)
    states = ("q0", "q1", "q2")
    trans = {(q, "a"): ConvexSet([rand_dist(rng, states)]) for q in states}
    a = EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=("a",),
        init=unit(CONVEX, "q0"),
        trans=trans,
        output={q: convex_output(F(rng.randint(0, 4), 4)) for q in states},
        output_algebra=INTERVAL_PAIR,
    )
    rec = automaton_to_recognizer(a)
    # Every row of this draw is the point mass on q1: the letter is one
    # constant map, which generates the identity and itself, not all 27 maps.
    assert len(rec.morphism.target) == 2
    assert verify_recognition(a, rec, 4) == []
    assert verify_recognition(a, _full_monoid_recognizer(a), 4) == []


@pytest.mark.parametrize("machine", ["coin", "weighted", "convex"])
def test_recognizer_morphisms_satisfy_the_laws(machine):
    from effectfa import verify_effectful_morphism

    if machine == "coin":
        a = coin_pfa()
    elif machine == "weighted":
        a = rand_wfa(random.Random(3), "rational", 2, 1)
    else:
        a = choice_npfa()
    rec = automaton_to_recognizer(a)
    assert verify_effectful_morphism(rec.morphism, 4) == []


def test_bialgebra_of_coin():
    coin = coin_pfa()
    bi = automaton_to_bialgebra(coin)
    assert bi.letters["a"] == coin.letter_channel("a")
    assert bi.predicate(bi.letters["a"]) == F(1, 2)
    assert verify_recognition(coin, bi, 6) == []


def test_bialgebra_round_trips():
    coin = coin_pfa()
    back = bialgebra_to_automaton(automaton_to_bialgebra(coin))
    for n in range(7):
        assert eval_word(back, ("a",) * n) == eval_word(coin, ("a",) * n)
    rng = random.Random(53)
    wfa = rand_wfa(rng, "rational", 2, 1)
    wback = bialgebra_to_automaton(automaton_to_bialgebra(wfa))
    for w in words_upto(wfa.alphabet, 6):
        assert eval_word(wback, w) == eval_word(wfa, w)


def test_bialgebra_with_identity_presentation_matches_recognizer_route():
    # generators = the monoid itself, images = right-multiplication channels
    m = FinMonoid.from_table(
        ["0", "1"],
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
        "0",
    )
    rec = EffRecognizer(
        morphism=EffMorphism(
            target=m,
            monad=DIST,
            alphabet=("a",),
            letters={"a": Dist({"0": F(1, 2), "1": F(1, 2)})},
        ),
        predicate={"0": F(0), "1": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    from_rec = recognizer_to_automaton(rec)
    bi = automaton_to_bialgebra(from_rec)
    back = bialgebra_to_automaton(bi)
    for n in range(7):
        assert eval_word(back, ("a",) * n) == eval_word(from_rec, ("a",) * n)


def test_bialgebra_rational_two_generator_solve():
    s = RAT.semiring
    states = ("x", "y")
    # identity and a nilpotent jump; the letter lies in their span
    gen_a = Channel(
        RAT,
        states,
        states,
        {"x": WeightedVec(s, {"x": F(1)}), "y": WeightedVec(s, {"y": F(1)})},
    )
    gen_b = Channel(
        RAT,
        states,
        states,
        {"x": WeightedVec(s, {"y": F(1)}), "y": WeightedVec(s, {})},
    )
    letter = Channel(
        RAT,
        states,
        states,
        {
            "x": WeightedVec(s, {"x": F(2), "y": F(3)}),
            "y": WeightedVec(s, {"y": F(2)}),
        },
    )
    bi = BialgRecognizer(
        monad=RAT,
        states=states,
        alphabet=("a",),
        generators=("g1", "g2"),
        images={"g1": gen_a, "g2": gen_b},
        letters={"a": letter},
        init=unit(RAT, "x"),
        output={"x": F(1), "y": F(0)},
        output_algebra=SEMIRING_SELF,
    )
    aut = bialgebra_to_automaton(bi)
    for w in words_upto(("a",), 6):
        assert eval_word(aut, w) == bi.evaluate(w)


def test_bialgebra_without_spanning_images_is_rejected():
    s = RAT.semiring
    states = ("x", "y")
    only_diag = Channel(
        RAT,
        states,
        states,
        {"x": WeightedVec(s, {"x": F(1)}), "y": WeightedVec(s, {"y": F(1)})},
    )
    letter = Channel(
        RAT,
        states,
        states,
        {"x": WeightedVec(s, {"y": F(1)}), "y": WeightedVec(s, {"x": F(1)})},
    )
    bi = BialgRecognizer(
        monad=RAT,
        states=states,
        alphabet=("a",),
        generators=("g",),
        images={"g": only_diag},
        letters={"a": letter},
        init=unit(RAT, "x"),
        output={"x": F(1), "y": F(0)},
        output_algebra=SEMIRING_SELF,
    )
    with pytest.raises(IntegrityError):
        bialgebra_to_automaton(bi)


def test_bialgebra_solver_capabilities():
    npfa = choice_npfa()
    with pytest.raises(CapabilityError):
        bialgebra_to_automaton(automaton_to_bialgebra(npfa))
    with pytest.raises(CapabilityError):
        bialgebra_to_automaton(automaton_to_bialgebra(minplus_walk()))


def test_bialgebra_verification_covers_all_effects():
    # rebuilding is restricted, but the recognizer itself verifies everywhere
    walk = minplus_walk()
    assert verify_recognition(walk, automaton_to_bialgebra(walk), 5) == []
    npfa = choice_npfa()
    assert verify_recognition(npfa, automaton_to_bialgebra(npfa), 4) == []


def test_rebuilt_automaton_computes_the_recognizer_language():
    from effectfa.automata import outputs_equal

    rng = random.Random(61)
    machines = [
        coin_pfa(),
        rand_wfa(rng, "rational", 2, 1),
        rand_wfa(rng, "minplus", 2, 1),
        choice_npfa(),
    ]
    for a in machines:
        rec = automaton_to_recognizer(a)
        rebuilt = recognizer_to_automaton(rec)
        for w in words_upto(a.alphabet, 6):
            assert outputs_equal(a, eval_word(rebuilt, w), rec.evaluate(w))


def test_verify_recognition_flags_corrupted_predicate():
    coin = coin_pfa()
    rec = automaton_to_recognizer(coin)
    corrupted = dict(rec.predicate)
    corrupted[("q1", "q1")] = F(0)
    bad = EffRecognizer(
        morphism=rec.morphism,
        predicate=corrupted,
        output_algebra=rec.output_algebra,
    )
    violations = verify_recognition(coin, bad, 2)
    assert violations
    assert all(len(w) <= 2 for w, _, _ in violations)


def test_verify_recognition_flags_corrupted_convex_predicate():
    a = choice_npfa()
    rec = automaton_to_recognizer(a)
    assert verify_recognition(a, rec, 3) == []
    corrupted = dict(rec.predicate)
    corrupted[("q1", "q1")] = convex_output(0)
    bad = EffRecognizer(
        morphism=rec.morphism,
        predicate=corrupted,
        output_algebra=rec.output_algebra,
    )
    violations = verify_recognition(a, bad, 3)
    assert [w for w, _, _ in violations] == [("a",) * n for n in (1, 2, 3)]
    for w, mine, theirs in violations:
        assert mine == eval_npfa(a, w, "interval") == (0, 1)
        assert theirs == (0, 0)


def test_recognizer_built_from_effectful_init():
    rng = random.Random(59)
    from conftest import rand_pfa

    a = rand_pfa(rng, 2, 2, pure_init=False)
    rec = automaton_to_recognizer(a)
    assert verify_recognition(a, rec, 5) == []


def test_bialgebra_recognizers_for_seeded_family():
    from conftest import rand_pfa

    rng = random.Random(101)
    for _ in range(10):
        a = rand_pfa(rng, rng.randint(1, 3), rng.randint(1, 2), pure_init=False)
        assert verify_recognition(a, automaton_to_bialgebra(a), 5) == []
    for name in ("boolean", "rational", "minplus"):
        a = rand_wfa(rng, name, rng.randint(1, 3), rng.randint(1, 2))
        assert verify_recognition(a, automaton_to_bialgebra(a), 5) == []


def _point_choice_npfa(rng):
    """Two states, one letter, transitions choosing among point masses.

    The initial value is the hull of a point mass and a random distribution,
    so it is not pure.  Point-mass transitions keep the recognizer side's
    convex products small on the three states left after purification.
    """
    states = ("q0", "q1")
    trans = {
        (q, "a"): ConvexSet(
            [Dist({p: 1}) for p in rng.sample(states, rng.randint(1, 2))]
        )
        for q in states
    }
    k = rng.randint(1, 3)
    init = ConvexSet([Dist({"q0": 1}), Dist({"q0": F(k, 4), "q1": F(4 - k, 4)})])
    return EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=("a",),
        init=init,
        trans=trans,
        output={q: convex_output(F(rng.randint(0, 4), 4)) for q in states},
        output_algebra=INTERVAL_PAIR,
    )


@pytest.mark.parametrize(
    "algebra", [INTERVAL_MAX, INTERVAL_MIN, INTERVAL_PAIR], ids=["max", "min", "pair"]
)
def test_every_collapse_site_in_every_convex_mode(algebra):
    # eval_word, both recognizers' evaluate and both sides of
    # verify_recognition end in the one output collapse; the brute force
    # over reachable distributions is the independent reference.
    a = replace(_point_choice_npfa(random.Random(38)), output_algebra=algebra)
    assert not is_pure(a.init)
    rec = automaton_to_recognizer(a)
    bi = automaton_to_bialgebra(a)
    for w in words_upto(a.alphabet, 3):
        lo, hi = npfa_brute_force(a, w, "min"), npfa_brute_force(a, w, "max")
        want = {INTERVAL_MAX: hi, INTERVAL_MIN: lo, INTERVAL_PAIR: (lo, hi)}[algebra]
        assert eval_word(a, w) == rec.evaluate(w) == bi.evaluate(w) == want
    assert verify_recognition(a, rec, 3) == []
    assert verify_recognition(a, bi, 3) == []
    # the modes are told apart on this machine
    assert npfa_brute_force(a, (), "min") < npfa_brute_force(a, (), "max")


# ---------------------------------------------------------------------------
# Recognizers checked as the machines they rebuild into


def _fold_verify(a, r, maxlen):
    """The lifted-product fold that ``verify_recognition`` used to run.

    The automaton side is ``eval_word`` per word; the recognizer side folds
    ``tm_multiply`` over the letter images (monoid recognizers) or
    ``kleisli_compose`` over the letter channels (bialgebras) along the
    word tree, then collapses.
    """
    if isinstance(r, EffRecognizer):
        h = r.morphism
        ext = {(): unit(h.monad, h.target.unit)}
        for w in words_upto(a.alphabet, maxlen):
            if len(w) == 1:
                ext[w] = h.letter(w[0])
            elif w:
                ext[w] = tm_multiply(h.target, ext[w[:-1]], h.letter(w[-1]))

        def rec_value(w):
            return collapse(h.monad, r.output_algebra, ext[w], r.predicate)

    else:
        chans = {(): identity_channel(r.monad, r.states)}
        for w in words_upto(a.alphabet, maxlen):
            if w:
                chans[w] = kleisli_compose(chans[w[:-1]], r.letters[w[-1]])

        def rec_value(w):
            return r.predicate(chans[w])

    out = []
    for w in words_upto(a.alphabet, maxlen):
        mine, theirs = eval_word(a, w), rec_value(w)
        if not outputs_equal(a, mine, theirs):
            out.append((w, mine, theirs))
    return out


def _other_value(monad, v):
    """A predicate or output entry different from ``v``."""
    if monad.kind == "convex":
        lo = F(1) if v[0] == 0 else F(0)
        return (lo, lo)
    if monad.kind == "dist":
        return F(1) - v if v != F(1, 2) else F(0)
    s = monad.semiring
    if s.name == "boolean":
        return not v
    if s.name == "rational":
        return v + 1
    return 0 if v != 0 else 2


def _corrupted_recognizers(rng, rec):
    """The recognizer itself, then one with a corrupted predicate entry and
    one with a corrupted letter image (one support element moved)."""
    h, m = rec.morphism, rec.morphism.target
    yield rec
    x = rng.choice(m.elements)
    pred = dict(rec.predicate)
    pred[x] = _other_value(h.monad, pred[x])
    yield replace(rec, predicate=pred)
    letter = rng.choice([x for x in h.alphabet if _support(h.letter(x))])
    moved = rng.choice(sorted(_support(h.letter(letter)), key=m.index))
    to = rng.choice([y for y in m.elements if y != moved])
    letters = dict(h.letters)
    letters[letter] = h.letter(letter).map(lambda n: to if n == moved else n)
    yield replace(rec, morphism=replace(h, letters=letters))


def _corrupted_bialgebras(rng, bi):
    yield bi
    q = rng.choice(bi.states)
    output = dict(bi.output)
    output[q] = _other_value(bi.monad, output[q])
    yield replace(bi, output=output)
    letter = rng.choice(bi.alphabet)
    ch = bi.letters[letter]
    table = dict(ch.table)
    table[q] = unit(bi.monad, rng.choice(bi.states))
    letters = dict(bi.letters)
    letters[letter] = Channel(bi.monad, ch.domain, ch.codomain, table)
    yield replace(bi, letters=letters)


def _support(t):
    if isinstance(t, ConvexSet):
        return {x for g in t.generators for x in g.support()}
    return set(t.support())


def _point_choice_two_letters(rng):
    """Two states, two letters, a pure start and point-mass choices.

    With dense generators the lifted-product fold of the oracle takes
    seconds at depth 2 and minutes at depth 3.
    """
    states = ("q0", "q1")
    trans = {
        (q, x): ConvexSet([Dist({p: 1}) for p in rng.sample(states, rng.randint(1, 2))])
        for q in states
        for x in ("a", "b")
    }
    return EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=("a", "b"),
        init=unit(CONVEX, "q0"),
        trans=trans,
        output={q: convex_output(F(rng.randint(0, 4), 4)) for q in states},
        output_algebra=INTERVAL_PAIR,
    )


def _seeded_machines(rng):
    """``(machine, depth)`` pairs; the depth keeps the oracle's fold short."""
    from conftest import rand_pfa

    yield rand_pfa(rng, 2, 2, pure_init=False), 4
    yield rand_pfa(rng, 3, 1), 4
    for name in ("rational", "minplus", "boolean"):
        yield rand_wfa(rng, name, 2, 2), 4
    yield _point_choice_two_letters(rng), 3
    # Three states after purification: 27 maps, of which the letter
    # generates 5.  The fold takes seconds per word on most such machines
    # with more elements; this one is quick.
    yield _point_choice_npfa(random.Random(38)), 3


@pytest.mark.parametrize("seed", [3, 17])
def test_verify_recognition_matches_the_lifted_product_fold(seed):
    rng = random.Random(seed)
    seen_violations = 0
    for a, depth in _seeded_machines(rng):
        recs = list(_corrupted_recognizers(rng, automaton_to_recognizer(a)))
        recs += list(_corrupted_bialgebras(rng, automaton_to_bialgebra(a)))
        for r in recs:
            got = verify_recognition(a, r, depth)
            want = _fold_verify(a, r, depth)
            assert got == want
            # the CLI prints the values with str(); so must match their text
            assert [tuple(map(str, v)) for v in got] == [
                tuple(map(str, v)) for v in want
            ]
            seen_violations += bool(got)
        assert verify_recognition(a, recs[0], depth) == []
    assert seen_violations >= 10


def test_verify_recognition_clean_on_a_27_element_convex_monoid():
    from conftest import rand_npfa

    a = rand_npfa(random.Random(5), 2, 1, 2, pure_init=False)
    # Three states once the initial value is purified: 27 maps in all, of
    # which the letter generates 9.
    full = _full_monoid_recognizer(a)
    rec = automaton_to_recognizer(a)
    assert (len(full.morphism.target), len(rec.morphism.target)) == (27, 9)
    for r in (full, rec):
        assert verify_recognition(a, r, 4) == []
        for w in words_upto(a.alphabet, 4):
            assert r.evaluate(w) == eval_word(a, w)


@pytest.mark.parametrize("seed", [5, 23])
def test_recognizer_evaluate_matches_the_free_extension(seed):
    from conftest import rand_pfa

    rng = random.Random(seed)
    machines = [rand_pfa(rng, 2, 2, pure_init=False), choice_npfa()]
    machines += [rand_wfa(rng, name, 2, 2) for name in ("rational", "minplus", "boolean")]
    machines += [_point_choice_two_letters(rng), _point_choice_npfa(random.Random(38))]
    for a in machines:
        rec = automaton_to_recognizer(a)
        h = rec.morphism
        for w in words_upto(a.alphabet, 3):
            # free_extension_word folds tm_multiply: for convex values it is
            # forward hull propagation of the lifted products.
            want = collapse(h.monad, rec.output_algebra, free_extension_word(h, w), rec.predicate)
            assert outputs_equal(a, rec.evaluate(w), want)
            if h.monad.kind != "convex":
                enumerated = free_extension_enumerated(h, w)
                assert outputs_equal(
                    a, want, collapse(h.monad, rec.output_algebra, enumerated, rec.predicate)
                )


def test_recognizer_machine_is_built_once_outside_the_fields():
    rec = automaton_to_recognizer(coin_pfa())
    twin = EffRecognizer(rec.morphism, dict(rec.predicate), rec.output_algebra)
    assert rec.evaluate(("a", "a")) == F(3, 4)
    assert rec._machine is rec._machine
    assert [f.name for f in fields(rec)] == ["morphism", "predicate", "output_algebra"]
    assert rec == twin and "_machine" not in repr(rec)
    assert recognizer_to_automaton(rec) == rec._machine


def _coin_bialgebra_fields():
    bi = automaton_to_bialgebra(coin_pfa())
    return {f.name: getattr(bi, f.name) for f in fields(bi)}


def test_bialgebra_output_must_be_total():
    with pytest.raises(InterfaceError, match="output"):
        BialgRecognizer(**{**_coin_bialgebra_fields(), "output": {"q0": F(0)}})


def test_bialgebra_letter_without_channel_is_rejected():
    with pytest.raises(InterfaceError, match="letter"):
        BialgRecognizer(**{**_coin_bialgebra_fields(), "alphabet": ("a", "b")})


@pytest.mark.parametrize("where", ["letters", "images"])
def test_bialgebra_channels_must_act_on_the_states(where):
    kw = _coin_bialgebra_fields()
    wide = ("q0", "q1", "q2")
    ch = Channel(DIST, wide, wide, {q: unit(DIST, q) for q in wide})
    key = "a" if where == "letters" else kw["generators"][0]
    kw[where] = {**kw[where], key: ch}
    with pytest.raises(InterfaceError, match="channel"):
        BialgRecognizer(**kw)


def test_bialgebra_init_off_the_states_is_rejected():
    kw = _coin_bialgebra_fields()
    with pytest.raises(InterfaceError, match="initial"):
        BialgRecognizer(**{**kw, "init": Dist({"q0": F(1, 2), "zz": F(1, 2)})})


def test_bialgebra_images_must_be_on_exactly_the_distinct_generators():
    # Unchecked, each of these reached bialgebra_to_automaton and
    # print_bialgebra, which failed with a bare KeyError.
    kw = _coin_bialgebra_fields()
    first, *rest = kw["generators"]
    images = kw["images"]
    for change, message in [
        ({"images": {g: images[g] for g in rest}}, "images must be given"),
        ({"images": {**images, "zz": images[first]}}, "images must be given"),
        ({"generators": (first, first, *rest)}, "repeated generator"),
    ]:
        with pytest.raises(InterfaceError, match=message):
            BialgRecognizer(**{**kw, **change})
    bi = BialgRecognizer(**kw)
    assert print_bialgebra(bi) == print_bialgebra(automaton_to_bialgebra(coin_pfa()))


def test_bialgebra_evaluate_rejects_unknown_letters():
    r = automaton_to_bialgebra(coin_pfa())
    for w in [("z",), ("a", "a", "z")]:
        with pytest.raises(InputError):
            r.evaluate(w)
    assert r.evaluate(("a", "a")) == eval_word(coin_pfa(), ("a", "a"))


def _composed(r, w):
    ch = identity_channel(r.monad, r.states)
    for x in w:
        ch = kleisli_compose(ch, r.letters[x])
    return ch


def test_bialgebra_evaluate_composes_no_channels(monkeypatch):
    from conftest import rand_npfa
    from effectfa import automata, effects

    rng = random.Random(31)
    machines = [rand_pfa(rng, 3, 2, pure_init=False), rand_wfa(rng, "rational", 3, 2)]
    machines += [choice_npfa(), rand_npfa(rng, 3, 2, 3)]
    cases = []
    for a in machines:
        r = automaton_to_bialgebra(a)
        words = list(words_upto(a.alphabet, 3)) + [a.alphabet * (8 // len(a.alphabet))]
        # The value of the composed letter channels, taken before the patch.
        want = [r.predicate(_composed(r, w)) for w in words]
        cases.append((r, words, want))

    def forbidden(*args):
        raise AssertionError("evaluate must not compose letter channels")

    for module in (effects, automata, recognition):
        monkeypatch.setattr(module, "kleisli_compose", forbidden)
    for r, words, want in cases:
        assert [r.evaluate(w) for w in words] == want
        with pytest.raises(InputError):
            r.evaluate(("a", "z"))


def test_monoid_predicate_is_the_collapse_of_each_graph():
    # The predicate is read off each graph; the oracle pushes the start
    # through the graph's channel and collapses it.
    from conftest import rand_npfa

    rng = random.Random(37)
    machines = [coin_pfa(), choice_npfa(), minplus_walk()]
    for n in (1, 2, 3):
        machines.append(rand_pfa(rng, n, 2, pure_init=n != 2))
        machines += [rand_wfa(rng, name, n, 2) for name in ("rational", "boolean")]
        machines += [rand_wfa(rng, name, n, 2) for name in ("minplus", "maxplus")]
        machines.append(rand_npfa(rng, n, 2, 2, pure_init=n != 2))
    for a in machines:
        rec = automaton_to_recognizer(a)
        b = a if is_pure(a.init) else purify_initial(a)
        want = {
            f: collapse(
                b.monad,
                INTERVAL_PAIR,
                bind(b.init, recognition._graph_channel(b.monad, b.states, f)),
                b.output,
            )
            for f in rec.morphism.target.elements
        }
        assert list(rec.predicate.items()) == list(want.items())


def test_function_monoid_over_the_bound_fails_before_it_is_built(monkeypatch):
    # The letters generate all 5**5 = 3125 maps, over the bound of 1000: the
    # closure stops at 1001, and the whole function monoid is never built.
    a = full_transformation_dfa(5)
    monkeypatch.setattr(recognition, "function_monoid", None)
    for build in (automaton_to_recognizer, automaton_to_bialgebra):
        with pytest.raises(ResourceError, match="bound of 1000") as e:
            build(a)
        assert "1001" in str(e.value)


def test_bialgebra_rebuild_over_the_generator_bound_fails_before_any_lp(monkeypatch):
    rng = random.Random(5)
    three = rand_pfa(rng, 3, 2)
    bi = automaton_to_bialgebra(three)
    # The generated monoid, shared with the monoid recognizer, not all 27 maps.
    assert bi.generators == automaton_to_recognizer(three).morphism.target.elements
    assert len(bi.generators) == 14
    back = bialgebra_to_automaton(bi)
    for w in words_upto(three.alphabet, 3):
        assert eval_word(back, w) == eval_word(three, w)
    # The letters generate all 4**4 = 256 maps, over the bound of 64.
    bi = automaton_to_bialgebra(full_transformation_dfa(4))
    lps = []
    monkeypatch.setattr(recognition, "_int_lines", lambda *args: lps.append(args))
    monkeypatch.setattr(recognition, "_nonneg_solve", lambda *args: lps.append(args))
    with pytest.raises(ResourceError, match="256") as e:
        bialgebra_to_automaton(bi)
    assert "64" in str(e.value) and lps == []


def rebuild_per_target(bi):
    """:func:`bialgebra_to_automaton` with every target solved on its own:
    the generator columns are built afresh per target, rational targets go
    through :func:`solve_linear` and ``dist`` ones through the `Fraction`
    simplex.  The oracle of the rebuild's one solver; states are named as
    the rebuild names them."""
    index = {q: i for i, q in enumerate(bi.states)}
    name = {g: _generator_name(g, index) for g in bi.generators}

    def vector(ch):
        return tuple(ch(x).weight(y) for x in ch.domain for y in ch.codomain)

    def preimage(target):
        columns = tuple(zip(*(vector(bi.images[g]) for g in bi.generators)))
        if bi.monad.kind == "dist":
            ones = (F(1),) * len(bi.generators)
            sol = fraction_feasible_nonneg(columns + (ones,), vector(target) + (F(1),))
            value = Dist
        else:
            sol = solve_linear(columns, vector(target))
            value = partial(WeightedVec, bi.monad.semiring)
        if sol is None:
            return None
        return value({name[g]: c for g, c in zip(bi.generators, sol) if c != 0})

    init = preimage(identity_channel(bi.monad, bi.states))
    if init is None:
        raise IntegrityError("the generator images do not span the identity channel")
    trans = {}
    for g in bi.generators:
        for a in bi.alphabet:
            t = preimage(kleisli_compose(bi.images[g], bi.letters[a]))
            if t is None:
                raise IntegrityError(f"no generator preimage for transition ({g!r}, {a!r})")
            trans[(name[g], a)] = t
    return EffAutomaton(
        monad=bi.monad,
        states=tuple(name.values()),
        alphabet=bi.alphabet,
        init=init,
        trans=trans,
        output={name[g]: bi.predicate(bi.images[g]) for g in bi.generators},
        output_algebra=bi.output_algebra,
    )


def test_bialgebra_rebuild_prints_the_machine_of_per_target_solves():
    rng = random.Random(76)
    machines = [coin_pfa(), rand_pfa(rng, 3, 2, pure_init=False)]
    for n in (1, 2, 3, 4):
        machines.append(rand_pfa(rng, n, 2 if n < 4 else 1))
        machines.append(rand_wfa(rng, "rational", n, 2))
    bis = [automaton_to_bialgebra(a) for a in machines]
    for bi in bis:
        rebuilt = bialgebra_to_automaton(bi)
        assert print_automaton(rebuilt) == print_automaton(rebuild_per_target(bi))
    # The non-pure start moved onto a fresh state: four states from three.
    assert not is_pure(machines[1].init) and len(bis[1].states) == 4
    assert sorted(len(bi.generators) for bi in bis)[-2:] == [41, 50]


# A rational bialgebra on two states whose third generator image is
# 2*g1 + 3*g2: the row space skips it, so no preimage uses it.  Letter b (the
# swap) lies outside the span of the images.
SKIPPED_GENERATOR_BIALGEBRA = """\
monad weighted rational
alphabet a b
states x y
gens g1 g2 g3
image g1 x -> x:1
image g1 y -> y:1
image g2 x -> y:1
image g2 y ->
image g3 x -> x:2 y:3
image g3 y -> y:2
hom a x -> x:2 y:3
hom a y -> y:2
hom b x -> y:1
hom b y -> x:1
init x:1
output x:1 y:0
"""


def test_bialgebra_rebuild_skips_dependent_images_and_reports_the_same_gap():
    text = SKIPPED_GENERATOR_BIALGEBRA
    only_a = text.replace("alphabet a b", "alphabet a").replace(
        "hom b x -> y:1\nhom b y -> x:1\n", ""
    )
    bi = parse_recognizer(only_a)
    rebuilt = bialgebra_to_automaton(bi)
    assert print_automaton(rebuilt) == print_automaton(rebuild_per_target(bi))
    assert rebuilt.trans[("g1", "a")] == WeightedVec(RAT.semiring, {"g1": F(2), "g2": F(3)})
    assert all(t.weight("g3") == 0 for t in rebuilt.trans.values())
    assert rebuilt.init.weight("g3") == 0
    bi = parse_recognizer(text)
    with pytest.raises(IntegrityError) as mine:
        bialgebra_to_automaton(bi)
    with pytest.raises(IntegrityError) as theirs:
        rebuild_per_target(bi)
    assert str(mine.value) == str(theirs.value)
    assert str(mine.value) == "no generator preimage for transition ('g1', 'b')"


# ---------------------------------------------------------------------------
# Recognizers on the generated monoid, against the whole function monoid


def _full_monoid_recognizer(a):
    """The recognizer on the whole function monoid (``witness_xi0``), with
    the product-of-weights section ``lambda_channel`` for ``dist`` letters:
    the construction the generated-monoid recognizer is checked against."""
    if not is_pure(a.init):
        a = purify_initial(a)
    m, images = witness_xi0(a.monad, a.states)
    section = lambda_channel if a.monad.kind == "dist" else xi_preimage
    letters = {x: section(a.letter_channel(x)) for x in a.alphabet}
    predicate = {
        f: collapse(a.monad, INTERVAL_PAIR, bind(a.init, images[f]), a.output)
        for f in m.elements
    }
    morphism = EffMorphism(target=m, monad=a.monad, alphabet=a.alphabet, letters=letters)
    return EffRecognizer(morphism, predicate, a.output_algebra)


def _cross_check_machines(rng):
    from conftest import rand_npfa

    yield rand_pfa(rng, 3, 2, max_den=15)
    yield rand_pfa(rng, 2, 2, max_den=5, pure_init=False)
    yield rand_npfa(rng, 2, 1, 2, pure_init=False)
    for name in ("rational", "minplus", "boolean"):
        yield rand_wfa(rng, name, 2, 2)


@pytest.mark.parametrize("seed", [7, 29])
def test_generated_monoid_recognizer_matches_the_full_monoid(seed):
    for a in _cross_check_machines(random.Random(seed)):
        rec, full = automaton_to_recognizer(a), _full_monoid_recognizer(a)
        m = rec.morphism.target
        assert set(m.elements) <= set(full.morphism.target.elements)
        for w in words_upto(a.alphabet, 4):
            want = eval_word(a, w)
            assert outputs_equal(a, rec.evaluate(w), want)
            assert outputs_equal(a, full.evaluate(w), want)
        # Closed under composition, computed here from the graphs.
        index = {q: i for i, q in enumerate(m.unit)}
        elements = set(m.elements)
        for f in m.elements:
            for g in m.elements:
                fg = tuple(None if y is None else g[index[y]] for y in f)
                assert fg in elements and m.mul(f, g) == fg
        for x in a.alphabet:
            assert _support(rec.morphism.letter(x)) <= elements


def _sparse_channels(rng):
    carrier = ("q0", "q1", "q2", "q3")
    yield Channel(
        DIST,
        carrier,
        carrier,
        {
            "q0": Dist({"q0": F(1, 3), "q1": F(1, 5), "q2": F(7, 15)}),
            "q1": Dist({"q1": F(2, 5), "q3": F(3, 5)}),
            "q2": Dist({"q0": F(1, 3), "q1": F(1, 3), "q2": F(1, 3)}),
            "q3": Dist({"q0": F(1, 5), "q1": F(1, 5), "q2": F(1, 5), "q3": F(2, 5)}),
        },
    )
    for den in (3, 5, 15):
        for _ in range(10):
            yield rand_channel(rng, carrier, den)


def test_sparse_dist_preimage_is_an_exact_small_deterministic_section():
    # Each step sends every row to its largest remaining entry (the first
    # on ties) and takes the smallest of them: 6 graphs of at most 9.
    first = next(_sparse_channels(random.Random(11)))
    assert decompose_channel(first).items() == (
        (("q2", "q3", "q0", "q3"), F(1, 3)),
        (("q0", "q1", "q1", "q0"), F(1, 5)),
        (("q1", "q3", "q2", "q1"), F(1, 5)),
        (("q0", "q1", "q1", "q2"), F(2, 15)),
        (("q2", "q1", "q2", "q2"), F(1, 15)),
        (("q2", "q3", "q2", "q3"), F(1, 15)),
    )
    for ch in _sparse_channels(random.Random(11)):
        pre = decompose_channel(ch)
        assert xi_preimage(ch) == pre
        assert xi(pre, ch.domain, ch.codomain) == ch
        entries = sum(len(ch(x).support()) for x in ch.domain)
        assert len(pre.support()) <= entries - len(ch.domain) + 1
        # The same channel with its rows written in another order.
        reordered = Channel(
            DIST,
            ch.domain,
            ch.codomain,
            {x: Dist(dict(reversed(ch(x).items()))) for x in ch.domain},
        )
        assert decompose_channel(reordered).items() == pre.items()


def test_bialgebra_rejects_inexact_outputs():
    with pytest.raises(InterfaceError, match="exact"):
        replace(automaton_to_bialgebra(coin_pfa()), output={"q0": 0.5, "q1": 0.5})


def test_monoid_recognizer_rejects_inexact_predicates():
    rec = automaton_to_recognizer(coin_pfa())
    predicate = {f: float(v) for f, v in rec.predicate.items()}
    with pytest.raises(InterfaceError, match="exact"):
        EffRecognizer(rec.morphism, predicate, rec.output_algebra)
    with pytest.raises(InterfaceError, match="total"):
        EffRecognizer(rec.morphism, {rec.morphism.target.unit: F(0)}, rec.output_algebra)


# ``verify`` decides linear and boolean recognizers exactly
# (``automata._equivalent``).  The oracle is the word walk, taken beyond the
# length by which two machines that differ must have differed.


def _linear_and_boolean_machines(seed):
    from conftest import rand_pfa

    rng = random.Random(seed)
    yield coin_pfa()
    yield even_dfa()
    for n in (1, 2, 3):
        yield rand_pfa(rng, n, 2)
    yield rand_pfa(rng, 2, 2, pure_init=False)
    for n in (1, 2):
        yield rand_wfa(rng, "rational", n, 2)
        yield rand_wfa(rng, "boolean", n, 2)


@pytest.mark.parametrize("seed", [930, 931])
def test_every_machine_is_equivalent_to_its_monoid_machine_and_its_minimum(seed):
    from effectfa import from_linear, minimize, to_linear
    from effectfa.automata import _equivalent, _is_linear

    for a in _linear_and_boolean_machines(seed):
        others = [recognizer_to_automaton(automaton_to_recognizer(a))]
        if _is_linear(a.monad):
            others.append(from_linear(minimize(to_linear(a))))
        if _is_linear(a.monad) and len(a.states) < 3:  # 27 generators: 54 LPs
            others.append(bialgebra_to_automaton(automaton_to_bialgebra(a)))
        for b in others:
            assert _equivalent(a, b) is True
            assert walk_agrees(a, b, difference_bound(a, b))
            for w in words_upto(a.alphabet, 3):
                assert outputs_equal(a, eval_word(a, w), eval_word(b, w))


@pytest.mark.parametrize("seed", [932, 933])
def test_corrupted_recognizers_are_decided_like_the_walk(seed):
    from effectfa.automata import _equivalent

    rng = random.Random(seed)
    outcomes = set()
    for a in _linear_and_boolean_machines(seed):
        rec = automaton_to_recognizer(a)
        h = rec.morphism
        if len(h.target) == 1 or not any(_support(h.letter(x)) for x in h.alphabet):
            continue  # nothing to corrupt
        for r in _corrupted_recognizers(rng, rec):
            b = r._machine
            got = _equivalent(a, b)
            assert got is walk_agrees(a, b, difference_bound(a, b))
            outcomes.add(got)
    assert outcomes == {True, False}
