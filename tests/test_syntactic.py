import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import coin_pfa, contains_ab_dfa, even_dfa, minplus_walk, rand_pfa, rand_wfa
from effectfa import (
    DIST,
    Dist,
    EffAutomaton,
    FormalCombo,
    UNIT_INTERVAL,
    bounded_context_oracle,
    cancellativity_embedding,
    combo_matrix,
    eval_word,
    from_linear,
    is_commutative,
    minimize,
    syn_congruent,
    syn_eval,
    to_linear,
    unit,
    words_upto,
)
from effectfa.errors import CapabilityError, InputError, InterfaceError, PreconditionError
from effectfa.linalg import (
    RowSpace,
    dot,
    identity,
    mat_mul,
    solve_linear,
    transpose,
    vec_mat,
)
from effectfa.syntactic import LinearRep


def half(n=1):
    return F(1, 2**n)


def coin_rep(minimal=False):
    rep = to_linear(coin_pfa())
    return minimize(rep) if minimal else rep


RELATION_LHS = FormalCombo({(): F(1, 3), ("a", "a"): F(2, 3)})
RELATION_RHS = FormalCombo.dirac(("a",))


def test_to_linear_reads_off_coin():
    rep = coin_rep()
    assert rep.initial == (F(1), F(0))
    assert rep.final == (F(0), F(1))
    assert rep.letters["a"] == ((F(1, 2), F(1, 2)), (F(0), F(1)))


def test_to_linear_pure_dfa_is_zero_one():
    rep = to_linear(even_dfa())
    for row in rep.letters["a"]:
        assert set(row) <= {F(0), F(1)}


def test_to_linear_needs_rational_values():
    with pytest.raises(CapabilityError):
        to_linear(minplus_walk())


def test_formal_combo_validation():
    with pytest.raises(InputError):
        FormalCombo({(): F(1, 2)})
    with pytest.raises(InputError):
        FormalCombo({(): F(3, 2), ("a",): F(-1, 2)})


def test_formal_combo_weights_are_exact():
    # A float weight made syn_eval return a float, and text that is no
    # literal failed on a bare comparison; both are rejected by name.
    with pytest.raises(InterfaceError) as caught:
        FormalCombo({(): 0.5, ("a",): 0.5})
    assert str(caught.value) == "combination weight 0.5 at () is not an exact rational"
    with pytest.raises(InterfaceError) as caught:
        FormalCombo({(): F(1, 2), ("a",): "half"})
    assert str(caught.value) == (
        "combination weight 'half' at ('a',) is not an exact rational"
    )
    combo = FormalCombo({(): "1/2", ("a",): 1 - F(1, 2)})
    assert combo.terms == {(): F(1, 2), ("a",): F(1, 2)}
    assert all(type(r) is F for r in combo.terms.values())
    assert syn_eval(coin_rep(minimal=True), combo) == F(1, 4)


def test_minimize_coin_dimension_two():
    assert coin_rep(minimal=True).dim == 2


def test_minimize_drops_padding_state():
    coin = coin_pfa()
    padded = EffAutomaton(
        monad=DIST,
        states=("q0", "q1", "junk"),
        alphabet=("a",),
        init=unit(DIST, "q0"),
        trans={
            ("q0", "a"): coin.trans[("q0", "a")],
            ("q1", "a"): coin.trans[("q1", "a")],
            ("junk", "a"): Dist({"junk": 1}),
        },
        output={"q0": F(0), "q1": F(1), "junk": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    rep = minimize(to_linear(padded))
    assert rep.dim == 2
    for n in range(11):
        assert rep.value(("a",) * n) == eval_word(padded, ("a",) * n)


def test_minimize_zero_language_to_dimension_zero():
    zero = EffAutomaton(
        monad=DIST,
        states=("z", "w"),
        alphabet=("a",),
        init=unit(DIST, "z"),
        trans={("z", "a"): Dist({"w": 1}), ("w", "a"): Dist({"z": 1})},
        output={"z": F(0), "w": F(0)},
        output_algebra=UNIT_INTERVAL,
    )
    rep = minimize(to_linear(zero))
    assert rep.dim == 0
    assert rep.value(("a", "a")) == 0
    assert syn_eval(rep, FormalCombo.dirac(())) == 0


def _hankel_rank(a, depth):
    """Independent oracle for the minimal dimension: the rank of the table
    of language values indexed by (prefix, suffix) pairs."""
    from effectfa.linalg import RowSpace

    prefixes = list(words_upto(a.alphabet, depth))
    suffixes = list(words_upto(a.alphabet, depth))
    space = RowSpace(len(suffixes))
    for x in prefixes:
        space.add(tuple(eval_word(a, x + y) for y in suffixes))
    return space.dim


def test_minimize_dimension_equals_hankel_rank():
    assert _hankel_rank(coin_pfa(), 3) == 2
    rng = random.Random(79)
    for _ in range(12):
        a = rand_pfa(rng, rng.randint(1, 3), rng.randint(1, 2), pure_init=False)
        # depth 3 suffices: the rank of the value table stabilises at the
        # true dimension once both context depths reach the state count
        assert minimize(to_linear(a)).dim == _hankel_rank(a, 3)
    for _ in range(8):
        a = rand_wfa(rng, "rational", rng.randint(1, 3), rng.randint(1, 2))
        assert minimize(to_linear(a)).dim == _hankel_rank(a, 3)


def test_minimize_preserves_language_and_never_grows():
    rng = random.Random(61)
    for _ in range(15):
        a = rand_pfa(rng, rng.randint(1, 3), rng.randint(1, 2), pure_init=False)
        rep = to_linear(a)
        mini = minimize(rep)
        assert mini.dim <= rep.dim
        for w in words_upto(a.alphabet, 7):
            assert mini.value(w) == eval_word(a, w)
        again = minimize(mini)
        assert again.dim == mini.dim
    for _ in range(10):
        a = rand_wfa(rng, "rational", rng.randint(1, 3), rng.randint(1, 2))
        rep = to_linear(a)
        mini = minimize(rep)
        assert mini.dim <= rep.dim
        for w in words_upto(a.alphabet, 7):
            assert mini.value(w) == eval_word(a, w)


def test_combo_matrix_examples():
    rep = coin_rep(minimal=True)
    assert combo_matrix(rep, FormalCombo.dirac(())) == identity(2)
    m_a = combo_matrix(rep, RELATION_RHS)
    assert m_a == rep.letters["a"]
    assert combo_matrix(rep, RELATION_LHS) == m_a


def test_syn_congruent_decides_the_defining_relation():
    rep = coin_rep(minimal=True)
    assert syn_congruent(rep, RELATION_LHS, RELATION_RHS) is True
    assert syn_congruent(rep, FormalCombo.dirac(()), RELATION_RHS) is False
    assert syn_congruent(rep, RELATION_LHS, RELATION_LHS) is True


def test_syn_congruent_requires_minimal():
    with pytest.raises(PreconditionError):
        syn_congruent(coin_rep(), RELATION_LHS, RELATION_RHS)


def test_syn_congruent_is_an_equivalence_and_congruence():
    rep = coin_rep(minimal=True)
    rng = random.Random(67)

    def rand_combo():
        k = rng.randint(1, 3)
        words = [("a",) * rng.randint(0, 5) for _ in range(k)]
        weights = [rng.randint(1, 4) for _ in range(k)]
        total = sum(weights)
        terms = {}
        for w, c in zip(words, weights):
            terms[w] = terms.get(w, F(0)) + F(c, total)
        return FormalCombo(terms)

    combos = [rand_combo() for _ in range(12)]
    for c in combos:
        assert syn_congruent(rep, c, c)
    for c1 in combos:
        for c2 in combos:
            assert syn_congruent(rep, c1, c2) == syn_congruent(rep, c2, c1)
            if syn_congruent(rep, c1, c2):
                # two-sided contexts preserve the relation
                for x, y in ((("a",), ()), ((), ("a",)), (("a",), ("a", "a"))):
                    mx = combo_matrix(rep, FormalCombo.dirac(x))
                    my = combo_matrix(rep, FormalCombo.dirac(y))
                    lhs = mat_mul(mat_mul(mx, combo_matrix(rep, c1)), my)
                    rhs = mat_mul(mat_mul(mx, combo_matrix(rep, c2)), my)
                    assert lhs == rhs
    for c1, c2, c3 in zip(combos, combos[1:], combos[2:]):
        if syn_congruent(rep, c1, c2) and syn_congruent(rep, c2, c3):
            assert syn_congruent(rep, c1, c3)


def test_bounded_oracle_on_examples():
    coin = coin_pfa()
    assert bounded_context_oracle(coin, RELATION_LHS, RELATION_RHS, 4) is True
    assert (
        bounded_context_oracle(coin, FormalCombo.dirac(()), RELATION_RHS, 0) is False
    )
    assert bounded_context_oracle(coin, RELATION_LHS, RELATION_LHS, 2) is True


def test_congruence_implies_bounded_oracle_and_spot_completeness():
    from effectfa import Position, solve

    coin = coin_pfa()
    rep = coin_rep(minimal=True)
    rng = random.Random(71)

    def combo_of(position):
        return FormalCombo({("a",) * n: w for n, w in position.items()})

    def rand_position():
        ks = rng.sample(range(0, 7), rng.randint(1, 3))
        ws = [rng.randint(1, 8) for _ in ks]
        total = sum(ws)
        return Position({k: F(w, total) for k, w in zip(ks, ws)})

    seen_equal = seen_diff = 0
    for _ in range(40):
        p = rand_position()
        # rewriting to the canonical representative keeps the class fixed
        equal_pair = (combo_of(p), combo_of(solve(p)[0]))
        assert syn_congruent(rep, *equal_pair)
        assert bounded_context_oracle(coin, *equal_pair, 4)
        seen_equal += 1
        q = rand_position()
        c1, c2 = combo_of(p), combo_of(q)
        cong = syn_congruent(rep, c1, c2)
        oracle = bounded_context_oracle(coin, c1, c2, 4)
        assert cong == oracle  # the bounded oracle is complete here
        if not cong:
            seen_diff += 1
    assert seen_equal and seen_diff


def test_syn_eval_examples():
    rep = coin_rep(minimal=True)
    assert syn_eval(rep, FormalCombo.dirac(("a",) * 3)) == F(7, 8)
    assert syn_eval(rep, FormalCombo({(): F(1, 2), ("a",): F(1, 2)})) == F(1, 4)
    for n in range(9):
        w = ("a",) * n
        assert syn_eval(rep, FormalCombo.dirac(w)) == eval_word(coin_pfa(), w)


def test_commutativity_of_unary_and_factor_languages():
    assert is_commutative(coin_rep(minimal=True)) is True
    assert is_commutative(minimize(to_linear(even_dfa()))) is True
    assert is_commutative(minimize(to_linear(contains_ab_dfa()))) is False


def test_commutativity_of_product_of_unary_languages():
    # letters act on independent components, so the language only counts
    # occurrences of each letter
    coin = coin_pfa()
    states = tuple((p, q) for p in coin.states for q in coin.states)
    step = coin.trans

    def lift_a(pq):
        p, q = pq
        return Dist({(p2, q): w for p2, w in step[(p, "a")].items()})

    def lift_b(pq):
        p, q = pq
        return Dist({(p, q2): w for q2, w in step[(q, "a")].items()})

    prod = EffAutomaton(
        monad=DIST,
        states=states,
        alphabet=("a", "b"),
        init=unit(DIST, ("q0", "q0")),
        trans={
            **{(pq, "a"): lift_a(pq) for pq in states},
            **{(pq, "b"): lift_b(pq) for pq in states},
        },
        output={
            (p, q): coin.output[p] * coin.output[q] for (p, q) in states
        },
        output_algebra=UNIT_INTERVAL,
    )
    rep = minimize(to_linear(prod))
    assert is_commutative(rep) is True


def test_cancellativity_certificate():
    rep = coin_rep(minimal=True)
    cert = cancellativity_embedding(rep)
    assert cert.dimension == 2
    assert set(cert.letters) == {"a"}
    rng = random.Random(73)
    m = rep.letters["a"]
    powers = [identity(2), m, mat_mul(m, m), mat_mul(mat_mul(m, m), m)]
    for _ in range(50):
        x, y, z = (rng.choice(powers) for _ in range(3))
        r = F(rng.randint(1, 3), 4)
        assert cert.cancellation_holds(x, y, z, r)
        assert cert.cancellation_holds(x, y, y, r)
    with pytest.raises(InputError):
        cert.cancellation_holds(m, m, m, F(0))


def test_cancellativity_zero_language():
    zero = EffAutomaton(
        monad=DIST,
        states=("z",),
        alphabet=("a",),
        init=unit(DIST, "z"),
        trans={("z", "a"): Dist({"z": 1})},
        output={"z": F(0)},
        output_algebra=UNIT_INTERVAL,
    )
    cert = cancellativity_embedding(minimize(to_linear(zero)))
    assert cert.dimension == 0


def test_from_linear_round_trips_minimal_representations():
    rng = random.Random(29)
    machines = [coin_pfa()] + [rand_wfa(rng, "rational", 3, 2) for _ in range(4)]
    for a in machines:
        rep = minimize(to_linear(a))
        back = to_linear(from_linear(rep))
        assert back.alphabet == rep.alphabet
        assert back.initial == rep.initial
        assert back.letters == rep.letters
        assert back.final == rep.final


def test_linear_rep_value_and_word_matrix_match_fraction_products():
    rng = random.Random(601)
    reps = [coin_rep(), coin_rep(minimal=True)]
    reps += [to_linear(rand_pfa(rng, 4, 2, pure_init=False)) for _ in range(3)]
    reps += [to_linear(rand_wfa(rng, "rational", 4, 2)) for _ in range(3)]
    for rep in reps:
        words = list(words_upto(rep.alphabet, 3))
        words.append(tuple(rng.choice(rep.alphabet) for _ in range(40)))
        for w in words:
            m = identity(rep.dim)
            v = rep.initial
            for x in w:
                m = mat_mul(m, rep.letters[x])
                v = vec_mat(v, rep.letters[x])
            assert rep.word_matrix(w) == m
            assert rep.value(w) == dot(v, rep.final)
        with pytest.raises(InputError):
            rep.value(("a", "z"))
        with pytest.raises(InputError):
            rep.word_matrix(("z",))


# The forward pass as it was written before coordinates came from the
# RowSpace: one linear solve per vector.  Kept as an independent oracle.
def _solve_forward_reduce(rep):
    space = RowSpace(rep.dim)
    basis = []
    queue = []
    if space.add(rep.initial):
        basis.append(rep.initial)
        queue.append(rep.initial)
    while queue:
        v = queue.pop(0)
        for a in rep.alphabet:
            w = vec_mat(v, rep.letters[a])
            if space.add(w):
                basis.append(w)
                queue.append(w)
    if not basis:
        return LinearRep(
            alphabet=rep.alphabet,
            initial=(),
            letters={a: () for a in rep.alphabet},
            final=(),
        )
    bt = transpose(tuple(basis))
    return LinearRep(
        alphabet=rep.alphabet,
        initial=solve_linear(bt, rep.initial),
        letters={
            a: tuple(solve_linear(bt, vec_mat(b, rep.letters[a])) for b in basis)
            for a in rep.alphabet
        },
        final=tuple(dot(b, rep.final) for b in basis),
    )


def _flip(rep):
    return LinearRep(
        alphabet=rep.alphabet,
        initial=rep.final,
        letters={a: transpose(m) for a, m in rep.letters.items()},
        final=rep.initial,
    )


def _solve_minimize(rep):
    reduced = _flip(_solve_forward_reduce(_flip(_solve_forward_reduce(rep))))
    return replace(reduced, minimal=True)


def _padded(rng, rep, k):
    """``rep`` with ``k`` unreachable and ``k`` unobservable extra dimensions."""
    n = rep.dim
    zero = F(0)

    def entry():
        return F(rng.randint(-2, 3), rng.randint(1, 3))

    letters = {}
    for a, m in rep.letters.items():
        rows = [
            tuple(m[i]) + tuple(zero for _ in range(k)) + tuple(entry() for _ in range(k))
            for i in range(n)
        ]
        rows += [
            tuple(entry() for _ in range(n + k)) + tuple(zero for _ in range(k))
            for _ in range(k)
        ]
        rows += [
            tuple(zero for _ in range(n + k)) + tuple(entry() for _ in range(k))
            for _ in range(k)
        ]
        letters[a] = tuple(rows)
    return LinearRep(
        alphabet=rep.alphabet,
        initial=tuple(rep.initial) + (zero,) * (2 * k),
        letters=letters,
        final=tuple(rep.final) + tuple(entry() for _ in range(k)) + (zero,) * k,
    )


def test_minimize_matches_the_solve_based_forward_pass():
    rng = random.Random(602)
    coin = coin_rep()
    assert minimize(coin) == _solve_minimize(coin)
    for _ in range(6):
        for a in (
            rand_pfa(rng, rng.randint(1, 4), 2),
            rand_wfa(rng, "rational", rng.randint(1, 4), 2),
        ):
            base = to_linear(a)
            rep = _padded(rng, base, 2)
            mini = minimize(rep)
            assert mini == _solve_minimize(rep)
            assert mini.dim <= base.dim
            for w in words_upto(rep.alphabet, 4):
                assert mini.value(w) == rep.value(w) == eval_word(a, w)
