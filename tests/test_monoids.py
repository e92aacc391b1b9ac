import random
from fractions import Fraction as F

import pytest

from conftest import (
    coin_pfa,
    contains_ab_dfa,
    even_dfa,
    free_extension_enumerated,
    rand_dist,
)
from effectfa import (
    CONVEX,
    ConvexSet,
    DIST,
    Dist,
    EffAutomaton,
    EffMorphism,
    FinMonoid,
    UNIT_INTERVAL,
    WeightedVec,
    classical_syntactic_monoid,
    eval_word,
    free_extension_word,
    function_monoid,
    tm_multiply,
    transition_monoid_closure,
    unit,
    verify_effectful_morphism,
    weighted,
    words_upto,
)
from effectfa.errors import IntegrityError, InterfaceError, PreconditionError, ResourceError
from effectfa.monoids import generated_monoid

RAT = weighted("rational")


def or_monoid() -> FinMonoid:
    return FinMonoid.from_table(
        ["0", "1"],
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"},
        "0",
    )


def or_morphism() -> EffMorphism:
    return EffMorphism(
        target=or_monoid(),
        monad=DIST,
        alphabet=("a",),
        letters={"a": Dist({"0": F(1, 2), "1": F(1, 2)})},
    )


def test_function_monoid_sizes():
    assert len(function_monoid(("x",), "total")) == 1
    assert len(function_monoid(("x", "y"), "total")) == 4
    assert len(function_monoid(("x", "y"), "partial")) == 9
    assert len(function_monoid(("x", "y", "z"), "partial")) == 64


def test_function_monoid_composition_order():
    m = function_monoid(("x", "y"), "total")
    ident = ("x", "y")
    swap = ("y", "x")
    assert m.mul(ident, swap) == swap
    assert m.mul(swap, swap) == ident
    const = ("x", "x")
    assert m.mul(swap, const) == const


def test_function_monoid_bound():
    with pytest.raises(ResourceError):
        function_monoid(tuple("abcdefg"), "total")


def test_function_monoid_bound_counts_elements():
    # 5**4 = 625 partial maps on 4 points fit; 5**5 = 3125 total maps on 5 do not.
    assert len(function_monoid(tuple("wxyz"), "partial")) == 625
    with pytest.raises(ResourceError, match="3125"):
        function_monoid(tuple("vwxyz"), "total")


def test_partial_composition_propagates_undefined():
    m = function_monoid(("x", "y"), "partial")
    only_x = ("y", None)
    assert m.mul(only_x, only_x) == (None, None)


def test_graphs_are_named_by_the_positions_of_their_images():
    # Any point names fit: "[" and "," in them do not reach the name.
    carrier = ("[p", "q,")
    m = function_monoid(carrier, "partial")
    assert m.carrier == carrier and m.name(("q,", None)) == "[1,_]"
    g = generated_monoid(carrier, [("q,", "q,")])
    assert [g.name(x) for x in g.elements] == ["[0,1]", "[1,1]"]


def test_from_table_rejects_non_associative():
    with pytest.raises(IntegrityError):
        FinMonoid.from_table(
            ["e", "a", "b"],
            {
                ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                ("a", "e"): "a", ("a", "a"): "b", ("a", "b"): "a",
                ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "a",
            },
            "e",
        )


def test_from_table_rejects_broken_unit():
    with pytest.raises(IntegrityError):
        FinMonoid.from_table(
            ["e", "a"],
            {("e", "e"): "e", ("e", "a"): "e", ("a", "e"): "a", ("a", "a"): "a"},
            "e",
        )


def test_from_table_lists_missing_products_in_declared_order():
    with pytest.raises(IntegrityError) as err:
        FinMonoid.from_table(["e", "a", "b"], {("e", "e"): "e", ("b", "a"): "b"}, "e")
    assert str(err.value).startswith(
        "multiplication table not total; missing [('e', 'a'), ('e', 'b'), ('a', 'e'),"
    )


def test_tm_multiply_diracs():
    m = or_monoid()
    assert tm_multiply(m, unit(DIST, "0"), unit(DIST, "1")) == Dist({"1": 1})


def test_tm_multiply_mixture():
    m = or_monoid()
    half = Dist({"0": F(1, 2), "1": F(1, 2)})
    assert tm_multiply(m, half, half) == Dist({"0": F(1, 4), "1": F(3, 4)})


def test_tm_multiply_weighted_scalars():
    triv = FinMonoid.from_table(["e"], {("e", "e"): "e"}, "e")
    s = RAT.semiring
    v2 = WeightedVec(s, {"e": F(2)})
    v3 = WeightedVec(s, {"e": F(3)})
    assert tm_multiply(triv, v2, v3) == WeightedVec(s, {"e": F(6)})


def test_free_extension_base_cases():
    h = or_morphism()
    assert free_extension_word(h, ()) == Dist({"0": 1})
    assert free_extension_word(h, ("a", "a")) == Dist({"0": F(1, 4), "1": F(3, 4)})


def test_free_extension_pure_morphism_is_dirac():
    z2 = FinMonoid.from_table(
        ["e", "g"],
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        "e",
    )
    h = EffMorphism(target=z2, monad=DIST, alphabet=("a",), letters={"a": Dist({"g": 1})})
    assert free_extension_word(h, ("a",) * 3) == Dist({"g": 1})
    assert free_extension_word(h, ("a",) * 4) == Dist({"e": 1})


def test_free_extension_matches_enumeration_oracle():
    rng = random.Random(17)
    m = function_monoid(("x", "y"), "total")
    for _ in range(10):
        h = EffMorphism(
            target=m,
            monad=DIST,
            alphabet=("a", "b"),
            letters={
                "a": rand_dist(rng, m.elements, 4),
                "b": rand_dist(rng, m.elements, 4),
            },
        )
        for w in words_upto(("a", "b"), 4):
            assert free_extension_word(h, w) == free_extension_enumerated(h, w)
    s = RAT.semiring
    h = EffMorphism(
        target=m,
        monad=RAT,
        alphabet=("a",),
        letters={"a": WeightedVec(s, {m.elements[0]: F(2), m.elements[3]: F(-1, 2)})},
    )
    for w in words_upto(("a",), 5):
        assert free_extension_word(h, w) == free_extension_enumerated(h, w)


def test_a_repeated_letter_is_refused():
    # ``alphabet a a`` would print two ``hom a`` lines, which no reader
    # reads back.
    h = or_morphism()
    with pytest.raises(InterfaceError, match="repeated letter"):
        EffMorphism(target=h.target, monad=DIST, alphabet=("a", "a"), letters=h.letters)


def test_verify_morphism_accepts_the_mixture():
    assert verify_effectful_morphism(or_morphism(), 6) == []


def test_verify_morphism_accepts_weighted_letters():
    m = function_monoid(("x", "y"), "total")
    s = RAT.semiring
    h = EffMorphism(
        target=m,
        monad=RAT,
        alphabet=("a",),
        letters={"a": WeightedVec(s, {m.elements[1]: F(2), m.elements[2]: F(-1, 3)})},
    )
    assert verify_effectful_morphism(h, 6) == []


def test_verify_morphism_accepts_convex_letters():
    m = or_monoid()
    h = EffMorphism(
        target=m,
        monad=CONVEX,
        alphabet=("a",),
        letters={
            "a": ConvexSet([Dist({"0": 1}), Dist({"0": F(1, 2), "1": F(1, 2)})])
        },
    )
    assert verify_effectful_morphism(h, 4) == []


def test_verify_morphism_flags_broken_unit():
    # not a monoid: the declared unit does not act as one on "1"
    broken = FinMonoid.from_operation(
        ("0", "1"),
        ["0", "1"],
        "0",
        lambda x, y: "0" if (x, y) == ("0", "1") else ("1" if "1" in (x, y) else "0"),
    )
    h = EffMorphism(
        target=broken, monad=DIST, alphabet=("a",), letters={"a": Dist({"1": 1})}
    )
    violations = verify_effectful_morphism(h, 2)
    assert ((), ("a",)) in violations


def test_closure_of_identity_alone():
    m = function_monoid(("x", "y"), "total")
    sub = transition_monoid_closure(m, [m.unit], 10)
    assert len(sub) == 1


def test_closure_of_swap_is_z2():
    m = function_monoid(("x", "y"), "total")
    sub = transition_monoid_closure(m, [("y", "x")], 10)
    assert len(sub) == 2
    assert sub.mul(("y", "x"), ("y", "x")) == m.unit
    assert sub.carrier == m.carrier and sub.name(("y", "x")) == "[1,0]"


def test_closure_of_constant_map():
    m = function_monoid(("x", "y"), "total")
    sub = transition_monoid_closure(m, [("x", "x")], 10)
    assert len(sub) == 2


def test_closure_overflow_reports_none():
    m = function_monoid(("x", "y", "z"), "total")
    gens = [("y", "z", "x"), ("y", "x", "x")]
    assert transition_monoid_closure(m, gens, 2) is None


def test_syntactic_monoid_of_even_parity():
    syn = classical_syntactic_monoid(even_dfa(), 100)
    assert len(syn.monoid) == 2
    for w in words_upto(("a",), 10):
        expected = eval_word(even_dfa(), w) == 1
        assert syn.accepts(w) == expected


def test_syntactic_monoid_of_full_language_is_trivial():
    full = EffAutomaton(
        monad=DIST,
        states=("s", "t"),
        alphabet=("a",),
        init=unit(DIST, "s"),
        trans={("s", "a"): Dist({"t": 1}), ("t", "a"): Dist({"s": 1})},
        output={"s": F(1), "t": F(1)},
        output_algebra=UNIT_INTERVAL,
    )
    syn = classical_syntactic_monoid(full, 100)
    assert len(syn.monoid) == 1


def test_syntactic_monoid_of_contains_ab():
    dfa = contains_ab_dfa()
    syn = classical_syntactic_monoid(dfa, 100)
    assert len(syn.monoid) <= 7
    assert syn.h(("a", "b")) != syn.h(("b", "a"))
    for w in words_upto(("a", "b"), 8):
        assert syn.accepts(w) == (eval_word(dfa, w) == 1)


def test_syntactic_monoid_overflow_reports_the_bound():
    with pytest.raises(ResourceError, match="reached more than the bound of 2 elements"):
        classical_syntactic_monoid(contains_ab_dfa(), 2)


def test_syntactic_monoid_requires_pure_automaton():
    with pytest.raises(PreconditionError):
        classical_syntactic_monoid(coin_pfa(), 100)


def _cubic_monoid_check(names, table, unit_name) -> bool:
    """The exhaustive check: both unit laws and every associativity triple."""
    if any(table[(unit_name, x)] != x or table[(x, unit_name)] != x for x in names):
        return False
    return all(
        table[(table[(x, y)], z)] == table[(x, table[(y, z)])]
        for x in names
        for y in names
        for z in names
    )


def _named_table(m: FinMonoid):
    names = [m.name(x) for x in m.elements]
    table = {
        (m.name(x), m.name(y)): m.name(m.mul(x, y)) for x in m.elements for y in m.elements
    }
    return names, table, m.name(m.unit)


def _cyclic_table(n):
    names = [f"z{i}" for i in range(n)]
    return names, {(f"z{i}", f"z{j}"): f"z{(i + j) % n}" for i in range(n) for j in range(n)}, "z0"


def test_light_test_rejects_exactly_the_corruptions_the_cubic_check_rejects():
    rng = random.Random(2024)
    tables = [
        _named_table(or_monoid()),
        _cyclic_table(3),
        _named_table(function_monoid(("p", "q"))),
        _named_table(function_monoid(("p", "q"), "partial")),
        _named_table(function_monoid(("p", "q", "r"))),
    ]
    outcomes = set()
    for names, table, unit_name in tables:
        assert _cubic_monoid_check(names, table, unit_name)
        FinMonoid.from_table(names, table, unit_name)
        for _ in range(40 if len(names) < 27 else 8):
            key = (rng.choice(names), rng.choice(names))
            bad = dict(table)
            bad[key] = rng.choice([z for z in names if z != table[key]])
            valid = _cubic_monoid_check(names, bad, unit_name)
            try:
                FinMonoid.from_table(names, bad, unit_name)
                accepted = True
            except IntegrityError:
                accepted = False
            assert accepted == valid, (names, key, bad[key])
            outcomes.add(valid)
    # some single-entry changes give another monoid (e.g. max to xor on {0, 1})
    assert outcomes == {True, False}


def test_associativity_error_names_a_failing_triple():
    names, table, unit_name = _cyclic_table(4)
    table[("z1", "z2")] = "z0"
    with pytest.raises(IntegrityError, match="associativity fails on") as err:
        FinMonoid.from_table(names, table, unit_name)
    x, y, z = str(err.value).split("(")[-1].rstrip(")").split(", ")
    assert table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
