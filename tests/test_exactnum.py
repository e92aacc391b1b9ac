from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from effectfa.errors import ConfigurationError, ParseError
from effectfa.exactnum import (
    INF,
    NEG_INF,
    SemiringDescriptor,
    parse_rational,
    semiring_builtin,
    semiring_check,
)


def test_boolean_constants_and_ops():
    b = semiring_builtin("boolean")
    assert b.add(True, False) is True
    assert b.mul(True, False) is False
    assert b.zero is False and b.one is True


def test_minplus_is_tropical():
    mp = semiring_builtin("minplus")
    assert mp.add(3, 5) == 3
    assert mp.mul(3, 5) == 8
    assert mp.zero is INF
    assert mp.one == 0
    assert mp.add(INF, 7) == 7
    assert mp.mul(INF, 7) is INF


def test_maxplus_dual():
    mx = semiring_builtin("maxplus")
    assert mx.add(3, 5) == 5
    assert mx.mul(3, 5) == 8
    assert mx.zero is NEG_INF
    assert mx.add(NEG_INF, 2) == 2
    assert mx.mul(2, NEG_INF) is NEG_INF


def test_rational_addition():
    r = semiring_builtin("rational")
    assert r.add(F(1, 2), F(1, 3)) == F(5, 6)


def test_unknown_builtin():
    with pytest.raises(ConfigurationError):
        semiring_builtin("galois")


@pytest.mark.parametrize(
    "name,sample",
    [
        ("boolean", [True, False]),
        ("rational", [F(0), F(1), F(1, 2), F(2), F(-1, 3)]),
        ("minplus", [0, 1, 2, 3, INF]),
        ("maxplus", [0, 1, 2, 3, NEG_INF]),
    ],
)
def test_builtins_satisfy_axioms(name, sample):
    assert semiring_check(semiring_builtin(name), sample) == []


def test_broken_addition_is_reported():
    broken = SemiringDescriptor(
        name="broken",
        zero=F(0),
        one=F(1),
        add=lambda a, b: a - b,
        mul=lambda a, b: a * b,
    )
    report = semiring_check(broken, [F(1), F(2), F(3)])
    assert any("associativity" in line for line in report)


def test_idempotence_flag_checked():
    pretender = SemiringDescriptor(
        name="pretender",
        zero=F(0),
        one=F(1),
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
        is_add_idempotent=True,
    )
    report = semiring_check(pretender, [F(1)])
    assert any("idempotence" in line for line in report)


def test_parse_rational_literals():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    for text, value in [("2/4", F(1, 2)), ("0/5", F(0)), ("-6/3", F(-2))]:
        got = parse_rational(text)
        assert type(got) is F and got == value
        assert (got.numerator, got.denominator) == (value.numerator, value.denominator)
    # Only ASCII digits, and nothing after the literal: int() would take
    # the Arabic-Indic digits, underscores, a sign and surrounding space.
    for text in ["0.5", "x", "\u0661", "\u0661/\u0662", "1/\u0662", "1_0", "+3", " 1", "1\n"]:
        with pytest.raises(ParseError, match="not a rational literal"):
            parse_rational(text)
    for text in ["1/0", "0/0", "-3/00"]:
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational(text)


def test_tropical_parse_rejects_negative():
    mp = semiring_builtin("minplus")
    assert mp.parse("inf") is INF
    assert mp.parse("4") == 4
    for text in ["-1", "\u0663", "1_0", "+3", "3\n"]:
        with pytest.raises(ParseError, match="tropical weight must be a natural number"):
            mp.parse(text)


rationals = st.fractions(max_denominator=50)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1
