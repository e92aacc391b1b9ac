"""Exact scalar arithmetic and the pluggable semiring abstraction.

Every number in this package is exact: probabilities and rational weights are
`fractions.Fraction` (re-exported as :data:`Rational`), and tropical weights
are naturals extended with an absorbing infinity.  Nothing here ever touches
floating point, so all equality tests downstream are decidable and exact.

A semiring is described by a :class:`SemiringDescriptor` carrying its
constants, operations and a decidable equality.  Four builtins are provided
(``boolean``, ``rational``, ``minplus``, ``maxplus``); user-supplied
descriptors can be sanity-checked on a finite sample with
:func:`semiring_check`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Any, Callable

from .errors import ConfigurationError, InterfaceError, ParseError

Rational = Fraction

# Literals are written in ASCII digits: ``\d`` would match any Unicode digit.
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NATURAL_RE = re.compile(r"[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse the literal syntax ``p/q`` or ``p`` into an exact fraction.

    A zero denominator is a :class:`ParseError`.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"not a rational literal: {text!r}")
    p, _, q = text.partition("/")
    if not q:
        return Fraction(int(p))
    q = int(q)
    if not q:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(int(p), q)


def is_rational(v) -> bool:
    """Whether ``v`` is a ``Fraction``, or an ``int`` that is not a ``bool``."""
    return isinstance(v, (Fraction, int)) and not isinstance(v, bool)


def rational(v, noun: str, where: str = "") -> Fraction:
    """The one rule for a number handed in through the API: a ``Fraction``
    is kept, an ``int`` that is not a ``bool`` becomes a ``Fraction``, and
    text is read by :func:`parse_rational`.  Anything else raises
    :class:`InterfaceError`, naming ``v`` by ``noun`` and ``where``."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, str):
        try:
            return parse_rational(v)
        except ParseError:
            pass
    elif is_rational(v):
        return Fraction(v)
    at = f" {where}" if where else ""
    raise InterfaceError(f"{noun} {v!r}{at} is not an exact rational")


class _TropicalBound:
    """Absorbing extreme element for the tropical semirings."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self):
        return self._label


INF = _TropicalBound("inf")
NEG_INF = _TropicalBound("-inf")


@dataclass(frozen=True, eq=False)
class SemiringDescriptor:
    """A semiring (S, +, 0, ., 1) with decidable element equality.

    ``add``/``mul`` are total binary operations on elements; ``eq`` decides
    element equality (builtins use structural ``==``).  ``parse`` and ``fmt``
    give the element grammar used by the text formats.  Descriptors compare
    and hash by ``name``, so a custom semiring must carry a distinct name.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    eq: Callable[[Any, Any], bool] = field(default=lambda a, b: a == b)
    is_add_idempotent: bool = False
    is_mul_commutative: bool = True
    parse: Callable[[str], Any] = field(default=parse_rational)
    fmt: Callable[[Any], str] = field(default=str)

    def __eq__(self, other):
        return isinstance(other, SemiringDescriptor) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def is_zero(self, x) -> bool:
        return self.eq(x, self.zero)

    def sum(self, values) -> Any:
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc


def _parse_bool(text: str):
    if text == "1":
        return True
    if text == "0":
        return False
    raise ParseError(f"boolean weight must be 0 or 1, got {text!r}")


def _parse_tropical(text: str, bottom, bottom_label: str):
    if text == bottom_label:
        return bottom
    if not _NATURAL_RE.fullmatch(text):
        raise ParseError(
            f"tropical weight must be a natural number or {bottom_label!r}, got {text!r}"
        )
    return int(text)


def _min_add(a, b):
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def _min_mul(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def _max_add(a, b):
    if a is NEG_INF:
        return b
    if b is NEG_INF:
        return a
    return max(a, b)


def _max_mul(a, b):
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    return a + b


_BUILTINS = {
    "boolean": SemiringDescriptor(
        name="boolean",
        zero=False,
        one=True,
        add=lambda a, b: a or b,
        mul=lambda a, b: a and b,
        is_add_idempotent=True,
        parse=_parse_bool,
        fmt=lambda v: "1" if v else "0",
    ),
    "rational": SemiringDescriptor(
        name="rational",
        zero=Fraction(0),
        one=Fraction(1),
        add=lambda a, b: a + b,
        mul=lambda a, b: a * b,
    ),
    "minplus": SemiringDescriptor(
        name="minplus",
        zero=INF,
        one=0,
        add=_min_add,
        mul=_min_mul,
        is_add_idempotent=True,
        parse=lambda t: _parse_tropical(t, INF, "inf"),
        fmt=repr,
    ),
    "maxplus": SemiringDescriptor(
        name="maxplus",
        zero=NEG_INF,
        one=0,
        add=_max_add,
        mul=_max_mul,
        is_add_idempotent=True,
        parse=lambda t: _parse_tropical(t, NEG_INF, "-inf"),
        fmt=repr,
    ),
}


def _exact_weight(s: SemiringDescriptor, w) -> bool:
    """Whether ``w`` is an exact element of a builtin semiring.

    Rational weights pass :func:`is_rational`; tropical ones are ``int`` or
    the semiring's own infinity (``bool`` is not a tropical weight); boolean
    ones are ``bool``.  Other semirings are taken on trust.
    """
    if s.name == "rational":
        return type(w) is Fraction or is_rational(w)
    if s.name in ("minplus", "maxplus"):
        return w is s.zero or (isinstance(w, int) and not isinstance(w, bool))
    if s.name == "boolean":
        return isinstance(w, bool)
    return True


def semiring_builtin(name: str) -> SemiringDescriptor:
    """Return one of the builtin semirings by name.

    ``minplus`` carries the naturals plus an absorbing ``inf`` with min as
    addition and + as multiplication; ``maxplus`` is its dual with ``-inf``.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown semiring {name!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def semiring_check(s: SemiringDescriptor, sample) -> list[str]:
    """Check the semiring axioms on all triples from ``sample`` plus {0, 1}.

    Returns a report of human-readable violation strings; an empty report
    means every axiom held on the tested elements.  Violations are data, not
    errors: a broken descriptor never raises here.
    """
    elems: list = []
    for x in list(sample) + [s.zero, s.one]:
        if not any(s.eq(x, y) for y in elems):
            elems.append(x)
    report = []

    def fail(law, *xs):
        report.append(f"{law} fails on {xs}")

    for a in elems:
        if not s.eq(s.add(a, s.zero), a) or not s.eq(s.add(s.zero, a), a):
            fail("additive unit", a)
        if not s.eq(s.mul(a, s.one), a) or not s.eq(s.mul(s.one, a), a):
            fail("multiplicative unit", a)
        if not s.eq(s.mul(a, s.zero), s.zero) or not s.eq(s.mul(s.zero, a), s.zero):
            fail("zero annihilation", a)
        if s.is_add_idempotent and not s.eq(s.add(a, a), a):
            fail("additive idempotence", a)
    for a, b in product(elems, repeat=2):
        if not s.eq(s.add(a, b), s.add(b, a)):
            fail("additive commutativity", a, b)
        if s.is_mul_commutative and not s.eq(s.mul(a, b), s.mul(b, a)):
            fail("multiplicative commutativity", a, b)
    for a, b, c in product(elems, repeat=3):
        if not s.eq(s.add(s.add(a, b), c), s.add(a, s.add(b, c))):
            fail("additive associativity", a, b, c)
        if not s.eq(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c))):
            fail("multiplicative associativity", a, b, c)
        if not s.eq(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c))):
            fail("left distributivity", a, b, c)
        if not s.eq(s.mul(s.add(a, b), c), s.add(s.mul(a, c), s.mul(b, c))):
            fail("right distributivity", a, b, c)
    return report
