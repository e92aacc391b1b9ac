"""One-player rewriting game on distributions over powers of a single letter.

A position assigns positive rational mass summing to one to finitely many
exponents.  The single bidirectional rule moves, for a chosen index ``n``
and amount ``lam``, a mass of ``3*lam`` between the middle point ``n+1``
and the flanks ``n``/``n+2`` (one part to the left, two parts to the
right); both directions preserve the expected value ``sum p(n) / 2**n``.

Winning positions have support on one exponent or two adjacent exponents;
for each expected value there is exactly one such position, its canonical
representative.  The solver first patches every gap in the support by
splitting mass off the gap's right edge (:func:`spread`), then shrinks the
support width with right-to-left merge passes until it is at most two.
:func:`sweep` performs one width reduction with a fixed amount, repeated
until an end runs dry and finished by one adjusted partial pass;
:func:`solve` re-chooses the amount before every pass instead, which
produces far shorter traces on positions whose spreading left very small
coefficients behind.  Every emitted move is legal and the full trace
replays to the canonical representative of the start's expected value.

Internally positions are plain exponent-to-mass dicts; the :class:`Position`
wrapper validates and freezes them at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IllegalMoveError, InputError, PreconditionError

_F0 = Fraction(0)
_F1 = Fraction(1)
_THIRD = Fraction(1, 3)


class Position:
    """Finite distribution over exponents of the single letter."""

    __slots__ = ("_c",)

    def __init__(self, coefficients):
        c = {}
        total = _F0
        for n, w in coefficients.items():
            if not isinstance(n, int) or n < 0:
                raise InputError(f"exponent {n!r} must be a natural number")
            w = Fraction(w)
            if w < 0:
                raise InputError(f"negative mass {w} at exponent {n}")
            if w != 0:
                c[n] = c.get(n, _F0) + w
                total += w
        if total != 1:
            raise InputError(f"total mass {total} is not 1")
        self._c = dict(sorted(c.items()))

    def weight(self, n: int) -> Fraction:
        return self._c.get(n, _F0)

    def items(self):
        return tuple(self._c.items())

    @property
    def support(self) -> tuple:
        return tuple(self._c)

    @property
    def range(self) -> int:
        supp = self.support
        return supp[-1] - supp[0] + 1

    def __eq__(self, other):
        return isinstance(other, Position) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self._c.items()))

    def __repr__(self):
        body = " + ".join(f"{w}*a^{n}" for n, w in self._c.items())
        return f"Position({body})"


def _wrap(c: dict) -> Position:
    p = Position.__new__(Position)
    p._c = dict(sorted(c.items()))
    return p


@dataclass(frozen=True)
class Move:
    """One rule application at ``index`` with amount ``lam``.

    ``split`` moves ``3*lam`` off ``index+1`` onto the flanks; ``merge`` is
    the inverse.  The amount is capped at 1/3 since three times it can never
    exceed the total mass.
    """

    index: int
    lam: Fraction
    direction: str

    def __post_init__(self):
        if self.index < 0:
            raise InputError("the rule index must be a natural number")
        if not (0 < self.lam <= _THIRD):
            raise InputError("the amount must lie in (0, 1/3]")
        if self.direction not in ("split", "merge"):
            raise InputError("direction must be 'split' or 'merge'")


def expected_value(p: Position) -> Fraction:
    """The value preserved by every legal move: sum of mass over 2^exponent."""
    return sum((w / (2**n) for n, w in p.items()), _F0)


def canonical_rep(x: Fraction) -> Position:
    """The unique winning position with expected value ``x``.

    Solves ``x = r/2^n + (1-r)/2^(n+1)`` for the unique exponent ``n`` and
    weight ``r`` in (0, 1]; ``r == 1`` collapses to a one-point position.
    """
    x = Fraction(x)
    if not (0 < x <= 1):
        raise InputError(f"expected value {x} outside (0, 1]")
    n = 0
    while x <= Fraction(1, 2 ** (n + 1)):
        n += 1
    r = x * 2 ** (n + 1) - 1
    if r == 1:
        return Position({n: _F1})
    return Position({n: r, n + 1: 1 - r})


def _merge_fast(c: dict, n: int, lam: Fraction):
    c[n] = c.get(n, _F0) - lam
    c[n + 1] = c.get(n + 1, _F0) + 3 * lam
    c[n + 2] = c.get(n + 2, _F0) - 2 * lam
    for m in (n, n + 2):
        if not c[m]:
            del c[m]


def _split_fast(c: dict, n: int, lam: Fraction):
    c[n] = c.get(n, _F0) + lam
    c[n + 1] = c.get(n + 1, _F0) - 3 * lam
    c[n + 2] = c.get(n + 2, _F0) + 2 * lam
    if not c[n + 1]:
        del c[n + 1]


def apply_rule(p: Position, m: Move) -> Position:
    """Apply one rule application, checking its side conditions exactly."""
    n, lam = m.index, m.lam
    c = dict(p._c)
    if m.direction == "split":
        if p.weight(n + 1) < 3 * lam:
            raise IllegalMoveError(
                f"split at {n} needs mass >= {3 * lam} at {n + 1}, found {p.weight(n + 1)}"
            )
        _split_fast(c, n, lam)
    else:
        if p.weight(n) < lam or p.weight(n + 2) < 2 * lam:
            raise IllegalMoveError(
                f"merge at {n} needs mass >= {lam} at {n} and >= {2 * lam} at {n + 2}"
            )
        _merge_fast(c, n, lam)
    return _wrap(c)


def _holes(c: dict) -> list:
    supp = sorted(c)
    return [
        (left, right - left)
        for left, right in zip(supp, supp[1:])
        if right - left >= 2
    ]


def find_holes(p: Position) -> list:
    """All support gaps as (start, width) with width at least 2."""
    return _holes(p._c)


def is_winning(p: Position) -> bool:
    """Support on a single exponent or two adjacent ones."""
    supp = p.support
    return len(supp) == 1 or (len(supp) == 2 and supp[1] == supp[0] + 1)


def _spread_fast(c: dict, trace: list):
    holes = _holes(c)
    while holes:
        n, k = holes[0]
        lam = c[n + k] / 4
        _split_fast(c, n + k - 1, lam)
        trace.append(Move(index=n + k - 1, lam=lam, direction="split"))
        holes = _holes(c)


def spread(p: Position):
    """Reach a hole-free position; returns it with the move trace.

    Each hole (n, k) is patched by splitting a quarter of the mass at its
    right edge onto the neighbours, shrinking the hole by one until it
    closes; patching never creates new holes.
    """
    c = dict(p._c)
    trace = []
    _spread_fast(c, trace)
    return _wrap(c), trace


def _merge_pass(c: dict, lo: int, hi: int, lam: Fraction, trace: list):
    for m in range(hi - 2, lo - 1, -1):
        _merge_fast(c, m, lam)
        trace.append(Move(index=m, lam=lam, direction="merge"))


def sweep(p: Position):
    """Strictly shrink the support width of a hole-free, non-winning position.

    The amount is the minimum of the non-top coefficients and half the top
    one; merges run right to left, repeating whole passes while both ends
    can afford another, then one final partial pass zeroes an end.
    """
    if find_holes(p):
        raise PreconditionError("sweeping needs a hole-free position")
    if is_winning(p):
        raise PreconditionError("the position is already winning")
    c = dict(p._c)
    supp = sorted(c)
    lo, hi = supp[0], supp[-1]
    lam = min(min(c[n] for n in supp[:-1]), c[hi] / 2)
    trace = []
    _merge_pass(c, lo, hi, lam, trace)
    while c.get(lo, _F0) > lam and c.get(hi, _F0) > 2 * lam:
        _merge_pass(c, lo, hi, lam, trace)
    if c.get(lo, _F0) != 0 and c.get(hi, _F0) != 0:
        lam2 = min(c[lo], c[hi] / 2)
        _merge_pass(c, lo, hi, lam2, trace)
    return _wrap(c), trace


def _balance_fast(c: dict, trace: list):
    """Lift small transit coefficients by splitting off richer right neighbours.

    Patching a wide gap leaves a steeply decaying coefficient ladder behind,
    and every later merge pass is throttled by its smallest rung.  Splitting
    a quarter off the right neighbour of any coefficient below half that
    neighbour costs a handful of moves and raises the throttle by orders of
    magnitude; quartering keeps every amount in the dyadic lattice of the
    input, so coefficient denominators stay small.  The round cap is a
    safety valve only: balancing is an optimisation, never needed for
    correctness.
    """
    supp = sorted(c)
    if len(supp) <= 2:
        return
    lo, hi = supp[0], supp[-1]
    for _ in range(64):
        changed = False
        for m in range(hi - 2, lo, -1):
            r0 = c.get(m, _F0)
            r1 = c.get(m + 1, _F0)
            if 2 * r0 < r1:
                mu = r1 / 4
                _split_fast(c, m, mu)
                trace.append(Move(index=m, lam=mu, direction="split"))
                changed = True
        if not changed:
            return


def solve(p: Position):
    """Drive a position to the winning representative of its expected value.

    A position supported on exactly {n, n+2} is won by a single merge, since
    the amount min(p(n), p(n+2)/2) zeroes at least one end.  Otherwise the
    support is first spread hole-free and its coefficient ladder balanced,
    then shrunk by right-to-left merge passes; the amount is re-chosen
    before every pass (the largest one every transit coefficient affords),
    so coefficients next to the ends grow instead of forcing many
    repetitions of one tiny amount.  With that amount a pass keeps every
    interior coefficient positive (only the ends can empty), so the support
    stays hole-free without re-spreading.
    """
    c = dict(p._c)
    trace = []
    supp = sorted(c)
    if len(supp) == 2 and supp[1] == supp[0] + 2:
        lam = min(c[supp[0]], c[supp[1]] / 2)
        _merge_fast(c, supp[0], lam)
        trace.append(Move(index=supp[0], lam=lam, direction="merge"))
    _spread_fast(c, trace)
    _balance_fast(c, trace)
    while True:
        supp = sorted(c)
        if len(supp) <= 1 or (len(supp) == 2 and supp[1] == supp[0] + 1):
            break
        lo, hi = supp[0], supp[-1]
        lam = min(min(c[n] for n in supp[:-1]), c[hi] / 2)
        _merge_pass(c, lo, hi, lam, trace)
    return _wrap(c), trace
