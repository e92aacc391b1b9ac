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
:func:`solve` re-chooses the amount before every pass instead.  A pass
moves mass at most as large as the smallest transit (interior) coefficient,
so when spreading leaves a steep ladder of small coefficients behind,
:func:`solve` first *fills* the support: it walks the position along a
straight segment, inside the convex set of positions with the same mass
and expected value, to a point whose transit coefficients are all large,
in shaped merge passes that each stay legal.  Every emitted move is legal
and the full trace replays to the canonical representative of the start's
expected value.

Internally positions are plain exponent-to-mass dicts; the :class:`Position`
wrapper validates and freezes them at the API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IllegalMoveError, InputError, PreconditionError
from .exactnum import rational

_F0 = Fraction(0)
_F1 = Fraction(1)
_THIRD = Fraction(1, 3)
# Fill a support [lo, hi] once its ends need more than this many times
# hi - lo uniform passes; derived in the docstring of ``solve``.
_FILL_RATIO = 4


class Position:
    """Finite distribution over exponents of the single letter.

    Exponents are ``int`` values of at least 0; a ``bool`` is not one.
    Masses are read by :func:`~effectfa.exactnum.rational`.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients):
        c = {}
        total = _F0
        for n, w in coefficients.items():
            if type(n) is not int or n < 0:
                raise InputError(f"exponent {n!r} must be a natural number")
            if type(w) is not Fraction:
                w = rational(w, "mass", f"at exponent {n}")
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
    exceed the total mass.  The index is an ``int`` of at least 0 (not a
    ``bool``); the amount is read by :func:`~effectfa.exactnum.rational`.
    """

    index: int
    lam: Fraction
    direction: str

    def __post_init__(self):
        if type(self.index) is not int or self.index < 0:
            raise InputError("the rule index must be a natural number")
        if type(self.lam) is not Fraction:
            object.__setattr__(self, "lam", rational(self.lam, "amount"))
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
    x = rational(x, "expected value")
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
    # _merge_fast written out, so that 2*lam and 3*lam are computed once per
    # pass rather than once per move.
    lam2, lam3 = 2 * lam, 3 * lam
    for m in range(hi - 2, lo - 1, -1):
        x = c.get(m, _F0) - lam
        if x:
            c[m] = x
        else:
            del c[m]
        c[m + 1] = c.get(m + 1, _F0) + lam3
        x = c.get(m + 2, _F0) - lam2
        if x:
            c[m + 2] = x
        else:
            del c[m + 2]
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


def _log2_floor(x: Fraction) -> int:
    """The largest ``e`` with ``2**e <= x``, for a positive ``x``."""
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if (n << -e if e < 0 else n) < (d << e if e > 0 else d):
        e -= 1
    return e


def _fill(c: dict, lo: int, hi: int, trace: list):
    """Raise every transit coefficient of a hole-free support ``[lo, hi]``.

    The target is ``c + theta*F``, where ``F`` has mass 0 and value 0, is +1
    on every interior exponent, ``-a`` at ``lo`` and ``-(w-2-a)`` at ``hi``
    (``w = hi-lo+1`` exponents).  Its net merge amount at ``lo + x - 1`` is
    ``theta*f(x)`` with ``f(x) = x - (w-1)*(2^x - 1)/(2^(w-1) - 1)``, a
    concave function that vanishes at 0 and at ``w-1``, so every amount is a
    merge.  ``theta`` is the largest power of two that leaves at least half
    of each end.

    The walk applies the fraction ``t`` of those amounts right to left, then
    repeats on what remains.  Every step ends on the segment from ``c`` to
    the target, and every point of it is a position, since the set of
    positions with given mass and value is convex.  Within a step, index
    ``m+2`` holds its end-of-step value once the merge at ``m`` is made, so
    only a merge's left operand, still at its start-of-step value, can run
    short: ``t`` is the remaining fraction halved until every ``c[m]`` pays
    ``t*theta*f``.  Interior coefficients grow linearly along the segment,
    so the affordable fraction grows geometrically.

    Amounts are kept as integer numerators ``f(x)*d`` times one fraction
    ``u = t*theta/d``, with ``d = 2^(w-1) - 1``.
    """
    w = hi - lo + 1
    d = 2 ** (w - 1) - 1
    f = [x * d - (w - 1) * (2**x - 1) for x in range(1, w - 1)]
    a, b = f[0], (w - 2) * d - f[0]  # the ends of F, times -d
    e = _log2_floor(min(c[lo] * d / (2 * a), c[hi] * d / (2 * b)))
    rest = Fraction(1 << e, d) if e >= 0 else Fraction(1, d << -e)
    while rest:
        over = rest * max(f[i] / c[lo + i] for i in range(w - 2))
        u = rest
        if over > 1:
            u /= 2 ** (-(-over.numerator // over.denominator) - 1).bit_length()
        for i in range(w - 3, -1, -1):
            lam = u * f[i]
            _merge_fast(c, lo + i, lam)
            trace.append(Move(index=lo + i, lam=lam, direction="merge"))
        rest -= u


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

    A pass moves at most the smallest of ``c[lo..hi-1]``, the rung, so an
    end needs about ``R = max(c[lo], c[hi]/2) / rung`` passes of ``hi-lo-1``
    merges to empty.  When ``R`` exceeds ``4*(hi-lo)`` on a support of at
    least four exponents, the support is filled once (:func:`_fill`) before
    the passes go on: its merges follow a straight segment to a point where
    every transit coefficient has grown by ``theta``, a power of two within
    a factor of two of what half of each end can pay, so only a few passes
    remain.  Every point of the segment is a position and each fill step
    checks the one operand that can run short, so every move is legal.

    The multiple 4 comes from operation counts on the benchmark's game pool
    (seed 1).  Counted in moves, a fill and the passes after it are shorter
    than the passes alone once ``R`` exceeds about ``2*(hi-lo)``.  A fill
    move costs about 1.8 pass moves (23 against 13 us on a 2-CPU VM with
    CPython 3.11: larger fractions, and the step's bound), so in time the
    fill breaks even near ``4*(hi-lo)``: 0.33 against 0.28 ms for ``R``
    between 2 and 4 times ``hi-lo``, 0.45 against 0.52 ms between 4 and 8
    times.  Filling each support at most once keeps the loop finite, since
    the passes that follow still empty an end.  On that pool of 5000
    positions (up to 6 points in windows of up to 10 exponents), the
    longest trace has 484 moves.
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
    filled = None
    while True:
        supp = sorted(c)
        if len(supp) <= 1 or (len(supp) == 2 and supp[1] == supp[0] + 1):
            break
        lo, hi = supp[0], supp[-1]
        rung = min(c[n] for n in supp[:-1])
        if (
            hi - lo >= 3
            and (lo, hi) != filled
            and max(c[lo], c[hi] / 2) > _FILL_RATIO * (hi - lo) * rung
        ):
            filled = (lo, hi)
            _fill(c, lo, hi, trace)
            continue
        _merge_pass(c, lo, hi, min(rung, c[hi] / 2), trace)
    return _wrap(c), trace
