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
:func:`sweep` repeats one fixed amount until an end runs dry;
:func:`solve` re-chooses the amount before every pass, and when spreading
leaves a steep ladder of small transit (interior) coefficients, which
throttle every pass, it first *fills* the support along a straight segment
of positions with the same mass and expected value.  Every emitted move is
legal and the full trace replays to the canonical representative of the
start's expected value.

Internally positions are plain exponent-to-mass dicts; the :class:`Position`
wrapper validates and freezes them at the API boundary, checking the total
mass on integers.  :func:`spread`, :func:`sweep` and :func:`solve` read the
support into a *window* at once: one integer numerator per exponent from
the lowest to the highest, 0 in a hole, over one denominator.  Both read
the masses through :func:`~effectfa.linalg._int_vector`, the integer form
of every exact rational vector in the package.  The merge
of two points, spreading, balancing, passes, fill steps and the tests
between them run on those integers; the only ``Fraction`` built is each
emitted amount, and the window is written back into masses once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import IllegalMoveError, InputError, PreconditionError
from .exactnum import rational
from .linalg import _int_vector

_F0 = Fraction(0)
_THIRD = Fraction(1, 3)
# Fill a support [lo, hi] once its ends need more than this many times
# hi - lo uniform passes; derived in the docstring of ``solve``.
_FILL_RATIO = 4
_AMOUNT_RANGE = "the amount must lie in (0, 1/3]"


class Position:
    """Finite distribution over exponents of the single letter.

    Exponents are ``int`` values of at least 0; a ``bool`` is not one.
    Masses are read by :func:`~effectfa.exactnum.rational`.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients):
        c = {}
        for n, w in coefficients.items():
            if type(n) is not int or n < 0:
                raise InputError(f"exponent {n!r} must be a natural number")
            if type(w) is not Fraction:
                w = rational(w, "mass", f"at exponent {n}")
            if w.numerator < 0:
                raise InputError(f"negative mass {w} at exponent {n}")
            if w.numerator:
                c[n] = w  # a dict repeats no exponent
        nums, den = _int_vector(c.values())
        if sum(nums) != den:
            raise InputError(f"total mass {sum(c.values(), _F0)} is not 1")
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
            raise InputError(_AMOUNT_RANGE)
        if self.direction not in ("split", "merge"):
            raise InputError("direction must be 'split' or 'merge'")

    @classmethod
    def _of_checked(cls, index: int, lam: Fraction, direction: str):
        """A move on fields checked as construction checks them: an ``int``
        index of at least 0, a ``Fraction`` amount in (0, 1/3], a direction."""
        m = object.__new__(cls)
        m.__dict__.update(index=index, lam=lam, direction=direction)
        return m


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
    e = _log2_floor(x.numerator, x.denominator)
    n = -e if x.numerator == 1 and x.denominator == 1 << -e else -e - 1
    r = x * 2 ** (n + 1) - 1
    if r == 1:
        return Position({n: r})
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


def find_holes(p: Position) -> list:
    """All support gaps as (start, width) with width at least 2."""
    supp = p.support
    return [(a, b - a) for a, b in zip(supp, supp[1:]) if b - a >= 2]


def is_winning(p: Position) -> bool:
    """Support on a single exponent or two adjacent ones."""
    supp = p.support
    return len(supp) == 1 or (len(supp) == 2 and supp[1] == supp[0] + 1)


def spread(p: Position):
    """Reach a hole-free position; returns it with the move trace.

    Each hole (n, k) is patched by splitting a quarter of the mass at its
    right edge onto the neighbours, shrinking the hole by one until it
    closes; patching never creates new holes.  It runs on the window of
    :func:`_window`, as :func:`solve` does (:func:`_spread`).
    """
    lo, x, den = _window(p._c)
    trace = []
    den = _spread(x, lo, den, trace)
    return _wrap(_cells(lo, x, den)), trace


def _window(c: dict):
    """A support as ``(lo, x, den)``: ``x[i]/den`` is the mass at ``lo + i``
    for every exponent from the lowest to the highest, 0 in a hole."""
    nums, den = _int_vector(c.values())
    lo = min(c)
    x = [0] * (max(c) - lo + 1)
    for n, y in zip(c, nums):
        x[n - lo] = y
    return lo, x, den


def _cells(lo: int, x: list, den: int) -> dict:
    """The masses of a window, without the cells that ran dry."""
    return {n: Fraction(v, den) for n, v in enumerate(x, lo) if v}


def _amount(l: int, den: int) -> Fraction:
    """``l/den``, if it lies in (0, 1/3] as a move's amount must."""
    if not (0 < l and 3 * l <= den):
        raise InputError(_AMOUNT_RANGE)
    return Fraction(l, den)


def _reduce(x: list, den: int) -> int:
    """Divide out the common factor of the window and ``den``; returns ``den``."""
    g = gcd(den, *x)
    if g > 1:
        x[:] = [v // g for v in x]
    return den // g


def _split(x: list, lo: int, i: int, den: int, trace: list) -> int:
    """Split a quarter of ``x[i+1]`` at ``lo + i``; returns the denominator.
    When the quarter is not whole, the window and ``den`` are first scaled by
    ``4 // gcd(4, x[i+1])``, as :func:`_pass` doubles them for an odd top."""
    if x[i + 1] % 4:
        s = 4 // gcd(4, x[i + 1])
        x[:] = [s * v for v in x]
        den *= s
    l = x[i + 1] // 4
    trace.append(Move._of_checked(lo + i, _amount(l, den), "split"))
    x[i] += l
    x[i + 1] -= 3 * l
    x[i + 2] += 2 * l
    return den


def _spread(x: list, lo: int, den: int, trace: list) -> int:
    """Patch the holes of a window as :func:`spread` does; returns its
    denominator.  ``z``, the first zero cell, only moves right; the hole's
    right edge ``j`` is split right to left down to ``z``, and a split at
    the top appends a cell."""
    z = 1
    while z < len(x):
        if x[z]:
            z += 1
            continue
        j = z + 1
        while not x[j]:
            j += 1
        if j == len(x) - 1:
            x.append(0)
        for i in range(j - 1, z - 1, -1):  # each split shrinks the hole by one
            den = _split(x, lo, i, den, trace)
    return den


def _pass(x: list, lo: int, den: int, cap: int, trace: list):
    """Merge at ``hi-2`` down to ``lo`` by ``l = min(cap, x[-1]/2)``; returns
    ``(l, den)``, doubling the window first if ``x[-1]`` is odd and below
    ``2*cap``.  A cell gains ``-l``, ``3l`` and ``-2l`` from the merges at,
    before and two before it, so only the ends and their neighbours change."""
    top = x[-1]
    if 2 * cap <= top:
        l = cap
    elif top % 2 == 0:
        l = top // 2
    else:
        x[:] = [2 * v for v in x]
        den *= 2
        l = top
    lam = _amount(l, den)
    x[0] -= l
    x[1] += 2 * l
    x[-2] += l
    x[-1] -= 2 * l
    move = Move._of_checked
    trace.extend([move(n, lam, "merge") for n in range(lo + len(x) - 3, lo - 1, -1)])
    return l, den


def sweep(p: Position):
    """Strictly shrink the support width of a hole-free, non-winning position.

    Merges run right to left by one amount, the least non-top coefficient
    or half the top one, in whole passes while both ends can afford
    another; one partial pass then zeroes an end.  The fixed amount makes
    traces long on steep ladders: repeated from :func:`spread` until it
    wins, ``29/55*a^0 + 26/55*a^9`` takes 480,607 moves (:func:`solve`: 510).
    """
    if find_holes(p):
        raise PreconditionError("sweeping needs a hole-free position")
    if is_winning(p):
        raise PreconditionError("the position is already winning")
    lo, x, den = _window(p._c)
    trace = []
    l, den = _pass(x, lo, den, min(x[:-1]), trace)
    while x[0] > l and x[-1] > 2 * l:
        _pass(x, lo, den, l, trace)
    if x[0] and x[-1]:
        _, den = _pass(x, lo, den, x[0], trace)
    return _wrap(_cells(lo, x, den)), trace


def _balance(x: list, lo: int, den: int, trace: list) -> int:
    """Lift small transit coefficients of a window; returns its denominator.

    Patching a wide gap leaves a steep coefficient ladder behind, and every
    later merge pass is throttled by its smallest rung.  Splitting a quarter
    off the right neighbour of any coefficient below half that neighbour
    costs a handful of moves and raises the throttle by orders of magnitude.
    Each is a :func:`_split`; no cell empties, so the window stays
    ``[lo, hi]``.  The round cap is a safety valve: balancing is never
    needed for correctness.
    """
    for _ in range(64):
        made = len(trace)
        for i in range(len(x) - 3, 0, -1):
            if 2 * x[i] < x[i + 1]:
                den = _split(x, lo, i, den, trace)
        if len(trace) == made:
            break
    return _reduce(x, den)


def _log2_floor(n: int, d: int) -> int:
    """The largest ``e`` with ``2**e <= n/d``, for positive ``n`` and ``d``."""
    e = n.bit_length() - d.bit_length()
    if (n << -e if e < 0 else n) < (d << e if e > 0 else d):
        e -= 1
    return e


def _fill(x: list, lo: int, den: int, trace: list) -> int:
    """Raise every transit coefficient of a window; returns its denominator.

    With ``c`` the window's masses on ``[lo, hi]`` (``w`` exponents), the
    target is ``c + theta*F``, where ``F`` has mass 0 and value 0, is +1 on
    every interior exponent, ``-a`` at ``lo`` and ``-(w-2-a)`` at ``hi``.
    Its net merge amount at ``lo + x - 1`` is ``theta*f(x)`` with
    ``f(x) = x - (w-1)*(2^x - 1)/(2^(w-1) - 1)``, concave and zero at 0 and
    ``w-1``, so every amount is a merge.  ``theta`` is the largest power of
    two that leaves at least half of each end.

    The walk applies the fraction ``t`` of those amounts right to left, then
    repeats on what remains.  Every step ends on the segment from ``c`` to
    the target, and every point of it is a position, since the set of
    positions with given mass and value is convex.  Within a step, index
    ``m+2`` holds its end-of-step value once the merge at ``m`` is made, so
    only a merge's left operand can run short: ``t`` is the remaining
    fraction halved until every ``c[m]`` pays ``t*theta*f``.  Interior
    coefficients grow linearly, so the affordable fraction grows
    geometrically.  Amounts are integer numerators ``f(x)*d`` times one
    ``u = t*theta/d``, ``d = 2^(w-1) - 1``; a step scales the window to a
    ``den`` that ``u`` divides and checks each amount's numerator there.
    The remaining fraction, ``theta/d`` at first, is a reduced pair ``r/q``.
    """
    w = len(x)
    d = 2 ** (w - 1) - 1
    f = [t * d - (w - 1) * (2**t - 1) for t in range(1, w - 1)]
    a, b = f[0], (w - 2) * d - f[0]  # the ends of F, times -d
    e = _log2_floor(min(x[0] * b, x[-1] * a) * d, 2 * a * b * den)
    r, q = (1 << e, d) if e >= 0 else (1, d << -e)  # the rest r/q, reduced
    while r:
        j = 0  # the index of the largest f[i] / x[i]
        for i in range(1, w - 2):
            if f[i] * x[j] > f[j] * x[i]:
                j = i
        s = (-(-r * f[j] * den // (q * x[j])) - 1).bit_length()
        q <<= s  # this step makes u = r/q, reduced as (r // g) / ud
        g = gcd(r, q)
        ud = q // g
        m = ud // gcd(den, ud)
        x[:] = [v * m for v in x]
        den *= m
        k = r // g * (den // ud)
        for i in range(w - 3, -1, -1):
            l = k * f[i]
            trace.append(Move._of_checked(lo + i, _amount(l, den), "merge"))
            x[i] -= l
            x[i + 1] += 3 * l
            x[i + 2] -= 2 * l
        den = _reduce(x, den)
        r *= (1 << s) - 1  # the rest less u
        g = gcd(r, q)
        r, q = r // g, q // g
    return den


def solve(p: Position):
    """Drive a position to the winning representative of its expected value.

    The support is read into a window at once.  A position supported on
    exactly {n, n+2} is won by a single merge, one :func:`_pass`, since the
    amount min(p(n), p(n+2)/2) zeroes at least one end.  Otherwise the
    support is spread hole-free, its ladder balanced, and shrunk by
    right-to-left merge passes.  Each pass takes the largest amount every
    transit coefficient affords, so only the ends can empty and the support
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

    The multiple 4 comes from the benchmark's game pool (seed 1): in moves,
    a fill and the passes after it beat the passes alone once ``R`` exceeds
    about ``2*(hi-lo)``.  A fill move costs 2.9-3.6 us, a balance split
    2.8-3.6 us, a spreading split 4.2-4.8 us with its scan for holes, and a
    pass move 1.0-1.3 us (a 2-CPU VM, CPython 3.11); a solve takes 150 to
    180 us per position with multiple 2, 4 or 8, whose longest traces there
    have 469, 484 and 848 moves, and any multiple but 4 changes the traces.
    Filling each support at most once keeps the loop finite: the passes
    after it still empty an end.
    """
    lo, x, den = _window(p._c)
    trace = []
    if len(x) == 3 and not x[1]:  # {lo, lo+2}: the merge empties an end
        _, den = _pass(x, lo, den, x[0], trace)
        return _wrap(_cells(lo, x, den)), trace
    den = _spread(x, lo, den, trace)
    den = _balance(x, lo, den, trace)
    filled = None
    while len(x) > 2:
        hi = lo + len(x) - 1
        rung = min(x[:-1])
        steep = max(2 * x[0], x[-1]) > 2 * _FILL_RATIO * (hi - lo) * rung
        if steep and hi - lo >= 3 and (lo, hi) != filled:
            filled = (lo, hi)
            den = _fill(x, lo, den, trace)
            continue
        _, den = _pass(x, lo, den, rung, trace)
        lo += not x[0]  # the ends that ran dry leave the window
        x = x[not x[0] : len(x) - (not x[-1])]
        den = _reduce(x, den)
    return _wrap(_cells(lo, x, den)), trace
