"""Effectful finite automata and their per-effect language semantics.

An :class:`EffAutomaton` bundles a finite state carrier, an initial effect
value, a total transition table on state-letter pairs, and an output map into
an output algebra.  The word semantics is always "initial value, fed through
one channel per letter, then collapsed by the output map".  The channels are
built and validated once, when the automaton is constructed, and
:func:`collapse` is the one output step: every evaluation here and in
:mod:`effectfa.recognition` ends in it.  Every word value is one fold over
one kernel (:func:`_kernel`): a start value, one step per letter, a read.
``dist`` and ``weighted`` kernels run forward on the column kernels of
:mod:`effectfa.linalg` (integer numerators for ``dist`` and rational weights,
plain lists of weights for the boolean and user-declared semirings), whose
read, through the output column, is the same collapse; on a linear machine
:func:`eval_word` takes one step per block of letters instead, the blocks
built by pairwise doubling.  The convex kernel runs backward, on integer
numerators too (see below).  Min-plus and
max-plus kernels keep a vector as ``(config, offset)``: the vector shifted
so that its optimum is 0, and that optimum.  Their step is remembered per
configuration and letter, so a word whose configurations repeat is mostly
dictionary lookups; the memory grows with the distinct configurations met,
up to a fixed number of entries per letter.
None of them calls :func:`~effectfa.effects.bind`.  Per effect type the
value is:

* ``dist``     -- acceptance probability in [0, 1] (probabilistic automata);
* ``weighted`` -- a value of the semiring (weighted automata / power series);
* ``convex``   -- optimal acceptance probability under per-step generator
  choices, maximised, minimised, or reported as the [min, max] interval.

Convex values are computed by a backward dynamic programme over the
generators, not by pushing convex sets forward: the table of a suffix is an
output map, and putting a letter in front collapses each state's transition
value through it.  This is exact: a linear objective over a convex
transition set is optimal at a generator, and in a finite-horizon decision
problem a deterministic choice per state and step attains the optimum of any
history-dependent, randomised one (Puterman, *Markov Decision Processes*,
1994, ch. 4), so the interval equals the one read off the forward hull.
The table is kept as integer numerators over one shared denominator, and
the generators of each letter as integer numerators over one letter
denominator; a `Fraction` is built only for the value itself.
Forward propagation (:func:`iterated_transition`,
:func:`~effectfa.effects.bind`) remains for questions whose answer is an
effect value itself, and for :func:`purify_initial`.

Every word up to a length is evaluated as a tree by :func:`word_values`,
which computes each word from its parent (the word one letter shorter:
prefixes for forward kernels, suffixes for the backward one) by one step of
the same kernel as :func:`eval_word`.  :func:`disagreements` is what
recognizer verification and bounded equivalence run.  It first checks the
two machines by :func:`_equivalent`: one breadth-first closure over the
pairs of values that one word reaches in both, cut at the length asked,
which counts a pair as covered by those found before in the span (two
linear machines, Tzeng's test), up to equivalence (two boolean machines,
Hopcroft and Karp's) or by key (min-plus, max-plus and convex pairs).  Two
machines are walked only if the closure finds a difference, or if they
have no canonical configurations (a user-declared semiring, or a convex
machine against a forward one).

Deterministic automata are the ``dist`` case with Dirac channels and 0/1
outputs; no separate type exists for them (:func:`is_pure_automaton`).

Convex outputs are stored as exact (low, high) pairs.  User-declared machines
have ``low == high``; the two components only diverge on the auxiliary state
introduced by :func:`purify_initial`, whose output must reproduce the
empty-word interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import product as _iterproduct
from math import lcm
from operator import mul

from .effects import (
    Channel,
    Monad,
    _check_entries,
    _check_value,
    bind,
    identity_channel,
    is_pure,
    kleisli_compose,
    unit,
)
from .errors import CapabilityError, InputError, InterfaceError
from .exactnum import _exact_weight, is_rational, rational
from .linalg import (
    RowSpace,
    _int_fold,
    _int_read,
    _int_step,
    _int_vector,
    _lowest_terms,
    _semiring_matrix,
    _semiring_step,
)

_F0 = Fraction(0)
_F1 = Fraction(1)

_KIND_FOR_MONAD = {
    "dist": ("unit-interval",),
    "weighted": ("semiring-self",),
    "convex": ("interval-maxmin", "interval-pair"),
}


@dataclass(frozen=True)
class OutputAlgebra:
    """Evaluation contract for collapsing final effect values.

    ``unit-interval`` pairs with ``dist``, ``semiring-self`` with
    ``weighted``; convex machines use ``interval-maxmin`` (with ``mode`` set
    to ``max`` or ``min``) or ``interval-pair`` for the two-sided semantics.
    """

    kind: str
    mode: str | None = None

    def __post_init__(self):
        if self.kind not in (
            "unit-interval",
            "semiring-self",
            "interval-maxmin",
            "interval-pair",
        ):
            raise InterfaceError(f"unknown output algebra {self.kind!r}")
        if self.kind == "interval-maxmin":
            if self.mode not in ("max", "min"):
                raise InterfaceError("interval-maxmin needs mode 'max' or 'min'")
        elif self.mode is not None:
            raise InterfaceError(f"{self.kind} takes no mode")


UNIT_INTERVAL = OutputAlgebra("unit-interval")
SEMIRING_SELF = OutputAlgebra("semiring-self")
INTERVAL_MAX = OutputAlgebra("interval-maxmin", "max")
INTERVAL_MIN = OutputAlgebra("interval-maxmin", "min")
INTERVAL_PAIR = OutputAlgebra("interval-pair")


def convex_output(value) -> tuple:
    """Normalise a convex output entry to an exact (low, high) pair."""
    lo, hi = (value[0], value[1]) if isinstance(value, tuple) else (value, value)
    if type(lo) is not Fraction:
        lo = rational(lo, "convex output")
    if type(hi) is not Fraction:
        hi = rational(hi, "convex output")
    # 0 <= lo <= hi <= 1; denominators are positive, so the bounds are
    # compared on integers.
    if lo.numerator < 0 or hi.numerator > hi.denominator or (lo is not hi and lo > hi):
        raise InterfaceError(f"convex output {value!r} outside the unit interval")
    return (lo, hi)


def _check_outputs(monad: Monad, states, output: dict, algebra: OutputAlgebra):
    """Reject an output map that is not total on ``states``, an algebra that
    does not fit the effect type, and inexact output values: ``dist``
    outputs and both ends of convex (low, high) pairs pass ``is_rational``,
    weighted outputs are exact weights of the semiring."""
    if output.keys() != set(states):
        raise InterfaceError("output map must be total on the states")
    if algebra.kind not in _KIND_FOR_MONAD[monad.kind]:
        raise InterfaceError(
            f"output algebra {algebra.kind} does not fit a {monad.kind} automaton"
        )
    for q, v in output.items():
        if monad.kind == "convex":
            if not (isinstance(v, tuple) and len(v) == 2):
                raise InterfaceError(
                    f"convex outputs are (low, high) pairs; got {v!r} at {q!r}"
                )
            lo, hi = v
            exact = type(lo) is type(hi) is Fraction or is_rational(lo) and is_rational(hi)
        elif monad.kind == "dist":
            exact = type(v) is Fraction or is_rational(v)
        else:
            exact = _exact_weight(monad.semiring, v)
        if not exact:
            what = f"{monad.semiring.name} weight" if monad.semiring else "rational"
            raise InterfaceError(f"output {v!r} at {q!r} is not an exact {what}")


@dataclass(frozen=True)
class EffAutomaton:
    """States, initial effect value, transition table, output map."""

    monad: Monad
    states: tuple
    alphabet: tuple
    init: object
    trans: dict
    output: dict
    output_algebra: OutputAlgebra
    # One validated channel per letter, built from ``trans`` on construction.
    _channels: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        monad, states, trans = self.monad, self.states, self.trans
        try:
            tables = {a: {q: trans[(q, a)] for q in states} for a in self.alphabet}
        except KeyError:
            missing = [
                (q, a) for q in states for a in self.alphabet if (q, a) not in trans
            ]
            raise InterfaceError(
                f"transition table not total; missing {missing}"
            ) from None
        _check_outputs(monad, states, self.output, self.output_algebra)
        carrier = set(states)
        _check_value(monad, self.init, carrier, "the initial value")
        # Each entry is checked once here, so the letter channels are built
        # from these tables without checking them again.
        for a, table in tables.items():
            try:
                _check_entries(monad, table, carrier)
            except InterfaceError as e:
                raise InterfaceError(f"transitions on {a!r}: {e}") from None
        channels = {
            a: Channel._of_checked(monad, states, states, table)
            for a, table in tables.items()
        }
        object.__setattr__(self, "_channels", channels)

    def letter_channel(self, a) -> Channel:
        ch = self._channels.get(a)
        if ch is None:
            raise InputError(f"letter {a!r} is not in the alphabet")
        return ch

    def init_pure_state(self):
        """The single initial state if the initial value is pure, else None."""
        if not is_pure(self.init):
            return None
        if self.monad.kind == "convex":
            return self.init.generators[0].support()[0]
        return self.init.support()[0]


def is_pure_automaton(a: EffAutomaton) -> bool:
    """True for the deterministic fragment: Dirac dist channels, 0/1 outputs."""
    if a.monad.kind != "dist":
        return False
    if not is_pure(a.init):
        return False
    if any(not t.is_dirac() for t in a.trans.values()):
        return False
    return all(v in (_F0, _F1) for v in a.output.values())


def words_upto(alphabet: tuple, maxlen: int):
    """All words over the alphabet of length at most ``maxlen``, short first."""
    for n in range(maxlen + 1):
        yield from _iterproduct(alphabet, repeat=n)


def iterated_transition(a: EffAutomaton, w) -> Channel:
    """The state-to-state channel of a whole word (identity on the empty word)."""
    ch = identity_channel(a.monad, a.states)
    for letter in w:
        ch = kleisli_compose(ch, a.letter_channel(letter))
    return ch


# Per convex algebra mode (None for the pair), the (optimiser, output
# component) sides that :func:`collapse` reads.
_CONVEX_SIDES = {
    "max": ((max, 1),),
    "min": ((min, 0),),
    None: ((min, 0), (max, 1)),
}


def collapse(monad: Monad, algebra: OutputAlgebra, value, output: dict):
    """Apply the output map's free extension to a final effect value.

    ``dist`` gives the expectation and ``weighted`` the semiring sum of
    products.  A convex value gives, per side the algebra reads, the optimum
    over its generators of the expected output component: ``max`` of the
    highs, ``min`` of the lows, or the (min low, max high) pair.  The extremes
    of a linear function over a convex set lie at generators, so this is the
    optimum over the whole set.  ``algebra`` is read for convex values only;
    a site that stores the result as an output entry passes
    :data:`INTERVAL_PAIR` to get the raw (low, high) pair.
    """
    if monad.kind == "dist":
        return sum((w * output[q] for q, w in value.items()), _F0)
    if monad.kind == "weighted":
        s = monad.semiring
        return s.sum(s.mul(w, output[q]) for q, w in value.items())
    sides = _CONVEX_SIDES[algebra.mode]
    values = tuple(
        opt(
            sum((w * output[q][comp] for q, w in d.items()), _F0)
            for d in value.generators
        )
        for opt, comp in sides
    )
    return values if len(sides) == 2 else values[0]


def _is_linear(monad: Monad) -> bool:
    """Whether values of this effect type are rational vectors: ``dist`` or
    ``weighted`` over the rationals."""
    return monad.kind == "dist" or (
        monad.kind == "weighted" and monad.semiring.name == "rational"
    )


def _is_boolean(monad: Monad) -> bool:
    """Whether values of this effect type are boolean vectors."""
    return monad.kind == "weighted" and monad.semiring.name == "boolean"


# The optimum that offsets a tropical vector.
_TROPICAL_OPT = {"minplus": min, "maxplus": max}
# The entries a min-plus or max-plus kernel remembers per letter (see
# :func:`_kernel`).  A configuration met after that is stepped afresh
# each time, so a word whose configurations never repeat keeps its memory
# bounded, and one that cycles through fewer is not affected.
_TROPICAL_MEMO_BOUND = 65536


def _is_tropical(monad: Monad) -> bool:
    """Whether values of this effect type are min-plus or max-plus vectors."""
    return monad.kind == "weighted" and monad.semiring.name in _TROPICAL_OPT


def _letter_matrix(a: EffAutomaton, letter) -> tuple:
    """The matrix of a letter on a ``dist`` or ``weighted`` machine: row
    ``q``, column ``p`` holds the weight of ``q -letter-> p``."""
    table = a.letter_channel(letter).table
    return tuple(tuple(table[q].weight(p) for p in a.states) for q in a.states)


def _int_rows(rows, index, d) -> list:
    """Each of ``rows`` (the ``(state, weight)`` pairs of a rational weight
    map) as a list of integer weights, one per state of ``index`` (state to
    position), scaled by ``d``, a multiple of every weight's denominator."""
    out = []
    for row in rows:
        nums = [0] * len(index)
        for q, w in row:
            nums[index[q]] = w.numerator * (d // w.denominator)
        out.append(nums)
    return out


def _int_generators(values, states) -> tuple:
    """``(d, rows)``: per convex value of ``values``, its generators as
    lists of integer weights on ``states`` (:func:`_int_rows`), all scaled
    by ``d``, the LCM of the weights' denominators."""
    groups = [[g.items() for g in v.generators] for v in values]
    d = lcm(*(w.denominator for group in groups for g in group for _, w in g))
    index = {q: i for i, q in enumerate(states)}
    return d, [_int_rows(group, index, d) for group in groups]


def _linear_letters(a: EffAutomaton, letters) -> tuple:
    """``(start, mats, radix, final)`` of a linear machine on integers: the
    initial row and the output column as ``(numerators, den)``
    (:func:`~effectfa.linalg._int_vector`), and per letter of ``letters``
    its ``(d, columns)`` matrix, whose rows come straight from the letter
    channel's table as integer weights (:func:`_int_rows`) over their LCM
    ``d``.  ``radix`` is the LCM of the initial and letter denominators, as
    :func:`~effectfa.linalg._int_step` takes it.  Each letter is looked up
    once; an unknown one raises :class:`InputError`."""
    index = {q: i for i, q in enumerate(a.states)}
    mats = {}
    for x in letters:
        table = a.letter_channel(x).table
        rows = [table[q].items() for q in a.states]
        d = lcm(*(w.denominator for row in rows for _, w in row))
        mats[x] = d, tuple(zip(*_int_rows(rows, index, d)))
    start = _int_vector([a.init.weight(q) for q in a.states])
    final = _int_vector([a.output[q] for q in a.states])
    radix = lcm(start[1], *(d for d, _ in mats.values()))
    return start, mats, radix, final


def _kernel(a: EffAutomaton, letters, algebra: OutputAlgebra | None = None) -> tuple:
    """``(start, step, read, backward)`` of a machine's word-value kernel:
    the value of ``w`` is ``start`` fed through ``step(v, x)`` for each
    letter ``x`` of ``w`` (right to left if ``backward``), then ``read``.
    Each letter of ``letters`` is looked up once; an unknown one raises
    :class:`InputError`.

    ``dist`` and ``weighted`` kernels run forward.  ``start`` is the initial
    vector, ``step`` feeds it through a letter matrix and ``read`` collapses
    it through the output map.  ``dist`` and rational ``weighted`` machines
    run on integers: a vector is ``(numerators, den)`` in lowest terms,
    ``step`` is one :func:`~effectfa.linalg._int_step` by the letter's
    integer matrix (:func:`_linear_letters`), and only ``read`` builds a
    `Fraction`.  The other semirings step on the semiring column kernel
    (:func:`~effectfa.linalg._semiring_step`), and ``read`` is one more
    step, through the output column.  Boolean and user-declared semirings
    keep a vector as a plain list of weights.

    Min-plus and max-plus machines keep it as ``(config, offset)``, as in
    Mohri's determinisation (*Computational Linguistics* 23(2), 1997).
    ``offset`` is ``opt`` of the vector's finite entries (``min`` for
    min-plus, ``max`` for max-plus), None if every entry is the semiring's
    infinity, and ``config`` is the vector minus ``offset``, as a tuple
    with the infinity kept as it is.  Adding one constant to every entry
    commutes with ``min``, ``max`` and the letter matrices, and tropical
    weights are integers, so ``step`` steps ``config`` alone and adds the
    next offset to ``offset``; ``read`` is the output step on ``config``
    plus ``offset``.  ``step`` remembers ``config -> (next config, offset
    added)`` in one dict per letter, local to this call, so a
    configuration met again costs one lookup and one addition.  A dict
    holds one entry per distinct configuration stepped on its letter, which
    on a word whose configurations never repeat (the counter
    ``min(#a, #b)`` on ``a^k``) is one per letter, so it stops taking new
    entries at :data:`_TROPICAL_MEMO_BOUND`; lookups go on, and a
    configuration it did not take is stepped afresh each time it is met.

    The convex kernel is the backward generator DP, in the mode of
    ``algebra`` (the machine's own by default), on integers too.  A table is
    ``(numerators, den)``: one numerator per state for each side the mode
    reads (the lows for ``min``, the highs for ``max``, both for the
    interval), laid end to end over one shared denominator.  ``start`` is
    the output map.  ``step(table, x)`` is :func:`collapse` of each state's
    transition value on ``x`` through the table: per side and state, the
    optimum over the generators (:func:`_int_generators`) of their integer
    weights times the side's numerators, over the denominator times the
    letter's, reduced by :func:`~effectfa.linalg._lowest_terms`.  The
    denominator is positive, so ``min`` and ``max`` over numerators pick the
    generator they pick over rationals.  ``read`` collapses the initial value
    the same way and is the only place that builds a `Fraction`.
    """
    if a.monad.kind == "convex":
        algebra = a.output_algebra if algebra is None else algebra
        sides = _CONVEX_SIDES[algebra.mode]
        n = len(a.states)
        spans = [(opt, k * n, k * n + n) for k, (opt, _) in enumerate(sides)]
        start = _int_vector([a.output[q][comp] for _, comp in sides for q in a.states])
        gens = {}
        for x in letters:
            table = a.letter_channel(x).table
            gens[x] = _int_generators([table[q] for q in a.states], a.states)
        init = _int_generators((a.init,), a.states)
        radix = lcm(start[1], *(d for d, _ in gens.values()))

        def collapse_rows(table, d, rows):
            nums, den = table
            out = []
            for opt, lo, hi in spans:
                side = nums[lo:hi]
                out += [opt([sum(map(mul, g, side)) for g in row]) for row in rows]
            return out, den * d

        def step(table, x):
            return _lowest_terms(*collapse_rows(table, *gens[x]), radix)

        def read(table):
            out, den = collapse_rows(table, *init)
            values = tuple(Fraction(y, den) for y in out)
            return values if len(values) == 2 else values[0]

        return start, step, read, True
    if _is_linear(a.monad):
        start, mats, radix, final = _linear_letters(a, letters)

        def step(v, x):
            return _int_step(v[0], v[1], mats[x], radix)

        def read(v):
            return _int_read(v, final)

        return start, step, read, False
    init = tuple(a.init.weight(q) for q in a.states)
    final = tuple(a.output[q] for q in a.states)
    s = a.monad.semiring
    semiring_step = _semiring_step(s)
    mats = {x: _semiring_matrix(s, _letter_matrix(a, x)) for x in letters}
    output = _semiring_matrix(s, tuple((f,) for f in final))
    opt = _TROPICAL_OPT.get(s.name)
    if opt is None:

        def step(v, x):
            return semiring_step(v, mats[x])

        def read(v):
            return semiring_step(v, output)[0]

        return list(init), step, read, False
    bottom = s.zero
    # Per letter, config -> (next config, offset added).
    memos = {x: {} for x in mats}

    def normal(v):
        finite = [y for y in v if y is not bottom]
        if not finite:
            return tuple(v), None
        low = opt(finite)
        if not low:
            return tuple(v), 0
        return tuple(y if y is bottom else y - low for y in v), low

    def step(value, x):
        config, offset = value
        memo = memos[x]
        hit = memo.get(config)
        if hit is None:
            hit = normal(semiring_step(config, mats[x]))
            if len(memo) < _TROPICAL_MEMO_BOUND:
                memo[config] = hit
        config, delta = hit
        return config, None if delta is None else offset + delta

    def read(value):
        config, offset = value
        y = semiring_step(config, output)[0]
        return y if y is bottom else y + offset

    return normal(init), step, read, False


def _fold(a: EffAutomaton, w, algebra: OutputAlgebra | None = None):
    """The value of ``w``: one fold of :func:`_kernel` over its letters, or
    on a linear machine the blocked fold of
    :func:`~effectfa.linalg._int_fold` over the same integer matrices."""
    if _is_linear(a.monad):
        start, mats, radix, final = _linear_letters(a, dict.fromkeys(w))
        (v,) = _int_fold([start], w, mats, radix)
        return _int_read(v, final)
    v, step, read, backward = _kernel(a, dict.fromkeys(w), algebra)
    for x in (reversed(w) if backward else w):
        v = step(v, x)
    return read(v)


def eval_word(a: EffAutomaton, w):
    """The language value of ``w``: value fed letter by letter, then output.

    One fold over :func:`_kernel`, shared with :func:`eval_npfa`.  ``dist``
    and ``weighted`` values are the initial row times the letter matrices
    times the output column, which is :func:`collapse` of the pushed-forward
    value: exact integers over one denominator on linear machines, read in
    blocks of letters built by pairwise doubling, one step per block
    (:func:`~effectfa.linalg._int_fold`; a word whose blocks repeat takes
    far fewer steps than letters), ``(config, offset)`` on min-plus and
    max-plus machines, with a memoised
    step whose memory grows with the distinct configurations the word
    meets, up to a fixed bound per letter (see :func:`_kernel`), and plain
    lists of weights in :func:`bind`'s multiplication order otherwise.
    Convex values come from the kernel's backward case, the generator DP, in
    the mode the output algebra names; it gives the interval of forward hull
    propagation (see the module docstring) in time linear in the word.  The
    first unknown letter of ``w`` raises :class:`InputError`.
    """
    return _fold(a, w)


def word_values(
    a: EffAutomaton, maxlen: int, alphabet: tuple | None = None, kernel=None
):
    """Yield ``(w, value)`` for every word up to ``maxlen``, in
    :func:`words_upto` order over ``alphabet`` (the machine's by default).

    The words are walked as a tree, one length at a time, and only the
    previous length's intermediate results are kept.  Each value equals
    :func:`eval_word`'s and is computed by the same kernel: a word's kernel
    value is one step from its parent's.  The parent is the word without
    its last letter for forward kernels (``dist`` and ``weighted``: shared
    prefixes) and without its first letter for the backward one (the convex
    DP: shared suffixes).  Each letter is looked up once per call, unless
    ``kernel`` is ``a``'s :func:`_kernel` over ``alphabet`` already built
    (as :func:`disagreements` passes the one its closure stepped).  A
    min-plus or max-plus kernel's memoised step serves the whole tree, so
    words whose configurations were stepped before cost a lookup each; its
    memo grows with the distinct configurations in the tree, up to the
    kernel's bound per letter.
    """
    alphabet = a.alphabet if alphabet is None else tuple(alphabet)
    start, step, read, backward = _kernel(a, alphabet) if kernel is None else kernel
    level = {(): start}
    yield (), read(start)
    for n in range(1, maxlen + 1):
        prev, level = level, {}
        for w in _iterproduct(alphabet, repeat=n):
            parent, x = (w[1:], w[0]) if backward else (w[:-1], w[-1])
            level[w] = here = step(prev[parent], x)
            yield w, read(here)


def _difference_kernel(a: EffAutomaton, b: EffAutomaton) -> tuple:
    """``(init, start, step)`` of the backward integer kernel of the
    difference machine of two linear machines, over ``a``'s alphabet.

    ``init`` is the integer initial row ``(init_a, init_b)`` and ``start``
    the final column ``(f_a, -f_b)`` as ``(numerators, den)``.
    ``step(v, x)`` is ``M_x v`` in lowest terms, for the block-diagonal
    letter matrix ``M_x``: each block's rows come straight from the letter
    channel's table as integer weights (:func:`_int_rows`) over the LCM of
    both blocks' denominators, and each block is applied to its own half of
    ``v``, so no zero block is stored or multiplied.  A letter's blocks are
    built the first time a step reads it, so a pair that differs on the
    empty word converts no rows; each letter is looked up at once, so an
    unknown one raises :class:`InputError` before anything is decided.
    """
    na = len(a.states)
    indexes = [{q: i for i, q in enumerate(m.states)} for m in (a, b)]
    channels = {x: (a.letter_channel(x), b.letter_channel(x)) for x in a.alphabet}
    init, _ = _int_vector(
        [a.init.weight(q) for q in a.states] + [b.init.weight(q) for q in b.states]
    )
    start = _int_vector([a.output[q] for q in a.states] + [-b.output[q] for q in b.states])
    blocks = {}
    # Every prime of a denominator met so far divides ``radix`` (see
    # linalg._int_letters): a value's denominator comes from ``start`` and
    # the letters stepped, whose blocks were built before it.
    radix = start[1]

    def block(x):
        nonlocal radix
        groups = [
            [ch.table[q].items() for q in m.states] for m, ch in zip((a, b), channels[x])
        ]
        d = lcm(*(w.denominator for group in groups for row in group for _, w in row))
        rows_a, rows_b = (_int_rows(g, i, d) for g, i in zip(groups, indexes))
        radix = lcm(radix, d)
        blocks[x] = d, rows_a, rows_b
        return blocks[x]

    def step(v, x):
        (nums, den), (d, rows_a, rows_b) = v, blocks.get(x) or block(x)
        head, tail = nums[:na], nums[na:]
        out = [sum(map(mul, head, r)) for r in rows_a]
        out += [sum(map(mul, tail, r)) for r in rows_b]
        return _lowest_terms(out, den * d, radix)

    return init, start, step


def _kernels(a: EffAutomaton, b: EffAutomaton):
    """A function that returns the :func:`_kernel` of ``a`` and of ``b`` over
    ``a``'s alphabet, built on its first call.  The closure of
    :func:`_equivalent` and the walk of :func:`disagreements` after it step
    the same two kernels, so each machine's set-up is paid once."""
    return cache(lambda: (_kernel(a, a.alphabet), _kernel(b, a.alphabet)))


def _closure(start, step, known, agree, letters, maxlen) -> bool:
    """Whether every element reached from ``start`` by a word of at most
    ``maxlen`` letters over ``letters`` (of any length if ``maxlen`` is
    None) agrees: the one breadth-first loop behind :func:`_equivalent`.
    Bonchi and Pous (*POPL 2013*) read the equivalence checks of Tzeng and
    of Hopcroft and Karp as this closure, taken up to different
    congruences; ``known`` is the congruence.

    ``step(v, x)`` is one kernel step by the letter ``x``.  ``known(v)``
    says whether ``v`` is covered by the elements found so far, and adds it
    to them if not.  Only a new element is checked by ``agree(v)`` and then
    stepped by every letter.  The loop runs one level per word length:
    False at the first new element that does not agree, True after
    ``maxlen`` levels or once a level finds nothing new, when the closure
    is complete.  A level holds at most one element per word of its
    length, so the loop takes at most the kernel steps of a walk to
    ``maxlen``.

    Stopping at a depth is sound when an element covered at depth ``d``
    follows from elements found at depths up to ``d`` (as a combination, a
    chain or a copy of them): by induction on the length, those agree on
    every word of up to ``maxlen - d`` more letters, so it does too.
    """
    reached, depth = (start,), 0
    while True:
        level = []
        for v in reached:
            if not known(v):
                if not agree(v):
                    return False
                level.append(v)
        if not level or depth == maxlen:
            return True
        # Lazy, so that a difference stops the steps at once.
        reached = (step(v, x) for v in level for x in letters)
        depth += 1


def _int_key(v) -> tuple:
    """An integer kernel value ``(numerators, den)`` as a hashable key."""
    return tuple(v[0]), v[1]


# The builtin semirings whose kernel values are canonical as they stand.
_KEYED_SEMIRINGS = ("rational", "boolean", "minplus", "maxplus")


def _pair_key(a: EffAutomaton, b: EffAutomaton):
    """The key of :func:`_equivalent`'s keyed closure: ``key(va, vb)`` of
    the two machines' :func:`_kernel` values reached by one word, equal for
    two pairs only if the pairs agree or differ alike on every extension of
    the word (a suffix for forward kernels, a prefix for the backward convex
    one).

    A value keys as itself, because the kernel keeps it canonical: integer
    ``(numerators, den)`` in lowest terms on linear and convex machines,
    ``(config, offset)`` on min-plus and max-plus machines (the vector less
    its optimum, and that optimum), the weights on the boolean one.  Two
    machines over the same tropical semiring key a pair up to a common
    shift, as in Mohri's determinisation (*Computational Linguistics*
    23(2), 1997): ``(config_a, config_b, offset_a - offset_b)``, with no
    offset difference if either vector is all-infinite.  A shift of both
    vectors by one constant shifts every later finite value by it.

    None for a user-declared semiring, whose weights may have no canonical
    form, and for a convex machine against a forward one, whose kernels
    extend a word at opposite ends.  :func:`_equivalent` asks only for pairs
    that are not both linear or both boolean.
    """
    for m in (a, b):
        if m.monad.kind == "weighted" and m.monad.semiring.name not in _KEYED_SEMIRINGS:
            return None
    if (a.monad.kind == "convex") != (b.monad.kind == "convex"):
        return None
    if a.monad == b.monad and _is_tropical(a.monad):

        def key(va, vb):
            (ca, oa), (cb, ob) = va, vb
            return ca, cb, None if oa is None or ob is None else oa - ob

        return key
    key_a, key_b = (
        tuple if m.monad.kind == "weighted" and not _is_linear(m.monad) else _int_key
        for m in (a, b)
    )
    return lambda va, vb: (key_a(va), key_b(vb))


def _union_find():
    """The ``known`` of :func:`_closure` for Hopcroft and Karp's test
    (1971): union-find over ``(machine, vector)`` on pairs of boolean
    vectors.  A pair is covered once its two vectors are in one class, and
    its two classes are merged if not."""
    parent = {}  # non-root vectors only, keyed by (machine, vector)

    def find(k):
        while k in parent:
            k = parent[k]
        return k

    def known(pair):
        ra, rb = find((0, tuple(pair[0]))), find((1, tuple(pair[1])))
        if ra == rb:
            return True
        parent[ra] = rb
        return False

    return known


def _equivalent(a: EffAutomaton, b: EffAutomaton, maxlen: int | None = None, kernels=None):
    """Whether ``a`` and ``b`` agree on every word over ``a``'s alphabet up
    to ``maxlen``, or on every word without it, by one :func:`_closure`: the
    one place that picks the congruence and the kernel from the two
    machines' monads.

    * Two linear machines (``dist`` or rational, mixed allowed): Tzeng's
      test (*SIAM J. Comput.* 21(2), 1992), run backward.  The elements are
      the columns ``M(w) f`` of the difference machine, stepped on
      :func:`_difference_kernel`; its value on ``w`` is ``a(w) - b(w)``, the
      initial row times the column.  A column is covered if it lies in the
      span of those found so far, kept in a
      :class:`~effectfa.linalg.RowSpace`, and a zero column is covered from
      the start; the span has dimension at most the states of both
      machines.  Backward, because a recognizer machine
      has many states but few independent futures.
    * Two boolean machines: the pairs of vectors one word reaches, stepped
      on both machines' kernels and covered up to equivalence
      (:func:`_union_find`), which merges at most once per reachable
      vector.
    * Other pairs with a :func:`_pair_key` (min-plus, max-plus and convex
      machines, and mixes of these with the other builtin effect types):
      the same pairs, covered once their key was seen.  Min-plus and
      max-plus equivalence is undecidable (Krob, 1994) and convex
      equivalence is open, so these closures need not finish, and without
      ``maxlen`` the answer is None.

    None, too, for a user-declared semiring and for a convex machine
    against a forward one.  ``kernels`` is the caller's :func:`_kernels`,
    to share with its walk.  A letter of ``a``'s alphabet that ``b`` lacks
    raises :class:`InputError` once the closure builds ``b``'s kernel.
    """
    if _is_linear(a.monad) and _is_linear(b.monad):
        init, start, step = _difference_kernel(a, b)
        space = RowSpace(len(a.states) + len(b.states))
        return _closure(
            start,
            step,
            lambda v: space._place(*v) is not None,
            lambda v: not sum(map(mul, init, v[0])),
            a.alphabet,
            maxlen,
        )
    if _is_boolean(a.monad) and _is_boolean(b.monad):
        known = _union_find()
    else:
        key = None if maxlen is None else _pair_key(a, b)
        if key is None:
            return None
        seen = set()

        def known(pair):
            k = key(*pair)
            if k in seen:
                return True
            seen.add(k)
            return False

    kernels = _kernels(a, b) if kernels is None else kernels
    (start_a, step_a, read_a, _), (start_b, step_b, read_b, _) = kernels()

    def step(pair, x):
        return step_a(pair[0], x), step_b(pair[1], x)

    def agree(pair):
        return outputs_equal(a, read_a(pair[0]), read_b(pair[1]))

    return _closure((start_a, start_b), step, known, agree, a.alphabet, maxlen)


def disagreements(a: EffAutomaton, b: EffAutomaton, maxlen: int):
    """Yield ``(w, a_value, b_value)`` for every word up to ``maxlen`` on
    which the two machines differ, in :func:`words_upto` order over ``a``'s
    alphabet, comparing with :func:`outputs_equal` on ``a``.

    The two machines are first checked without a walk, by
    :func:`_equivalent` up to ``maxlen``: one breadth-first closure over
    what a word reaches in both machines, cut at ``maxlen`` levels, in at
    most the walk's kernel steps on each machine and, on machines that
    differ, at most a walk's to their shortest difference (none if they
    differ on the empty word, which the closure checks first).  If it finds
    no difference, nothing is walked.  Otherwise, and always for a
    user-declared semiring and for a convex machine against a forward one,
    both machines are walked along the word tree by :func:`word_values`, on
    the kernels the closure built, so that every difference is listed; the
    walk stops as soon as the caller stops asking.  A letter of ``a``'s
    alphabet that ``b`` lacks
    raises :class:`InputError` at the first request.
    """
    kernels = _kernels(a, b)
    # The closure checks the empty word before its first step, so a pair
    # that differs there goes to the walk at once.
    if _equivalent(a, b, maxlen, kernels):
        return
    kernel_a, kernel_b = kernels()
    for (w, va), (_, vb) in zip(
        word_values(a, maxlen, a.alphabet, kernel_a),
        word_values(b, maxlen, a.alphabet, kernel_b),
    ):
        if not outputs_equal(a, va, vb):
            yield w, va, vb


def eval_pfa_pathsum(a: EffAutomaton, w) -> Fraction:
    """Explicit sum over all state paths; the oracle for dist evaluation.

    Exponential in the word length by construction; used to cross-check the
    channel-composition semantics.
    """
    if a.monad.kind != "dist":
        raise CapabilityError("path-sum evaluation is defined for dist automata")
    for letter in w:
        if letter not in a.alphabet:
            raise InputError(f"letter {letter!r} is not in the alphabet")
    total = _F0
    for path in _iterproduct(a.states, repeat=len(w) + 1):
        weight = a.init.weight(path[0])
        for k, letter in enumerate(w):
            if weight == 0:
                break
            weight *= a.trans[(path[k], letter)].weight(path[k + 1])
        total += weight * a.output[path[-1]]
    return total


_ALGEBRA_FOR_MODE = {"max": INTERVAL_MAX, "min": INTERVAL_MIN, "interval": INTERVAL_PAIR}


def eval_npfa(a: EffAutomaton, w, mode: str = "interval"):
    """Backward optimisation over per-step generator choices.

    The fold of :func:`eval_word` over the backward (convex) case of
    :func:`_kernel`, in the mode given: ``max``, ``min`` or ``interval``
    (the (min, max) pair).  Only generators are inspected, since the optimum
    over a convex transition set is attained at one.
    """
    if a.monad.kind != "convex":
        raise CapabilityError("generator optimisation is defined for convex automata")
    if mode not in _ALGEBRA_FOR_MODE:
        raise InputError(f"unknown mode {mode!r}")
    return _fold(a, w, _ALGEBRA_FOR_MODE[mode])


def _fresh_state(states: tuple) -> str:
    name = "_init"
    while name in states:
        name += "_"
    return name


def purify_initial(a: EffAutomaton) -> EffAutomaton:
    """Replace an effectful initial value by a pure one on a fresh state.

    The fresh state simulates the old initial value for every first letter,
    and outputs the old empty-word value, so the language is unchanged.  The
    fresh state is unreachable afterwards; on machines already carrying a
    pure initial value it is simply inert.
    """
    bot = _fresh_state(a.states)
    states = a.states + (bot,)
    trans = dict(a.trans)
    for x in a.alphabet:
        trans[(bot, x)] = bind(a.init, a.letter_channel(x))
    output = dict(a.output)
    output[bot] = collapse(a.monad, INTERVAL_PAIR, a.init, a.output)
    return EffAutomaton(
        monad=a.monad,
        states=states,
        alphabet=a.alphabet,
        init=unit(a.monad, bot),
        trans=trans,
        output=output,
        output_algebra=a.output_algebra,
    )


def outputs_equal(a: EffAutomaton, v1, v2) -> bool:
    """Compare two language values under the automaton's output algebra."""
    if a.monad.kind == "weighted":
        return a.monad.semiring.eq(v1, v2)
    return v1 == v2
