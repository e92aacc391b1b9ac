"""Ops, independent reference values, and the direct layer probes.

An :class:`Op` is one closed-loop request: ``run`` starts from text and
returns the printed answer, ``check`` decides whether a printed answer is
exactly right, and ``probe`` (traced run only) makes direct public calls
into the layers the op reaches only indirectly.  References are computed
by code paths other than the one the op exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable

from effectfa import ConvexSet, bind, eval_npfa, eval_word, to_linear, words_upto
from effectfa.cli import format_value, parse_automaton, parse_word, print_automaton
from effectfa.linalg import (
    RowSpace,
    dot,
    feasible_nonneg,
    solve_linear,
    transpose,
    vec_mat,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


class CheckFailed(Exception):
    """A printed answer differs from its independent reference."""


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable
    probe: Callable | None = None
    shape: str = ""  # the input shape, for failure reports


@dataclass
class Pool:
    """The seeded inputs of one workload, in the order the loop sends them."""

    ops: list
    machines: list = field(default_factory=list)  # (automaton, text) pairs

    def render(self, a):
        """Print a generated machine and keep it for the round-trip check."""
        text = print_automaton(a)
        self.machines.append((a, text))
        return text

    def check_round_trip(self):
        """Printing then parsing must be the identity on every machine.

        Convex entries are compared generator by generator, which is
        stricter than hull equality and needs no LPs.
        """
        for a, text in self.machines:
            back = parse_automaton(text)
            if _fields(back) != _fields(a) or print_automaton(back) != text:
                raise CheckFailed(f"print/parse round trip changed:\n{text}")


def _fields(a):
    def value(v):
        return v.generators if isinstance(v, ConvexSet) else v

    trans = {k: value(v) for k, v in a.trans.items()}
    return (a.monad, a.states, a.alphabet, value(a.init), trans, a.output, a.output_algebra)


def eval_run(text, wtext):
    """What ``effectfa eval FILE WORD`` does, from the file's text and the word."""

    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        word = t.call("cli.parse", parse_word, wtext)
        v = t.call("automata.eval_word", eval_word, m, word)
        t.count("automata.letters", len(word))
        t.observe("exactnum.value_bits", bits(v))
        return t.call("cli.print", format_value, v, m)

    return run


def expect(got, want, what):
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def bits(x):
    """Numerator plus denominator bits of an exact value (0 for non-numbers)."""
    if isinstance(x, tuple):
        return max(bits(v) for v in x)
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, int) and not isinstance(x, bool):
        return x.bit_length()
    return 0


# ---------------------------------------------------------------------------
# Independent references


def semiring_value(a, w):
    """Forward vector-matrix product over the machine's semiring."""
    s = a.monad.semiring
    vec = dict(a.init.items())
    for x in w:
        nxt = {}
        for q, wq in vec.items():
            for p, wp in a.trans[(q, x)].items():
                v = s.mul(wq, wp)
                nxt[p] = s.add(nxt[p], v) if p in nxt else v
        vec = nxt
    return s.sum(s.mul(wq, a.output[q]) for q, wq in vec.items())


def convex_dp(a, w, mode):
    """Backward optimisation over generator choices, one value per state."""
    comp, opt = (1, max) if mode == "max" else (0, min)
    values = {q: a.output[q][comp] for q in a.states}
    for x in reversed(w):
        values = {
            q: opt(
                sum((wp * values[p] for p, wp in d.items()), _F0)
                for d in a.trans[(q, x)].generators
            )
            for q in a.states
        }
    return opt(
        sum((wq * values[q] for q, wq in d.items()), _F0) for d in a.init.generators
    )


def convex_brute_force(a, w, mode):
    """Optimum over every reachable state distribution, enumerated forward."""
    states = a.states
    index = {q: i for i, q in enumerate(states)}
    vectors = {tuple(g.weight(q) for q in states) for g in a.init.generators}
    for x in w:
        nxt = set()
        for v in vectors:
            active = [i for i, m in enumerate(v) if m]
            options = [a.trans[(states[i], x)].generators for i in active]
            for pick in product(*options):
                out = [_F0] * len(states)
                for i, g in zip(active, pick):
                    for q, wq in g.items():
                        out[index[q]] += v[i] * wq
                nxt.add(tuple(out))
        vectors = nxt
    comp, opt = (1, max) if mode == "max" else (0, min)
    return opt(
        sum((m * a.output[q][comp] for m, q in zip(v, states)), _F0) for v in vectors
    )


def convex_mode(a):
    algebra = a.output_algebra
    return "interval" if algebra.kind == "interval-pair" else algebra.mode


def is_linear(a):
    """Dist and rational machines have a linear representation."""
    return a.monad.kind == "dist" or (
        a.monad.kind == "weighted" and a.monad.semiring.name == "rational"
    )


def integer_value(rep, w):
    """Exact value of a word from integer matrices over one common denominator.

    Scaling every entry by the least common denominator ``d`` turns the
    Fraction products into integer ones; the value is the integer result
    over ``d`` to the power ``len(w) + 2``.  Much cheaper than Fractions on
    long words, and independent of the library's evaluation code.
    """
    entries = list(rep.initial) + list(rep.final)
    for m in rep.letters.values():
        for row in m:
            entries.extend(row)
    d = lcm(*(Fraction(x).denominator for x in entries))

    def scaled(row):
        return [int(x * d) for x in row]

    mats = {x: [scaled(row) for row in m] for x, m in rep.letters.items()}
    v = scaled(rep.initial)
    n = len(v)
    for x in w:
        m = mats[x]
        v = [sum(v[i] * m[i][j] for i in range(n)) for j in range(n)]
    num = sum(vi * fi for vi, fi in zip(v, scaled(rep.final)))
    return Fraction(num, d ** (len(w) + 2))


def reference_value(a, w):
    """The language value of ``w``, computed without ``eval_word``."""
    if is_linear(a):
        return integer_value(to_linear(a), w)
    if a.monad.kind == "weighted":
        return semiring_value(a, w)
    return eval_npfa(a, w, convex_mode(a))


def value_table(rep, depth):
    """Values of a linear representation on all words up to ``depth``.

    Shares prefixes, so each word costs one vector-matrix product.
    """
    rows = {(): rep.initial}
    values = {}
    for w in words_upto(rep.alphabet, depth):
        if w:
            rows[w] = vec_mat(rows[w[:-1]], rep.letters[w[-1]])
        values[w] = dot(rows[w], rep.final)
    return values


def render_value(v, a):
    """Exact text of a language value, as the command line prints it."""
    if a.monad.kind == "weighted":
        return a.monad.semiring.fmt(v)
    if isinstance(v, tuple):
        return f"[{v[0]}, {v[1]}]"
    return str(v)


def reference_table(a, depth):
    """``reference_value`` on every word up to ``depth``."""
    if is_linear(a):
        return value_table(to_linear(a), depth)
    return {w: reference_value(a, w) for w in words_upto(a.alphabet, depth)}


def same_language(a, b, depth, what):
    """Equal values on every word up to ``depth``; raises CheckFailed."""
    expect(reference_table(b, depth), reference_table(a, depth), what)


# ---------------------------------------------------------------------------
# Direct layer probes (traced run only)


def probe_binds(t, a, words):
    """Step ``bind`` along each word, one span per letter channel and bind."""
    name = "effects.bind_" + a.monad.kind
    for w in words:
        v = a.init
        for x in w:
            ch = t.call("automata.letter_channel", a.letter_channel, x)
            if a.monad.kind == "convex":
                choices = 0
                for d in v.generators:
                    k = 1
                    for y in d.support():
                        k *= len(ch(y).generators)
                    choices += k
                t.count("effects.convex_choices", choices)
            v = t.call(name, bind, v, ch)
            t.count("effects.bind_calls")
            if a.monad.kind == "convex":
                t.count("effects.convex_extreme_points", len(v.generators))


def probe_rows(t, a):
    """``RowSpace.add`` and ``solve_linear`` on the letter-matrix rows."""
    rep = to_linear(a)
    rows = [row for x in rep.alphabet for row in rep.letters[x]]
    space = RowSpace(rep.dim)
    basis = []
    for row in rows:
        t.count("linalg.rowspace_adds")
        if t.call("linalg.rowspace_add", space.add, row):
            basis.append(row)
            t.count("linalg.rowspace_independent")
    if basis:
        bt = transpose(tuple(basis))
        for row in rows:
            t.call("linalg.solve_linear", solve_linear, bt, row)


def probe_hulls(t, a):
    """One hull-membership LP per generator against the rest of its set."""
    for value in a.trans.values():
        gens = value.generators
        for i, d in enumerate(gens):
            rest = gens[:i] + gens[i + 1 :]
            if rest:
                rows, rhs = hull_system(d, rest)
                t.call("linalg.feasible_nonneg", feasible_nonneg, rows, rhs)


def hull_system(d, gens):
    """``sum c_g g = d``, ``sum c_g = 1`` as the rows ``feasible_nonneg`` takes."""
    carrier = list(d.support())
    for g in gens:
        carrier.extend(x for x in g.support() if x not in carrier)
    rows = [tuple(g.weight(x) for g in gens) for x in carrier]
    rows.append((_F1,) * len(gens))
    return tuple(rows), tuple(d.weight(x) for x in carrier) + (_F1,)
