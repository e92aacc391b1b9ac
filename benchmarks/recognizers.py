"""Workload ``recognizers``: monoid and bialgebra recognizers, both ways.

The same layers as ``series`` and ``convex``, used differently: evaluation
runs on many short prefix-shared words, ``linalg`` solves wide preimage LPs
over the n^n function-monoid generators, and recognizer text is parsed with
its cubic associativity check.  Machines are ``dist`` with at most 3 states
and weighted (boolean, rational, min-plus) with at most 2, counted after an
effectful initial value is moved onto a fresh state.  Dist rows are halves
or point masses, which keeps the letter images' supports, and so the cost
of one verification, within a factor of a few between machines.

A small convex slice (2 states, one letter, point-mass generators, verified
to depth 3) keeps forward hull composition in the mix; with dense
generators and two letters one depth-3 verification can take minutes.  The
bialgebra round trip runs on machines of at most 2 states, since 3 states
mean 54 LPs over 27 generators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from effectfa import (
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bialgebra_to_automaton,
    free_extension_word,
    kleisli_compose,
    recognizer_to_automaton,
    tm_multiply,
    verify_recognition,
    words_upto,
)
from effectfa.cli import (
    parse_automaton,
    parse_recognizer,
    print_automaton,
    print_bialgebra,
    print_recognizer,
)
from effectfa.linalg import feasible_nonneg, solve_linear

import gen
from common import (
    Op,
    Pool,
    expect,
    probe_binds,
    probe_hulls,
    reference_table,
    same_language,
)

# (monad, states before purification, pure initial value, letters).
MACHINE_SHAPES = (
    ("dist", 3, True, 2), ("dist", 2, False, 2), ("dist", 2, True, 2),
    ("dist", 1, False, 2),
    ("boolean", 2, True, 2), ("boolean", 1, False, 2),
    ("rational", 2, True, 2), ("rational", 1, False, 2),
    ("minplus", 2, True, 2), ("minplus", 1, False, 2),
)
CONVEX_SLICE = ("convex", 2, True, 1)
_F1 = Fraction(1)
CHECK_DEPTH = 5
EVALUATE_DEPTH = 3
PROBE_DEPTH = 3


def verify_depth(a):
    """6 for the largest (27-element) monoids, 8 below, 3 for convex."""
    if a.monad.kind == "convex":
        return 3
    n = len(a.states) + (a.init_pure_state() is None)
    return 6 if n >= 3 else 8


def _probe_words(a):
    return [w for w in words_upto(a.alphabet, PROBE_DEPTH) if w]


def probe_machine(t, a):
    probe_binds(t, a, _probe_words(a))
    for w in _probe_words(a):
        ch = a.letter_channel(w[0])
        for x in w[1:]:
            ch = t.call("effects.kleisli_compose", kleisli_compose, ch, a.letter_channel(x))
    if a.monad.kind == "convex":
        probe_hulls(t, a)


def probe_recognizer(t, r):
    """``tm_multiply`` stepped along short words, and ``free_extension_word``."""
    h = r.morphism
    t.observe("monoids.elements", len(h.target))
    for w in _probe_words(r.morphism):
        acc = h.letter(w[0])
        for x in w[1:]:
            acc = t.call("monoids.tm_multiply", tm_multiply, h.target, acc, h.letter(x))
        t.call("monoids.free_extension_word", free_extension_word, h, w)


def to_monoid_op(a, text):
    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        r = t.call("recognition.to_recognizer", automaton_to_recognizer, m)
        return t.call("cli.print", print_recognizer, r)

    def check(out):
        r = parse_recognizer(out)
        expect(print_recognizer(r), out, "recognizer print/parse round trip")
        depth = min(CHECK_DEPTH, verify_depth(a))
        expect(verify_recognition(a, r, depth), [], "to-monoid recognition")

    def probe(t):
        probe_machine(t, a)
        probe_recognizer(t, automaton_to_recognizer(a))

    return Op("to-monoid", run, check, probe)


def verify_op(a, text, rec, rec_text):
    depth = verify_depth(a)

    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        r = t.call("cli.parse", parse_recognizer, rec_text)
        violations = t.call("recognition.verify", verify_recognition, m, r, depth)
        t.count("recognition.verify_words", sum(len(m.alphabet) ** k for k in range(depth + 1)))
        if not violations:
            return f"ok: agreement on all words up to length {depth}"
        return "\n".join(f"violation at {gen.word_text(w)}" for w, _, _ in violations)

    def check(out):
        expect(out, f"ok: agreement on all words up to length {depth}", "verify")
        # The recognizer's own evaluation (a fold of free extensions) must
        # give the machine's values on short words.
        want = reference_table(a, min(EVALUATE_DEPTH, depth - 1))
        got = {w: rec.evaluate(w) for w in want}
        expect(got, want, "recognizer values")

    def probe(t):
        probe_machine(t, a)
        probe_recognizer(t, rec)

    return Op("verify", run, check, probe)


def from_monoid_op(a, rec, rec_text):
    def run(t):
        r = t.call("cli.parse", parse_recognizer, rec_text)
        m = t.call("recognition.from_recognizer", recognizer_to_automaton, r)
        return t.call("cli.print", print_automaton, m)

    def check(out):
        same_language(a, parse_automaton(out), min(CHECK_DEPTH, verify_depth(a)), "from-monoid")

    return Op("from-monoid", run, check, lambda t: probe_recognizer(t, rec))


def bialgebra_op(a, text):
    """``to-bialgebra`` then ``from-bialgebra`` on its printed output."""

    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        b = t.call("recognition.to_bialgebra", automaton_to_bialgebra, m)
        b_text = t.call("cli.print", print_bialgebra, b)
        back = t.call("cli.parse", parse_recognizer, b_text)
        rebuilt = t.call("recognition.from_bialgebra", bialgebra_to_automaton, back)
        return b_text + t.call("cli.print", print_automaton, rebuilt)

    def check(out):
        cut = out.rindex("\nmonad ") + 1
        b_text, m_text = out[:cut], out[cut:]
        expect(print_bialgebra(parse_recognizer(b_text)), b_text, "bialgebra round trip")
        same_language(a, parse_automaton(m_text), CHECK_DEPTH, "bialgebra rebuild")

    def probe(t):
        probe_machine(t, a)
        b = automaton_to_bialgebra(a)
        t.observe("monoids.elements", len(b.generators))
        preimage_lps(t, b)

    return Op("bialgebra", run, check, probe)


def preimage_lps(t, b):
    """The preimage systems of the letter channels over the generators."""
    gens = [_channel_vector(b.images[g]) for g in b.generators]
    columns = tuple(zip(*gens))
    for x in b.alphabet:
        target = _channel_vector(b.letters[x])
        if b.monad.kind == "dist":
            rows = columns + ((_F1,) * len(gens),)
            t.call("linalg.feasible_nonneg", feasible_nonneg, rows, target + (_F1,))
        else:
            t.call("linalg.solve_linear", solve_linear, columns, target)


def _channel_vector(ch):
    return tuple(ch(x).weight(y) for x in ch.domain for y in ch.codomain)


def build(rng, samples, rounds):
    pool = Pool(ops=[])

    def machine(kind, n, pure, letters):
        if kind == "dist":
            return gen.dist_machine(rng, n, letters, 2, pure_init=pure, exact=True)
        if kind == "convex":
            return gen.convex_machine(rng, n, letters, 2, dirac=True)
        return gen.weighted_machine(rng, kind, n, letters, pure_init=pure)

    for _ in range(rounds):
        ops = []
        for shape in MACHINE_SHAPES + (CONVEX_SLICE,):
            kind, n, pure, letters = shape
            mine = []
            a = machine(*shape)
            mine.append(to_monoid_op(a, pool.render(a)))
            a = machine(*shape)
            rec = automaton_to_recognizer(a)
            mine.append(verify_op(a, pool.render(a), rec, print_recognizer(rec)))
            a = machine(*shape)
            rec = automaton_to_recognizer(a)
            mine.append(from_monoid_op(a, rec, print_recognizer(rec)))
            if kind in ("dist", "rational") and n + (not pure) <= 2:
                a = machine(*shape)
                mine.append(bialgebra_op(a, pool.render(a)))
            for op in mine:
                op.shape = f"{kind} n={n} {'pure' if pure else 'effectful'} |A|={letters}"
            ops.extend(mine)
        random.Random(len(pool.ops)).shuffle(ops)
        pool.ops.extend(ops)
    return pool
