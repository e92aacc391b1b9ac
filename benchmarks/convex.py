"""Workload ``convex``: choice machines evaluated by hull propagation.

Nearly all the time goes to ``_convex_bind`` choice products and LP pruning
(``feasible_nonneg`` via ``ConvexSet.normalized``) inside ``eval_word``;
direct ``eval_npfa`` calls on larger shapes sit beside them.  Machines have
at most 3 states and 3 generators per entry and words at most 6 letters.
Hull propagation sees 3 states only with 2 generators per entry and words
of 2 letters: with 3 generators one 2-letter word took up to 1.3 s, and
with 3 letters up to 1.6 s, against a few ms for the rest, so no run could
average it out.
"""

from __future__ import annotations

import random

from effectfa import eval_npfa
from effectfa.cli import format_value, parse_automaton, parse_word

import gen
from common import (
    Op,
    Pool,
    bits,
    convex_brute_force,
    convex_dp,
    convex_mode,
    eval_run,
    expect,
    probe_binds,
    probe_hulls,
    render_value,
)

# (states, generators per entry, word length) in one round.
EVAL_SHAPES = (
    (2, 2, 4), (2, 2, 6), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6),
    (3, 2, 2), (1, 3, 6),
)
NPFA_SHAPES = ((3, 3, 6), (3, 2, 6), (3, 3, 3), (2, 3, 6))
BRUTE_FORCE_MAX_LEN = 3
MODES = ("interval", "max", "min")


def _modes(mode):
    return ("min", "max") if mode == "interval" else (mode,)


def _pair(values):
    return values[0] if len(values) == 1 else tuple(values)


def eval_op(a, text, w):
    wtext = gen.word_text(w)

    def check(out):
        mode = convex_mode(a)
        expect(out, render_value(eval_npfa(a, w, mode), a), f"convex eval {wtext}")
        if len(w) <= BRUTE_FORCE_MAX_LEN:
            brute = _pair([convex_brute_force(a, w, m) for m in _modes(mode)])
            expect(out, render_value(brute, a), f"brute force {wtext}")

    def probe(t):
        probe_binds(t, a, [w])
        probe_hulls(t, a)

    return Op("eval", eval_run(text, wtext), check, probe)


def npfa_op(a, text, w):
    wtext = gen.word_text(w)
    mode = convex_mode(a)

    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        word = t.call("cli.parse", parse_word, wtext)
        v = t.call("automata.eval_npfa", eval_npfa, m, word, mode)
        t.observe("exactnum.value_bits", bits(v))
        return t.call("cli.print", format_value, v, m)

    def check(out):
        want = _pair([convex_dp(a, w, m) for m in _modes(mode)])
        expect(out, render_value(want, a), f"eval_npfa {wtext}")
        if len(w) <= BRUTE_FORCE_MAX_LEN:
            brute = _pair([convex_brute_force(a, w, m) for m in _modes(mode)])
            expect(out, render_value(brute, a), f"brute force {wtext}")

    return Op("eval_npfa", run, check, lambda t: probe_hulls(t, a))


def build(rng, samples, rounds):
    choice = parse_automaton(samples["choice.aut"])
    pool = Pool(ops=[])

    def machine(n, g, k):
        a = gen.convex_machine(rng, n, 2, g, MODES[k % 3])
        return a, pool.render(a)

    for r in range(rounds):
        ops = []
        for k, (n, g, length) in enumerate(EVAL_SHAPES):
            a, text = machine(n, g, k + r)
            ops.append(eval_op(a, text, gen.word(rng, a.alphabet, length)))
            ops[-1].shape = f"n={n} g={g} |w|={length}"
        for k, (n, g, length) in enumerate(NPFA_SHAPES):
            a, text = machine(n, g, k + r)
            ops.append(npfa_op(a, text, gen.word(rng, a.alphabet, length)))
            ops[-1].shape = f"n={n} g={g} |w|={length}"
        ops.append(eval_op(choice, samples["choice.aut"], ("a",) * (1 + r % 6)))
        ops[-1].shape = "choice.aut"
        random.Random(len(pool.ops)).shuffle(ops)
        pool.ops.extend(ops)
    return pool
