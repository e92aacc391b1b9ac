"""Workload ``series``: long-word evaluation, minimisation and congruence.

Fraction-heavy ``bind``/``vec_mat`` on words of 50 to 1000 letters over
dist, rational and min-plus machines with 4 to 12 states, plus
``RowSpace``/``solve_linear`` reduction in ``minimize``, ``syncong`` and
``commutative``.  It never touches convex hulls or the game.

Shapes are fixed per round and the seed draws the contents, so every seed
sends the same mix; the (states, word length) pairs keep one op well under a
second on the seed code.
"""

from __future__ import annotations

import random

from effectfa import (
    bounded_context_oracle,
    is_commutative,
    minimize,
    solve,
    syn_congruent,
    to_linear,
    weighted,
    words_upto,
)
from effectfa.automata import SEMIRING_SELF, EffAutomaton
from effectfa.cli import parse_automaton, parse_combo, print_automaton
from effectfa.effects import WeightedVec

import gen
from common import (
    Op,
    Pool,
    eval_run,
    expect,
    is_linear,
    probe_binds,
    probe_rows,
    reference_value,
    render_value,
    value_table,
)

# (monad, states, word length) of the evaluation ops in one round.
EVAL_SHAPES = (
    ("dist", 4, 1000), ("dist", 4, 300), ("dist", 6, 600), ("dist", 6, 150),
    ("dist", 8, 400), ("dist", 8, 100), ("dist", 10, 250), ("dist", 12, 200),
    ("dist", 12, 50),
    ("rational", 4, 600), ("rational", 6, 250), ("rational", 8, 150),
    ("rational", 12, 60), ("rational", 5, 50),
    ("minplus", 4, 1000), ("minplus", 8, 500), ("minplus", 12, 300),
)
# (monad, base states, padding) of the minimisation ops in one round.
MINIMIZE_SHAPES = (
    ("dist", 6, 0), ("dist", 4, 3), ("rational", 6, 0), ("rational", 4, 3),
    ("dist", 8, 0), ("rational", 3, 2),
)
MINIMIZE_CHECK_DEPTH = 6


def _rep_machine(rep):
    """The rational machine ``effectfa minimize`` prints for a representation."""
    states = tuple(f"s{i}" for i in range(rep.dim))
    rational = weighted("rational")
    s = rational.semiring
    trans = {
        (q, x): WeightedVec(s, {states[j]: w for j, w in enumerate(rep.letters[x][i])})
        for i, q in enumerate(states)
        for x in rep.alphabet
    }
    return EffAutomaton(
        monad=rational,
        states=states,
        alphabet=rep.alphabet,
        init=WeightedVec(s, {states[j]: w for j, w in enumerate(rep.initial)}),
        trans=trans,
        output={q: rep.final[j] for j, q in enumerate(states)},
        output_algebra=SEMIRING_SELF,
    )


def eval_op(a, text, w):
    wtext = gen.word_text(w)

    def check(out):
        expect(out, render_value(reference_value(a, w), a), f"eval {wtext[:40]}")

    def probe(t):
        probe_binds(t, a, [w])
        if is_linear(a):
            probe_rows(t, a)

    return Op("eval", eval_run(text, wtext), check, probe)


def minimize_op(a, text, base_dim):
    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        rep = t.call("syntactic.to_linear", to_linear, m)
        mini = t.call("syntactic.minimize", minimize, rep)
        t.observe("syntactic.dim_in", rep.dim)
        t.observe("syntactic.dim_out", mini.dim)
        out = _rep_machine(mini)
        return f"# dimension {mini.dim}\n" + t.call("cli.print", print_automaton, out)

    def check(out):
        head, _, body = out.partition("\n")
        dim = int(head.split()[-1])
        if dim > base_dim:
            expect(dim, base_dim, "minimised dimension above the unpadded one")
        back = to_linear(parse_automaton(body))
        expect(back.dim, dim, "declared dimension")
        want = value_table(to_linear(a), MINIMIZE_CHECK_DEPTH)
        expect(value_table(back, MINIMIZE_CHECK_DEPTH), want, "minimised values")

    def probe(t):
        probe_rows(t, a)

    return Op("minimize", run, check, probe)


def syncong_op(a, text, c1, c2):
    t1, t2 = gen.combo_text(c1), gen.combo_text(c2)

    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        rep = t.call("syntactic.to_linear", to_linear, m)
        mini = t.call("syntactic.minimize", minimize, rep)
        x = t.call("cli.parse", parse_combo, t1)
        y = t.call("cli.parse", parse_combo, t2)
        equal = t.call("syntactic.syn_congruent", syn_congruent, mini, x, y)
        return "true" if equal else "false"

    def check(out):
        # Contexts up to the input dimension minus one span both sides of
        # every representation, so the bounded oracle is exact here.
        x, y = parse_combo(t1), parse_combo(t2)
        want = bounded_context_oracle(a, x, y, len(a.states) - 1)
        expect(out, "true" if want else "false", f"syncong {t1} | {t2}")

    return Op("syncong", run, check, lambda t: probe_rows(t, a))


def commutative_op(a, text):
    def run(t):
        m = t.call("cli.parse", parse_automaton, text)
        rep = t.call("syntactic.to_linear", to_linear, m)
        mini = t.call("syntactic.minimize", minimize, rep)
        answer = t.call("syntactic.is_commutative", is_commutative, mini)
        return "true" if answer else "false"

    def check(out):
        # Swapping two adjacent letters changes no value in any context of
        # length below the dimension exactly when the letter matrices of
        # the minimal representation commute.
        rep = to_linear(a)
        ctx = list(words_upto(a.alphabet, len(a.states) - 1))
        want = True
        for i, p in enumerate(a.alphabet):
            for q in a.alphabet[i + 1 :]:
                want = want and all(
                    rep.value(x + (p, q) + y) == rep.value(x + (q, p) + y)
                    for x in ctx
                    for y in ctx
                )
        expect(out, "true" if want else "false", "commutative")

    return Op("commutative", run, check, lambda t: probe_rows(t, a))


def build(rng, samples, rounds):
    coin = parse_automaton(samples["coin.aut"])
    walk = parse_automaton(samples["walk.aut"])
    pool = Pool(ops=[])

    # Sample files carry comments, so they start ops as they are but stay
    # out of the generated machines whose printing is checked.
    coin_text, walk_text = samples["coin.aut"], samples["walk.aut"]

    # Every dist row has denominator exactly 4: with denominators drawn
    # from 1..4, whether a factor 3 shows up decides how fast coefficients
    # grow, and one long word's cost varied fivefold between machines.
    def machine(kind, n, letters=2):
        if kind == "dist":
            return gen.dist_machine(rng, n, letters, exact=True)
        return gen.weighted_machine(rng, kind, n, letters)

    def game_position():
        return gen.position(rng, 0, 6, 3, max_weight=8)

    for _ in range(rounds):
        ops = []
        for kind, n, length in EVAL_SHAPES:
            a = machine(kind, n)
            ops.append(eval_op(a, pool.render(a), gen.word(rng, a.alphabet, length)))
            ops[-1].shape = f"{kind} n={n} |w|={length}"
        for length in (1000, 200):
            ops.append(eval_op(coin, coin_text, ("a",) * length))
        ops.append(eval_op(walk, walk_text, ("a",) * 1000))
        for kind, n, pad in MINIMIZE_SHAPES:
            base = machine(kind, n)
            a = gen.split_states(rng, base, pad) if pad else base
            ops.append(minimize_op(a, pool.render(a), n))
            ops[-1].shape = f"{kind} n={n}+{pad}"
        p = game_position()
        congruent = (gen.unary_combo(p), gen.unary_combo(solve(p)[0]))
        unrelated = (gen.unary_combo(p), gen.unary_combo(game_position()))
        padded = gen.split_states(rng, coin, 2)
        padded_text = pool.render(padded)
        ops.append(syncong_op(coin, coin_text, *congruent))
        ops.append(syncong_op(coin, coin_text, *unrelated))
        ops.append(syncong_op(padded, padded_text, *congruent))
        small = machine("dist", 3)
        ops.append(
            syncong_op(
                small,
                pool.render(small),
                gen.random_combo(rng, small.alphabet, 3, 3),
                gen.random_combo(rng, small.alphabet, 3, 3),
            )
        )
        for a in (gen.commuting_machine(rng, 4), machine("dist", 4), machine("rational", 3)):
            ops.append(commutative_op(a, pool.render(a)))
        ops.append(commutative_op(coin, coin_text))
        # One fixed interleaving for every seed, so a partly run round
        # holds the same shapes whatever the seed.
        random.Random(len(pool.ops)).shuffle(ops)
        pool.ops.extend(ops)
    return pool
