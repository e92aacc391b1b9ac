"""Workload ``game``: solve rewriting-game positions as ``effectfa game``.

Two position families: the acceptance-criterion family (up to 6 exponents
in 0..8, integer weights up to 64) and a wider one whose window of 10
exponents may sit anywhere in 0..16.  Wide gaps give the long traces; a
window of 11 or more already yields traces of 10^5 to 10^6 moves, which no
run could average, so the window stops at 10.  ``convexgame`` is reached by
no other workload's timed ops.
"""

from __future__ import annotations

from fractions import Fraction

from effectfa import Move, apply_rule, canonical_rep, expected_value, solve
from effectfa.cli import format_position, parse_position

import gen
from common import CheckFailed, Op, Pool, bits, expect

WIDE_EVERY = 3  # one position in three comes from the wide family


def _print_trace(final, trace):
    """What ``effectfa game`` prints: one move per line, then the final position."""
    lines = [f"{m.direction} {m.index} {m.lam}" for m in trace]
    lines.append("final: " + format_position(final))
    return "\n".join(lines)


def solve_op(p):
    text = gen.position_text(p)

    def run(t):
        start = t.call("cli.parse", parse_position, text)
        final, trace = t.call("convexgame.solve", solve, start)
        t.observe("convexgame.trace_moves", len(trace))
        t.observe("convexgame.lam_bits", max((bits(m.lam) for m in trace), default=0))
        return t.call("cli.print", _print_trace, final, trace)

    def check(out):
        *moves, last = out.split("\n")
        target = canonical_rep(expected_value(p))
        expect(last, "final: " + gen.position_text(target), "final position")
        replay = p
        for line in moves:
            direction, index, lam = line.split()
            move = Move(index=int(index), lam=Fraction(lam), direction=direction)
            replay = apply_rule(replay, move)  # raises on an illegal move
        if replay != target:
            raise CheckFailed(f"trace of {text} replays to {replay!r}, not {target!r}")

    return Op("game", run, check)


def build(rng, samples, rounds):
    pool = Pool(ops=[])
    for i in range(rounds):
        if i % WIDE_EVERY == WIDE_EVERY - 1:
            p = gen.position(rng, rng.randint(0, 7), 9, 6)
        else:
            p = gen.position(rng, 0, 8, 6)
        pool.ops.append(solve_op(p))
    return pool
