"""Run one benchmark workload as a closed loop and print its metrics.

    python3 benchmarks/run.py --workload series --seed 1 --seconds 15 --trace 0

One client in one thread sends the next op only after the previous one
returned.  Each op starts from text (a machine file, a recognizer file, a
word, a combination, a position) and ends in the printed answer.  After the
timed loop every answer is checked exactly against an independent
computation; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
untraced and traced, reports the per-layer metrics and writes the spans to
``.bench_out/`` in the checkout.
See ``benchmarks/DESIGN.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
import zlib
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series", "convex", "recognizers", "game")
# Rounds of seeded inputs per workload: a little more than a 15-second run
# gets through on the seed code.  A run that gets further starts over.
ROUNDS = {"series": 16, "convex": 440, "recognizers": 40, "game": 5000}
SAMPLES = ("coin.aut", "walk.aut", "choice.aut")
SETUP_REPEATS = 3
WARMUP_OPS = 3
MIN_OPS = 100  # so p90 has at least ten samples beyond it
TRACED_MIN_OPS = 20
MAX_REPORTED_FAILURES = 5
# On a shared 2-CPU virtual machine the same work ran up to twice as fast or
# slow from one few-second span to the next.  Every time is therefore scaled
# by the host's current speed, read from a fixed calibration kernel: reported
# times are those of a host on which the kernel takes CALIBRATION_REF_S (its
# median time on that machine in a fast span).
CALIBRATION_REF_S = 0.0013
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes_per_op", "bytes"),
)
MODULES = (
    "cli", "automata", "effects", "linalg", "monoids", "recognition",
    "syntactic", "convexgame", "bench",
)
# Per-layer metrics: name, unit, how to read it from the traced run.
# ("span", X) is seconds per op in spans named X, ("calls", X) spans per op,
# ("count", X) a counter per op, ("ratio", X, Y) counter X over counter Y,
# ("mean"/"max", X) over observed values, ("self", M) self time of module M
# per op.
PER_LAYER = (
    ("cli.parse_s", "s", ("span", "cli.parse")),
    ("cli.print_s", "s", ("span", "cli.print")),
    ("cli.bytes_out", "bytes", ("count", "cli.bytes_out")),
    ("automata.eval_word_s", "s", ("span", "automata.eval_word")),
    ("automata.eval_word_calls", "count", ("calls", "automata.eval_word")),
    ("automata.letters", "count", ("count", "automata.letters")),
    ("automata.letter_channel_s", "s", ("span", "automata.letter_channel")),
    ("automata.eval_npfa_s", "s", ("span", "automata.eval_npfa")),
    ("effects.bind_dist_s", "s", ("span", "effects.bind_dist")),
    ("effects.bind_weighted_s", "s", ("span", "effects.bind_weighted")),
    ("effects.bind_convex_s", "s", ("span", "effects.bind_convex")),
    ("effects.bind_calls", "count", ("count", "effects.bind_calls")),
    ("effects.kleisli_compose_s", "s", ("span", "effects.kleisli_compose")),
    ("effects.convex_choices", "count", ("count", "effects.convex_choices")),
    ("effects.convex_extreme_points", "count", ("count", "effects.convex_extreme_points")),
    ("effects.convex_prune_yield", "frac", ("ratio", "effects.convex_extreme_points", "effects.convex_choices")),
    ("linalg.rowspace_add_s", "s", ("span", "linalg.rowspace_add")),
    ("linalg.rowspace_add_calls", "count", ("calls", "linalg.rowspace_add")),
    ("linalg.rowspace_independent_frac", "frac", ("ratio", "linalg.rowspace_independent", "linalg.rowspace_adds")),
    ("linalg.solve_linear_s", "s", ("span", "linalg.solve_linear")),
    ("linalg.feasible_nonneg_s", "s", ("span", "linalg.feasible_nonneg")),
    ("linalg.feasible_nonneg_calls", "count", ("calls", "linalg.feasible_nonneg")),
    ("exactnum.value_bits_max", "bits", ("max", "exactnum.value_bits")),
    ("exactnum.value_bits_mean", "bits", ("mean", "exactnum.value_bits")),
    ("monoids.elements", "count", ("mean", "monoids.elements")),
    ("monoids.tm_multiply_s", "s", ("span", "monoids.tm_multiply")),
    ("monoids.tm_multiply_calls", "count", ("calls", "monoids.tm_multiply")),
    ("monoids.free_extension_word_s", "s", ("span", "monoids.free_extension_word")),
    ("recognition.to_recognizer_s", "s", ("span", "recognition.to_recognizer")),
    ("recognition.from_recognizer_s", "s", ("span", "recognition.from_recognizer")),
    ("recognition.to_bialgebra_s", "s", ("span", "recognition.to_bialgebra")),
    ("recognition.from_bialgebra_s", "s", ("span", "recognition.from_bialgebra")),
    ("recognition.verify_s", "s", ("span", "recognition.verify")),
    ("recognition.verify_words", "count", ("count", "recognition.verify_words")),
    ("syntactic.to_linear_s", "s", ("span", "syntactic.to_linear")),
    ("syntactic.minimize_s", "s", ("span", "syntactic.minimize")),
    ("syntactic.dim_in", "count", ("mean", "syntactic.dim_in")),
    ("syntactic.dim_out", "count", ("mean", "syntactic.dim_out")),
    ("syntactic.syn_congruent_s", "s", ("span", "syntactic.syn_congruent")),
    ("syntactic.is_commutative_s", "s", ("span", "syntactic.is_commutative")),
    ("convexgame.solve_s", "s", ("span", "convexgame.solve")),
    ("convexgame.trace_moves", "count", ("mean", "convexgame.trace_moves")),
    ("convexgame.trace_moves_max", "count", ("max", "convexgame.trace_moves")),
    ("convexgame.lam_bits_max", "bits", ("max", "convexgame.lam_bits")),
) + tuple((f"{m}.self_s", "s", ("self", m)) for m in MODULES) + (
    ("trace.overhead_frac", "frac", ("overhead",)),
)


def calibration_kernel():
    """Fixed pure-Python work: small and big exact arithmetic, dict updates."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 13 + 2)
    big = 3**3000
    for i in range(60):
        big = big * 1234567891 // 1000003 + i
    table = {}
    for i in range(1500):
        key = (i * 7) % 101, i % 3
        table[key] = table.get(key, 0) + i
    return acc, big, len(table)


class Speed:
    """The host's current speed, from the latest calibration-kernel times."""

    def __init__(self):
        self.readings = []

    def probe(self, times=1):
        for _ in range(times):
            start = perf_counter()
            calibration_kernel()
            self.readings.append(perf_counter() - start)

    def scale(self):
        """Factor turning a time measured now into reference-host time."""
        return CALIBRATION_REF_S / statistics.median(self.readings[-CALIBRATION_WINDOW:])


class Failure:
    """An op that raised instead of printing an answer."""

    def __init__(self, error):
        self.error = error


class Answer:
    """A printed answer: its size with the newline, and the text compressed."""

    def __init__(self, size, packed):
        self.size = size
        self.packed = packed

    def text(self):
        return zlib.decompress(self.packed).decode("utf-8")


def load_library():
    """Import the package from this checkout's ``src``; returns seconds taken."""
    src = ROOT / "src"
    if not (src / "effectfa" / "__init__.py").is_file():
        raise SystemExit(f"error: no effectfa package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = perf_counter()
    for name in ("effectfa", "effectfa.cli"):
        importlib.import_module(name)
    return perf_counter() - start


def read_samples():
    samples = {}
    for name in SAMPLES:
        path = ROOT / "samples" / name
        if not path.is_file():
            raise SystemExit(f"error: missing sample machine {path}")
        samples[name] = path.read_text(encoding="utf-8")
    return samples


def set_up(workload, seed, rounds):
    """Seeded input generation, rendering to text and warm-up; returns the pool."""
    module = importlib.import_module(workload)
    rng = random.Random(f"{workload}:{seed}")
    pool = module.build(rng, read_samples(), rounds)
    for op in pool.ops[:WARMUP_OPS]:
        op.run(NullTracer())
    return pool


def run_op(op, tracer, scale):
    """One op; returns its latency scaled to the reference host, and its answer."""
    t0 = perf_counter()
    try:
        if tracer.enabled:
            out = tracer.call("bench.op", op.run, tracer)
        else:
            out = op.run(tracer)
    except Exception as e:  # the loop must go on; the failure is counted
        return (perf_counter() - t0) * scale, Failure(
            traceback.format_exception_only(type(e), e)[-1].strip()
        )
    latency = (perf_counter() - t0) * scale
    # Kept compressed until the checks, so that the answers held for
    # checking weigh little in the process's peak memory.
    data = out.encode("utf-8")
    if tracer.enabled:
        tracer.count("cli.bytes_out", len(data) + 1)
    return latency, Answer(len(data) + 1, zlib.compress(data, 1))


def closed_loop(pool, seconds, min_ops, speed, tracer=None):
    """Send ops back to back until the time is up.

    Returns ``(pool index, answer)`` pairs and the scaled latencies: one
    list, or with a tracer one list untraced and one traced.  With a tracer
    every op runs untraced and traced, in alternating order, so that the two
    lists time the same ops equally warm; then the op's probes run.  The
    calibration kernel runs between ops, outside every latency.
    """
    plain = NullTracer()
    outputs, latencies, traced_latencies = [], [], []
    n = len(pool.ops)
    speed.probe(CALIBRATION_WINDOW)
    start = last_probe = perf_counter()
    i = 0
    while perf_counter() - start < seconds or i < min_ops:
        if perf_counter() - last_probe >= CALIBRATION_EVERY_S:
            speed.probe()
            last_probe = perf_counter()
        scale = speed.scale()
        op = pool.ops[i % n]
        if tracer is None:
            order = (plain,)
        else:
            tracer.op = i
            order = (plain, tracer) if i % 2 == 0 else (tracer, plain)
        for t in order:
            latency, out = run_op(op, t, scale)
            (traced_latencies if t.enabled else latencies).append(latency)
            outputs.append((i % n, out))
        if tracer is not None and op.probe is not None:
            tracer.call("bench.probe", op.probe, tracer)
        i += 1
    if tracer is None:
        return outputs, latencies
    return outputs, latencies, traced_latencies


def check_outputs(pool, outputs, problems):
    """Check every answer; an answer already verified for the same op is reused."""
    verified = {}
    failed = 0
    for k, out in outputs:
        op = pool.ops[k]
        if isinstance(out, Failure):
            failed += 1
            problems.append(f"op {k} ({op.kind} {op.shape}) raised {out.error}")
            continue
        if verified.get(k) == out.packed:
            continue
        try:
            op.check(out.text())
        except Exception as e:  # any exception means the answer is wrong
            failed += 1
            problems.append(f"op {k} ({op.kind} {op.shape}) failed its check: {e!r}"[:400])
            continue
        verified[k] = out.packed
    return failed


def end_to_end(outputs, latencies, setup_s, peak_rss_mb):
    ms = [x * 1000 for x in latencies]
    sizes = [o.size for _, o in outputs if not isinstance(o, Failure)]
    values = {
        "ops_per_s": len(outputs) / sum(latencies),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "output_bytes_per_op": sum(sizes) / len(outputs),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, ops, overhead):
    totals = tracer.totals()
    self_by_module = {}
    for name, (_, _, own) in totals.items():
        module = name.split(".", 1)[0]
        self_by_module[module] = self_by_module.get(module, 0.0) + own

    def read(how):
        kind, key = how[0], how[1:]
        if kind == "span":
            return totals.get(key[0], (0, 0.0, 0.0))[1] / ops
        if kind == "calls":
            return totals.get(key[0], (0, 0.0, 0.0))[0] / ops
        if kind == "count":
            return tracer.counts.get(key[0], 0) / ops
        if kind == "ratio":
            num, den = tracer.counts.get(key[0], 0), tracer.counts.get(key[1], 0)
            return num / den if den else 0.0
        if kind in ("mean", "max"):
            seen = tracer.observed.get(key[0], [])
            if not seen:
                return 0
            return statistics.fmean(seen) if kind == "mean" else max(seen)
        if kind == "self":
            return self_by_module.get(key[0], 0.0) / ops
        return overhead

    return {name: {"value": read(how), "unit": unit} for name, unit, how in PER_LAYER}


def measure(workload, seed, seconds, trace, rounds=None, min_ops=MIN_OPS):
    """One run: set-up, the closed loop, the checks; returns (result, problems)."""
    import_s = load_library()
    speed = Speed()
    speed.probe(CALIBRATION_WINDOW)
    import_s *= speed.scale()
    rounds = rounds or ROUNDS[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.probe(CALIBRATION_WINDOW)
        start = perf_counter()
        pool = set_up(workload, seed, rounds)
        setups.append((perf_counter() - start) * speed.scale())
    problems = []
    failed = 0
    try:
        pool.check_round_trip()
    except Exception as e:  # a broken round trip fails the run
        problems.append(f"set-up round trip: {e!r}"[:400])
        failed += 1

    if not trace:
        outputs, latencies = closed_loop(pool, seconds, min_ops, speed)
        # Peak memory of set-up and the loop; the checks come after.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed += check_outputs(pool, outputs, problems)
        setup_s = import_s + statistics.median(setups)
        metrics = end_to_end(outputs, latencies, setup_s, peak_rss_mb)
    else:
        tracer = Tracer()
        outputs, plain, traced = closed_loop(pool, seconds, TRACED_MIN_OPS, speed, tracer)
        failed += check_outputs(pool, outputs, problems)
        # 1 - traced/untraced ops per second = 1 - untraced/traced time.
        overhead = 1 - sum(plain) / sum(traced)
        metrics = per_layer(tracer, len(traced), overhead)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}-{seed}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, problems = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in problems[:MAX_REPORTED_FAILURES]:
        print(line, file=sys.stderr)
    if len(problems) > MAX_REPORTED_FAILURES:
        print(f"... and {len(problems) - MAX_REPORTED_FAILURES} more", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
