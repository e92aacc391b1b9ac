"""Shared machines and seeded random families for the test suite."""

from fractions import Fraction as F
from itertools import product
from math import ceil

import pytest

from effectfa import (
    CONVEX,
    ConvexSet,
    DIST,
    Dist,
    EffAutomaton,
    INTERVAL_PAIR,
    Move,
    Position,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    WeightedVec,
    convex_output,
    unit,
    weighted,
)
from effectfa.effects import Channel


def coin_pfa() -> EffAutomaton:
    """Two states on one letter: flip to advance, absorb accepting.

    The acceptance probability of n letters is 1 - 2^-n.
    """
    return EffAutomaton(
        monad=DIST,
        states=("q0", "q1"),
        alphabet=("a",),
        init=unit(DIST, "q0"),
        trans={
            ("q0", "a"): Dist({"q0": F(1, 2), "q1": F(1, 2)}),
            ("q1", "a"): Dist({"q1": F(1)}),
        },
        output={"q0": F(0), "q1": F(1)},
        output_algebra=UNIT_INTERVAL,
    )


def even_dfa() -> EffAutomaton:
    """Accepts words with an even number of a's (as a Dirac dist machine)."""
    return EffAutomaton(
        monad=DIST,
        states=("e", "o"),
        alphabet=("a",),
        init=unit(DIST, "e"),
        trans={("e", "a"): Dist({"o": 1}), ("o", "a"): Dist({"e": 1})},
        output={"e": F(1), "o": F(0)},
        output_algebra=UNIT_INTERVAL,
    )


def contains_ab_dfa() -> EffAutomaton:
    """Accepts words containing 'ab' as a factor."""
    d = lambda q: Dist({q: 1})
    return EffAutomaton(
        monad=DIST,
        states=("n", "sa", "yes"),
        alphabet=("a", "b"),
        init=unit(DIST, "n"),
        trans={
            ("n", "a"): d("sa"),
            ("n", "b"): d("n"),
            ("sa", "a"): d("sa"),
            ("sa", "b"): d("yes"),
            ("yes", "a"): d("yes"),
            ("yes", "b"): d("yes"),
        },
        output={"n": F(0), "sa": F(0), "yes": F(1)},
        output_algebra=UNIT_INTERVAL,
    )


def full_transformation_dfa(n: int) -> EffAutomaton:
    """A deterministic machine on ``n`` states whose letters generate all
    ``n**n`` self-maps: ``c`` cycles the states, ``t`` swaps the first two
    and ``m`` merges the first into the second."""
    states = tuple(f"q{i}" for i in range(n))
    image = {
        "c": {q: states[(i + 1) % n] for i, q in enumerate(states)},
        "t": {**dict(zip(states, states)), states[0]: states[1], states[1]: states[0]},
        "m": {**dict(zip(states, states)), states[0]: states[1]},
    }
    return EffAutomaton(
        monad=DIST,
        states=states,
        alphabet=tuple(image),
        init=unit(DIST, states[0]),
        trans={(q, x): Dist({image[x][q]: 1}) for x in image for q in states},
        output={q: F(int(q == states[-1])) for q in states},
        output_algebra=UNIT_INTERVAL,
    )


def chain_machine(monad, last_output) -> EffAutomaton:
    """``p -a-> q -a-> r -a-> r`` with ``b`` staying put, on a ``dist`` or
    weighted ``monad``: a word's value is ``last_output`` once it has two
    ``a``s and zero before, so two such machines first differ at ``a.a``."""
    states = ("p", "q", "r")
    nxt = {"p": "q", "q": "r", "r": "r"}
    zero = F(0) if monad.kind == "dist" else monad.semiring.zero
    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=("a", "b"),
        init=unit(monad, "p"),
        trans={
            (q, x): unit(monad, nxt[q] if x == "a" else q) for q in states for x in "ab"
        },
        output={"p": zero, "q": zero, "r": last_output},
        output_algebra=UNIT_INTERVAL if monad.kind == "dist" else SEMIRING_SELF,
    )


def choice_npfa() -> EffAutomaton:
    """One convex choice: stay rejected or jump accepted on each letter."""
    return EffAutomaton(
        monad=CONVEX,
        states=("q0", "q1"),
        alphabet=("a",),
        init=unit(CONVEX, "q0"),
        trans={
            ("q0", "a"): ConvexSet([Dist({"q0": 1}), Dist({"q1": 1})]),
            ("q1", "a"): ConvexSet([Dist({"q1": 1})]),
        },
        output={"q0": convex_output(0), "q1": convex_output(1)},
        output_algebra=INTERVAL_PAIR,
    )


def minplus_walk() -> EffAutomaton:
    """One state, one letter of cost 1: the length function."""
    mp = weighted("minplus")
    return EffAutomaton(
        monad=mp,
        states=("q",),
        alphabet=("a",),
        init=WeightedVec(mp.semiring, {"q": 0}),
        trans={("q", "a"): WeightedVec(mp.semiring, {"q": 1})},
        output={"q": 0},
        output_algebra=SEMIRING_SELF,
    )


@pytest.fixture
def coin():
    return coin_pfa()


@pytest.fixture
def npfa():
    return choice_npfa()


# ---------------------------------------------------------------------------
# Seeded random families


def rand_dist(rng, carrier, max_den=4) -> Dist:
    den = rng.randint(1, max_den)
    counts = [0] * len(carrier)
    for _ in range(den):
        counts[rng.randrange(len(carrier))] += 1
    return Dist({x: F(k, den) for x, k in zip(carrier, counts) if k})


def rand_channel(rng, carrier, max_den=4) -> Channel:
    table = {q: rand_dist(rng, carrier, max_den) for q in carrier}
    return Channel(DIST, tuple(carrier), tuple(carrier), table)


def rand_pfa(rng, n_states, n_letters, max_den=4, pure_init=True) -> EffAutomaton:
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = ("a", "b")[:n_letters]
    init = unit(DIST, states[0]) if pure_init else rand_dist(rng, states, max_den)
    trans = {
        (q, x): rand_dist(rng, states, max_den) for q in states for x in alphabet
    }
    output = {q: F(rng.randint(0, max_den), max_den) for q in states}
    return EffAutomaton(
        monad=DIST,
        states=states,
        alphabet=alphabet,
        init=init,
        trans=trans,
        output=output,
        output_algebra=UNIT_INTERVAL,
    )


def _rand_weight(rng, semiring_name):
    if semiring_name == "boolean":
        return rng.random() < 0.5
    if semiring_name == "rational":
        return F(rng.randint(-2, 3), rng.randint(1, 3))
    return rng.randint(0, 3)  # minplus / maxplus naturals


def rand_wfa(rng, semiring_name, n_states, n_letters) -> EffAutomaton:
    monad = weighted(semiring_name)
    s = monad.semiring
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = ("a", "b")[:n_letters]

    def vec(allow_empty=True):
        w = {}
        for q in states:
            if rng.random() < 0.7:
                w[q] = _rand_weight(rng, semiring_name)
        if not w and not allow_empty:
            w[states[0]] = s.one
        return WeightedVec(s, w)

    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=alphabet,
        init=vec(allow_empty=False),
        trans={(q, x): vec() for q in states for x in alphabet},
        output={q: _rand_weight(rng, semiring_name) for q in states},
        output_algebra=SEMIRING_SELF,
    )


def rand_convex_set(rng, carrier, max_gens, max_den=4) -> ConvexSet:
    k = rng.randint(1, max_gens)
    return ConvexSet([rand_dist(rng, carrier, max_den) for _ in range(k)])


def rand_convex_channel(rng, carrier, max_gens, max_den=4) -> Channel:
    table = {q: rand_convex_set(rng, carrier, max_gens, max_den) for q in carrier}
    return Channel(CONVEX, tuple(carrier), tuple(carrier), table)


def rand_npfa(rng, n_states, n_letters, max_gens, pure_init=True) -> EffAutomaton:
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = ("a", "b")[:n_letters]
    init = (
        unit(CONVEX, states[0])
        if pure_init
        else rand_convex_set(rng, states, max_gens)
    )
    trans = {
        (q, x): rand_convex_set(rng, states, max_gens)
        for q in states
        for x in alphabet
    }
    output = {q: convex_output(F(rng.randint(0, 4), 4)) for q in states}
    return EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=alphabet,
        init=init,
        trans=trans,
        output=output,
        output_algebra=INTERVAL_PAIR,
    )


def language_table(a: EffAutomaton, maxlen: int) -> dict:
    """Word-to-value table computed with shared prefixes (dist/weighted)."""
    from effectfa import bind, words_upto

    chans = {x: a.letter_channel(x) for x in a.alphabet}
    front = {(): a.init}
    vals = {}
    for w in words_upto(a.alphabet, maxlen):
        if w:
            front[w] = bind(front[w[:-1]], chans[w[-1]])
        v = front[w]
        if a.monad.kind == "dist":
            vals[w] = sum((wt * a.output[q] for q, wt in v.items()), F(0))
        else:
            s = a.monad.semiring
            vals[w] = s.sum(s.mul(wt, a.output[q]) for q, wt in v.items())
    return vals


def npfa_value_table(a: EffAutomaton, maxlen: int, mode: str) -> dict:
    """Optimal values of all words at once, sharing suffix value vectors."""
    from effectfa import words_upto

    comp = 1 if mode == "max" else 0
    opt = max if mode == "max" else min
    vectors = {(): {q: a.output[q][comp] for q in a.states}}
    vals = {}
    for w in words_upto(a.alphabet, maxlen):
        if w:
            tail = vectors[w[1:]]
            vectors[w] = {
                q: opt(
                    sum((d.weight(p) * tail[p] for p in d.support()), F(0))
                    for d in a.trans[(q, w[0])].generators
                )
                for q in a.states
            }
        vec = vectors[w]
        vals[w] = opt(
            sum((d.weight(q) * vec[q] for q in d.support()), F(0))
            for d in a.init.generators
        )
    return vals


def npfa_brute_force(a: EffAutomaton, w, mode: str):
    """Optimal acceptance by enumerating achievable state distributions.

    Walks the word forward, fanning out over every per-state generator
    selection and keeping the deduplicated set of reachable distribution
    vectors; the optimum is then read off directly.  Independent of the
    backward optimisation it cross-checks.
    """
    from itertools import product as iterproduct

    states = a.states
    vectors = {tuple(g.weight(q) for q in states) for g in a.init.generators}
    for letter in w:
        nxt = set()
        for v in vectors:
            active = [i for i, x in enumerate(v) if x != 0]
            options = [a.trans[(states[i], letter)].generators for i in active]
            for pick in iterproduct(*options):
                out = [F(0)] * len(states)
                for i, g in zip(active, pick):
                    for q, wq in g.items():
                        out[states.index(q)] += v[i] * wq
                nxt.add(tuple(out))
        vectors = nxt
    comp = 1 if mode == "max" else 0
    opt = max if mode == "max" else min
    return opt(
        sum((x * a.output[q][comp] for x, q in zip(v, states)), F(0)) for v in vectors
    )


def walk_agrees(a: EffAutomaton, b: EffAutomaton, maxlen: int) -> bool:
    """Whether ``a`` and ``b`` agree on every word up to ``maxlen`` over
    ``a``'s alphabet, by the word walk alone: the oracle for the exact
    decision in front of it."""
    from effectfa.automata import outputs_equal, word_values

    walks = zip(word_values(a, maxlen), word_values(b, maxlen, a.alphabet))
    return all(outputs_equal(a, va, vb) for (_, va), (_, vb) in walks)


def difference_bound(a: EffAutomaton, b: EffAutomaton) -> int:
    """A length by which two linear or two boolean machines that differ
    have differed: the sum of their minimal dimensions (a series of rank
    ``r`` that is not zero is not zero on a word shorter than ``r``), or of
    their reachable boolean vectors (the states of their subset machines)."""
    from effectfa import minimize, to_linear
    from effectfa.automata import _is_linear, _kernel

    def size(m):
        if _is_linear(m.monad):
            return minimize(to_linear(m)).dim
        start, step, _, _ = _kernel(m, m.alphabet)
        seen, todo = {tuple(start)}, [start]
        while todo:
            v = todo.pop()
            for x in m.alphabet:
                u = step(v, x)
                if tuple(u) not in seen:
                    seen.add(tuple(u))
                    todo.append(u)
        return len(seen)

    return size(a) + size(b)


def fraction_feasible_nonneg(a, b, ties=None):
    """The phase-1 simplex on `Fraction`s with Bland's rule that
    :func:`effectfa.linalg.feasible_nonneg` replaced, kept as its oracle:
    a solution of ``a @ x = b`` with ``x >= 0``, or None.

    If ``ties`` is a list, each ratio tie between two candidate leaving rows
    appends the pair of their basic columns, so a test can tell that
    Bland's tie-break decided a pivot.
    """
    m = len(b)
    n = len(a[0]) if a else 0
    if m == 0:
        return (F(0),) * n
    # Tableau rows: n structural + m artificial columns + rhs; keep b >= 0.
    rows = []
    for i in range(m):
        r = [F(x) for x in a[i]] + [F(0)] * m + [F(b[i])]
        if r[-1] < 0:
            r = [-x for x in r]
        r[n + i] = F(1)
        rows.append(r)
    basis = [n + i for i in range(m)]
    z = [sum(r[j] for r in rows) for j in range(n + m + 1)]
    for j in range(n, n + m):
        z[j] = F(0)
    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is not None and ratio == best and ties is not None:
                    ties.append((basis[leave], basis[i]))
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = z[enter]
        z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter
    if z[-1] != 0:
        return None
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return tuple(x)


def free_extension_enumerated(h, w):
    """Oracle for the free extension of an effectful morphism ``h`` to the
    word ``w``: a sum over all factorisations of the word.

    Accumulates, for every tuple of monoid elements drawn from the letter
    supports, the product of letter weights at the product element.
    Exponential in the word length; ``dist`` and weighted only.
    """
    assert h.monad.kind != "convex", "the enumeration covers dist and weighted only"
    images = [h.letter(a) for a in w]
    s = h.monad.semiring if h.monad.kind == "weighted" else None
    total = {}
    for combo in product(*[t.support() for t in images]):
        weight = F(1) if s is None else s.one
        for t, mi in zip(images, combo):
            weight = weight * t.weight(mi) if s is None else s.mul(weight, t.weight(mi))
        target = combo[0] if combo else h.target.unit
        for mi in combo[1:]:
            target = h.target.mul(target, mi)
        if target not in total:
            total[target] = weight
        elif s is None:
            total[target] += weight
        else:
            total[target] = s.add(total[target], weight)
    return Dist(total) if s is None else WeightedVec(s, total)


def double_strength_flipped(t1, t2):
    """The pairing of two convex sets in the orientation opposite to
    ``double_strength``: the right value resolves first, then per right
    outcome a generator of the left value is chosen.

    Written out over every such choice, as the hull of one distribution
    on ``(left, right)`` pairs per choice.
    """
    gens = []
    for g2 in t2.generators:
        outcomes = g2.support()
        for choice in product(t1.generators, repeat=len(outcomes)):
            gens.append(
                Dist(
                    {
                        (x, y): g1.weight(x) * g2.weight(y)
                        for y, g1 in zip(outcomes, choice)
                        for x in g1.support()
                    }
                )
            )
    return ConvexSet(gens).normalized()


def table_form(rec_text: str) -> str:
    """A graph-form monoid recognizer file rewritten in the table form, as
    the printer lays it out: the ``states`` line dropped and one ``mul``
    line per element after the ``unit`` line.  The products are computed
    here from the element names, by composing the graphs they write: each
    position of a name is the index of an image on the ``states`` line."""
    lines = rec_text.splitlines()
    (names,) = [line.split()[1:] for line in lines if line.startswith("monoid ")]

    def times(x, y):
        first, then = x[1:-1].split(","), y[1:-1].split(",")
        return "[" + ",".join(p if p == "_" else then[int(p)] for p in first) + "]"

    out = []
    for line in lines:
        if not line.startswith("states "):
            out.append(line)
        if line.startswith("unit "):
            out += ["mul " + " ".join(f"{x}*{y}={times(x, y)}" for y in names) for x in names]
    return "\n".join(out) + "\n"


def fraction_solve(p):
    """The rewriting-game solver written move by move on ``Fraction`` masses:
    the two-point merge, spreading, balancing, then merge passes with a fill
    once per support, as ``convexgame.solve`` documents them.  Every amount
    goes through the ``Move`` constructor and every move updates a dict of
    masses, so the oracle shares no step with the solver's integer window.
    Returns the final position and the trace."""
    c = dict(p.items())
    trace = []

    def move(n, lam, direction):
        trace.append(Move(n, lam, direction))  # checks 0 < lam <= 1/3
        sign = 1 if direction == "merge" else -1
        for k, dw in ((n, -lam), (n + 1, 3 * lam), (n + 2, -2 * lam)):
            c[k] = c.get(k, 0) + sign * dw
            if not c[k]:
                del c[k]

    supp = sorted(c)
    if len(supp) == 2 and supp[1] == supp[0] + 2:
        move(supp[0], min(c[supp[0]], c[supp[1]] / 2), "merge")
    while True:  # spread: split a quarter off the right edge of the first hole
        supp = sorted(c)
        holes = [(a, b) for a, b in zip(supp, supp[1:]) if b - a >= 2]
        if not holes:
            break
        move(holes[0][1] - 1, c[holes[0][1]] / 4, "split")
    lo, hi = min(c), max(c)
    for _ in range(64 if hi - lo >= 2 else 0):  # balance
        before = len(trace)
        for m in range(hi - 2, lo, -1):
            if 2 * c[m] < c[m + 1]:
                move(m, c[m + 1] / 4, "split")
        if len(trace) == before:
            break
    filled = None
    while len(c) > 2 or max(c) - min(c) > 1:
        lo, hi = min(c), max(c)
        rung = min(c[n] for n in range(lo, hi))
        if hi - lo >= 3 and (lo, hi) != filled and max(c[lo], c[hi] / 2) > 4 * (hi - lo) * rung:
            filled = (lo, hi)
            w = hi - lo + 1
            d = 2 ** (w - 1) - 1
            f = [x * d - (w - 1) * (2**x - 1) for x in range(1, w - 1)]
            a, b = f[0], (w - 2) * d - f[0]
            bound = min(c[lo] * d / (2 * a), c[hi] * d / (2 * b))
            theta = F(1)
            while theta > bound:
                theta /= 2
            while 2 * theta <= bound:
                theta *= 2
            rest = theta / d
            while rest:
                over = rest * max(f[i] / c[lo + i] for i in range(w - 2))
                u = rest / 2 ** (ceil(over) - 1).bit_length() if over > 1 else rest
                for i in range(w - 3, -1, -1):
                    move(lo + i, u * f[i], "merge")
                rest -= u
            continue
        lam = min(rung, c[hi] / 2)
        for n in range(hi - 2, lo - 1, -1):
            move(n, lam, "merge")
    return Position(c), trace
