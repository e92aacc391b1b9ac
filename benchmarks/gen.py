"""Seeded input generators: machines, padding, words, combinations, positions.

Everything here is drawn from a ``random.Random`` the caller seeds, so one
seed always gives the same inputs.  The benchmark hands the library only
text rendered from these values, as a command-line user would.
"""

from __future__ import annotations

from fractions import Fraction as F

from effectfa import (
    CONVEX,
    DIST,
    INTERVAL_MAX,
    INTERVAL_MIN,
    INTERVAL_PAIR,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    ConvexSet,
    Dist,
    EffAutomaton,
    Position,
    WeightedVec,
    convex_output,
    unit,
    weighted,
)

ALGEBRAS = {"interval": INTERVAL_PAIR, "max": INTERVAL_MAX, "min": INTERVAL_MIN}


def states_of(n):
    return tuple(f"q{i}" for i in range(n))


def alphabet_of(k):
    return ("a", "b", "c")[:k]


def rand_dist(rng, carrier, max_den, exact=False):
    """Mass split into ``den`` equal parts, each dropped on a random element.

    ``den`` is ``max_den`` when ``exact``, else drawn from 1..max_den.
    """
    den = max_den if exact else rng.randint(1, max_den)
    counts = [0] * len(carrier)
    for _ in range(den):
        counts[rng.randrange(len(carrier))] += 1
    return Dist({x: F(k, den) for x, k in zip(carrier, counts) if k})


def dist_machine(rng, n, letters, max_den=4, pure_init=True, exact=False):
    states = states_of(n)
    alphabet = alphabet_of(letters)

    def row():
        return rand_dist(rng, states, max_den, exact)

    return EffAutomaton(
        monad=DIST,
        states=states,
        alphabet=alphabet,
        init=unit(DIST, states[0]) if pure_init else row(),
        trans={(q, x): row() for q in states for x in alphabet},
        output={q: F(rng.randint(0, max_den), max_den) for q in states},
        output_algebra=UNIT_INTERVAL,
    )


def _weight(rng, semiring):
    if semiring == "boolean":
        return rng.random() < 0.5
    if semiring == "rational":
        return F(rng.randint(-2, 3), rng.randint(1, 3))
    return rng.randint(0, 3)


def weighted_machine(rng, semiring, n, letters, pure_init=True):
    """Each entry is non-zero with probability 0.7."""
    monad = weighted(semiring)
    s = monad.semiring
    states = states_of(n)
    alphabet = alphabet_of(letters)

    def vec():
        return WeightedVec(
            s, {q: _weight(rng, semiring) for q in states if rng.random() < 0.7}
        )

    if pure_init:
        init = unit(monad, states[0])
    else:
        init = vec()
        if not init.support():
            init = WeightedVec(s, {states[-1]: _weight(rng, semiring) or s.one})
    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=alphabet,
        init=init,
        trans={(q, x): vec() for q in states for x in alphabet},
        output={q: _weight(rng, semiring) for q in states},
        output_algebra=SEMIRING_SELF,
    )


def convex_machine(rng, n, letters, max_gens, algebra="interval", dirac=False):
    """A choice machine: each entry is the hull of 1..max_gens random dists.

    With ``dirac`` every generator is a point mass, so the machine only
    chooses between deterministic moves.
    """
    states = states_of(n)
    alphabet = alphabet_of(letters)

    def generator():
        return Dist({rng.choice(states): 1}) if dirac else rand_dist(rng, states, 4)

    def hull():
        return ConvexSet([generator() for _ in range(rng.randint(1, max_gens))])

    return EffAutomaton(
        monad=CONVEX,
        states=states,
        alphabet=alphabet,
        init=unit(CONVEX, states[0]),
        trans={(q, x): hull() for q in states for x in alphabet},
        output={q: convex_output(F(rng.randint(0, 4), 4)) for q in states},
        output_algebra=ALGEBRAS[algebra],
    )


def commuting_machine(rng, n):
    """Two letters whose channels commute: ``b`` is ``a`` read twice."""
    a = dist_machine(rng, n, 1, exact=True)
    trans = dict(a.trans)
    for q in a.states:
        twice = {}
        for p, wp in a.trans[(q, "a")].items():
            for r, wr in a.trans[(p, "a")].items():
                twice[r] = twice.get(r, 0) + wp * wr
        trans[(q, "b")] = Dist(twice)
    return EffAutomaton(
        monad=DIST,
        states=a.states,
        alphabet=("a", "b"),
        init=a.init,
        trans=trans,
        output=a.output,
        output_algebra=UNIT_INTERVAL,
    )


def split_states(rng, a, k):
    """Pad a dist or rational machine by splitting ``k`` states in two.

    A split state ``q`` gets a twin with the same outgoing row and output;
    every weight into ``q`` is divided between the two.  The language is
    unchanged and the dimension grows by ``k``, so minimisation must remove
    at least the padding.
    """
    chosen = rng.sample(a.states, k)
    twin = {q: f"{q}s" for q in chosen}
    share = {q: F(rng.randint(1, 3), 4) for q in chosen}
    states = a.states + tuple(twin[q] for q in chosen)

    def spread(entries):
        out = {}
        for p, w in entries:
            if p in twin:
                out[p] = w * share[p]
                out[twin[p]] = w * (1 - share[p])
            else:
                out[p] = w
        return out

    def rebuild(value):
        if a.monad.kind == "dist":
            return Dist(spread(value.items()))
        return WeightedVec(a.monad.semiring, spread(value.items()))

    trans = {}
    for q in states:
        source = next((p for p in chosen if twin[p] == q), q)
        for x in a.alphabet:
            trans[(q, x)] = rebuild(a.trans[(source, x)])
    output = dict(a.output)
    for q in chosen:
        output[twin[q]] = a.output[q]
    return EffAutomaton(
        monad=a.monad,
        states=states,
        alphabet=a.alphabet,
        init=rebuild(a.init),
        trans=trans,
        output=output,
        output_algebra=a.output_algebra,
    )


def word(rng, alphabet, length):
    return tuple(rng.choice(alphabet) for _ in range(length))


def word_text(w):
    return ".".join(w) if w else "eps"


def position(rng, lo, span, max_points, max_weight=64):
    """Positive integer weights on up to ``max_points`` exponents in a window."""
    ks = rng.sample(range(lo, lo + span + 1), rng.randint(1, max_points))
    ws = [rng.randint(1, max_weight) for _ in ks]
    total = sum(ws)
    return Position({k: F(w, total) for k, w in zip(ks, ws)})


def position_text(p):
    return " + ".join(f"{w}*{n}" for n, w in p.items())


def combo_text(terms):
    """Render ``{word: weight}`` as ``1/3*eps + 2/3*a.a``."""
    return " + ".join(f"{r}*{word_text(w)}" for w, r in terms.items())


def unary_combo(p):
    """The formal combination of powers of ``a`` a game position describes."""
    return {("a",) * n: w for n, w in p.items()}


def random_combo(rng, alphabet, max_terms, max_len):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[word(rng, alphabet, rng.randint(0, max_len))] = rng.randint(1, 6)
    total = sum(terms.values())
    return {w: F(k, total) for w, k in terms.items()}
