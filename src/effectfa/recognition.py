"""Constructive translations between automata and algebraic recognizers.

Two recognizer shapes are supported, with both directions implemented:

* :class:`EffRecognizer` -- a finite *effect-free* monoid reached by
  letter-indexed effect values, plus a predicate on the monoid.  Built from
  an automaton by decomposing each letter channel into a weighted choice of
  (partial) functions on the states; rebuilt into an automaton whose states
  are the monoid elements with right-multiplication transitions.

* :class:`BialgRecognizer` -- a finitely generated algebra of state-to-state
  channels together with the letter channels themselves and an evaluation
  predicate.  Rebuilding an automaton on the generator set requires solving
  exact preimage problems (convex-combination feasibility for ``dist``,
  plain linear solving for rational weights).

The function-monoid witnesses are the total self-maps for ``dist`` and
``convex`` and the partial self-maps for ``weighted``, where an undefined
point maps to the zero vector.  :func:`xi_preimage` picks one canonical
section per effect type; any section works, and the choices here are fixed
so that results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iterproduct

from .automata import (
    INTERVAL_PAIR,
    EffAutomaton,
    OutputAlgebra,
    _dp_step,
    collapse,
    outputs_equal,
    purify_initial,
    words_upto,
)
from .effects import (
    Channel,
    ConvexSet,
    DIST,
    Dist,
    Monad,
    WeightedVec,
    bind,
    identity_channel,
    is_pure,
    kleisli_compose,
    lambda_channel,
    pure_channel,
    unit,
)
from .errors import CapabilityError, IntegrityError, ResourceError
from .linalg import feasible_nonneg, solve_linear
from .monoids import (
    EffMorphism,
    free_extension_word,
    function_monoid,
    tm_multiply,
)

_F1 = Fraction(1)

CONVEX_PREIMAGE_STATE_BOUND = 4
CONVEX_PREIMAGE_GENERATOR_BOUND = 4


@dataclass(frozen=True)
class EffRecognizer:
    """A finite monoid recognizing a language through effectful letter images."""

    morphism: EffMorphism
    predicate: dict
    output_algebra: OutputAlgebra

    def evaluate(self, w):
        """The recognized value of ``w``: extend to the word, then apply p.

        Convex predicate values are stored as (low, high) pairs like
        automaton outputs; the output algebra picks the component(s).
        """
        ext = free_extension_word(self.morphism, w)
        return collapse(self.morphism.monad, self.output_algebra, ext, self.predicate)


@dataclass(frozen=True)
class BialgRecognizer:
    """A generator-carried algebra of channels recognizing a language."""

    monad: Monad
    states: tuple
    alphabet: tuple
    generators: tuple
    images: dict
    letters: dict
    init: object
    output: dict
    output_algebra: OutputAlgebra

    def predicate(self, channel: Channel):
        return collapse(
            self.monad, self.output_algebra, bind(self.init, channel), self.output
        )

    def evaluate(self, w):
        ch = identity_channel(self.monad, self.states)
        for a in w:
            ch = kleisli_compose(ch, self.letters[a])
        return self.predicate(ch)


def witness_xi0(monad: Monad, carrier: tuple, bound: int = 6):
    """The finite function monoid generating all channels on a carrier.

    Returns the monoid and the embedding of each function as a channel:
    total self-maps become pure channels (``dist``/``convex``); partial
    self-maps become unit-or-zero rows (``weighted``).
    """
    if monad.kind in ("dist", "convex"):
        m = function_monoid(carrier, "total", bound)
        images = {
            f: pure_channel(monad, dict(zip(carrier, f)), carrier, carrier)
            for f in m.elements
        }
        return m, images
    m = function_monoid(carrier, "partial", bound)
    s = monad.semiring
    images = {}
    for f in m.elements:
        table = {}
        for x, y in zip(carrier, f):
            table[x] = (
                WeightedVec(s, {}) if y is None else unit(monad, y)
            )
        images[f] = Channel(monad, carrier, carrier, table)
    return m, images


def xi_preimage(target: Channel):
    """A canonical effect value over function graphs collapsing to ``target``.

    dist: the compatibility distribution of the channel.  weighted: one
    singleton partial function per non-zero entry, in row-then-column order.
    convex: the hull of the compatibility distributions of every generator
    selection (guarded, since selections multiply per state).
    """
    monad = target.monad
    if monad.kind == "dist":
        return lambda_channel(target)
    if monad.kind == "weighted":
        s = monad.semiring
        n = len(target.domain)
        weights = {}
        for i, x in enumerate(target.domain):
            for y, w in target(x).items():
                graph = tuple(y if j == i else None for j in range(n))
                weights[graph] = w
        return WeightedVec(s, weights)
    if len(target.domain) > CONVEX_PREIMAGE_STATE_BOUND:
        raise ResourceError(
            f"convex preimage supports at most {CONVEX_PREIMAGE_STATE_BOUND} "
            f"states; the channel has {len(target.domain)}"
        )
    per_state = []
    for x in target.domain:
        gens = target(x).generators
        if len(gens) > CONVEX_PREIMAGE_GENERATOR_BOUND:
            raise ResourceError(
                "convex preimage supports at most "
                f"{CONVEX_PREIMAGE_GENERATOR_BOUND} generators per state; "
                f"state {x!r} has {len(gens)}"
            )
        per_state.append(gens)
    hull = []
    for selection in _iterproduct(*per_state):
        table = dict(zip(target.domain, selection))
        hull.append(
            lambda_channel(Channel(DIST, target.domain, target.codomain, table))
        )
    return ConvexSet(hull).normalized()


def automaton_to_recognizer(a: EffAutomaton, bound: int = 6) -> EffRecognizer:
    """Decompose an automaton into a finite-monoid recognizer.

    A non-pure initial value is first moved onto a fresh pure state, since
    the predicate must be evaluated from a fixed start.
    """
    if not is_pure(a.init):
        a = purify_initial(a)
    m, images = witness_xi0(a.monad, a.states, bound)
    letters = {x: xi_preimage(a.letter_channel(x)) for x in a.alphabet}
    # Predicate values are stored like outputs: raw (low, high) pairs if convex.
    predicate = {
        f: collapse(a.monad, INTERVAL_PAIR, bind(a.init, images[f]), a.output)
        for f in m.elements
    }
    morphism = EffMorphism(target=m, monad=a.monad, alphabet=a.alphabet, letters=letters)
    return EffRecognizer(
        morphism=morphism, predicate=predicate, output_algebra=a.output_algebra
    )


def recognizer_to_automaton(r: EffRecognizer) -> EffAutomaton:
    """Turn a finite-monoid recognizer into an automaton on the monoid.

    States are the monoid elements, the start is pure at the unit, and
    reading a letter right-multiplies by the letter image; outputs are the
    predicate values.
    """
    m = r.morphism.target
    monad = r.morphism.monad
    trans = {}
    for x in m.elements:
        for a in r.morphism.alphabet:
            trans[(x, a)] = r.morphism.letter(a).map(lambda n, _x=x: m.mul(_x, n))
    return EffAutomaton(
        monad=monad,
        states=m.elements,
        alphabet=r.morphism.alphabet,
        init=unit(monad, m.unit),
        trans=trans,
        output=dict(r.predicate),
        output_algebra=r.output_algebra,
    )


def automaton_to_bialgebra(a: EffAutomaton, bound: int = 6) -> BialgRecognizer:
    """Present an automaton's channel algebra by function-monoid generators."""
    if not is_pure(a.init):
        a = purify_initial(a)
    m, images = witness_xi0(a.monad, a.states, bound)
    return BialgRecognizer(
        monad=a.monad,
        states=a.states,
        alphabet=a.alphabet,
        generators=m.elements,
        images=images,
        letters={x: a.letter_channel(x) for x in a.alphabet},
        init=a.init,
        output=dict(a.output),
        output_algebra=a.output_algebra,
    )


def _channel_vector(ch: Channel):
    entries = []
    for x in ch.domain:
        row = ch(x)
        for y in ch.codomain:
            entries.append(row.weight(y))
    return tuple(entries)


def _preimage_over_generators(r: BialgRecognizer, target: Channel):
    """Solve for an effect value over the generators that collapses to target."""
    gen_vecs = [_channel_vector(r.images[g]) for g in r.generators]
    target_vec = _channel_vector(target)
    columns = tuple(zip(*gen_vecs))
    if r.monad.kind == "dist":
        rows = columns + ((_F1,) * len(gen_vecs),)
        rhs = target_vec + (_F1,)
        sol = feasible_nonneg(rows, rhs)
        if sol is None:
            return None
        return Dist({g: c for g, c in zip(r.generators, sol) if c != 0})
    sol = solve_linear(columns, target_vec)
    if sol is None:
        return None
    return WeightedVec(
        r.monad.semiring, {g: c for g, c in zip(r.generators, sol) if c != 0}
    )


def bialgebra_to_automaton(r: BialgRecognizer) -> EffAutomaton:
    """Rebuild an automaton on the generator set of a bialgebra recognizer.

    Each transition is an exact preimage: an effect value over the
    generators whose collapsed channel equals "generator image, then letter
    image".  Solvable effect types are ``dist`` and rational ``weighted``.
    """
    if r.monad.kind == "convex":
        raise CapabilityError("no exact preimage solver for convex recognizers")
    if r.monad.kind == "weighted" and r.monad.semiring.name != "rational":
        raise CapabilityError(
            "weighted preimage solving is available for the rational semiring"
        )
    init = _preimage_over_generators(r, identity_channel(r.monad, r.states))
    if init is None:
        raise IntegrityError("the generator images do not span the identity channel")
    trans = {}
    for g in r.generators:
        for a in r.alphabet:
            target = kleisli_compose(r.images[g], r.letters[a])
            t = _preimage_over_generators(r, target)
            if t is None:
                raise IntegrityError(
                    f"no generator preimage for transition ({g!r}, {a!r})"
                )
            trans[(g, a)] = t
    output = {g: r.predicate(r.images[g]) for g in r.generators}
    return EffAutomaton(
        monad=r.monad,
        states=r.generators,
        alphabet=r.alphabet,
        init=init,
        trans=trans,
        output=output,
        output_algebra=r.output_algebra,
    )


def verify_recognition(a: EffAutomaton, r, maxlen: int) -> list:
    """Compare automaton and recognizer values on every word up to maxlen.

    The recognizer side is evaluated along the word tree, so shared prefixes
    are computed once.  So is the automaton side for ``dist`` and
    ``weighted``.  A convex automaton shares suffixes instead: each suffix
    gets the per-state tables of the backward generator DP of
    :func:`~effectfa.automata.eval_npfa`, one letter put in front of a
    shorter suffix's tables, and each word is read off the initial
    generators.  Those values equal the forward hull's exactly, while the
    recognizer side still composes convex sets, so the two sides stay
    independent computations.  Returns ``(word, automaton_value,
    recognizer_value)`` triples for each disagreement; an empty list
    certifies agreement at this depth.
    """
    if a.monad.kind == "convex":
        suffixes = {(): a.output}

        def aut_value(w):
            if w:
                suffixes[w] = _dp_step(a, a.output_algebra, w[0], suffixes[w[1:]])
            return collapse(a.monad, a.output_algebra, a.init, suffixes[w])

    else:
        forward = {(): a.init}

        def aut_value(w):
            if w:
                forward[w] = bind(forward[w[:-1]], a.letter_channel(w[-1]))
            return collapse(a.monad, a.output_algebra, forward[w], a.output)

    if isinstance(r, EffRecognizer):
        m = r.morphism.target
        states = {(): unit(r.morphism.monad, m.unit)}

        def extend(w):
            if len(w) == 1:
                states[w] = r.morphism.letter(w[0])
            else:
                states[w] = tm_multiply(m, states[w[:-1]], r.morphism.letter(w[-1]))

        def rec_value(w):
            return collapse(r.morphism.monad, r.output_algebra, states[w], r.predicate)

    else:
        states = {(): identity_channel(r.monad, r.states)}

        def extend(w):
            states[w] = kleisli_compose(states[w[:-1]], r.letters[w[-1]])

        def rec_value(w):
            return r.predicate(states[w])

    violations = []
    for w in words_upto(a.alphabet, maxlen):
        if w:
            extend(w)
        mine = aut_value(w)
        theirs = rec_value(w)
        if not outputs_equal(a, mine, theirs):
            violations.append((w, mine, theirs))
    return violations
