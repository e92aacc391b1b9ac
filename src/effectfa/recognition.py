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
  exact preimage problems over the generator images, set up once per
  recognizer (convex-combination feasibility for ``dist``, coordinates in
  the images' row space for rational weights).

A recognizer is checked and evaluated as the machine it rebuilds into: the
automaton on the monoid elements for an :class:`EffRecognizer`, the
automaton on the states with the letter channels for a
:class:`BialgRecognizer`.  That is exact, since reading a letter on the
monoid machine is the lifted product :func:`~effectfa.monoids.tm_multiply`
with the letter image, and it lets :func:`verify_recognition` compare both
machines with :func:`~effectfa.automata.disagreements` (on min-plus,
max-plus and convex machines one partition refinement of both, which
decides the pairs whose starts are bisimilar; one breadth-first closure
over what each word reaches in both machines, cut at the length asked; and
a walk along the word tree on the evaluation core of
:mod:`effectfa.automata` only where the closure finds a difference or, for
a user-declared semiring, cannot run) instead of building convex choice
products.

Both recognizers are built on the monoid that the letters generate: the
function graphs in the supports of the letter preimages
(:func:`xi_preimage`) closed under composition by
:func:`~effectfa.monoids.generated_monoid`, total self-maps for ``dist``
and ``convex`` and partial ones for ``weighted``, where an undefined point
maps to the zero vector.  The morphism never leaves that submonoid, and
for a deterministic machine it is the classical transition monoid.  Its
elements span every composite "element, then letter" too, since a letter
channel is the weighted sum of the images of its preimage's graphs; so a
bialgebra rebuilt on them stays solvable.  The whole function monoid
(:func:`witness_xi0`) remains as an oracle.  :func:`xi_preimage` picks one
canonical section per effect type; any section works, and the choices here
are fixed so that results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as _iterproduct

from .automata import (
    EffAutomaton,
    OutputAlgebra,
    _check_distinct,
    _check_outputs,
    collapse,
    disagreements,
    eval_word,
    purify_initial,
)
from .effects import (
    Channel,
    ConvexSet,
    DIST,
    Dist,
    Monad,
    WeightedVec,
    _check_value,
    _supports,
    bind,
    decompose_channel,
    identity_channel,
    is_pure,
    kleisli_compose,
    pure_channel,
    unit,
)
from .errors import (
    CapabilityError,
    IntegrityError,
    InterfaceError,
    ResourceError,
)
from .linalg import RowSpace, _int_lines, _nonneg_solve
from .monoids import EffMorphism, _generator_name, function_monoid, generated_monoid

_F1 = Fraction(1)

CONVEX_PREIMAGE_STATE_BOUND = 4
CONVEX_PREIMAGE_GENERATOR_BOUND = 4
# Cap on the generators of a bialgebra rebuilt into an automaton: one LP
# over that many columns per (generator, letter) pair.  On a 2-CPU machine
# with CPython 3.11, a 4-state dist bialgebra of 64 generators over two
# letters (129 LPs) rebuilds in about 0.3 s on the integer simplex; the 256
# maps of four states over three letters would need 769 LPs at about
# 0.012 s each.
BIALGEBRA_GENERATOR_BOUND = 64


@dataclass(frozen=True)
class EffRecognizer:
    """A finite monoid recognizing a language through effectful letter images.

    The recognizer is evaluated as the machine it rebuilds into
    (:func:`recognizer_to_automaton`): states are the monoid elements, the
    start is the unit and a letter acts by right multiplication with its
    image.  Feeding a value ``t`` over the monoid through that letter
    channel is ``double_strength(t, h(a))`` pushed along the table, i.e.
    :func:`~effectfa.monoids.tm_multiply`, so the machine's value on a word
    is the predicate applied to the free extension of the word.  The
    predicate is checked like an automaton's output map, on the monoid
    elements.
    """

    morphism: EffMorphism
    predicate: dict
    output_algebra: OutputAlgebra

    def __post_init__(self):
        _check_outputs(
            self.morphism.monad,
            self.morphism.target.elements,
            self.predicate,
            self.output_algebra,
        )

    @cached_property
    def _machine(self) -> EffAutomaton:
        # Built on first use and kept outside the fields, so ``==`` is unchanged.
        return recognizer_to_automaton(self)

    def evaluate(self, w):
        """The recognized value of ``w``: the predicate applied to the free
        extension of the word, read off the rebuilt machine by
        :func:`~effectfa.automata.eval_word`.

        Convex predicate values are stored as (low, high) pairs like
        automaton outputs; the output algebra picks the component(s).
        """
        return eval_word(self._machine, w)


@dataclass(frozen=True)
class BialgRecognizer:
    """A generator-carried algebra of channels recognizing a language.

    Construction checks that no state, letter or generator is repeated,
    the output map as :class:`EffAutomaton` does, that every letter has a
    channel and the generators, and only they, have images, that letter and
    generator-image channels are ``states``-to-``states`` channels of the
    effect type, and that ``init`` is a value on ``states``.
    """

    monad: Monad
    states: tuple
    alphabet: tuple
    generators: tuple
    images: dict
    letters: dict
    init: object
    output: dict
    output_algebra: OutputAlgebra

    def __post_init__(self):
        _check_distinct(self.states, "state")
        _check_distinct(self.alphabet, "letter")
        _check_distinct(self.generators, "generator")
        _check_outputs(self.monad, self.states, self.output, self.output_algebra)
        missing = [x for x in self.alphabet if x not in self.letters]
        if missing:
            raise InterfaceError(f"letters without a channel: {missing}")
        if self.images.keys() != set(self.generators):
            raise InterfaceError("images must be given for the generators and only them")
        named = [(f"letter {x!r}", self.letters[x]) for x in self.alphabet]
        named += [(f"image of {g!r}", ch) for g, ch in self.images.items()]
        for what, ch in named:
            if not (
                isinstance(ch, Channel)
                and ch.monad == self.monad
                and ch.domain == self.states
                and ch.codomain == self.states
            ):
                raise InterfaceError(
                    f"the {what} is not a {self.monad.kind} channel "
                    "from the states to the states"
                )
        _check_value(self.monad, self.init, set(self.states), "the initial value")

    @cached_property
    def _machine(self) -> EffAutomaton:
        """The automaton on ``states``: ``init``, the letter channels as
        transitions, ``output``."""
        return EffAutomaton(
            monad=self.monad,
            states=self.states,
            alphabet=self.alphabet,
            init=self.init,
            trans={
                (q, x): self.letters[x](q) for q in self.states for x in self.alphabet
            },
            output=dict(self.output),
            output_algebra=self.output_algebra,
        )

    def predicate(self, channel: Channel):
        return collapse(
            self.monad, self.output_algebra, bind(self.init, channel), self.output
        )

    def evaluate(self, w):
        """The recognized value of ``w``: ``init`` fed through the letter
        channels and collapsed by ``output``, read off the machine on the
        states by :func:`~effectfa.automata.eval_word`."""
        return eval_word(self._machine, w)


def _graph_channel(monad: Monad, carrier: tuple, f) -> Channel:
    """A function graph as a channel: pure rows (``dist``/``convex``), or
    unit-or-zero rows (``weighted``)."""
    if monad.kind != "weighted":
        return pure_channel(monad, dict(zip(carrier, f)), carrier, carrier)
    zero = WeightedVec(monad.semiring, {})
    table = {x: zero if y is None else unit(monad, y) for x, y in zip(carrier, f)}
    return Channel(monad, carrier, carrier, table)


def witness_xi0(monad: Monad, carrier: tuple):
    """The whole function monoid on a carrier, which spans every channel.

    Returns the monoid and the embedding of each function as a channel:
    total self-maps become pure channels (``dist``/``convex``); partial
    self-maps become unit-or-zero rows (``weighted``).  The recognizers are
    built on the submonoid their letters generate instead; this is the
    oracle they are checked against, and it is bounded by
    :data:`~effectfa.monoids.FUNCTION_MONOID_BOUND` (``n^n`` or
    ``(n+1)^n`` elements).
    """
    m = function_monoid(carrier, "partial" if monad.kind == "weighted" else "total")
    return m, {f: _graph_channel(monad, carrier, f) for f in m.elements}


def _generated_witness(a: EffAutomaton):
    """The letter preimages and the monoid their supports generate."""
    letters = {x: xi_preimage(a.letter_channel(x)) for x in a.alphabet}
    # Graphs in order of first appearance, so the element order is reproducible.
    return letters, generated_monoid(a.states, _supports(letters.values()))


def xi_preimage(target: Channel):
    """A canonical effect value over function graphs collapsing to ``target``.

    dist: the greedy sparse decomposition
    (:func:`~effectfa.effects.decompose_channel`), at most
    ``sum |supp| - n + 1`` graphs.  weighted: one singleton partial function
    per non-zero entry, in row-then-column order.  convex: the hull of the
    sparse decompositions of every generator selection (guarded, since
    selections multiply per state).  Only the monoid that these graphs
    generate is built (:func:`automaton_to_recognizer`).
    """
    monad = target.monad
    if monad.kind == "dist":
        return decompose_channel(target)
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
            decompose_channel(Channel(DIST, target.domain, target.codomain, table))
        )
    return ConvexSet(hull).normalized()


def automaton_to_recognizer(a: EffAutomaton) -> EffRecognizer:
    """Decompose an automaton into a finite-monoid recognizer.

    The letter images are the preimages :func:`xi_preimage` of the letter
    channels, and the monoid is the one their supports generate.  A
    non-pure initial value is first moved onto a fresh pure state, since
    the predicate must be evaluated from a fixed start.  A monoid past
    :data:`~effectfa.monoids.FUNCTION_MONOID_BOUND` elements raises
    :class:`ResourceError` as soon as the closure reaches it.
    """
    if not is_pure(a.init):
        a = purify_initial(a)
    letters, m = _generated_witness(a)
    # An element's value is the output of the state its graph sends the
    # start to, or the semiring zero where a partial (weighted) graph is
    # undefined there.  Predicate values are stored like outputs: raw
    # (low, high) pairs if convex.
    i = a.states.index(a.init_pure_state())
    predicate = {
        f: a.monad.semiring.zero if f[i] is None else a.output[f[i]] for f in m.elements
    }
    morphism = EffMorphism(target=m, monad=a.monad, alphabet=a.alphabet, letters=letters)
    return EffRecognizer(
        morphism=morphism, predicate=predicate, output_algebra=a.output_algebra
    )


def recognizer_to_automaton(r: EffRecognizer) -> EffAutomaton:
    """Turn a finite-monoid recognizer into an automaton on the monoid.

    States are the monoid elements, named as the monoid names them, so
    that the machine prints and parses back; the start is pure at the
    unit, and reading a letter right-multiplies by the letter image;
    outputs are the predicate values.
    """
    m = r.morphism.target
    monad = r.morphism.monad
    names = {x: m.name(x) for x in m.elements}
    letters = [(a, r.morphism.letter(a)) for a in r.morphism.alphabet]
    supports = _supports(t for _, t in letters)
    trans = {}
    for x in m.elements:
        times_x = {y: names[m.mul(x, y)] for y in supports}.__getitem__
        for a, t in letters:
            trans[(names[x], a)] = t.map(times_x)
    return EffAutomaton(
        monad=monad,
        states=tuple(names.values()),
        alphabet=r.morphism.alphabet,
        init=unit(monad, names[m.unit]),
        trans=trans,
        output={names[x]: v for x, v in r.predicate.items()},
        output_algebra=r.output_algebra,
    )


def automaton_to_bialgebra(a: EffAutomaton) -> BialgRecognizer:
    """Present an automaton's channel algebra by the function graphs its
    letters generate (the monoid of :func:`automaton_to_recognizer`)."""
    if not is_pure(a.init):
        a = purify_initial(a)
    _, m = _generated_witness(a)
    return BialgRecognizer(
        monad=a.monad,
        states=a.states,
        alphabet=a.alphabet,
        generators=m.elements,
        images={f: _graph_channel(a.monad, a.states, f) for f in m.elements},
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


def _preimage_solver(r: BialgRecognizer, names: dict):
    """``solve(target)``: an effect value over the generators, keyed by
    ``names``, whose collapsed channel is ``target``, or None if there is
    none.

    The generator columns (:func:`_channel_vector` of every image) are built
    once, here.  ``dist``: the columns and a row of ones are scaled to
    integers once (:func:`~effectfa.linalg._int_lines`), and each
    target runs the phase-1 simplex of
    :func:`~effectfa.linalg.feasible_nonneg` on them, for convex
    coefficients over the generators.  Rational: the
    columns are added to one :class:`~effectfa.linalg.RowSpace` in generator
    order, and each target's coordinates are read off it.  The independent
    generators are the greedy ones, the pivot columns of
    :func:`~effectfa.linalg.solve_linear` on the same system, so the
    solution is that one, with every other generator's coefficient 0.
    """
    gens = r.generators
    vectors = [_channel_vector(r.images[g]) for g in gens]
    if r.monad.kind == "dist":
        rows = [*zip(*vectors), (_F1,) * len(gens)]
        columns = _int_lines([tuple(enumerate(row)) for row in rows], range(len(gens)))

        def solve(target):
            sol = _nonneg_solve(columns, _channel_vector(target) + (_F1,))
            if sol is None:
                return None
            return Dist({names[g]: c for g, c in zip(gens, sol) if c != 0})

        return solve
    space = RowSpace(len(r.states) ** 2)
    basis = [g for g, v in zip(gens, vectors) if space.add(v)]

    def solve(target):
        sol = space.coords(_channel_vector(target))
        if sol is None:
            return None
        return WeightedVec(
            r.monad.semiring, {names[g]: c for g, c in zip(basis, sol) if c != 0}
        )

    return solve


def bialgebra_to_automaton(r: BialgRecognizer) -> EffAutomaton:
    """Rebuild an automaton on the generator set of a bialgebra recognizer.

    Each transition is an exact preimage: an effect value over the
    generators whose collapsed channel equals "generator image, then letter
    image".  Solvable effect types are ``dist`` and rational ``weighted``.
    A recognizer with more than :data:`BIALGEBRA_GENERATOR_BOUND`
    generators raises :class:`ResourceError` before any preimage is solved.
    Otherwise one solver (:func:`_preimage_solver`) is set up, with the
    generator columns built once, and serves the ``1 + |G|*|A|`` targets:
    one integer phase-1 simplex each for ``dist``, one read-off of the
    generators' row space each for rational weights.  States are named as
    :func:`~effectfa.cli.print_bialgebra` names the generators, so that
    the machine prints and parses back.
    """
    if r.monad.kind == "convex":
        raise CapabilityError("no exact preimage solver for convex recognizers")
    if r.monad.kind == "weighted" and r.monad.semiring.name != "rational":
        raise CapabilityError(
            "weighted preimage solving is available for the rational semiring"
        )
    if len(r.generators) > BIALGEBRA_GENERATOR_BOUND:
        raise ResourceError(
            f"the bialgebra has {len(r.generators)} generators, over the bound "
            f"of {BIALGEBRA_GENERATOR_BOUND} for rebuilding an automaton"
        )
    index = {q: i for i, q in enumerate(r.states)}
    names = {g: _generator_name(g, index) for g in r.generators}
    solve = _preimage_solver(r, names)
    init = solve(identity_channel(r.monad, r.states))
    if init is None:
        raise IntegrityError("the generator images do not span the identity channel")
    trans = {}
    for g in r.generators:
        for a in r.alphabet:
            t = solve(kleisli_compose(r.images[g], r.letters[a]))
            if t is None:
                raise IntegrityError(
                    f"no generator preimage for transition ({g!r}, {a!r})"
                )
            trans[(names[g], a)] = t
    output = {names[g]: r.predicate(r.images[g]) for g in r.generators}
    return EffAutomaton(
        monad=r.monad,
        states=tuple(names.values()),
        alphabet=r.alphabet,
        init=init,
        trans=trans,
        output=output,
        output_algebra=r.output_algebra,
    )


def verify_recognition(a: EffAutomaton, r, maxlen: int) -> list:
    """Compare automaton and recognizer values on every word up to maxlen.

    The recognizer is checked as the machine it rebuilds into: an
    :class:`EffRecognizer` as :func:`recognizer_to_automaton` (states on the
    monoid elements, letters acting by right multiplication), a
    :class:`BialgRecognizer` as the machine on its states with its letter
    channels as transitions.  The two machines are then compared by
    :func:`~effectfa.automata.disagreements`.  This is exact: feeding a
    value through a right-multiplication channel is the lifted product
    :func:`~effectfa.monoids.tm_multiply`, and composing letter channels
    before or after applying them to ``init`` gives the same value
    (associativity of Kleisli composition).

    Min-plus, max-plus and convex machines are first refined once.  A
    recognizer's machine is bisimilar to the automaton it came from (the
    map from a monoid element ``m`` to ``m(start)`` is a functional
    bisimulation), so if the two starts share a block of the largest
    bisimulation of the two machines, they agree on every word and nothing
    more runs (:func:`~effectfa.automata._bisimilar`).  Otherwise the
    machines are checked by one breadth-first closure over what each word
    reaches in both, cut at ``maxlen`` and taking at most the kernel steps
    of a walk that far: pairs of integer columns covered by their span for
    ``dist`` and rational machines (Tzeng's test), pairs of boolean vectors
    covered by union-find for boolean ones (Hopcroft–Karp), and pairs of
    configurations covered by key for min-plus, max-plus and convex ones.
    If the closure finds no difference, nothing is walked.
    Otherwise, and always for a user-declared semiring, both are walked
    along the word tree on the same kernels: integer columns stepped
    backward for ``dist`` and rational weights, the backward generator DP
    for convex machines (equal to the forward hull's interval, see
    :mod:`effectfa.automata`).  Returns ``(word, automaton_value,
    recognizer_value)`` triples for each disagreement, in
    :func:`~effectfa.automata.words_upto` order; an empty list certifies
    agreement at this depth.
    """
    return list(disagreements(a, r._machine, maxlen))
