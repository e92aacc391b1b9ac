"""Finite monoids, lifted multiplication on effect values, and free extensions.

A :class:`FinMonoid` is a finite carrier with an associative multiplication
and a unit.  Explicit tables are validated at construction: the unit laws,
then associativity by Light's test on a greedily picked generating set,
run on an integer row table;
monoids defined by an operation (function composition, submonoid closure)
skip the check since associativity is inherited from the construction.
A monoid of function graphs (:func:`function_monoid`,
:func:`generated_monoid`) records the ``carrier`` its graphs act on (None
for every other monoid) and names each graph by the positions of its
images in the carrier (:func:`_graph_name`, ``[0,2,_]``); since its
product is composition, a recognizer file writes those names and leaves
the table out.

Effect values over a monoid multiply by pairing followed by pushforward
along the table (:func:`tm_multiply`); folding that over the letters of a
word freely extends a letter-indexed family of effect values to words
(:func:`free_extension_word`).  :func:`verify_effectful_morphism` replays
the morphism laws up to a word-length budget and reports any offending
split, which catches corrupted tables.

Monoids of self-maps of a finite carrier come whole
(:func:`function_monoid`) or generated by given maps
(:func:`generated_monoid`, which recognizers are built on).  The classical
deterministic story lives here too: the transition monoid of the minimal
automaton of a 0/1 language, with its word projection
(:func:`classical_syntactic_monoid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

from .automata import EffAutomaton, _check_distinct, is_pure_automaton, words_upto
from .effects import Monad, double_strength, unit
from .errors import (
    InputError,
    IntegrityError,
    PreconditionError,
    ResourceError,
)

# The most elements a monoid of self-maps may have, whole or generated: the
# 4-state partial maps (625) are admitted, the 5-state total maps (3125, a
# 9.8 M-entry table) are not.
FUNCTION_MONOID_BOUND = 1000


class FinMonoid:
    """Finite monoid over hashable element payloads with printable names.

    ``carrier`` is the tuple of points when each element is a map of them,
    named by :func:`_graph_name` on the carrier's positions and multiplied
    by composition, and None otherwise.
    """

    __slots__ = ("elements", "_names", "unit", "_op", "_memo", "_index", "carrier")

    def __init__(self, elements, names, unit, op, validate=False, carrier=None):
        self.elements = tuple(elements)
        self.carrier = carrier
        self._names = dict(zip(self.elements, names))
        if len(self._names) != len(self.elements):
            raise IntegrityError("monoid elements must be distinct")
        if unit not in self._names:
            raise IntegrityError("the unit must be one of the elements")
        self.unit = unit
        self._op = op
        self._memo = {}
        self._index = {x: i for i, x in enumerate(self.elements)}
        if validate:
            self._validate()

    @classmethod
    def from_table(cls, names, table, unit_name) -> "FinMonoid":
        """Build from an explicit table ``(name, name) -> name``; validated."""
        elements = tuple(names)
        missing = [(x, y) for x in elements for y in elements if (x, y) not in table]
        if missing:
            raise IntegrityError(f"multiplication table not total; missing {missing}")
        carrier = set(elements)
        bad = [v for v in table.values() if v not in carrier]
        if bad:
            raise IntegrityError(f"table values outside the carrier: {bad}")
        return cls(elements, names, unit_name, lambda x, y: table[(x, y)], validate=True)

    @classmethod
    def from_operation(cls, elements, names, unit, op, carrier=None) -> "FinMonoid":
        """Build from an operation known to be associative (e.g. composition)."""
        return cls(elements, names, unit, op, validate=False, carrier=carrier)

    def _validate(self):
        """Check the unit laws, then associativity by Light's test.

        Once the unit laws hold, ``(x*g)*y == x*(g*y)`` for every ``x``,
        ``y`` and every ``g`` of a generating set implies associativity:
        the elements ``a`` with ``(x*a)*y == x*(a*y)`` for all ``x``, ``y``
        contain the unit and the generators and are closed under products
        (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
        section 1.2).  That costs |M|^2 |G| products instead of |M|^3.

        The test runs on the integer row table ``T`` (``T[i][j]`` is the
        index of the product of elements ``i`` and ``j``): for each ``g``
        and ``x`` the row of ``x*g`` is compared with ``x``'s row read at
        the entries of ``g``'s row, one list comparison per pair.
        """
        elements = self.elements
        index = self._index
        table = [[index[self._op(x, y)] for y in elements] for x in elements]
        u = index[self.unit]
        for i, row in enumerate(table):
            if row[u] != i or table[u][i] != i:
                raise IntegrityError(f"unit law fails at {self._names[elements[i]]}")
        for g in _generators(len(table), u, lambda x, g: table[x][g]):
            g_row = table[g]
            for x, x_row in enumerate(table):
                xg_row = table[x_row[g]]
                if xg_row != [x_row[z] for z in g_row]:
                    y = next(y for y, z in enumerate(g_row) if xg_row[y] != x_row[z])
                    x_name, g_name, y_name = (self._names[elements[k]] for k in (x, g, y))
                    raise IntegrityError(
                        f"associativity fails on ({x_name}, {g_name}, {y_name})"
                    )

    def mul(self, x, y):
        key = (x, y)
        got = self._memo.get(key)
        if got is None:
            got = self._op(x, y)
            if got not in self._index:
                raise IntegrityError("multiplication left the carrier")
            self._memo[key] = got
        return got

    def name(self, x) -> str:
        return self._names[x]

    def index(self, x) -> int:
        return self._index[x]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._index

    def __repr__(self):
        return f"FinMonoid({len(self.elements)} elements, unit {self._names[self.unit]})"


def _generators(size: int, u: int, product) -> list:
    """Indices of a generating set of a monoid on the indices ``0..size-1``
    with unit ``u`` and ``product(x, y)`` the index of ``x*y``, picked
    greedily: each index in order that the right-multiplication closure of
    the unit has not reached yet.  It calls ``product`` at most ``size``
    times per generator."""
    gens = []
    reached = {u}
    for g in range(size):
        if g in reached:
            continue
        gens.append(g)
        # Old elements need only the new generator; new ones need all.
        frontier = [product(x, g) for x in reached]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(product(y, h) for h in gens)
    return gens


def _graph_name(graph, index) -> str:
    """The name of a graph: the position of each image, by ``index`` (point
    to position in the carrier), with ``_`` for an undefined point."""
    return "[" + ",".join("_" if y is None else str(index[y]) for y in graph) + "]"


def _generator_name(g, index) -> str:
    """The name of a bialgebra generator: a name as given, a graph by
    :func:`_graph_name`."""
    return g if isinstance(g, str) else _graph_name(g, index)


def _graph_composer(carrier: tuple):
    """Composition of graphs on ``carrier`` in application order (first the
    left factor, then the right), with undefinedness propagating."""
    index = {x: i for i, x in enumerate(carrier)}

    def compose(f, g):
        return tuple(None if y is None else g[index[y]] for y in f)

    return compose


def function_monoid(carrier: tuple, kind: str = "total") -> FinMonoid:
    """The monoid of all total or partial self-maps of a finite carrier.

    Elements are graphs: tuples of images in carrier order, ``None`` marking
    an undefined point.  Multiplication is composition in application order
    (first the left factor, then the right), with undefinedness propagating.
    A monoid of more than :data:`FUNCTION_MONOID_BOUND` elements (``n^n``
    total or ``(n+1)^n`` partial maps on ``n`` points) raises
    :class:`ResourceError` before anything is built.
    """
    if kind not in ("total", "partial"):
        raise InputError(f"kind must be 'total' or 'partial', not {kind!r}")
    n = len(carrier)
    choices = tuple(carrier) + ((None,) if kind == "partial" else ())
    size = len(choices) ** n
    if size > FUNCTION_MONOID_BOUND:
        raise ResourceError(
            f"the {kind} function monoid on {n} points has {size} elements, "
            f"over the bound of {FUNCTION_MONOID_BOUND}"
        )
    elements = tuple(_iterproduct(choices, repeat=n))
    carrier = tuple(carrier)
    index = {x: i for i, x in enumerate(carrier)}
    names = [_graph_name(f, index) for f in elements]
    return FinMonoid.from_operation(
        elements, names, carrier, _graph_composer(carrier), carrier
    )


def generated_monoid(
    carrier: tuple, maps, bound: int = FUNCTION_MONOID_BOUND
) -> FinMonoid:
    """The monoid of self-maps of ``carrier`` that ``maps`` generate.

    Maps are graphs as in :func:`function_monoid` (total or partial) and
    compose the same way.  The closure runs breadth first from the
    identity, right-multiplying by ``maps`` in order, so the element order
    is reproducible; only the generated elements are ever built.  Past
    ``bound`` elements it raises :class:`ResourceError` naming the bound
    and the count reached.
    """
    compose = _graph_composer(carrier)
    identity = tuple(carrier)
    closed = _close_under(identity, list(maps), compose, bound)
    if closed is None:
        raise ResourceError(
            f"the generated monoid reached more than the bound of {bound} "
            f"elements: {bound + 1} were built before the closure stopped"
        )
    index = {x: i for i, x in enumerate(identity)}
    return FinMonoid.from_operation(
        closed, [_graph_name(f, index) for f in closed], identity, compose, identity
    )


def tm_multiply(m: FinMonoid, t1, t2):
    """Multiply two effect values over a monoid: pair, then push along the table."""
    paired = double_strength(t1, t2)
    return paired.map(lambda xy: m.mul(xy[0], xy[1]))


@dataclass(frozen=True)
class EffMorphism:
    """Letter-indexed effect values into a finite monoid (the generating
    data).  No letter is repeated."""

    target: FinMonoid
    monad: Monad
    alphabet: tuple
    letters: dict

    def __post_init__(self):
        _check_distinct(self.alphabet, "letter")
        for a in self.alphabet:
            if a not in self.letters:
                raise InputError(f"letter {a!r} has no image")

    def letter(self, a):
        if a not in self.letters:
            raise InputError(f"letter {a!r} is not in the alphabet")
        return self.letters[a]


def free_extension_word(h: EffMorphism, w):
    """Extend the letter images to a word by folding the lifted multiplication.

    The image of a word is the product of its letter images alone (the unit
    value only appears for the empty word), so a corrupted unit row cannot
    hide inside the fold.
    """
    if not w:
        return unit(h.monad, h.target.unit)
    acc = h.letter(w[0])
    for a in w[1:]:
        acc = tm_multiply(h.target, acc, h.letter(a))
    return acc


def verify_effectful_morphism(h: EffMorphism, maxlen: int) -> list:
    """Report every split ``(u, v)`` where the morphism law fails up to maxlen.

    Checks that the empty word maps to the unit value and that the extension
    of ``uv`` equals the lifted product of the extensions of ``u`` and ``v``
    for all words with ``len(u) + len(v) <= maxlen``.
    """
    ext = {(): unit(h.monad, h.target.unit)}
    for w in words_upto(h.alphabet, maxlen):
        if len(w) == 1:
            ext[w] = h.letter(w[0])
        elif w:
            ext[w] = tm_multiply(h.target, ext[w[:-1]], h.letter(w[-1]))
    violations = []
    if ext[()] != unit(h.monad, h.target.unit):
        violations.append(((), ()))
    for u in ext:
        for v in ext:
            if len(u) + len(v) > maxlen:
                continue
            if tm_multiply(h.target, ext[u], ext[v]) != ext[u + v]:
                violations.append((u, v))
    return violations


def _close_under(unit_elem, generators, mul, bound: int):
    """Right-multiplication closure from the unit; None once past the bound."""
    closed = [unit_elem]
    seen = {unit_elem}
    # Breadth first: the loop also visits the elements appended during it.
    for x in closed:
        for g in generators:
            y = mul(x, g)
            if y not in seen:
                if len(closed) >= bound:
                    return None
                seen.add(y)
                closed.append(y)
    return closed


def transition_monoid_closure(ambient: FinMonoid, generators, bound: int):
    """The submonoid generated inside ``ambient``, or None on overflow.

    Element payloads, names and the carrier are inherited from the ambient
    monoid, so results refer straight back into it.
    """
    for g in generators:
        if g not in ambient:
            raise InputError(f"generator {g!r} is not an ambient element")
    closed = _close_under(ambient.unit, generators, ambient.mul, bound)
    if closed is None:
        return None
    return FinMonoid.from_operation(
        closed,
        [ambient.name(x) for x in closed],
        ambient.unit,
        ambient.mul,
        ambient.carrier,
    )


def _dfa_data(a: EffAutomaton):
    if not is_pure_automaton(a):
        raise PreconditionError("a pure automaton (Dirac channels, 0/1 outputs) is required")
    delta = {
        (q, x): t.support()[0] for (q, x), t in a.trans.items()
    }
    return delta, a.init_pure_state(), {q for q, v in a.output.items() if v == 1}


def _minimize_dfa(states, alphabet, delta, q0, accept):
    reach = [q0]
    seen = {q0}
    for q in reach:
        for x in alphabet:
            r = delta[(q, x)]
            if r not in seen:
                seen.add(r)
                reach.append(r)
    block = {q: (0 if q in accept else 1) for q in reach}
    while True:
        signatures = {}
        renumber = {}
        for q in reach:
            sig = (block[q],) + tuple(block[delta[(q, x)]] for x in alphabet)
            if sig not in signatures:
                signatures[sig] = len(signatures)
            renumber[q] = signatures[sig]
        if renumber == block:
            break
        block = renumber
    carrier = tuple(f"m{k}" for k in range(len(set(block.values()))))
    delta_min = {
        (f"m{block[q]}", x): f"m{block[delta[(q, x)]]}"
        for q in reach
        for x in alphabet
    }
    accept_min = {f"m{block[q]}" for q in reach if q in accept}
    return carrier, delta_min, f"m{block[q0]}", accept_min


@dataclass(frozen=True)
class SyntacticMonoid:
    """Transition monoid of the minimal automaton, with the word projection."""

    monoid: FinMonoid
    state_order: tuple
    letter_map: dict
    init_state: object
    accepting: frozenset

    def h(self, w):
        """Image of a word: the composite of its letter transition functions."""
        acc = self.monoid.unit
        for a in w:
            if a not in self.letter_map:
                raise InputError(f"letter {a!r} is not in the alphabet")
            acc = self.monoid.mul(acc, self.letter_map[a])
        return acc

    def predicate(self, element) -> bool:
        """Whether an element's action sends the initial state to acceptance."""
        image = element[self.state_order.index(self.init_state)]
        return image in self.accepting

    def accepts(self, w) -> bool:
        return self.predicate(self.h(w))


def classical_syntactic_monoid(
    a: EffAutomaton, bound: int = FUNCTION_MONOID_BOUND
) -> SyntacticMonoid:
    """Minimal-automaton transition monoid of a deterministic 0/1 language.

    Minimises by partition refinement, then closes the letter transition
    functions under composition with :func:`generated_monoid`, so only the
    generated submonoid is ever materialised.
    """
    delta, q0, accept = _dfa_data(a)
    carrier, delta_min, q0m, accept_min = _minimize_dfa(
        a.states, a.alphabet, delta, q0, accept
    )
    letter_map = {
        x: tuple(delta_min[(q, x)] for q in carrier) for x in a.alphabet
    }
    return SyntacticMonoid(
        monoid=generated_monoid(carrier, letter_map.values(), bound),
        state_order=carrier,
        letter_map=letter_map,
        init_state=q0m,
        accepting=frozenset(accept_min),
    )
