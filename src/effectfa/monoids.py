"""Finite monoids, lifted multiplication on effect values, and free extensions.

A :class:`FinMonoid` is a finite carrier with an associative multiplication
and a unit.  Explicit tables are validated at construction: the unit laws,
then associativity by Light's test on a greedily picked generating set,
run on an integer row table;
monoids defined by an operation (function composition, submonoid closure)
skip the check since associativity is inherited from the construction.

Effect values over a monoid multiply by pairing followed by pushforward
along the table (:func:`tm_multiply`); folding that over the letters of a
word freely extends a letter-indexed family of effect values to words
(:func:`free_extension_word`).  :func:`verify_effectful_morphism` replays
the morphism laws up to a word-length budget and reports any offending
split, which catches corrupted tables.

The classical deterministic story lives here too: the transition monoid of
the minimal automaton of a 0/1 language, with its word projection
(:func:`classical_syntactic_monoid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

from .automata import EffAutomaton, is_pure_automaton, words_upto
from .effects import Dist, Monad, WeightedVec, double_strength, unit
from .errors import (
    InputError,
    IntegrityError,
    PreconditionError,
    ResourceError,
)

# The most elements a function monoid may have: the 4-state partial maps (625)
# are admitted, the 5-state total maps (3125, a 9.8 M-entry table) are not.
FUNCTION_MONOID_BOUND = 1000


class FinMonoid:
    """Finite monoid over hashable element payloads with printable names."""

    __slots__ = ("elements", "_names", "unit", "_op", "_memo", "_index")

    def __init__(self, elements, names, unit, op, validate=False):
        self.elements = tuple(elements)
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
        missing = {
            (x, y) for x in elements for y in elements
        } - set(table)
        if missing:
            raise IntegrityError(f"multiplication table not total; missing {missing}")
        carrier = set(elements)
        bad = [v for v in table.values() if v not in carrier]
        if bad:
            raise IntegrityError(f"table values outside the carrier: {bad}")
        return cls(elements, names, unit_name, lambda x, y: table[(x, y)], validate=True)

    @classmethod
    def from_operation(cls, elements, names, unit, op) -> "FinMonoid":
        """Build from an operation known to be associative (e.g. composition)."""
        return cls(elements, names, unit, op, validate=False)

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
        for g in self._generators(table, u):
            g_row = table[g]
            for x, x_row in enumerate(table):
                xg_row = table[x_row[g]]
                if xg_row != [x_row[z] for z in g_row]:
                    y = next(y for y, z in enumerate(g_row) if xg_row[y] != x_row[z])
                    x_name, g_name, y_name = (self._names[elements[k]] for k in (x, g, y))
                    raise IntegrityError(
                        f"associativity fails on ({x_name}, {g_name}, {y_name})"
                    )

    @staticmethod
    def _generators(table, u) -> list:
        """Indices of a generating set of the monoid with row table
        ``table`` and unit index ``u``, picked greedily: each element in
        order that the right-multiplication closure of the unit has not
        reached yet."""
        gens = []
        reached = {u}
        for g in range(len(table)):
            if g in reached:
                continue
            gens.append(g)
            # Old elements need only the new generator; new ones need all.
            frontier = [table[x][g] for x in reached]
            while frontier:
                y = frontier.pop()
                if y not in reached:
                    reached.add(y)
                    frontier.extend(table[y][h] for h in gens)
        return gens

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


def _graph_name(graph) -> str:
    return "[" + ",".join("_" if y is None else str(y) for y in graph) + "]"


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
    index = {x: i for i, x in enumerate(carrier)}

    def compose(f, g):
        return tuple(
            None if y is None else g[index[y]] for y in f
        )

    identity = tuple(carrier)
    return FinMonoid.from_operation(
        elements, [_graph_name(f) for f in elements], identity, compose
    )


def tm_multiply(m: FinMonoid, t1, t2):
    """Multiply two effect values over a monoid: pair, then push along the table."""
    paired = double_strength(t1, t2)
    return paired.map(lambda xy: m.mul(xy[0], xy[1]))


@dataclass(frozen=True)
class EffMorphism:
    """Letter-indexed effect values into a finite monoid (the generating data)."""

    target: FinMonoid
    monad: Monad
    alphabet: tuple
    letters: dict

    def __post_init__(self):
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


def free_extension_enumerated(h: EffMorphism, w):
    """Oracle for the free extension: sum over all factorisations of the word.

    Accumulates, for every tuple of monoid elements drawn from the letter
    supports, the product of letter weights at the product element.
    Exponential in the word length; dist and weighted only.
    """
    if h.monad.kind == "convex":
        raise PreconditionError("enumeration oracle covers dist and weighted only")
    images = [h.letter(a) for a in w]
    total = {}
    for combo in _iterproduct(*[t.support() for t in images]):
        if h.monad.kind == "dist":
            weight = 1
            for t, mi in zip(images, combo):
                weight = weight * t.weight(mi)
        else:
            s = h.monad.semiring
            weight = s.one
            for t, mi in zip(images, combo):
                weight = s.mul(weight, t.weight(mi))
        target = combo[0] if combo else h.target.unit
        for mi in combo[1:]:
            target = h.target.mul(target, mi)
        if h.monad.kind == "dist":
            total[target] = total.get(target, 0) + weight
        else:
            s = h.monad.semiring
            total[target] = s.add(total[target], weight) if target in total else weight
    return _pack_value(h.monad, total)


def _pack_value(monad: Monad, weights: dict):
    if monad.kind == "dist":
        return Dist(weights)
    return WeightedVec(monad.semiring, weights)


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
    frontier = [unit_elem]
    while frontier:
        x = frontier.pop(0)
        for g in generators:
            y = mul(x, g)
            if y not in seen:
                if len(closed) + 1 > bound:
                    return None
                seen.add(y)
                closed.append(y)
                frontier.append(y)
    return closed


def transition_monoid_closure(ambient: FinMonoid, generators, bound: int):
    """The submonoid generated inside ``ambient``, or None on overflow.

    Element payloads and names are inherited from the ambient monoid, so
    results refer straight back into it.
    """
    for g in generators:
        if g not in ambient:
            raise InputError(f"generator {g!r} is not an ambient element")
    closed = _close_under(ambient.unit, generators, ambient.mul, bound)
    if closed is None:
        return None
    return FinMonoid.from_operation(
        closed, [ambient.name(x) for x in closed], ambient.unit, ambient.mul
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


def classical_syntactic_monoid(a: EffAutomaton, bound: int = 1000) -> SyntacticMonoid:
    """Minimal-automaton transition monoid of a deterministic 0/1 language.

    Minimises by partition refinement, then closes the letter transition
    functions under composition.  The closure works on the functions
    directly rather than inside the full function monoid, so only the
    generated submonoid is ever materialised.
    """
    delta, q0, accept = _dfa_data(a)
    carrier, delta_min, q0m, accept_min = _minimize_dfa(
        a.states, a.alphabet, delta, q0, accept
    )
    index = {q: i for i, q in enumerate(carrier)}

    def compose(f, g):
        return tuple(g[index[y]] for y in f)

    letter_map = {
        x: tuple(delta_min[(q, x)] for q in carrier) for x in a.alphabet
    }
    closed = _close_under(tuple(carrier), list(letter_map.values()), compose, bound)
    if closed is None:
        raise ResourceError(
            f"transition monoid reached more than the bound of {bound} elements"
        )
    monoid = FinMonoid.from_operation(
        closed, [_graph_name(f) for f in closed], tuple(carrier), compose
    )
    return SyntacticMonoid(
        monoid=monoid,
        state_order=carrier,
        letter_map=letter_map,
        init_state=q0m,
        accepting=frozenset(accept_min),
    )
