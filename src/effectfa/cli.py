"""Text formats and the command-line front end.

Automaton files are line oriented with ``#`` comments::

    monad dist                        # or: weighted <semiring> / convex [max|min]
    alphabet a b
    states q0 q1
    init q0:1/2 q1:1/2                # convex: generators separated by |
    trans q0 a -> q0:1/2 q1:1/2       # one line per state-letter pair
    output q0:0 q1:1                  # convex entries may be lo|hi

Monoid recognizer files share the framing with ``monoid``/``unit``/``hom``/
``pred`` sections.  In the graph form, which ``to-monoid`` writes, a
``states`` line gives the points and every element is named as a map of
them (``[q1,q1]``, ``_`` marking an undefined point); the product is
composition, so no table is written, and the reader checks that the
elements are exactly those the ``hom`` supports generate and that the unit
is the identity.  In the table form, for abstract monoids, ``mul`` lines
give every product as ``x*y=z``.  Bialgebra files use
``gens``/``image``/``hom``/``init``/``output``.  All three formats are read by
one section reader: the first token of a line names its section, and sections
may come in any order.  One-line sections appear once; ``trans``, ``hom``
and ``image`` take one line per row and ``mul`` lines hold any number of
products; every row and every product appears exactly once.  Literals are
written in ASCII digits.  Literals and generators are read once per file,
and each row in one pass: each distinct literal is parsed once,
and each distinct generator distribution built once and shared by the
entries that repeat it.  A malformed file raises :class:`ParseError`, with
the line number when the fault is on a line.

Words are dot-separated letters with ``eps`` for the empty word; formal
combinations are written ``1/3*eps + 2/3*a.a`` and game positions
``1/3*0 + 2/3*2``.

Every number is printed as exact rational text; ``--decimal K`` switches a
report to K-digit decimal rendering for human reading.  Exit status 0 means
success or a true answer, 1 a false answer or found violation, 2 an error
(every malformed file included).  A reader that closes the output early, as
``head`` does, leaves the status as it is.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from itertools import product as _iterproduct
from math import prod
from operator import add

from . import convexgame
from .automata import (
    _ALGEBRA_FOR_MODE,
    EffAutomaton,
    INTERVAL_PAIR,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    _is_linear,
    convex_output,
    disagreements,
    eval_word,
)
from .effects import (
    CONVEX,
    Channel,
    ConvexSet,
    DIST,
    Dist,
    WeightedVec,
    _supports,
    weighted,
)
from .errors import EffectfaError, ParseError, ResourceError
from .exactnum import _NATURAL_RE, parse_rational
from .monoids import (
    EffMorphism,
    FinMonoid,
    _graph_composer,
    _graph_name,
    generated_monoid,
    transition_monoid_closure,
)
from .recognition import (
    BialgRecognizer,
    EffRecognizer,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bialgebra_to_automaton,
    recognizer_to_automaton,
    verify_recognition,
)
from .syntactic import (
    FormalCombo,
    from_linear,
    is_commutative,
    minimize,
    syn_congruent,
    to_linear,
)

_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# Sections, shared by the three file formats.  The value parsers further down
# raise ParseError without a line number; these helpers attach the number of
# the line they read.


def _sections(text: str) -> dict:
    """Non-comment lines grouped by their first token, in file order:
    ``head -> [(1-based line number, remaining tokens as a tuple)]``."""
    sections = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            sections.setdefault(tokens[0], []).append((no, tuple(tokens[1:])))
    return sections


def _fail(no, message):
    raise ParseError(message, line=no)


def _at(no, parse, *args):
    """``parse(*args)``, with any error it raises reported at line ``no``."""
    try:
        return parse(*args)
    except (EffectfaError, ValueError) as e:
        _fail(no, str(e))


def _known(sections, heads):
    """Reject the first section whose head is not one of ``heads``."""
    for head, rows in sections.items():
        if head not in heads:
            _fail(rows[0][0], f"unknown section {head!r}")


def _line(sections, head, parse, *args):
    """The required one-line section ``head``, read as ``parse(tokens, *args)``."""
    rows = sections.get(head)
    if rows is None:
        raise ParseError(f"missing {head} line")
    if len(rows) > 1:
        _fail(rows[1][0], f"duplicate {head} line")
    no, tokens = rows[0]
    return _at(no, parse, tokens, *args)


def _rows(sections, head, keys, label, values) -> dict:
    """The table of ``head KEY... -> entries`` lines, keyed by the KEY tuple.

    ``keys`` gives, per key position, the declared names and what they are
    called.  Every tuple in the product of the names needs exactly one line;
    its entries are an effect value read by ``values``, a :class:`_Values`.
    Each line is read once, and any error in it is reported at its number.
    Since every key read is declared and new, the table is complete when it
    has as many keys as the product; only a short table is scanned for the
    keys it lacks.
    """
    arity = len(keys)
    declared = [(frozenset(names), what) for names, what in keys]
    effect = values.effect
    table = {}
    no = None
    try:
        for no, tokens in sections.get(head, ()):
            if len(tokens) <= arity or tokens[arity] != "->":
                shape = " ".join(what.upper() for _, what in keys)
                raise ParseError(f"expected: {head} {shape} -> entries")
            key = tokens[:arity]
            for name, (names, what) in zip(key, declared):
                if name not in names:
                    raise ParseError(f"undeclared {what} {name!r}")
            if key in table:
                raise ParseError(f"duplicate {head} line for {' '.join(key)}")
            table[key] = effect(tokens[arity + 1 :])
    except (EffectfaError, ValueError) as e:
        _fail(no, str(e))
    if len(table) < prod(len(names) for names, _ in keys):
        missing = [
            " ".join(key)
            for key in _iterproduct(*(names for names, _ in keys))
            if key not in table
        ]
        raise ParseError(f"missing {label}: {', '.join(missing)}")
    return table


def _distinct(tokens, what) -> tuple:
    """A declared name list, each name once."""
    if len(set(tokens)) != len(tokens):
        raise ParseError(f"repeated {what}")
    return tuple(tokens)


def _entries(tokens, names, what, parse, seen, combine=None) -> dict:
    """``NAME:VALUE`` tokens on declared names, as a ``name -> value`` map;
    the values of a repeated name are combined by ``combine``, or the last
    is kept without one.

    This one loop reads the entries of every format.  ``seen`` maps each
    VALUE text that ``parse`` has already read in this file to its value,
    so each distinct literal is parsed once; a text that fails raises here
    and is never stored, so it fails again wherever it appears.
    """
    values = {}
    for t in tokens:
        name, colon, text = t.rpartition(":")
        if not colon:
            raise ParseError(f"expected NAME:VALUE, got {t!r}")
        if not name:
            raise ParseError(f"missing name in {t!r}")
        if name not in names:
            raise ParseError(f"undeclared {what} {name!r}")
        value = seen.get(text)
        if value is None:
            value = seen[text] = parse(text)
        if combine is not None and name in values:
            value = combine(values[name], value)
        values[name] = value
    return values


# ---------------------------------------------------------------------------
# Values


class _Values:
    """The effect values and output maps of one file, over one carrier.

    ``noun`` is what the carrier's names are called in error messages:
    "state" for machines and bialgebras, "element" for monoid recognizers.

    Each reader call makes one and drops it when it returns, so its tables
    hold one file only.  They map each literal already read to its value,
    and the tokens of each generator already built to its :class:`Dist`,
    which is immutable, so the entries that repeat a generator share one.
    What fails to parse or check is never stored: it raises where it first
    appears, with that line's number.
    """

    def __init__(self, monad, carrier, noun):
        self.monad = monad
        self.carrier = carrier
        self.noun = noun
        self.names = frozenset(carrier)
        self.weights = {}  # literal -> entry weight
        self.outputs = {}  # literal -> output value
        self.dists = {}  # generator tokens -> Dist

    def _weight(self, text):
        if self.monad.kind == "weighted":
            return self.monad.semiring.parse(text)
        w = parse_rational(text)
        if w.numerator < 0:
            raise ParseError(f"negative weight {w}")
        return w

    def _output(self, text):
        monad = self.monad
        if monad.kind == "weighted":
            return monad.semiring.parse(text)
        if monad.kind == "dist":
            v = parse_rational(text)
            if v.numerator < 0 or v.numerator > v.denominator:
                raise ParseError(f"output {v} outside [0, 1]")
            return v
        parts = text.split("|")
        if len(parts) > 2:
            raise ParseError(f"convex output takes at most low|high, got {text!r}")
        values = [parse_rational(p) for p in parts]
        return convex_output(values[0] if len(values) == 1 else tuple(values))

    def effect(self, tokens: tuple):
        """An effect value; convex generators are separated by ``|`` tokens."""
        kind = self.monad.kind
        if kind == "dist":
            return self._dist(tokens)
        if kind == "weighted":
            return self._vector(tokens)
        return self._convex(tokens)

    def _dist(self, tokens: tuple) -> Dist:
        """A distribution, built once per distinct token tuple."""
        d = self.dists.get(tokens)
        if d is None:
            weights = _entries(tokens, self.names, self.noun, self._weight, self.weights, add)
            d = self.dists[tokens] = Dist(weights)
        return d

    def _vector(self, tokens: tuple) -> WeightedVec:
        """A weighted vector; the weights of a repeated name are added."""
        s = self.monad.semiring
        weights = _entries(tokens, self.names, self.noun, self._weight, self.weights, s.add)
        return WeightedVec(s, weights)

    def _convex(self, tokens: tuple) -> ConvexSet:
        """A convex set; every generator must be non-empty before any is
        read."""
        gens = []
        start = 0
        for _ in range(tokens.count("|")):
            end = tokens.index("|", start)
            gens.append(tokens[start:end])
            start = end + 1
        gens.append(tokens[start:])
        if () in gens:
            raise ParseError("empty generator in convex value")
        return ConvexSet(map(self._dist, gens))

    def output_map(self, tokens) -> dict:
        """An output map: one ``NAME:VALUE`` entry for every carrier name."""
        noun = self.noun
        values = _entries(tokens, self.names, noun, self._output, self.outputs)
        if len(values) < len(self.carrier):
            missing = [x for x in self.carrier if x not in values]
            raise ParseError(f"no output value for {noun} {missing[0]!r}")
        return values


def _parse_monad_line(tokens):
    if not tokens:
        raise ParseError("empty monad line")
    kind = tokens[0]
    if kind == "dist":
        if len(tokens) > 1:
            raise ParseError("monad dist takes no arguments")
        return DIST, UNIT_INTERVAL
    if kind == "weighted":
        if len(tokens) != 2:
            raise ParseError("monad weighted needs a semiring name")
        return weighted(tokens[1]), SEMIRING_SELF
    if kind == "convex":
        if len(tokens) == 1:
            return CONVEX, INTERVAL_PAIR
        if len(tokens) == 2 and tokens[1] in _ALGEBRA_FOR_MODE:
            return CONVEX, _ALGEBRA_FOR_MODE[tokens[1]]
        raise ParseError("monad convex takes one of: max, min, interval")
    raise ParseError(f"unknown monad {kind!r}")


# ---------------------------------------------------------------------------
# Automaton files


def parse_automaton(text: str) -> EffAutomaton:
    """Parse the automaton file format; raises ParseError with line numbers."""
    sections = _sections(text)
    _known(sections, ("monad", "alphabet", "states", "init", "trans", "output"))
    monad, algebra = _line(sections, "monad", _parse_monad_line)
    alphabet = _line(sections, "alphabet", _distinct, "letter")
    states = _line(sections, "states", _distinct, "state")
    keys = ((states, "state"), (alphabet, "letter"))
    values = _Values(monad, states, "state")
    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=alphabet,
        init=_line(sections, "init", values.effect),
        trans=_rows(sections, "trans", keys, "transitions", values),
        output=_line(sections, "output", values.output_map),
        output_algebra=algebra,
    )


def _fmt_monad_line(monad, algebra) -> str:
    if monad.kind == "dist":
        return "monad dist"
    if monad.kind == "weighted":
        return f"monad weighted {monad.semiring.name}"
    if algebra.kind == "interval-pair":
        return "monad convex"
    return f"monad convex {algebra.mode}"


def _fmt_dist(d: Dist, order) -> str:
    ordered = [x for x in order if d.weight(x) != 0]
    return " ".join(f"{x}:{d.weight(x)}" for x in ordered)


def _fmt_effect(t, order, monad) -> str:
    if monad.kind == "dist":
        return _fmt_dist(t, order)
    if monad.kind == "weighted":
        s = monad.semiring
        ordered = [x for x in order if x in t.support()]
        return " ".join(f"{x}:{s.fmt(t.weight(x))}" for x in ordered)
    return " | ".join(_fmt_dist(g, order) for g in t.generators)


def _fmt_output_value(v, monad) -> str:
    if monad.kind == "weighted":
        return monad.semiring.fmt(v)
    if monad.kind == "dist":
        return str(v)
    lo, hi = v
    return str(lo) if lo == hi else f"{lo}|{hi}"


def print_automaton(a: EffAutomaton) -> str:
    """Render an automaton in the file format (a fixpoint of the parser)."""
    lines = [
        _fmt_monad_line(a.monad, a.output_algebra),
        ("alphabet " + " ".join(a.alphabet)).rstrip(),
        ("states " + " ".join(str(q) for q in a.states)).rstrip(),
        ("init " + _fmt_effect(a.init, a.states, a.monad)).rstrip(),
    ]
    for q in a.states:
        for x in a.alphabet:
            entry = _fmt_effect(a.trans[(q, x)], a.states, a.monad)
            lines.append(f"trans {q} {x} -> {entry}".rstrip())
    lines.append(
        (
            "output "
            + " ".join(
                f"{q}:{_fmt_output_value(a.output[q], a.monad)}" for q in a.states
            )
        ).rstrip()
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Recognizer files


def parse_recognizer(text: str):
    """Parse a monoid-recognizer or bialgebra file (a ``gens`` section marks
    a bialgebra)."""
    sections = _sections(text)
    if "gens" in sections:
        return _parse_bialgebra(sections)
    return _parse_monoid_recognizer(sections)


def _parse_unit(tokens, elements):
    if len(tokens) != 1:
        raise ParseError("unit takes exactly one element")
    if tokens[0] not in elements:
        raise ParseError(f"unit {tokens[0]!r} is not a declared element")
    return tokens[0]


def _products(sections, elements) -> dict:
    """The ``mul`` table ``(x, y) -> z`` from ``x*y=z`` entries, each once."""
    declared = set(elements)
    table = {}
    for no, tokens in sections.get("mul", ()):
        for t in tokens:
            lhs, eq, z = t.partition("=")
            x, star, y = lhs.partition("*")
            if not (eq and star):
                _fail(no, f"expected X*Y=Z, got {t!r}")
            if not {x, y, z} <= declared:
                _fail(no, f"undeclared element in {t!r}")
            if (x, y) in table:
                _fail(no, f"duplicate product {x}*{y}")
            table[(x, y)] = z
    return table


def _graph_state(name: str) -> bool:
    """Whether a state name can be written inside a graph name: the
    separators of :func:`~effectfa.monoids._graph_name` and its mark for an
    undefined point would make the name ambiguous."""
    return name != "_" and not any(c in name for c in "[,]")


def _parse_graph_states(tokens) -> tuple:
    states = _distinct(tokens, "state")
    for q in states:
        if not _graph_state(q):
            raise ParseError(f"state {q!r} cannot be written in a graph name")
    return states


def _graph(name, index):
    """The graph on the states of ``index`` (state to position) that
    ``name`` writes, or None if it writes none."""
    inner = name[1:-1].split(",") if len(name) > 2 else []
    graph = tuple(None if y == "_" else y for y in inner)
    if len(graph) != len(index) or any(y is not None and y not in index for y in graph):
        return None
    return graph if _graph_name(graph) == name else None


def _graph_monoid(sections, states, elements, unit_name, hom) -> FinMonoid:
    """The monoid of a graph-form file: its elements, named as graphs on
    ``states``, must be exactly the closure of the graphs in the ``hom``
    supports, and its unit the identity graph.  The names stay the element
    payloads, in file order; the product is composition, read back as
    names, so no table is built and no associativity test runs."""
    monoid_no, unit_no = sections["monoid"][0][0], sections["unit"][0][0]
    index = {q: i for i, q in enumerate(states)}
    graphs = {}
    for name in elements:
        graphs[name] = _graph(name, index)
        if graphs[name] is None:
            _fail(monoid_no, f"element {name!r} is not a graph on the states")
    if graphs[unit_name] != states:
        _fail(unit_no, f"unit {unit_name!r} is not the identity graph")
    gens = [graphs[x] for x in _supports(hom.values())]
    try:
        closed = set(generated_monoid(states, gens, len(elements)).elements)
    except ResourceError:
        _fail(
            monoid_no,
            f"the letter images generate more than the {len(elements)} declared elements",
        )
    names = {g: name for name, g in graphs.items()}
    for g in closed:
        if g not in names:
            _fail(
                monoid_no,
                f"the letter images generate {_graph_name(g)}, which is not declared",
            )
    for name, g in graphs.items():
        if g not in closed:
            _fail(monoid_no, f"element {name!r} is not generated by the letter images")
    compose = _graph_composer(states)
    return FinMonoid.from_operation(
        elements,
        elements,
        unit_name,
        lambda x, y: names[compose(graphs[x], graphs[y])],
        states,
    )


def _parse_monoid_recognizer(sections) -> EffRecognizer:
    graph_form = "states" in sections
    form_heads = ("states",) if graph_form else ("mul",)
    heads = ("monad", "alphabet", "monoid", "unit", "hom", "pred")
    _known(sections, heads + form_heads)
    monad, algebra = _line(sections, "monad", _parse_monad_line)
    alphabet = _line(sections, "alphabet", _distinct, "letter")
    elements = _line(sections, "monoid", _distinct, "monoid element")
    unit_name = _line(sections, "unit", _parse_unit, elements)
    keys = ((alphabet, "letter"),)
    values = _Values(monad, elements, "element")
    hom = _rows(sections, "hom", keys, "hom lines", values)
    pred = _line(sections, "pred", values.output_map)
    if graph_form:
        states = _line(sections, "states", _parse_graph_states)
        target = _graph_monoid(sections, states, elements, unit_name, hom)
    else:
        try:
            target = FinMonoid.from_table(
                elements, _products(sections, elements), unit_name
            )
        except EffectfaError as e:
            raise ParseError(str(e)) from None
    letters = {a: hom[(a,)] for a in alphabet}
    morphism = EffMorphism(target=target, monad=monad, alphabet=alphabet, letters=letters)
    return EffRecognizer(morphism=morphism, predicate=pred, output_algebra=algebra)


def _graph_states(r: EffRecognizer):
    """The printed names of the states a recognizer's monoid acts on, if its
    file can take the graph form, else None.

    That needs a monoid of graphs (a known ``carrier``) whose state names
    are tokens that :func:`_graph_state` admits, and whose elements are
    exactly those the letter images' supports generate: the monoid the
    parser rebuilds.  A recognizer on the whole function monoid, say, is
    printed with its table.
    """
    m = r.morphism.target
    if m.carrier is None:
        return None
    states = [str(q) for q in m.carrier]
    if len(set(states)) != len(states) or not all(
        q.split() == [q] and "#" not in q and _graph_state(q) for q in states
    ):
        return None
    gens = _supports(r.morphism.letters.values())
    generated = transition_monoid_closure(m, gens, len(m))
    return states if generated is not None and len(generated) == len(m) else None


def print_recognizer(r: EffRecognizer) -> str:
    """Render a monoid recognizer: in the graph form (a ``states`` line and
    no products) when :func:`_graph_states` allows it, else with its
    ``mul`` table."""
    m = r.morphism.target
    monad = r.morphism.monad
    names = {x: m.name(x) for x in m.elements}
    states = _graph_states(r)
    lines = [
        _fmt_monad_line(monad, r.output_algebra),
        "alphabet " + " ".join(r.morphism.alphabet),
    ]
    if states is not None:
        lines.append(("states " + " ".join(states)).rstrip())
    lines += [
        "monoid " + " ".join(names[x] for x in m.elements),
        "unit " + names[m.unit],
    ]
    if states is None:
        for x in m.elements:
            row = " ".join(
                f"{names[x]}*{names[y]}={names[m.mul(x, y)]}" for y in m.elements
            )
            lines.append("mul " + row)
    for a in r.morphism.alphabet:
        named = r.morphism.letter(a).map(names.__getitem__)
        entry = _fmt_effect(named, [names[x] for x in m.elements], monad)
        lines.append(f"hom {a} -> {entry}".rstrip())
    lines.append(
        "pred "
        + " ".join(
            f"{names[x]}:{_fmt_output_value(r.predicate[x], monad)}"
            for x in m.elements
        )
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bialgebra files


def _parse_bialgebra(sections) -> BialgRecognizer:
    _known(
        sections,
        ("monad", "alphabet", "states", "gens", "image", "hom", "init", "output"),
    )
    monad, algebra = _line(sections, "monad", _parse_monad_line)
    alphabet = _line(sections, "alphabet", _distinct, "letter")
    states = _line(sections, "states", _distinct, "state")
    gens = _line(sections, "gens", _distinct, "generator")
    values = _Values(monad, states, "state")

    def channels(head, names, what):
        keys = ((names, what), (states, "state"))
        rows = _rows(sections, head, keys, f"{head} lines", values)
        return {
            x: Channel(monad, states, states, {q: rows[(x, q)] for q in states})
            for x in names
        }

    return BialgRecognizer(
        monad=monad,
        states=states,
        alphabet=alphabet,
        generators=gens,
        images=channels("image", gens, "generator"),
        letters=channels("hom", alphabet, "letter"),
        init=_line(sections, "init", values.effect),
        output=_line(sections, "output", values.output_map),
        output_algebra=algebra,
    )


def print_bialgebra(r: BialgRecognizer) -> str:
    gen_names = {g: g if isinstance(g, str) else _graph_name(g) for g in r.generators}
    lines = [
        _fmt_monad_line(r.monad, r.output_algebra),
        "alphabet " + " ".join(r.alphabet),
        "states " + " ".join(str(q) for q in r.states),
        "gens " + " ".join(gen_names[g] for g in r.generators),
    ]
    for g in r.generators:
        for q in r.states:
            entry = _fmt_effect(r.images[g](q), r.states, r.monad)
            lines.append(f"image {gen_names[g]} {q} -> {entry}".rstrip())
    for a in r.alphabet:
        for q in r.states:
            entry = _fmt_effect(r.letters[a](q), r.states, r.monad)
            lines.append(f"hom {a} {q} -> {entry}".rstrip())
    lines.append(("init " + _fmt_effect(r.init, r.states, r.monad)).rstrip())
    lines.append(
        "output "
        + " ".join(f"{q}:{_fmt_output_value(r.output[q], r.monad)}" for q in r.states)
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Words, combinations, positions


def parse_word(text: str) -> tuple:
    if text == "eps":
        return ()
    return tuple(text.split("."))


def format_word(w) -> str:
    return ".".join(w) if w else "eps"


def _parse_terms(text: str):
    for part in text.split("+"):
        part = part.strip()
        if "*" not in part:
            raise ParseError(f"expected WEIGHT*TERM, got {part!r}")
        coef, _, term = part.partition("*")
        yield parse_rational(coef.strip()), term.strip()


def parse_combo(text: str) -> FormalCombo:
    """Parse ``1/3*eps + 2/3*a.a`` into a formal combination."""
    terms = {}
    for coef, term in _parse_terms(text):
        w = parse_word(term)
        terms[w] = terms.get(w, _F0) + coef
    try:
        return FormalCombo(terms)
    except EffectfaError as e:
        raise ParseError(str(e)) from None


def parse_position(text: str) -> convexgame.Position:
    """Parse ``1/3*0 + 2/3*2`` (weights on letter exponents)."""
    coeffs = {}
    for coef, term in _parse_terms(text):
        if not _NATURAL_RE.fullmatch(term):
            raise ParseError(f"exponent {term!r} is not a natural number")
        n = int(term)
        coeffs[n] = coeffs.get(n, _F0) + coef
    try:
        return convexgame.Position(coeffs)
    except EffectfaError as e:
        raise ParseError(str(e)) from None


def format_position(p: convexgame.Position) -> str:
    return " + ".join(f"{w}*{n}" for n, w in p.items())


def _decimal(x: Fraction, digits: int) -> str:
    d = x.denominator
    scaled, rem = divmod(abs(x.numerator) * 10**digits, d)
    if 2 * rem >= d:
        scaled += 1
    # A value that rounds to zero prints unsigned.
    sign = "-" if x < 0 and scaled else ""
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def format_value(v, a: EffAutomaton, decimal: int | None = None) -> str:
    def scalar(x):
        return _decimal(x, decimal) if decimal is not None else str(x)
    if a.monad.kind == "weighted":
        if a.monad.semiring.name == "rational" and decimal is not None:
            return scalar(v)
        return a.monad.semiring.fmt(v)
    if a.monad.kind == "convex" and a.output_algebra.kind == "interval-pair":
        return f"[{scalar(v[0])}, {scalar(v[1])}]"
    return scalar(v)


# ---------------------------------------------------------------------------
# Commands


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_eval(args):
    a = parse_automaton(_read(args.file))
    out = []
    for text in args.words:
        value = eval_word(a, parse_word(text))
        out.append(format_value(value, a, args.decimal))
    return 0, "\n".join(out)


def _cmd_to_monoid(args):
    a = parse_automaton(_read(args.file))
    return 0, print_recognizer(automaton_to_recognizer(a)).rstrip("\n")


def _cmd_from_monoid(args):
    r = parse_recognizer(_read(args.file))
    if not isinstance(r, EffRecognizer):
        raise ParseError("expected a monoid recognizer file, found a bialgebra file")
    return 0, print_automaton(recognizer_to_automaton(r)).rstrip("\n")


def _cmd_to_bialgebra(args):
    a = parse_automaton(_read(args.file))
    return 0, print_bialgebra(automaton_to_bialgebra(a)).rstrip("\n")


def _cmd_from_bialgebra(args):
    r = parse_recognizer(_read(args.file))
    if not isinstance(r, BialgRecognizer):
        raise ParseError("expected a bialgebra file, found a monoid recognizer file")
    return 0, print_automaton(bialgebra_to_automaton(r)).rstrip("\n")


def _cmd_verify(args):
    a = parse_automaton(_read(args.file))
    r = parse_recognizer(_read(args.recognizer))
    violations = verify_recognition(a, r, args.max_len)
    if not violations:
        return 0, f"ok: agreement on all words up to length {args.max_len}"
    lines = [
        f"violation at {format_word(w)}: automaton {format_value(mine, a)} "
        f"recognizer {format_value(theirs, r._machine)}"
        for w, mine, theirs in violations
    ]
    return 1, "\n".join(lines)


def _comparable(a: EffAutomaton, b: EffAutomaton) -> bool:
    # The same letters in another order are the same alphabet: words are
    # walked in the first machine's order.
    if set(a.alphabet) != set(b.alphabet):
        return False
    if a.monad == b.monad and a.output_algebra == b.output_algebra:
        return True
    # A dist automaton and a rational-weighted one produce comparable numbers
    # (minimisation output versus its source, for instance).
    return _is_linear(a.monad) and _is_linear(b.monad)


def _cmd_equiv(args):
    a = parse_automaton(_read(args.file1))
    b = parse_automaton(_read(args.file2))
    if not _comparable(a, b):
        raise ParseError("the automata have incompatible alphabets or value types")
    for w, va, vb in disagreements(a, b, args.max_len):
        return (
            1,
            f"difference at {format_word(w)}: "
            f"{format_value(va, a)} vs {format_value(vb, b)}",
        )
    return 0, f"equivalent on all words up to length {args.max_len}"


def _cmd_minimize(args):
    a = parse_automaton(_read(args.file))
    rep = minimize(to_linear(a))
    text = f"# dimension {rep.dim}\n" + print_automaton(from_linear(rep))
    return 0, text.rstrip("\n")


def _cmd_syncong(args):
    a = parse_automaton(_read(args.file))
    rep = minimize(to_linear(a))
    c1 = parse_combo(args.combo1)
    c2 = parse_combo(args.combo2)
    equal = syn_congruent(rep, c1, c2)
    return (0 if equal else 1), ("true" if equal else "false")


def _cmd_commutative(args):
    a = parse_automaton(_read(args.file))
    rep = minimize(to_linear(a))
    answer = is_commutative(rep)
    return (0 if answer else 1), ("true" if answer else "false")


def _cmd_game(args):
    p = parse_position(args.position)
    final, trace = convexgame.solve(p)
    lines = [f"{m.direction} {m.index} {m.lam}" for m in trace]
    lines.append("final: " + format_position(final))
    return 0, "\n".join(lines)


def _natural(text: str) -> int:
    """The argument type of ``--max-len`` and ``--decimal``: a natural
    literal in ASCII digits, as in the files; anything else is a usage
    error (exit status 2)."""
    if not _NATURAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectfa",
        description="Exact effectful finite automata: evaluation, algebraic "
        "recognizers, minimisation, syntactic congruence, and the convex "
        "rewriting game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate words on an automaton")
    p.add_argument("file")
    p.add_argument("words", nargs="+", metavar="WORD")
    p.add_argument("--decimal", type=_natural, default=None, metavar="K")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("to-monoid", help="print the finite-monoid recognizer")
    p.add_argument("file")
    p.set_defaults(func=_cmd_to_monoid)

    p = sub.add_parser("from-monoid", help="rebuild an automaton from a recognizer")
    p.add_argument("file")
    p.set_defaults(func=_cmd_from_monoid)

    p = sub.add_parser("to-bialgebra", help="print the generator-carried recognizer")
    p.add_argument("file")
    p.set_defaults(func=_cmd_to_bialgebra)

    p = sub.add_parser("from-bialgebra", help="rebuild an automaton from a bialgebra")
    p.add_argument("file")
    p.set_defaults(func=_cmd_from_bialgebra)

    p = sub.add_parser("verify", help="compare an automaton with a recognizer")
    p.add_argument("file")
    p.add_argument("recognizer")
    p.add_argument("--max-len", type=_natural, default=6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("equiv", help="compare two automata word by word")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-len", type=_natural, default=6)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("minimize", help="print the minimal linear representation")
    p.add_argument("file")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("syncong", help="decide syntactic congruence of two combinations")
    p.add_argument("file")
    p.add_argument("combo1")
    p.add_argument("combo2")
    p.set_defaults(func=_cmd_syncong)

    p = sub.add_parser("commutative", help="decide commutativity of the language")
    p.add_argument("file")
    p.set_defaults(func=_cmd_commutative)

    p = sub.add_parser("game", help="solve a rewriting-game position")
    p.add_argument("position")
    p.set_defaults(func=_cmd_game)

    return parser


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit status, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (0 if e.code in (0, None) else 2), ""
    try:
        return args.func(args)
    except EffectfaError as e:
        return 2, f"error: {e}"
    except OSError as e:
        return 2, f"error: {e}"


def main() -> None:
    # Exact values are printed in full, however many digits they have.  The
    # limit on int-to-text conversion is process-wide, so only the command
    # line lifts it; Pythons older than the limit have none.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    status, report = run_command(sys.argv[1:])
    if report:
        try:
            print(report, flush=True)
        except BrokenPipeError:
            # The reader stopped early; the answer is the status all the
            # same.  Whatever is still buffered goes to the null device, so
            # the flush at exit does not fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
