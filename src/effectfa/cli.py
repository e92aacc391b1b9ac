"""Text formats and the command-line front end.

Automaton files are line oriented with ``#`` comments::

    monad dist                        # or: weighted <semiring> / convex [max|min]
    alphabet a b
    states q0 q1
    init q0:1/2 q1:1/2                # convex: generators separated by |
    trans q0 a -> q0:1/2 q1:1/2       # one line per state-letter pair
    output q0:0 q1:1                  # convex entries may be lo|hi

Recognizer files share the framing with ``monoid``/``unit``/``mul``/``hom``/
``pred`` sections (table entries written ``x*y=z``); bialgebra files use
``gens``/``image``/``hom``/``init``/``output``.  Words are dot-separated
letters with ``eps`` for the empty word; formal combinations are written
``1/3*eps + 2/3*a.a`` and game positions ``1/3*0 + 2/3*2``.

Every number is printed as exact rational text; ``--decimal K`` switches a
report to K-digit decimal rendering for human reading.  Exit status 0 means
success or a true answer, 1 a false answer or found violation, 2 an error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import convexgame
from .automata import (
    _ALGEBRA_FOR_MODE,
    EffAutomaton,
    INTERVAL_PAIR,
    SEMIRING_SELF,
    UNIT_INTERVAL,
    convex_output,
    eval_word,
    outputs_equal,
    words_upto,
)
from .effects import CONVEX, Channel, ConvexSet, DIST, Dist, WeightedVec, weighted
from .errors import EffectfaError, ParseError
from .exactnum import parse_rational
from .monoids import EffMorphism, FinMonoid, _graph_name
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
# Low-level line machinery


def _lines(text: str) -> list:
    """Tokenised non-comment lines with their 1-based numbers."""
    rows = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((no, body.split()))
    return rows


def _fail(no, message):
    raise ParseError(message, line=no)


def _split_groups(tokens):
    """Split a token list on '|' tokens (convex generator separator)."""
    groups = [[]]
    for t in tokens:
        if t == "|":
            groups.append([])
        else:
            groups[-1].append(t)
    return groups


def _parse_entry(no, token):
    if ":" not in token:
        _fail(no, f"expected NAME:WEIGHT, got {token!r}")
    name, _, weight = token.rpartition(":")
    if not name:
        _fail(no, f"missing name in {token!r}")
    return name, weight


def _parse_dist(no, tokens, states):
    weights = {}
    for t in tokens:
        name, wtext = _parse_entry(no, t)
        if name not in states:
            _fail(no, f"undeclared state {name!r}")
        try:
            w = parse_rational(wtext)
        except ParseError as e:
            _fail(no, str(e))
        if w < 0:
            _fail(no, f"negative weight {w}")
        weights[name] = weights.get(name, _F0) + w
    try:
        return Dist(weights)
    except ValueError as e:
        _fail(no, str(e))


def _parse_weighted(no, tokens, states, semiring):
    weights = {}
    for t in tokens:
        name, wtext = _parse_entry(no, t)
        if name not in states:
            _fail(no, f"undeclared state {name!r}")
        try:
            w = semiring.parse(wtext)
        except ParseError as e:
            _fail(no, str(e))
        weights[name] = semiring.add(weights[name], w) if name in weights else w
    return WeightedVec(semiring, weights)


def _parse_effect(no, tokens, states, monad):
    if monad.kind == "dist":
        return _parse_dist(no, tokens, states)
    if monad.kind == "weighted":
        return _parse_weighted(no, tokens, states, monad.semiring)
    groups = _split_groups(tokens)
    if any(not g for g in groups):
        _fail(no, "empty generator in convex value")
    return ConvexSet([_parse_dist(no, g, states) for g in groups])


def _parse_monad_line(no, tokens):
    if not tokens:
        _fail(no, "empty monad line")
    kind = tokens[0]
    if kind == "dist":
        if len(tokens) > 1:
            _fail(no, "monad dist takes no arguments")
        return DIST, UNIT_INTERVAL
    if kind == "weighted":
        if len(tokens) != 2:
            _fail(no, "monad weighted needs a semiring name")
        try:
            return weighted(tokens[1]), SEMIRING_SELF
        except EffectfaError as e:
            _fail(no, str(e))
    if kind == "convex":
        if len(tokens) == 1:
            return CONVEX, INTERVAL_PAIR
        if len(tokens) == 2 and tokens[1] in _ALGEBRA_FOR_MODE:
            return CONVEX, _ALGEBRA_FOR_MODE[tokens[1]]
        _fail(no, "monad convex takes one of: max, min, interval")
    _fail(no, f"unknown monad {kind!r}")


def _parse_output_value(no, text, monad):
    if monad.kind == "weighted":
        try:
            return monad.semiring.parse(text)
        except ParseError as e:
            _fail(no, str(e))
    if monad.kind == "dist":
        try:
            v = parse_rational(text)
        except ParseError as e:
            _fail(no, str(e))
        if not 0 <= v <= 1:
            _fail(no, f"output {v} outside [0, 1]")
        return v
    parts = text.split("|")
    if len(parts) > 2:
        _fail(no, f"convex output takes at most low|high, got {text!r}")
    try:
        values = [parse_rational(p) for p in parts]
    except ParseError as e:
        _fail(no, str(e))
    try:
        return convex_output(values[0] if len(values) == 1 else (values[0], values[1]))
    except EffectfaError as e:
        _fail(no, str(e))


# ---------------------------------------------------------------------------
# Automaton files


def parse_automaton(text: str) -> EffAutomaton:
    """Parse the automaton file format; raises ParseError with line numbers."""
    monad = algebra = None
    alphabet = states = None
    init = None
    trans = {}
    output = None
    for no, tokens in _lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "monad":
            if monad is not None:
                _fail(no, "duplicate monad line")
            monad, algebra = _parse_monad_line(no, rest)
        elif head == "alphabet":
            if alphabet is not None:
                _fail(no, "duplicate alphabet line")
            if len(set(rest)) != len(rest):
                _fail(no, "repeated letter")
            alphabet = tuple(rest)
        elif head == "states":
            if states is not None:
                _fail(no, "duplicate states line")
            if len(set(rest)) != len(rest):
                _fail(no, "repeated state")
            states = tuple(rest)
        elif head == "init":
            if monad is None or states is None:
                _fail(no, "init must follow the monad and states lines")
            if init is not None:
                _fail(no, "duplicate init line")
            init = _parse_effect(no, rest, states, monad)
        elif head == "trans":
            if monad is None or states is None or alphabet is None:
                _fail(no, "trans must follow monad, alphabet and states lines")
            if len(rest) < 3 or rest[2] != "->":
                _fail(no, "expected: trans STATE LETTER -> entries")
            q, a = rest[0], rest[1]
            if q not in states:
                _fail(no, f"undeclared state {q!r}")
            if a not in alphabet:
                _fail(no, f"undeclared letter {a!r}")
            if (q, a) in trans:
                _fail(no, f"duplicate transition for ({q}, {a})")
            trans[(q, a)] = _parse_effect(no, rest[3:], states, monad)
        elif head == "output":
            if monad is None or states is None:
                _fail(no, "output must follow the monad and states lines")
            if output is not None:
                _fail(no, "duplicate output line")
            output = {}
            for t in rest:
                name, vtext = _parse_entry(no, t)
                if name not in states:
                    _fail(no, f"undeclared state {name!r}")
                output[name] = _parse_output_value(no, vtext, monad)
        else:
            _fail(no, f"unknown section {head!r}")
    for label, value in (
        ("monad", monad),
        ("alphabet", alphabet),
        ("states", states),
        ("init", init),
        ("output", output),
    ):
        if value is None:
            raise ParseError(f"missing {label} line")
    missing = [(q, a) for q in states for a in alphabet if (q, a) not in trans]
    if missing:
        raise ParseError(f"missing transitions: {missing}")
    if set(output) != set(states):
        raise ParseError("output line must cover every state")
    return EffAutomaton(
        monad=monad,
        states=states,
        alphabet=alphabet,
        init=init,
        trans=trans,
        output=output,
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
    """Parse a monoid-recognizer or bialgebra file (detected by sections)."""
    tokens_by_head = {}
    for _, tokens in _lines(text):
        tokens_by_head.setdefault(tokens[0], []).append(tokens)
    if "gens" in tokens_by_head:
        return _parse_bialgebra(text)
    return _parse_monoid_recognizer(text)


def _parse_monoid_recognizer(text: str) -> EffRecognizer:
    monad = algebra = None
    alphabet = None
    elements = None
    unit_name = None
    table = {}
    hom = {}
    pred = None
    for no, tokens in _lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "monad":
            monad, algebra = _parse_monad_line(no, rest)
        elif head == "alphabet":
            alphabet = tuple(rest)
        elif head == "monoid":
            if len(set(rest)) != len(rest):
                _fail(no, "repeated monoid element")
            elements = tuple(rest)
        elif head == "unit":
            if len(rest) != 1:
                _fail(no, "unit takes exactly one element")
            unit_name = rest[0]
        elif head == "mul":
            for t in rest:
                if "=" not in t or "*" not in t.split("=", 1)[0]:
                    _fail(no, f"expected X*Y=Z, got {t!r}")
                lhs, z = t.split("=", 1)
                x, y = lhs.split("*", 1)
                if elements is None or not {x, y, z} <= set(elements):
                    _fail(no, f"undeclared element in {t!r}")
                table[(x, y)] = z
        elif head == "hom":
            if len(rest) < 2 or rest[1] != "->":
                _fail(no, "expected: hom LETTER -> entries")
            if monad is None or elements is None:
                _fail(no, "hom must follow the monad and monoid lines")
            hom[rest[0]] = _parse_effect(no, rest[2:], elements, monad)
        elif head == "pred":
            if monad is None or elements is None:
                _fail(no, "pred must follow the monad and monoid lines")
            pred = {}
            for t in rest:
                name, vtext = _parse_entry(no, t)
                if name not in elements:
                    _fail(no, f"undeclared element {name!r}")
                pred[name] = _parse_output_value(no, vtext, monad)
        else:
            _fail(no, f"unknown section {head!r}")
    for label, value in (
        ("monad", monad),
        ("alphabet", alphabet),
        ("monoid", elements),
        ("unit", unit_name),
        ("pred", pred),
    ):
        if value is None:
            raise ParseError(f"missing {label} line")
    if unit_name not in elements:
        raise ParseError(f"unit {unit_name!r} is not a declared element")
    if set(pred) != set(elements):
        raise ParseError("pred must cover every element")
    missing_hom = [a for a in alphabet if a not in hom]
    if missing_hom:
        raise ParseError(f"missing hom lines for {missing_hom}")
    try:
        target = FinMonoid.from_table(elements, table, unit_name)
    except EffectfaError as e:
        raise ParseError(str(e)) from None
    morphism = EffMorphism(target=target, monad=monad, alphabet=alphabet, letters=hom)
    if monad.kind == "convex":
        pred = {m: v if isinstance(v, tuple) else (v, v) for m, v in pred.items()}
    return EffRecognizer(morphism=morphism, predicate=pred, output_algebra=algebra)


def print_recognizer(r: EffRecognizer) -> str:
    m = r.morphism.target
    monad = r.morphism.monad
    names = {x: m.name(x) for x in m.elements}
    lines = [
        _fmt_monad_line(monad, r.output_algebra),
        "alphabet " + " ".join(r.morphism.alphabet),
        "monoid " + " ".join(names[x] for x in m.elements),
        "unit " + names[m.unit],
    ]
    for x in m.elements:
        row = " ".join(
            f"{names[x]}*{names[y]}={names[m.mul(x, y)]}" for y in m.elements
        )
        lines.append("mul " + row)
    for a in r.morphism.alphabet:
        value = r.morphism.letter(a)
        named = _rename_effect(value, names, monad)
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


def _rename_effect(t, names, monad):
    if monad.kind == "convex":
        return ConvexSet([g.map(lambda x: names[x]) for g in t.generators])
    return t.map(lambda x: names[x])


# ---------------------------------------------------------------------------
# Bialgebra files


def _parse_bialgebra(text: str) -> BialgRecognizer:
    monad = algebra = None
    alphabet = states = gens = None
    image_rows = {}
    hom_rows = {}
    init = None
    output = None
    for no, tokens in _lines(text):
        head, rest = tokens[0], tokens[1:]
        if head == "monad":
            monad, algebra = _parse_monad_line(no, rest)
        elif head == "alphabet":
            alphabet = tuple(rest)
        elif head == "states":
            states = tuple(rest)
        elif head == "gens":
            if len(set(rest)) != len(rest):
                _fail(no, "repeated generator")
            gens = tuple(rest)
        elif head == "image":
            if len(rest) < 3 or rest[2] != "->":
                _fail(no, "expected: image GEN STATE -> entries")
            g, q = rest[0], rest[1]
            if gens is None or g not in gens:
                _fail(no, f"undeclared generator {g!r}")
            if states is None or q not in states:
                _fail(no, f"undeclared state {q!r}")
            image_rows[(g, q)] = _parse_effect(no, rest[3:], states, monad)
        elif head == "hom":
            if len(rest) < 3 or rest[2] != "->":
                _fail(no, "expected: hom LETTER STATE -> entries")
            a, q = rest[0], rest[1]
            if alphabet is None or a not in alphabet:
                _fail(no, f"undeclared letter {a!r}")
            if states is None or q not in states:
                _fail(no, f"undeclared state {q!r}")
            hom_rows[(a, q)] = _parse_effect(no, rest[3:], states, monad)
        elif head == "init":
            init = _parse_effect(no, rest, states, monad)
        elif head == "output":
            output = {}
            for t in rest:
                name, vtext = _parse_entry(no, t)
                if name not in states:
                    _fail(no, f"undeclared state {name!r}")
                output[name] = _parse_output_value(no, vtext, monad)
        else:
            _fail(no, f"unknown section {head!r}")
    for label, value in (
        ("monad", monad),
        ("alphabet", alphabet),
        ("states", states),
        ("gens", gens),
        ("init", init),
        ("output", output),
    ):
        if value is None:
            raise ParseError(f"missing {label} line")
    images = {}
    for g in gens:
        table = {}
        for q in states:
            if (g, q) not in image_rows:
                raise ParseError(f"missing image line for ({g}, {q})")
            table[q] = image_rows[(g, q)]
        images[g] = Channel(monad, states, states, table)
    letters = {}
    for a in alphabet:
        table = {}
        for q in states:
            if (a, q) not in hom_rows:
                raise ParseError(f"missing hom line for ({a}, {q})")
            table[q] = hom_rows[(a, q)]
        letters[a] = Channel(monad, states, states, table)
    return BialgRecognizer(
        monad=monad,
        states=states,
        alphabet=alphabet,
        generators=gens,
        images=images,
        letters=letters,
        init=init,
        output=output,
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
        try:
            n = int(term)
        except ValueError:
            raise ParseError(f"exponent {term!r} is not a natural number") from None
        coeffs[n] = coeffs.get(n, _F0) + coef
    try:
        return convexgame.Position(coeffs)
    except EffectfaError as e:
        raise ParseError(str(e)) from None


def format_position(p: convexgame.Position) -> str:
    return " + ".join(f"{w}*{n}" for n, w in p.items())


def _decimal(x: Fraction, digits: int) -> str:
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    scaled, rem = divmod(n * 10**digits, d)
    if 2 * rem >= d:
        scaled += 1
    whole, frac = divmod(scaled, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


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
        f"violation at {format_word(w)}: automaton {mine} recognizer {theirs}"
        for w, mine, theirs in violations
    ]
    return 1, "\n".join(lines)


def _comparable(a: EffAutomaton, b: EffAutomaton) -> bool:
    if a.alphabet != b.alphabet:
        return False
    if a.monad == b.monad and a.output_algebra == b.output_algebra:
        return True
    # A dist automaton and a rational-weighted one produce comparable numbers
    # (minimisation output versus its source, for instance).
    def plain_rational(x):
        return x.monad.kind == "dist" or (
            x.monad.kind == "weighted" and x.monad.semiring.name == "rational"
        )
    return plain_rational(a) and plain_rational(b)


def _cmd_equiv(args):
    a = parse_automaton(_read(args.file1))
    b = parse_automaton(_read(args.file2))
    if not _comparable(a, b):
        raise ParseError("the automata have incompatible alphabets or value types")
    for w in words_upto(a.alphabet, args.max_len):
        va, vb = eval_word(a, w), eval_word(b, w)
        if not outputs_equal(a, va, vb):
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
    p.add_argument("--decimal", type=int, default=None, metavar="K")
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
    p.add_argument("--max-len", type=int, default=6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("equiv", help="compare two automata word by word")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-len", type=int, default=6)
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
    status, report = run_command(sys.argv[1:])
    if report:
        print(report)
    sys.exit(status)


if __name__ == "__main__":
    main()
