"""Every error branch of the three file readers, pinned to its exact text.

Each case is one malformed file and the full ``str`` of the ParseError it
raises, line number included.  The readers parse each literal and each
generator once per file, so a few cases repeat a bad token on a later line:
the error must still name the first line read.
"""

import pytest

from effectfa.cli import parse_automaton, parse_recognizer
from effectfa.errors import ParseError

AUT = """\
monad dist
alphabet a
states p q
init p:1
trans p a -> p:1/2 q:1/2
trans q a -> q:1
output p:0 q:1
"""

CONVEX = """\
monad convex
alphabet a
states p q
init p:1
trans p a -> p:1 | p:1/2 q:1/2
trans q a -> q:1
output p:0 q:1/2|1
"""

MINPLUS = """\
monad weighted minplus
alphabet a
states p q
init p:0
trans p a -> p:1 q:inf
trans q a -> q:0
output p:0 q:1
"""

TABLE = """\
monad dist
alphabet a
monoid e z
unit e
mul e*e=e e*z=z
mul z*e=z z*z=z
hom a -> e:1/2 z:1/2
pred e:0 z:1
"""

GRAPH = """\
monad dist
alphabet a
states p q
monoid [p,q] [q,q]
unit [p,q]
hom a -> [p,q]:1/2 [q,q]:1/2
pred [p,q]:0 [q,q]:1
"""

BIALG = """\
monad dist
alphabet a
states p q
gens g h
image g p -> p:1
image g q -> q:1
image h p -> q:1
image h q -> q:1
hom a p -> p:1/2 q:1/2
hom a q -> q:1
init p:1
output p:0 q:1
"""


def _edit(text, *edits):
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


AUTOMATON_CASES = [
    ("unknown-section", AUT + "final q\n", "line 8: unknown section 'final'"),
    ("missing-monad", _edit(AUT, ("monad dist\n", "")), "missing monad line"),
    ("duplicate-monad", AUT + "monad dist\n", "line 8: duplicate monad line"),
    ("empty-monad", _edit(AUT, ("monad dist", "monad")), "line 1: empty monad line"),
    (
        "dist-arguments",
        _edit(AUT, ("monad dist", "monad dist max")),
        "line 1: monad dist takes no arguments",
    ),
    (
        "weighted-no-semiring",
        _edit(AUT, ("monad dist", "monad weighted")),
        "line 1: monad weighted needs a semiring name",
    ),
    (
        "unknown-semiring",
        _edit(AUT, ("monad dist", "monad weighted reals")),
        "line 1: unknown semiring 'reals'; expected one of "
        "['boolean', 'maxplus', 'minplus', 'rational']",
    ),
    (
        "convex-mode",
        _edit(AUT, ("monad dist", "monad convex most")),
        "line 1: monad convex takes one of: max, min, interval",
    ),
    ("unknown-monad", _edit(AUT, ("monad dist", "monad fuzzy")), "line 1: unknown monad 'fuzzy'"),
    ("missing-alphabet", _edit(AUT, ("alphabet a\n", "")), "missing alphabet line"),
    ("repeated-letter", _edit(AUT, ("alphabet a", "alphabet a a")), "line 2: repeated letter"),
    ("repeated-state", _edit(AUT, ("states p q", "states p q p")), "line 3: repeated state"),
    ("missing-init", _edit(AUT, ("init p:1\n", "")), "missing init line"),
    ("duplicate-init", AUT + "init q:1\n", "line 8: duplicate init line"),
    ("no-colon", _edit(AUT, ("init p:1", "init p")), "line 4: expected NAME:VALUE, got 'p'"),
    ("empty-name", _edit(AUT, ("init p:1", "init :1")), "line 4: missing name in ':1'"),
    ("undeclared-state", _edit(AUT, ("init p:1", "init r:1")), "line 4: undeclared state 'r'"),
    (
        "bad-literal",
        _edit(AUT, ("init p:1", "init p:one")),
        "line 4: not a rational literal: 'one'",
    ),
    ("decimal-literal", _edit(AUT, ("q:1\n", "q:1.0\n")), "line 6: not a rational literal: '1.0'"),
    ("zero-denominator", _edit(AUT, ("q:1/2", "q:1/0")), "line 5: zero denominator in '1/0'"),
    ("negative-weight", _edit(AUT, ("q:1/2", "q:-1/2")), "line 5: negative weight -1/2"),
    # The name checks of a token come before its literal is read.
    (
        "negative-before-undeclared",
        _edit(AUT, ("p:1/2 q:1/2", "p:-1/2 r:1/2")),
        "line 5: negative weight -1/2",
    ),
    (
        "undeclared-before-literal",
        _edit(AUT, ("p:1/2 q:1/2", "r:x q:1/2")),
        "line 5: undeclared state 'r'",
    ),
    ("mass-low", _edit(AUT, ("q:1/2", "q:1/4")), "line 5: probability mass 3/4 is not 1"),
    (
        "mass-high",
        _edit(AUT, ("q a -> q:1", "q a -> q:1 p:1")),
        "line 6: probability mass 2 is not 1",
    ),
    ("empty-entries", _edit(AUT, ("q a -> q:1", "q a ->")), "line 6: probability mass 0 is not 1"),
    (
        "row-shape",
        _edit(AUT, ("trans q a -> q:1", "trans q a q:1")),
        "line 6: expected: trans STATE LETTER -> entries",
    ),
    (
        "row-undeclared-state",
        _edit(AUT, ("trans q a", "trans r a")),
        "line 6: undeclared state 'r'",
    ),
    (
        "row-undeclared-letter",
        _edit(AUT, ("trans q a", "trans q b")),
        "line 6: undeclared letter 'b'",
    ),
    ("duplicate-row", AUT + "trans p a -> p:1\n", "line 8: duplicate trans line for p a"),
    ("missing-row", _edit(AUT, ("trans q a -> q:1\n", "")), "missing transitions: q a"),
    (
        "missing-rows-in-order",
        _edit(AUT, ("trans p a -> p:1/2 q:1/2\ntrans q a -> q:1\n", "")),
        "missing transitions: p a, q a",
    ),
    ("missing-output", _edit(AUT, ("output p:0 q:1\n", "")), "missing output line"),
    (
        "output-missing-state",
        _edit(AUT, ("output p:0 q:1", "output p:0")),
        "line 7: no output value for state 'q'",
    ),
    (
        "output-undeclared",
        _edit(AUT, ("output p:0", "output r:0")),
        "line 7: undeclared state 'r'",
    ),
    (
        "output-above-one",
        _edit(AUT, ("output p:0", "output p:2")),
        "line 7: output 2 outside [0, 1]",
    ),
    (
        "output-negative",
        _edit(AUT, ("output p:0", "output p:-1/3")),
        "line 7: output -1/3 outside [0, 1]",
    ),
    (
        "output-literal",
        _edit(AUT, ("output p:0", "output p:1/0")),
        "line 7: zero denominator in '1/0'",
    ),
    # The same bad token on two lines: the first line read is named.
    (
        "repeated-bad-literal",
        _edit(AUT, ("q:1/2", "q:1/0"), ("q a -> q:1", "q a -> q:1/0")),
        "line 5: zero denominator in '1/0'",
    ),
    (
        "repeated-bad-generator",
        _edit(AUT, ("init p:1", "init p:1/3"), ("q a -> q:1", "q a -> p:1/3")),
        "line 4: probability mass 1/3 is not 1",
    ),
    (
        "repeated-bad-generator-rows",
        _edit(AUT, ("p:1/2 q:1/2", "p:1/3"), ("q a -> q:1", "q a -> p:1/3")),
        "line 5: probability mass 1/3 is not 1",
    ),
    # The init line is read before the trans lines, wherever it stands.
    (
        "init-read-before-rows",
        _edit(AUT, ("init p:1\n", ""), ("q:1/2", "q:1/0")) + "init p:1/0\n",
        "line 7: zero denominator in '1/0'",
    ),
    (
        "empty-generator",
        _edit(CONVEX, ("p:1 | p:1/2", "p:1 | | p:1/2")),
        "line 5: empty generator in convex value",
    ),
    (
        "empty-last-generator",
        _edit(CONVEX, ("q a -> q:1", "q a -> q:1 |")),
        "line 6: empty generator in convex value",
    ),
    (
        "convex-later-generator-mass",
        _edit(CONVEX, ("p:1/2 q:1/2", "p:1/2 q:1/4")),
        "line 5: probability mass 3/4 is not 1",
    ),
    (
        "convex-later-generator-undeclared",
        _edit(CONVEX, ("p:1/2 q:1/2", "p:1/2 r:1/2")),
        "line 5: undeclared state 'r'",
    ),
    (
        "convex-output-three-parts",
        _edit(CONVEX, ("q:1/2|1", "q:0|1/2|1")),
        "line 7: convex output takes at most low|high, got '0|1/2|1'",
    ),
    (
        "convex-output-reversed",
        _edit(CONVEX, ("q:1/2|1", "q:1|1/2")),
        "line 7: convex output (Fraction(1, 1), Fraction(1, 2)) outside the unit interval",
    ),
    (
        "convex-output-above-one",
        _edit(CONVEX, ("q:1/2|1", "q:3/2")),
        "line 7: convex output Fraction(3, 2) outside the unit interval",
    ),
    (
        "convex-output-literal",
        _edit(CONVEX, ("q:1/2|1", "q:1/2|x")),
        "line 7: not a rational literal: 'x'",
    ),
    (
        "tropical-literal",
        _edit(MINPLUS, ("q:inf", "q:-1")),
        "line 5: tropical weight must be a natural number or 'inf', got '-1'",
    ),
    (
        "tropical-output",
        _edit(MINPLUS, ("output p:0", "output p:1/2")),
        "line 7: tropical weight must be a natural number or 'inf', got '1/2'",
    ),
    (
        "boolean-literal",
        _edit(MINPLUS, ("minplus", "boolean"), ("p:0\n", "p:2\n")),
        "line 4: boolean weight must be 0 or 1, got '2'",
    ),
    (
        "rational-literal",
        _edit(MINPLUS, ("minplus", "rational"), ("q:inf", "q:inf")),
        "line 5: not a rational literal: 'inf'",
    ),
]

TABLE_CASES = [
    ("unknown-section", TABLE + "init e:1\n", "line 9: unknown section 'init'"),
    ("missing-unit", _edit(TABLE, ("unit e\n", "")), "missing unit line"),
    ("unit-arity", _edit(TABLE, ("unit e", "unit e z")), "line 4: unit takes exactly one element"),
    (
        "unit-undeclared",
        _edit(TABLE, ("unit e", "unit u")),
        "line 4: unit 'u' is not a declared element",
    ),
    (
        "repeated-element",
        _edit(TABLE, ("monoid e z", "monoid e z e")),
        "line 3: repeated monoid element",
    ),
    ("mul-shape", _edit(TABLE, ("e*z=z", "e*z")), "line 5: expected X*Y=Z, got 'e*z'"),
    ("mul-undeclared", _edit(TABLE, ("e*z=z", "e*u=z")), "line 5: undeclared element in 'e*u=z'"),
    ("duplicate-product", TABLE + "mul e*e=e\n", "line 9: duplicate product e*e"),
    (
        "missing-product",
        _edit(TABLE, (" z*z=z", "")),
        "multiplication table not total; missing [('z', 'z')]",
    ),
    (
        "hom-shape",
        _edit(TABLE, ("hom a ->", "hom a")),
        "line 7: expected: hom LETTER -> entries",
    ),
    ("hom-undeclared-letter", _edit(TABLE, ("hom a", "hom b")), "line 7: undeclared letter 'b'"),
    (
        "hom-undeclared-element",
        _edit(TABLE, ("z:1/2\n", "u:1/2\n")),
        "line 7: undeclared element 'u'",
    ),
    ("hom-literal", _edit(TABLE, ("z:1/2\n", "z:1/0\n")), "line 7: zero denominator in '1/0'"),
    ("hom-mass", _edit(TABLE, ("z:1/2\n", "z:1/3\n")), "line 7: probability mass 5/6 is not 1"),
    ("duplicate-hom", TABLE + "hom a -> e:1\n", "line 9: duplicate hom line for a"),
    ("missing-hom", _edit(TABLE, ("hom a -> e:1/2 z:1/2\n", "")), "missing hom lines: a"),
    (
        "pred-missing-element",
        _edit(TABLE, (" z:1\n", "\n")),
        "line 8: no output value for element 'z'",
    ),
    ("pred-range", _edit(TABLE, ("pred e:0", "pred e:3/2")), "line 8: output 3/2 outside [0, 1]"),
    ("pred-undeclared", _edit(TABLE, ("pred e:0", "pred u:0")), "line 8: undeclared element 'u'"),
    ("missing-pred", _edit(TABLE, ("pred e:0 z:1\n", "")), "missing pred line"),
]

GRAPH_CASES = [
    ("unknown-section", GRAPH + "mul [p,q]*[p,q]=[p,q]\n", "line 8: unknown section 'mul'"),
    ("repeated-state", _edit(GRAPH, ("states p q", "states p q p")), "line 3: repeated state"),
    (
        "state-not-in-a-graph-name",
        _edit(GRAPH, ("states p q", "states p q,r")),
        "line 3: state 'q,r' cannot be written in a graph name",
    ),
    (
        "not-a-graph",
        _edit(
            GRAPH,
            ("monoid [p,q] [q,q]", "monoid [p,q] [q,q] [q,r]"),
            (" [q,q]:1\n", " [q,q]:1 [q,r]:0\n"),
        ),
        "line 4: element '[q,r]' is not a graph on the states",
    ),
    (
        "unit-not-identity",
        _edit(GRAPH, ("unit [p,q]", "unit [q,q]")),
        "line 5: unit '[q,q]' is not the identity graph",
    ),
    (
        "hom-literal",
        _edit(GRAPH, ("[q,q]:1/2\n", "[q,q]:x\n")),
        "line 6: not a rational literal: 'x'",
    ),
    (
        "hom-undeclared",
        _edit(GRAPH, ("[q,q]:1/2\n", "[p,p]:1/2\n")),
        "line 6: undeclared element '[p,p]'",
    ),
]

BIALG_CASES = [
    ("unknown-section", BIALG + "unit g\n", "line 13: unknown section 'unit'"),
    (
        "duplicate-gens",
        _edit(BIALG, ("gens g h\n", "")) + "gens\ngens\n",
        "line 13: duplicate gens line",
    ),
    ("repeated-generator", _edit(BIALG, ("gens g h", "gens g h g")), "line 4: repeated generator"),
    (
        "image-shape",
        _edit(BIALG, ("image h q -> q:1", "image h q q:1")),
        "line 8: expected: image GENERATOR STATE -> entries",
    ),
    (
        "image-undeclared-generator",
        _edit(BIALG, ("image h q", "image k q")),
        "line 8: undeclared generator 'k'",
    ),
    (
        "image-undeclared-state",
        _edit(BIALG, ("image h q", "image h r")),
        "line 8: undeclared state 'r'",
    ),
    ("duplicate-image", BIALG + "image g p -> q:1\n", "line 13: duplicate image line for g p"),
    ("missing-image", _edit(BIALG, ("image h q -> q:1\n", "")), "missing image lines: h q"),
    (
        "image-mass",
        _edit(BIALG, ("image h q -> q:1", "image h q -> q:1/2")),
        "line 8: probability mass 1/2 is not 1",
    ),
    ("hom-literal", _edit(BIALG, ("q:1/2\n", "q:1/0\n")), "line 9: zero denominator in '1/0'"),
    (
        "hom-negative",
        _edit(BIALG, ("p:1/2 q:1/2", "p:3/2 q:-1/2")),
        "line 9: negative weight -1/2",
    ),
    ("missing-hom", _edit(BIALG, ("hom a q -> q:1\n", "")), "missing hom lines: a q"),
    ("init-undeclared", _edit(BIALG, ("init p:1", "init g:1")), "line 11: undeclared state 'g'"),
    (
        "init-mass",
        _edit(BIALG, ("init p:1", "init p:1 q:1")),
        "line 11: probability mass 2 is not 1",
    ),
    (
        "output-missing",
        _edit(BIALG, ("output p:0 q:1", "output p:0")),
        "line 12: no output value for state 'q'",
    ),
    (
        "output-range",
        _edit(BIALG, ("output p:0", "output p:5")),
        "line 12: output 5 outside [0, 1]",
    ),
    # The image lines are read before the hom lines and the init line.
    (
        "repeated-bad-generator",
        _edit(BIALG, ("init p:1", "init q:2"), ("image g q -> q:1", "image g q -> q:2")),
        "line 6: probability mass 2 is not 1",
    ),
]


def _message(parse, text):
    with pytest.raises(ParseError) as caught:
        parse(text)
    return str(caught.value)


@pytest.mark.parametrize(
    "text, message", [c[1:] for c in AUTOMATON_CASES], ids=[c[0] for c in AUTOMATON_CASES]
)
def test_automaton_reader_errors(text, message):
    assert _message(parse_automaton, text) == message


RECOGNIZER_CASES = [
    (f"{form}-{name}", text, message)
    for form, cases in [("table", TABLE_CASES), ("graph", GRAPH_CASES), ("bialgebra", BIALG_CASES)]
    for name, text, message in cases
]


@pytest.mark.parametrize(
    "text, message", [c[1:] for c in RECOGNIZER_CASES], ids=[c[0] for c in RECOGNIZER_CASES]
)
def test_recognizer_reader_errors(text, message):
    assert _message(parse_recognizer, text) == message


@pytest.mark.parametrize(
    "parse, text",
    [(parse_automaton, t) for t in (AUT, CONVEX, MINPLUS)]
    + [(parse_recognizer, t) for t in (TABLE, GRAPH, BIALG)],
)
def test_the_unedited_files_parse(parse, text):
    assert parse(text) is not None
