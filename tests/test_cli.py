import os
import random
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_npfa, rand_pfa, rand_wfa, table_form
from effectfa import (
    DIST,
    ConvexSet,
    Dist,
    EffMorphism,
    EffRecognizer,
    UNIT_INTERVAL,
    WeightedVec,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    bialgebra_to_automaton,
    eval_word,
    is_pure,
    recognizer_to_automaton,
    unit,
    witness_xi0,
    words_upto,
)
from effectfa.cli import (
    parse_automaton,
    parse_combo,
    parse_position,
    parse_recognizer,
    parse_word,
    print_automaton,
    print_bialgebra,
    print_recognizer,
    run_command,
)
from effectfa.errors import ParseError

COIN = """\
# geometric acceptance on one letter
monad dist
alphabet a
states q0 q1
init q0:1
trans q0 a -> q0:1/2 q1:1/2
trans q1 a -> q1:1
output q0:0 q1:1
"""

NPFA = """\
monad convex
alphabet a
states q0 q1
init q0:1
trans q0 a -> q0:1 | q1:1
trans q1 a -> q1:1
output q0:0 q1:1
"""

MINPLUS = """\
monad weighted minplus
alphabet a
states q
init q:0
trans q a -> q:1
output q:0
"""

MAXPLUS = """\
monad weighted maxplus
alphabet a
states q r
init q:0
trans q a -> q:1 r:3
trans r a -> r:0
output q:0 r:0
"""

BOOLEAN = """\
monad weighted boolean
alphabet a b
states s t
init s:1
trans s a -> s:1 t:1
trans s b ->
trans t a -> t:1
trans t b -> t:1
output t:1 s:0
"""

RATIONAL = """\
monad weighted rational
alphabet a
states x y
init x:1 y:-1/2
trans x a -> x:2 y:3
trans y a -> y:1
output x:0 y:1
"""

MONOID = """\
monad weighted minplus
alphabet a
monoid e z
unit e
mul e*e=e e*z=z
mul z*e=z z*z=z
hom a -> e:1
pred e:0 z:inf
"""

# A bialgebra of COIN on all four maps of its states (``to-bialgebra`` prints
# the two maps its letter generates).
BIALGEBRA = """\
monad dist
alphabet a
states q0 q1
gens [0,0] [0,1] [1,0] [1,1]
image [0,0] q0 -> q0:1
image [0,0] q1 -> q0:1
image [0,1] q0 -> q0:1
image [0,1] q1 -> q1:1
image [1,0] q0 -> q1:1
image [1,0] q1 -> q0:1
image [1,1] q0 -> q1:1
image [1,1] q1 -> q1:1
hom a q0 -> q0:1/2 q1:1/2
hom a q1 -> q1:1
init q0:1
output q0:0 q1:1
"""

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("coin", COIN),
        ("npfa", NPFA),
        ("minplus", MINPLUS),
        ("maxplus", MAXPLUS),
        ("boolean", BOOLEAN),
        ("rational", RATIONAL),
    ]:
        p = tmp_path / f"{name}.aut"
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


@pytest.mark.parametrize("text", [COIN, NPFA, MINPLUS, MAXPLUS, BOOLEAN, RATIONAL])
def test_parse_print_fixpoint(text):
    a = parse_automaton(text)
    printed = print_automaton(a)
    again = parse_automaton(printed)
    assert again == a
    assert print_automaton(again) == printed


def _exact_fields(a):
    """A machine's fields, convex values as their generator tuples, so that
    equality is generator by generator rather than by hull."""

    def value(v):
        return v.generators if isinstance(v, ConvexSet) else v

    trans = {k: value(v) for k, v in a.trans.items()}
    return (a.monad, a.states, a.alphabet, value(a.init), trans, a.output, a.output_algebra)


@pytest.mark.parametrize("family", ["dist", "boolean", "rational", "minplus", "maxplus", "convex"])
def test_seeded_machines_round_trip(family):
    rng = random.Random(f"round trip {family}")
    shared = 0
    for k in range(40):
        n, pure = 1 + k % 4, k % 2 == 0
        if family == "dist":
            a = rand_pfa(rng, n, 2, pure_init=pure)
        elif family == "convex":
            a = rand_npfa(rng, n, 2, 3, pure_init=pure)
        else:
            a = rand_wfa(rng, family, n, 2)
        printed = print_automaton(a)
        back = parse_automaton(printed)
        assert _exact_fields(back) == _exact_fields(a)
        assert print_automaton(back) == printed
        if family == "convex":
            gens = [g for v in (back.init, *back.trans.values()) for g in v.generators]
            shared += len(gens) - len(set(map(id, gens)))
    if family == "convex":
        # Generators repeat across entries, and the reader shares them.
        assert shared > 0


def test_convex_modes_round_trip():
    for mode in ("max", "min"):
        text = NPFA.replace("monad convex", f"monad convex {mode}")
        a = parse_automaton(text)
        assert a.output_algebra.mode == mode
        assert parse_automaton(print_automaton(a)) == a


def test_eval_command(files):
    status, out = run_command(["eval", files["coin"], "a.a.a"])
    assert (status, out) == (0, "7/8")
    status, out = run_command(["eval", files["coin"], "eps", "a", "a.a"])
    assert out.splitlines() == ["0", "1/2", "3/4"]
    status, out = run_command(["eval", files["coin"], "a", "--decimal", "4"])
    assert (status, out) == (0, "0.5000")
    status, out = run_command(["eval", files["npfa"], "a"])
    assert (status, out) == (0, "[0, 1]")
    status, out = run_command(["eval", files["minplus"], "a.a.a.a"])
    assert (status, out) == (0, "4")
    # longest path: stay on the unit loop or take the cost-3 jump once
    status, out = run_command(["eval", files["maxplus"], "a.a"])
    assert (status, out) == (0, "4")
    status, out = run_command(["eval", files["boolean"], "a.b"])
    assert (status, out) == (0, "1")


def test_eval_rejects_foreign_letter(files):
    status, out = run_command(["eval", files["coin"], "z"])
    assert status == 2 and "error" in out


@pytest.mark.parametrize("sample", ["coin.aut", "choice.aut"])
def test_eval_names_the_first_foreign_letter(sample):
    status, out = run_command(["eval", str(SAMPLES / sample), "z.y"])
    assert (status, out) == (2, "error: letter 'z' is not in the alphabet")


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text(
        "monad dist\nalphabet a\nstates q0\ninit q0:1/2\ntrans q0 a -> q0:1\noutput q0:0\n"
    )
    status, out = run_command(["eval", str(bad), "a"])
    assert status == 2 and "line 4" in out

    bad.write_text(
        "monad dist\nalphabet a\nstates q0\ninit q0:1\ntrans q0 a -> qX:1\noutput q0:0\n"
    )
    status, out = run_command(["eval", str(bad), "a"])
    assert status == 2 and "undeclared state" in out

    bad.write_text(
        "monad dist\nalphabet a\nstates q0\ninit q0:1\ntrans q0 a -> q0:-1\noutput q0:0\n"
    )
    status, out = run_command(["eval", str(bad), "a"])
    assert status == 2 and "negative" in out

    bad.write_text(
        "monad dist\nalphabet a\nstates q0\ninit q0:1\noutput q0:0\n"
    )
    status, out = run_command(["eval", str(bad), "a"])
    assert status == 2 and "missing transitions" in out


def test_missing_file_is_an_error():
    status, out = run_command(["eval", "/nonexistent/x.aut", "a"])
    assert status == 2


# Counts are natural literals in ASCII digits, as in the files, although
# int() reads an underscore and an Arabic-Indic three (U+0663).
@pytest.mark.parametrize("value", ["-1", "-2", "x", "1.5", "1_0", "\u0663"])
def test_negative_or_non_integer_counts_are_usage_errors(files, tmp_path, capsys, value):
    rec = tmp_path / "coin.rec"
    rec.write_text(run_command(["to-monoid", files["coin"]])[1] + "\n")
    commands = [
        ["verify", files["coin"], str(rec), "--max-len", value],
        ["verify", files["coin"], str(rec), f"--max-len={value}"],
        ["equiv", files["coin"], files["coin"], "--max-len", value],
        ["eval", files["coin"], "a", "--decimal", value],
    ]
    for argv in commands:
        capsys.readouterr()
        assert run_command(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert f"expected a non-negative integer, got {value!r}" in err, argv


def test_zero_counts_are_accepted(files, tmp_path):
    rec = tmp_path / "coin.rec"
    rec.write_text(run_command(["to-monoid", files["coin"]])[1] + "\n")
    assert run_command(["verify", files["coin"], str(rec), "--max-len", "0"]) == (
        0,
        "ok: agreement on all words up to length 0",
    )
    assert run_command(["equiv", files["coin"], files["coin"], "--max-len", "0"]) == (
        0,
        "equivalent on all words up to length 0",
    )
    assert run_command(["eval", files["coin"], "a.a", "--decimal", "0"]) == (0, "1")


@pytest.mark.parametrize(
    "output, digits, text",
    [
        ("-1/1000", "1", "0.0"),
        ("-1/1000", "0", "0"),
        ("-1/20", "1", "-0.1"),
        ("-1/2", "0", "-1"),
        ("-3/2", "0", "-2"),
        ("2/3", "3", "0.667"),
    ],
)
def test_decimal_rounds_half_away_and_drops_the_sign_of_zero(
    tmp_path, output, digits, text
):
    path = tmp_path / "one.aut"
    path.write_text(
        "monad weighted rational\nalphabet a\nstates p\ninit p:1\n"
        f"trans p a -> p:1\noutput p:{output}\n"
    )
    assert run_command(["eval", str(path), "eps", "--decimal", digits]) == (0, text)


def test_convex_recognizer_round_trip_commands(files):
    status, rec_text = run_command(["to-monoid", files["npfa"]])
    assert status == 0
    rec_path = files["dir"] / "npfa.rec"
    rec_path.write_text(rec_text + "\n")
    status, out = run_command(["verify", files["npfa"], str(rec_path), "--max-len", "4"])
    assert status == 0, out
    status, aut_text = run_command(["from-monoid", str(rec_path)])
    assert status == 0, aut_text
    rt = files["dir"] / "npfa-rt.aut"
    rt.write_text(aut_text + "\n")
    status, out = run_command(["equiv", files["npfa"], str(rt), "--max-len", "4"])
    assert status == 0, out


def test_monoid_round_trip_commands(files):
    status, rec_text = run_command(["to-monoid", files["coin"]])
    assert status == 0
    rec_path = files["dir"] / "coin.rec"
    rec_path.write_text(rec_text + "\n")

    status, aut_text = run_command(["from-monoid", str(rec_path)])
    assert status == 0
    rt_path = files["dir"] / "coin-rt.aut"
    rt_path.write_text(aut_text + "\n")

    status, out = run_command(["equiv", files["coin"], str(rt_path), "--max-len", "8"])
    assert status == 0, out

    status, out = run_command(["verify", files["coin"], str(rec_path), "--max-len", "6"])
    assert status == 0, out


def test_recognizer_file_round_trip(files):
    _, rec_text = run_command(["to-monoid", files["boolean"]])
    rec = parse_recognizer(rec_text)
    assert parse_recognizer(print_recognizer(rec).rstrip("\n") + "\n").morphism.target.elements == rec.morphism.target.elements


def test_bialgebra_round_trip_commands(files):
    status, bi_text = run_command(["to-bialgebra", files["coin"]])
    assert status == 0
    bi_path = files["dir"] / "coin.bialg"
    bi_path.write_text(bi_text + "\n")

    status, out = run_command(["verify", files["coin"], str(bi_path), "--max-len", "6"])
    assert status == 0, out

    status, aut_text = run_command(["from-bialgebra", str(bi_path)])
    assert status == 0, aut_text
    bt_path = files["dir"] / "coin-bi.aut"
    bt_path.write_text(aut_text + "\n")
    status, out = run_command(["equiv", files["coin"], str(bt_path), "--max-len", "6"])
    assert status == 0, out


def test_from_monoid_rejects_bialgebra_file(files):
    _, bi_text = run_command(["to-bialgebra", files["coin"]])
    path = files["dir"] / "x.bialg"
    path.write_text(bi_text + "\n")
    status, out = run_command(["from-monoid", str(path)])
    assert status == 2


def test_equiv_detects_difference(files):
    other = files["dir"] / "other.aut"
    other.write_text(COIN.replace("q0:1/2 q1:1/2", "q0:1/3 q1:2/3"))
    status, out = run_command(["equiv", files["coin"], str(other), "--max-len", "4"])
    assert status == 1 and "difference at a" in out


def test_equiv_requires_matching_alphabets(files):
    status, out = run_command(["equiv", files["coin"], files["boolean"], "--max-len", "2"])
    assert status == 2


TWO_LETTER_DIST = """\
monad dist
alphabet a b
states p q
init p:1
trans p a -> p:1/2 q:1/2
trans p b -> q:1
trans q a -> q:1
trans q b -> p:1/3 q:2/3
output p:0 q:1
"""


@pytest.mark.parametrize("text", [TWO_LETTER_DIST, BOOLEAN], ids=["dist", "boolean"])
def test_equiv_accepts_the_same_alphabet_in_another_order(tmp_path, text):
    first, second = tmp_path / "ab.aut", tmp_path / "ba.aut"
    first.write_text(text)
    second.write_text(text.replace("alphabet a b", "alphabet b a"))
    status, out = run_command(["equiv", str(first), str(second), "--max-len", "6"])
    assert (status, out) == (0, "equivalent on all words up to length 6")


def test_minimize_command(files):
    status, out = run_command(["minimize", files["coin"]])
    assert status == 0
    assert out.splitlines()[0] == "# dimension 2"
    mini = files["dir"] / "coin-min.aut"
    mini.write_text(out + "\n")
    status, _ = run_command(["equiv", files["coin"], str(mini), "--max-len", "8"])
    assert status == 0


def test_syncong_command(files):
    status, out = run_command(
        ["syncong", files["coin"], "1/3*eps + 2/3*a.a", "1*a"]
    )
    assert (status, out) == (0, "true")
    status, out = run_command(["syncong", files["coin"], "1*eps", "1*a"])
    assert (status, out) == (1, "false")
    status, out = run_command(["syncong", files["coin"], "1/2*eps", "1*a"])
    assert status == 2  # weights must sum to one


def test_commutative_command(files):
    status, out = run_command(["commutative", files["coin"]])
    assert (status, out) == (0, "true")
    ab = files["dir"] / "ab.aut"
    ab.write_text(
        "monad dist\nalphabet a b\nstates n sa yes\ninit n:1\n"
        "trans n a -> sa:1\ntrans n b -> n:1\ntrans sa a -> sa:1\n"
        "trans sa b -> yes:1\ntrans yes a -> yes:1\ntrans yes b -> yes:1\n"
        "output n:0 sa:0 yes:1\n"
    )
    status, out = run_command(["commutative", str(ab)])
    assert (status, out) == (1, "false")


def test_game_command():
    status, out = run_command(["game", "1/3*0 + 2/3*2"])
    assert status == 0
    assert out.splitlines() == ["merge 0 1/3", "final: 1*1"]
    status, out = run_command(["game", "1/2*0 + 1/2*3"])
    assert status == 0
    assert out.splitlines()[-1] == "final: 1/8*0 + 7/8*1"
    status, out = run_command(["game", "1*5"])
    assert (status, out) == (0, "final: 1*5")
    status, out = run_command(["game", "1/2*0"])
    assert status == 2  # mass must be one


def test_multicharacter_letters(tmp_path):
    text = (
        "monad dist\nalphabet go stop\nstates s t\ninit s:1\n"
        "trans s go -> t:1\ntrans s stop -> s:1\n"
        "trans t go -> t:1\ntrans t stop -> t:1\n"
        "output s:0 t:1\n"
    )
    path = tmp_path / "multi.aut"
    path.write_text(text)
    a = parse_automaton(text)
    assert parse_automaton(print_automaton(a)) == a
    status, out = run_command(["eval", str(path), "stop.go.stop"])
    assert (status, out) == (0, "1")
    status, out = run_command(["eval", str(path), "stop"])
    assert (status, out) == (0, "0")


def test_word_and_combo_parsing():
    assert parse_word("eps") == ()
    assert parse_word("a.b.a") == ("a", "b", "a")
    combo = parse_combo("1/3*eps + 2/3*a.a")
    assert combo.terms == {(): __import__("fractions").Fraction(1, 3), ("a", "a"): __import__("fractions").Fraction(2, 3)}
    with pytest.raises(ParseError):
        parse_combo("eps + a")
    pos = parse_position("1/2*0 + 1/2*3")
    assert pos.weight(3) == __import__("fractions").Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_position("1*x")
    # Exponents are natural literals in ASCII digits, which int() is not.
    for term in ["1_0", "\u0663", "-1"]:
        with pytest.raises(ParseError) as caught:
            parse_position(f"1/2*{term} + 1/2*11")
        assert str(caught.value) == f"exponent {term!r} is not a natural number"


def test_reports_are_deterministic(files):
    first = run_command(["to-monoid", files["coin"]])
    second = run_command(["to-monoid", files["coin"]])
    assert first == second
    g1 = run_command(["game", "1/4*0 + 1/4*1 + 1/2*4"])
    g2 = run_command(["game", "1/4*0 + 1/4*1 + 1/2*4"])
    assert g1 == g2


def test_bialgebra_print_parse_fixpoint(files):
    _, bi_text = run_command(["to-bialgebra", files["coin"]])
    r = parse_recognizer(bi_text)
    printed = print_bialgebra(r)
    r2 = parse_recognizer(printed)
    assert r2.generators == r.generators
    assert r2.images == r.images
    assert r2.letters == r.letters
    assert r2.init == r.init
    assert r2.output == r.output


EMPTY_ALPHABET = {
    "dist": "monad dist\nalphabet\nstates p q\ninit p:1/2 q:1/2\noutput p:1 q:0\n",
    "rational": "monad weighted rational\nalphabet\nstates p\ninit p:2\noutput p:-1\n",
}


@pytest.mark.parametrize("kind", sorted(EMPTY_ALPHABET))
def test_no_printed_line_ends_in_whitespace(kind):
    # Every printer writes an empty alphabet as a bare 'alphabet' line, and
    # its text parses and prints back unchanged.
    a = parse_automaton(EMPTY_ALPHABET[kind])
    texts = [
        print_automaton(a),
        print_recognizer(automaton_to_recognizer(a)),
        print_bialgebra(automaton_to_bialgebra(a)),
    ]
    for text in texts:
        assert "alphabet\n" in text
        assert all(line == line.rstrip() for line in text.split("\n")), text
    assert print_automaton(parse_automaton(texts[0])) == texts[0]
    for text, printer in zip(texts[1:], (print_recognizer, print_bialgebra)):
        assert printer(parse_recognizer(text)) == text


@pytest.mark.parametrize("module", ["effectfa", "effectfa.cli"])
def test_python_dash_m_runs_the_command_line(module):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", module, "eval", "samples/coin.aut", "a.a.a"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "7/8"


def test_eval_prints_exact_values_of_any_length():
    # 1 - 2^-20000 has 6021 digits above the line, past the 4300 that
    # Python converts from int to text by default.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "effectfa", "eval", "samples/coin.aut", ".".join("a" * 20000)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # Decimal arithmetic writes the expected text with no int conversion.
    with localcontext() as ctx:
        ctx.prec = 10_000
        den = Decimal(2) ** 20000
        want = f"{den - 1:f}/{den:f}"
    assert done.stdout.strip() == want


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("from-monoid", MONOID + "monad weighted minplus\n", 9),
        ("from-monoid", MONOID.replace("alphabet a", "alphabet a a"), 2),
        ("from-monoid", MONOID + "hom b -> e:1\n", 9),
        ("from-monoid", MONOID + "mul e*e=e\n", 9),
        # a malformed init line ahead of the states it refers to
        (
            "from-bialgebra",
            BIALGEBRA.replace("init q0:1\n", "").replace(
                "states", "init x:1\nstates"
            ),
            3,
        ),
        # a malformed image line ahead of the monad line
        (
            "from-bialgebra",
            BIALGEBRA.replace("monad dist\n", "")
            .replace("hom a q0", "monad dist\nhom a q0")
            .replace("q0 -> q0:1\n", "q0 -> q0:2\n", 1),
            4,
        ),
        ("from-bialgebra", BIALGEBRA.replace("output q0:0 q1:1", "output q0:0"), 16),
        ("from-bialgebra", BIALGEBRA + "image [0,0] q0 -> q0:1\n", 17),
    ],
    ids=[
        "second-monad-line",
        "repeated-letter",
        "hom-for-undeclared-letter",
        "duplicate-mul-product",
        "init-before-states",
        "image-before-monad",
        "output-misses-a-state",
        "repeated-image-row",
    ],
)
def test_malformed_recognizer_files_exit_2(tmp_path, command, text, line):
    # run_command turns package errors into status 2; any other exception
    # escapes it and fails the test.
    path = tmp_path / "bad.rec"
    path.write_text(text)
    status, out = run_command([command, str(path)])
    assert status == 2
    assert out.startswith("error: ")
    assert f"line {line}:" in out


def _reversed_lines(text):
    return "\n".join(reversed(text.splitlines())) + "\n"


@pytest.mark.parametrize("sample", sorted(SAMPLES.glob("*.aut")), ids=lambda p: p.name)
def test_automaton_sections_parse_in_any_order(sample):
    text = sample.read_text()
    assert parse_automaton(_reversed_lines(text)) == parse_automaton(text)


@pytest.mark.parametrize(
    "command, printer",
    [("to-monoid", print_recognizer), ("to-bialgebra", print_bialgebra)],
)
def test_recognizer_sections_parse_in_any_order(command, printer):
    status, text = run_command([command, str(SAMPLES / "coin.aut")])
    assert status == 0
    # Printing is canonical, so equal prints mean equal recognizers.
    assert printer(parse_recognizer(_reversed_lines(text))) == text + "\n"


def _length_three_pair(monad_line, last, bad_last):
    """Two length counters over ``a b`` whose third step on ``b`` goes to
    ``last`` in one and ``bad_last`` in the other, so they agree on every
    word shorter than 3 and first differ at ``a.a.b``."""
    lines = [
        "alphabet a b",
        "states l0 l1 l2 l3 l4",
        "init l0:1",
        "trans l0 a -> l1:1",
        "trans l0 b -> l1:1",
        "trans l1 a -> l2:1",
        "trans l1 b -> l2:1",
        "trans l2 a -> l4:1",
        "trans l3 a -> l4:1",
        "trans l3 b -> l4:1",
        "trans l4 a -> l4:1",
        "trans l4 b -> l4:1",
    ]
    return tuple(
        "\n".join([monad_line, *lines, f"trans l2 b -> {step}", output]) + "\n"
        for step, output in (last, bad_last)
    )


LENGTH_THREE_PAIRS = {
    "dist": (
        "monad dist",
        ("l3:1", "output l0:0 l1:0 l2:0 l3:1/2 l4:0"),
        ("l3:1/3 l4:2/3", "output l0:0 l1:0 l2:0 l3:1/2 l4:0"),
    ),
    "minplus": (
        "monad weighted minplus",
        ("l3:2", "output l0:0 l1:0 l2:0 l3:0 l4:0"),
        ("l3:1 l4:5", "output l0:0 l1:0 l2:0 l3:0 l4:0"),
    ),
    "convex": (
        "monad convex",
        ("l3:1 | l4:1", "output l0:0 l1:0 l2:0 l3:1 l4:0"),
        ("l3:1/2 l4:1/2 | l4:1", "output l0:0 l1:0 l2:0 l3:1 l4:0"),
    ),
}


@pytest.mark.parametrize("kind", sorted(LENGTH_THREE_PAIRS))
def test_equiv_prints_the_first_difference_at_length_three(tmp_path, kind):
    from effectfa import eval_word, outputs_equal, words_upto
    from effectfa.cli import format_value, format_word

    monad_line, last, bad_last = LENGTH_THREE_PAIRS[kind]
    texts = _length_three_pair(monad_line, last, bad_last)
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"m{i}.aut")
        paths[-1].write_text(text)
    status, out = run_command(["equiv", str(paths[0]), str(paths[1]), "--max-len", "2"])
    assert (status, out) == (0, "equivalent on all words up to length 2")
    status, out = run_command(["equiv", str(paths[0]), str(paths[1]), "--max-len", "5"])
    # the per-word loop over words_upto, one eval_word per word
    a, b = (parse_automaton(t) for t in texts)
    first = next(
        (w, va, vb)
        for w in words_upto(a.alphabet, 5)
        for va, vb in [(eval_word(a, w), eval_word(b, w))]
        if not outputs_equal(a, va, vb)
    )
    w, va, vb = first
    assert w == ("a", "a", "b")
    want = f"difference at {format_word(w)}: {format_value(va, a)} vs {format_value(vb, b)}"
    assert (status, out) == (1, want)
    literal = {
        "dist": "difference at a.a.b: 1/2 vs 1/6",
        "minplus": "difference at a.a.b: 5 vs 4",
        "convex": "difference at a.a.b: [0, 1] vs [0, 1/2]",
    }
    assert out == literal[kind]


def _corrupted_recognizer(files, name, old, new):
    """``to-monoid`` of a machine file with one ``pred`` entry replaced."""
    status, rec_text = run_command(["to-monoid", files[name]])
    assert status == 0
    lines = rec_text.splitlines()
    (i,) = [k for k, line in enumerate(lines) if line.startswith("pred ")]
    assert f" {old}" in lines[i]
    lines[i] = lines[i].replace(f" {old}", f" {new}")
    path = files["dir"] / f"{name}-bad.rec"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_verify_prints_convex_violations_like_eval(files):
    files["choice"] = str(SAMPLES / "choice.aut")
    bad = _corrupted_recognizer(files, "choice", "[1,1]:1", "[1,1]:0")
    status, out = run_command(["verify", files["choice"], bad, "--max-len", "2"])
    assert status == 1
    assert out.splitlines() == [
        "violation at a: automaton [0, 1] recognizer [0, 0]",
        "violation at a.a: automaton [0, 1] recognizer [0, 0]",
    ]
    assert run_command(["eval", files["choice"], "a"]) == (0, "[0, 1]")


def test_verify_prints_boolean_violations_in_the_file_format(files):
    bad = _corrupted_recognizer(files, "boolean", "[0,1]:0", "[0,1]:1")
    status, out = run_command(["verify", files["boolean"], bad, "--max-len", "1"])
    assert status == 1
    assert out == "violation at eps: automaton 0 recognizer 1"


# A one-element dist monoid recognizer: the hom line is line 6.
DIST_MONOID = """\
monad dist
alphabet a
monoid e
unit e
mul e*e=e
hom a -> e:1
pred e:1
"""


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("eval", COIN.replace("q1:1/2", "q1:1/0"), 6),
        ("eval", COIN.replace("output q0:0", "output q0:0/0"), 8),
        ("eval", NPFA.replace("| q1:1", "| q1:3/0"), 5),
        ("eval", RATIONAL.replace("y:-1/2", "y:-1/0"), 4),
        ("from-monoid", DIST_MONOID.replace("e:1\npred", "e:1/0\npred"), 6),
        ("from-monoid", DIST_MONOID.replace("pred e:1", "pred e:2/0"), 7),
        ("from-bialgebra", BIALGEBRA.replace("q1:1/2", "q1:1/0"), 13),
    ],
    ids=[
        "transition",
        "output",
        "convex-generator",
        "rational-weight",
        "monoid-hom",
        "monoid-pred",
        "bialgebra-hom",
    ],
)
def test_zero_denominators_exit_2_with_the_line(tmp_path, command, text, line):
    path = tmp_path / "zero.txt"
    path.write_text(text)
    status, out = run_command([command, str(path)] + (["a"] if command == "eval" else []))
    assert status == 2
    assert out.startswith("error: ")
    assert f"line {line}: zero denominator" in out


def test_game_rejects_a_zero_denominator():
    status, out = run_command(["game", "1/2*0 + 1/0*2"])
    assert status == 2
    assert out.startswith("error: ") and "zero denominator" in out


def test_reader_builds_each_weight_in_lowest_terms():
    # Non-reduced literals and a repeated state give the Dist of COIN.
    text = COIN.replace(
        "trans q0 a -> q0:1/2 q1:1/2", "trans q0 a -> q0:2/4 q1:0/5 q1:1/4 q1:3/12"
    ).replace("trans q1 a -> q1:1", "trans q1 a -> q0:0/5 q1:5/5")
    a, coin = parse_automaton(text), parse_automaton(COIN)
    assert a == coin
    assert print_automaton(a) == print_automaton(coin)
    for q in a.states:
        assert a.trans[(q, "a")].items() == coin.trans[(q, "a")].items()
        assert all(type(w) is Fraction for _, w in a.trans[(q, "a")].items())
    assert a.trans[("q1", "a")].support() == ("q1",)
    assert a.output["q0"] == 0 and type(a.output["q0"]) is Fraction


@pytest.mark.parametrize("family", ["dist", "rational", "convex"])
def test_printing_reads_each_value_once(monkeypatch, family):
    # Printing tests each state against a value's stored entries, read once
    # per value, so a dense machine prints in time linear in its entries.
    n = 30
    rng = random.Random(f"dense {family}")
    if family == "dist":
        a = rand_pfa(rng, n, 2, max_den=2 * n, pure_init=False)
    elif family == "convex":
        a = rand_npfa(rng, n, 2, 2, pure_init=False)
    else:
        a = rand_wfa(rng, family, n, 2)
    values = 1 + len(a.trans)
    if family == "convex":
        values = sum(len(v.generators) for v in (a.init, *a.trans.values()))
    calls = []
    for cls in (Dist, WeightedVec):
        for method in ("support", "weight"):
            original = getattr(cls, method)

            def counted(self, *args, original=original):
                calls.append(1)
                return original(self, *args)

            monkeypatch.setattr(cls, method, counted)
    text = print_automaton(a)
    assert len(calls) <= values
    monkeypatch.undo()
    assert print_automaton(parse_automaton(text)) == text


@pytest.mark.parametrize(
    "entries, message",
    [
        ("q0:1/2 q1:-1/2", "negative weight -1/2"),
        ("q0:1/2 q1:1/4", "probability mass 3/4 is not 1"),
        ("q0:1 q0:1", "probability mass 2 is not 1"),
        ("q0:2/6 q1:2/6 q1:2/6 q0:1/6", "probability mass 7/6 is not 1"),
    ],
)
def test_reader_rejects_bad_mass_with_the_line(tmp_path, entries, message):
    path = tmp_path / "bad.aut"
    path.write_text(COIN.replace("q0:1/2 q1:1/2", entries))
    status, out = run_command(["eval", str(path), "a"])
    assert (status, out) == (2, f"error: line 6: {message}")


# ---------------------------------------------------------------------------
# Graph-form monoid recognizers


def _family_machine(family, seed, pure):
    """A small machine of one effect family; ``pure=False`` asks for an
    effectful start, which the recognizer moves onto a fresh ``_init``
    state."""
    rng = random.Random(seed)
    if family == "dist":
        return rand_pfa(rng, 2, 2, pure_init=pure)
    if family == "convex":
        return rand_npfa(rng, 2, 1, 2, pure_init=pure)
    a = rand_wfa(rng, family, 2, 2)
    return replace(a, init=unit(a.monad, "q0")) if pure else a


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["dist", "rational", "boolean", "minplus", "convex"]),
    seed=st.integers(0, 10**6),
    pure=st.booleans(),
)
def test_graph_form_prints_and_parses_back(family, seed, pure):
    a = _family_machine(family, seed, pure)
    text = print_recognizer(automaton_to_recognizer(a))
    lines = text.splitlines()
    states = [line.split()[1:] for line in lines if line.startswith("states ")]
    assert len(states) == 1 and not [line for line in lines if line.startswith("mul ")]
    if not is_pure(a.init):
        assert "_init" in states[0]
    r = parse_recognizer(text)
    assert r.morphism.target.carrier == tuple(states[0])
    assert print_recognizer(r) == text
    # The same recognizer with its table: printed back the same, and
    # rebuilt into the same machine, byte for byte.
    table = table_form(text)
    t = parse_recognizer(table)
    assert t.morphism.target.carrier is None
    assert print_recognizer(t) == table
    rebuilt = print_automaton(recognizer_to_automaton(r))
    assert rebuilt == print_automaton(recognizer_to_automaton(t))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["dist", "rational", "boolean", "minplus", "convex"]),
    seed=st.integers(0, 10**6),
    pure=st.booleans(),
)
def test_the_machine_a_recognizer_rebuilds_prints_and_parses_back(family, seed, pure):
    # Its states are named as the monoid names its elements, such as [0,1].
    a = _family_machine(family, seed, pure)
    r = automaton_to_recognizer(a)
    m = r.morphism.target
    text = print_automaton(recognizer_to_automaton(r))
    back = parse_automaton(text)
    assert back.states == tuple(m.name(x) for x in m.elements)
    assert print_automaton(back) == text
    for w in words_upto(a.alphabet, 3):
        assert eval_word(back, w) == eval_word(a, w)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["dist", "rational"]),
    seed=st.integers(0, 10**6),
    pure=st.booleans(),
)
def test_the_machine_a_bialgebra_rebuilds_prints_and_parses_back(family, seed, pure):
    # Its states are named as print_bialgebra names the generators, such as
    # [0,1], not as the graphs themselves.
    a = _family_machine(family, seed, pure)
    b = automaton_to_bialgebra(a)
    text = print_automaton(bialgebra_to_automaton(b))
    back = parse_automaton(text)
    gens = print_bialgebra(b).splitlines()[3].split()[1:]
    assert back.states == tuple(gens)
    assert print_automaton(back) == text
    for w in words_upto(a.alphabet, 3):
        assert eval_word(back, w) == eval_word(a, w)


@pytest.mark.parametrize("text", [MONOID, DIST_MONOID])
def test_table_files_parse_and_print_as_before(text):
    r = parse_recognizer(text)
    assert r.morphism.target.carrier is None
    assert print_recognizer(r) == text


def test_a_recognizer_on_the_whole_function_monoid_takes_the_graph_form():
    # The letter generates 2 of the 4 maps; the reader takes any declared
    # set of graphs that holds the identity and is closed.
    m, _ = witness_xi0(DIST, ("q0", "q1"))
    letters = {"a": Dist({("q0", "q1"): Fraction(1, 2), ("q1", "q1"): Fraction(1, 2)})}
    r = EffRecognizer(
        EffMorphism(target=m, monad=DIST, alphabet=("a",), letters=letters),
        {f: Fraction(f[0] == "q1") for f in m.elements},
        UNIT_INTERVAL,
    )
    text = print_recognizer(r)
    assert "\nstates q0 q1\nmonoid [0,0] [0,1] [1,0] [1,1]\nunit [0,1]\n" in text
    assert "\nmul " not in text
    back = parse_recognizer(text)
    assert print_recognizer(back) == text
    rebuilt = print_automaton(recognizer_to_automaton(r))
    assert rebuilt == print_automaton(recognizer_to_automaton(back))
    assert print_automaton(parse_automaton(rebuilt)) == rebuilt


@pytest.mark.parametrize("sample", ["coin.aut", "choice.aut"])
def test_to_monoid_of_from_monoid_output_takes_the_graph_form(files, sample):
    # from-monoid names its states after the elements, such as [0,1]; a
    # graph names its images by position, so any state token fits.
    _, rec_text = run_command(["to-monoid", str(SAMPLES / sample)])
    rec = files["dir"] / "first.rec"
    rec.write_text(rec_text + "\n")
    _, aut_text = run_command(["from-monoid", str(rec)])
    assert "\nstates [0,1] [1,1]\n" in aut_text
    back = files["dir"] / "rec.aut"
    back.write_text(aut_text + "\n")
    status, text = run_command(["to-monoid", str(back)])
    assert status == 0
    assert "\nmul " not in text and "\nstates [0,1] [1,1]\n" in text
    assert print_recognizer(parse_recognizer(text)) == text + "\n"


def test_any_state_token_fits_in_a_graph_name():
    text = _graph_rec(("states p q r", "states _ q,r [0]"))
    r = parse_recognizer(text)
    assert r.morphism.target.carrier == ("_", "q,r", "[0]")
    assert print_recognizer(r) == text


# Lines 4 and 5 hold the monoid and the unit.
GRAPH_REC = """\
monad dist
alphabet a
states p q r
monoid [0,1,2] [1,2,2] [2,2,2]
unit [0,1,2]
hom a -> [1,2,2]:1
pred [0,1,2]:0 [1,2,2]:0 [2,2,2]:1
"""


def _graph_rec(*edits):
    text = GRAPH_REC
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize(
    "text, line, message",
    [
        (
            _graph_rec((" [2,2,2]\n", "\n"), (" [2,2,2]:1", "")),
            4,
            "product [1,2,2]*[1,2,2]=[2,2,2] is not declared",
        ),
        (
            _graph_rec(("[2,2,2]", "[0,0,0]")),
            4,
            "product [1,2,2]*[1,2,2]=[2,2,2] is not declared",
        ),
        (
            _graph_rec((" [2,2,2]\n", " [2,2,2] [0,0,0]\n"), (":1", ":1 [0,0,0]:0")),
            4,
            "product [0,0,0]*[1,2,2]=[1,1,1] is not declared",
        ),
        (_graph_rec(("unit [0,1,2]", "unit [2,2,2]")), 5, "is not the identity graph"),
        (
            _graph_rec(("[2,2,2]", "[2,2]")),
            4,
            "element '[2,2]' is not a graph on the states",
        ),
        (
            _graph_rec(("[2,2,2]", "[2,2,3]")),
            4,
            "element '[2,2,3]' is not a graph on the states",
        ),
        (GRAPH_REC + "mul [0,1,2]*[0,1,2]=[0,1,2]\n", 8, "unknown section 'mul'"),
        (
            _graph_rec(("[2,2,2]", "[2,2,02]")),
            4,
            "element '[2,2,02]' is not a graph on the states",
        ),
        (
            _graph_rec(("[2,2,2]", "[2,2,\u0662]")),
            4,
            "element '[2,2,\u0662]' is not a graph on the states",
        ),
    ],
    ids=[
        "element-missing-past-the-count",
        "element-missing",
        "extra-element",
        "unit-not-identity",
        "name-of-the-wrong-length",
        "name-on-an-undeclared-state",
        "mul-line",
        "non-canonical-position",
        "non-ascii-digit",
    ],
)
def test_graph_form_faults_name_their_line(tmp_path, text, line, message):
    assert parse_recognizer(GRAPH_REC) is not None
    path = tmp_path / "bad.rec"
    path.write_text(text)
    status, out = run_command(["from-monoid", str(path)])
    assert status == 2
    assert out.startswith(f"error: line {line}: ") and message in out


def test_verify_reports_a_corrupted_hom(files):
    status, rec_text = run_command(["to-monoid", files["coin"]])
    assert status == 0
    assert "hom a -> [0,1]:1/2 [1,1]:1/2" in rec_text
    bad = files["dir"] / "coin-bad-hom.rec"
    bad.write_text(rec_text.replace("[0,1]:1/2 [1,1]:1/2", "[0,1]:1/4 [1,1]:3/4") + "\n")
    status, out = run_command(["verify", files["coin"], str(bad), "--max-len", "2"])
    assert status == 1
    assert out.splitlines() == [
        "violation at a: automaton 1/2 recognizer 3/4",
        "violation at a.a: automaton 3/4 recognizer 15/16",
    ]


@pytest.mark.parametrize("command, status", [("eval", 0), ("verify", 1)])
def test_a_reader_that_stops_early_leaves_the_exit_status(files, command, status):
    # Either report is well over the 64 KiB a pipe buffers, so the command
    # is still writing when the reader closes its end.
    root = Path(__file__).resolve().parent.parent
    if command == "eval":
        word = ".".join("a" * 50000)
        argv = ["eval", files["coin"], word, word, word]
    else:
        _, rec_text = run_command(["to-monoid", files["coin"]])
        bad = files["dir"] / "coin-bad.rec"
        bad.write_text(rec_text.replace("]:1/2 [1,1]:1/2", "]:1/4 [1,1]:3/4") + "\n")
        argv = ["verify", files["coin"], str(bad), "--max-len", "300"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "effectfa"] + argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = proc.stdout.read(60)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == status
    finally:
        proc.kill()
        proc.wait()
    assert len(head) == 60
    assert err == b""
