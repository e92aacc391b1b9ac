"""The readers' shared tables (``cli._Values``).

A literal or generator read in one file is stored for every later file of
its effect type.  These tests pin what must not change with that: every
name is checked against each file's own declarations, a bad token fails at
its first line in every file, the order in which files are read changes no
printed machine and no error, the tables stay within their bound, and
threads that read at once get what one thread gets.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_npfa, rand_pfa, rand_wfa
from effectfa import (
    BialgRecognizer,
    EffRecognizer,
    automaton_to_bialgebra,
    automaton_to_recognizer,
    cli,
)
from effectfa.cli import (
    parse_automaton,
    parse_recognizer,
    print_automaton,
    print_bialgebra,
    print_recognizer,
)
from effectfa.errors import ParseError
from test_reader_errors import (
    AUT,
    AUTOMATON_CASES,
    BIALG,
    CONVEX,
    GRAPH,
    MINPLUS,
    RECOGNIZER_CASES,
    TABLE,
    _edit,
)


def _file(monad, states, entries, output):
    """A one-letter machine file: ``entries`` gives the init line and then
    the trans line of each state in turn."""
    init, *rows = entries
    lines = [f"monad {monad}", "alphabet a", f"states {' '.join(states)}", f"init {init}"]
    lines += [f"trans {q} a -> {row}" for q, row in zip(states, rows)]
    lines.append("output " + " ".join(f"{q}:{output}" for q in states))
    return "\n".join(lines) + "\n"


def _printed(text, recognizer=False):
    """What reading ``text`` gives: the file printed back, or the error."""
    try:
        if not recognizer:
            return print_automaton(parse_automaton(text))
        r = parse_recognizer(text)
    except ParseError as e:
        return f"error: {e}"
    if isinstance(r, BialgRecognizer):
        return print_bialgebra(r)
    assert isinstance(r, EffRecognizer)
    return print_recognizer(r)


def _fresh(text, recognizer=False):
    """``_printed`` with every table empty, as for the first file a process reads."""
    cli._TABLES.clear()
    return _printed(text, recognizer)


# ---------------------------------------------------------------------------
# Names are checked in every file


def _machine(*args):
    return _file(*args), False


CROSS_FILE_CASES = [
    # A generator stored from the first file, written in the second over a
    # state it does not declare.
    (
        "dist",
        _machine("dist", ["q0", "q1"], ["q0:1", "q1:1", "q1:1"], "0"),
        _machine("dist", ["p0", "p1"], ["p0:1", "q1:1", "p1:1"], "0"),
        "line 5: undeclared state 'q1'",
    ),
    # A zero weight puts no state in the Dist, but its name is still one
    # that the file must declare.
    (
        "zero-weight",
        _machine("dist", ["q0", "q1", "q2"], ["q0:1", "q1:1 q2:0", "q1:1", "q2:1"], "0"),
        _machine("dist", ["p0", "q1"], ["p0:1", "q1:1 q2:0", "q1:1"], "0"),
        "line 5: undeclared state 'q2'",
    ),
    (
        "convex",
        _machine("convex", ["q0", "q1"], ["q0:1", "q0:1 | q0:1/2 q1:1/2", "q1:1"], "0"),
        _machine("convex", ["q0", "p1"], ["q0:1", "q0:1 | q0:1/2 q1:1/2", "p1:1"], "0"),
        "line 5: undeclared state 'q1'",
    ),
    (
        "init",
        _machine("dist", ["q0", "q1"], ["q1:1", "q1:1", "q1:1"], "0"),
        _machine("dist", ["p0", "p1"], ["q1:1", "p1:1", "p1:1"], "0"),
        "line 4: undeclared state 'q1'",
    ),
    (
        "monoid-element",
        (TABLE, True),
        (_edit(TABLE.replace("z", "y"), ("e:1/2 y:1/2", "e:1/2 z:1/2")), True),
        "line 7: undeclared element 'z'",
    ),
    (
        "bialgebra-state",
        _machine("dist", ["p", "g"], ["g:1", "g:1", "g:1"], "0"),
        (_edit(BIALG, ("init p:1", "init g:1")), True),
        "line 11: undeclared state 'g'",
    ),
]


@pytest.mark.parametrize(
    "first, second, message", [c[1:] for c in CROSS_FILE_CASES], ids=[c[0] for c in CROSS_FILE_CASES]
)
def test_a_stored_generator_is_checked_against_each_files_names(first, second, message):
    assert not _fresh(*first).startswith("error:")
    # Read after the first file, from its stored generator...
    assert _printed(*second) == f"error: {message}"
    # ...and alone, as before the tables were shared.
    assert _fresh(*second) == f"error: {message}"


def test_a_file_that_declares_the_names_gets_the_stored_generator():
    first = _file("dist", ["q0", "q1"], ["q0:1", "q0:1/2 q1:1/2", "q1:1"], "0")
    second = _file("dist", ["q1", "q0"], ["q1:1", "q0:1/2 q1:1/2", "q0:1/2 q1:1/2"], "1")
    cli._TABLES.clear()
    a, b = parse_automaton(first), parse_automaton(second)
    assert b.trans[("q1", "a")] is a.trans[("q0", "a")]
    assert print_automaton(b) == _fresh(second)


# ---------------------------------------------------------------------------
# Errors and printed machines do not depend on the files read before


GOOD = [(AUT, False), (CONVEX, False), (MINPLUS, False)]
GOOD += [(TABLE, True), (GRAPH, True), (BIALG, True)]
BAD = [(text, False, message) for _, text, message in AUTOMATON_CASES]
BAD += [(text, True, message) for _, text, message in RECOGNIZER_CASES]


def test_a_bad_token_is_reported_at_its_first_line_in_every_file():
    good = [_fresh(*g) for g in GOOD]
    cli._TABLES.clear()
    for cases in (BAD, BAD[::-1]):
        for k, (text, recognizer, message) in enumerate(cases):
            before, after = k % len(GOOD), (k + 1) % len(GOOD)
            assert _printed(*GOOD[before]) == good[before]
            assert _printed(text, recognizer) == f"error: {message}"
            assert _printed(*GOOD[after]) == good[after]


def _seeded_texts():
    """Printed machines of every effect type, some of their recognizer and
    bialgebra files, and broken copies that drop a declared state, each with
    whether it is a recognizer file."""
    rng = random.Random("shared reader tables")
    texts = []
    for family in ("dist", "rational", "boolean", "minplus", "maxplus", "convex"):
        for n in (1, 2, 3):
            pure = n != 2
            if family == "dist":
                a = rand_pfa(rng, n, 2, pure_init=pure)
            elif family == "convex":
                a = rand_npfa(rng, n, 1 if n == 2 else 2, 2, pure_init=pure)
            else:
                a = rand_wfa(rng, family, n, 2)
            text = print_automaton(a)
            texts.append((text, False))
            if n == 1:
                continue
            # Without the last state on the states line, its rows and
            # entries name a state the file does not declare.
            lines = text.splitlines(keepends=True)
            lines[2] = lines[2].rsplit(" ", 1)[0] + "\n"
            texts.append(("".join(lines), False))
            if n == 2 and family in ("dist", "rational", "minplus", "convex"):
                texts.append((print_recognizer(automaton_to_recognizer(a)), True))
            if n == 2 and family in ("dist", "rational"):
                texts.append((print_bialgebra(automaton_to_bialgebra(a)), True))
    return texts


SEEDED = _seeded_texts()
EXPECTED = [_fresh(*t) for t in SEEDED]


def test_the_seeded_files_cover_every_effect_type_and_both_outcomes():
    heads = {text.splitlines()[0] for text, _ in SEEDED}
    assert heads == {
        "monad dist",
        "monad weighted rational",
        "monad weighted boolean",
        "monad weighted minplus",
        "monad weighted maxplus",
        "monad convex",
    }
    errors = [e for e in EXPECTED if e.startswith("error: line")]
    assert len(errors) >= 10
    assert sum(text == e for (text, _), e in zip(SEEDED, EXPECTED)) >= 20


@settings(max_examples=60, deadline=None)
@given(order=st.lists(st.integers(0, len(SEEDED) - 1), min_size=1, max_size=3 * len(SEEDED)))
def test_files_read_in_any_order_print_what_fresh_tables_print(order):
    cli._TABLES.clear()
    for i in order:
        assert _printed(*SEEDED[i]) == EXPECTED[i]


# ---------------------------------------------------------------------------
# The bound


def _table_sizes():
    return [len(t) for tables in cli._TABLES.values() for t in tables]


def test_no_table_grows_past_the_bound(monkeypatch):
    monkeypatch.setattr(cli, "_READ_TABLE_BOUND", 16)
    cli._TABLES.clear()
    dist_tables = {}
    for k in range(1, 41):
        # Each file writes literals and generators that no other file does.
        p = 2 * k + 3
        files = [
            _file(
                "weighted rational",
                ["q0", "q1"],
                [f"q0:{k}", f"q0:-{k} q1:{k + 1}", "q1:1"],
                f"1/{p}",
            ),
            _file(
                "dist",
                ["q0", "q1"],
                ["q0:1", f"q0:1/{p} q1:{p - 1}/{p}", f"q0:{k + 1}/{p + k + 1} q1:{p}/{p + k + 1}"],
                f"1/{p}",
            ),
        ]
        for text in files:
            assert _printed(text) == text
            assert max(_table_sizes()) <= 16
        table = cli._TABLES[("dist", None)][2]
        dist_tables[id(table)] = table
    # The dist generators filled their table, so the effect type started
    # again with empty tables.
    assert len(dist_tables) > 1


def test_the_real_bound_holds_past_four_thousand_literals():
    cli._TABLES.clear()
    n = 24
    states = [f"q{i}" for i in range(n)]
    counter = iter(range(1, 10**6))
    for _ in range(8):
        entries = [" ".join(f"{q}:{next(counter)}" for q in states) for _ in range(n + 1)]
        text = _file("weighted rational", states, entries, "1")
        assert _printed(text) == text
        assert max(_table_sizes()) <= cli._READ_TABLE_BOUND
    assert next(counter) > cli._READ_TABLE_BOUND


# ---------------------------------------------------------------------------
# Threads


@pytest.mark.parametrize("bound", [None, 8])
def test_threads_read_what_one_thread_reads(monkeypatch, bound):
    # More threads than cores, switching often, each reading a different
    # share of the files over the same tables.
    if bound is not None:
        # A small bound makes the threads start tables again under each other.
        monkeypatch.setattr(cli, "_READ_TABLE_BOUND", bound)
    workers = 4
    shares = [SEEDED[k::workers] for k in range(workers)]
    want = [EXPECTED[k::workers] for k in range(workers)]
    got = [[] for _ in range(workers)]
    cli._TABLES.clear()
    barrier = threading.Barrier(workers, timeout=30)

    def read(k):
        barrier.wait()
        for _ in range(5):
            got[k].append([_printed(*t) for t in shares[k]])

    threads = [threading.Thread(target=read, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(workers):
        assert got[k] == [want[k]] * 5
    # Threads that store at the same moment may each add one entry at the bound.
    assert max(_table_sizes()) <= cli._READ_TABLE_BOUND + workers
