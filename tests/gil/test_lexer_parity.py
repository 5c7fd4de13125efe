"""The compiled lexer against the per-character reference it replaced.

Wherever the reference returns tokens, ``tokenize`` returns the same
``(kind, text, line, col)`` list, ``eof`` included; wherever it raises a
``LexError``, ``tokenize`` raises one with the same message, line and
column.  The one intended difference: a number literal that ``int`` and
``float`` reject (``1.2.3``, ``1e``, ``3²``), which the reference turns
into a token whose ``number_value`` fails, is a ``LexError`` inside that
literal.  The corpora are every program the benchmarks and the
cross-target fuzz suite compile, the GIL text of the compiled programs,
and generated strings over the lexical alphabet.
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import deepgen
from repro.frontend.lexer import LexError, Token, tokenize
from repro.gil.text import _PUNCT as GIL_PUNCT
from repro.gil.text import print_prog
from repro.targets.c_like.collections import library as c_library
from repro.targets.c_like.collections import suites as c_suites
from repro.targets.js_like.buckets import library as js_library
from repro.targets.js_like.buckets import suites as js_suites
from repro.targets.rust_like.collections import suites as rust_suites
from repro.testing.genprog import (
    CROSS_QUICK_SEEDS,
    cross_languages,
    generate_cross_program,
)
from tests.gil import lexer_reference

#: tokenize keyword arguments per front end; only MiniC has char literals
OPTIONS = {"while": {}, "js": {}, "c": {"char_literals": True}, "rust": {}}


def _offset(source: str, line: int, col: int) -> int:
    """The string index of a 1-based (line, column) position."""
    return sum(len(text) + 1 for text in source.split("\n")[: line - 1]) + col - 1


def _reference(source: str, **options) -> Tuple[List[Token], Optional[LexError]]:
    """The reference's tokens, and its error if it raised one: then the
    tokens are those it lexed before the error."""
    try:
        return lexer_reference.tokenize(source, **options), None
    except LexError as exc:
        prefix = source[: _offset(source, exc.line, exc.col)]
        return lexer_reference.tokenize(prefix, **options)[:-1], exc


def _malformed(tokens: List[Token]) -> Optional[Token]:
    """The first number token whose value cannot be read."""
    for tok in tokens:
        if tok.kind == "number":
            try:
                tok.number_value
            except ValueError:
                return tok
    return None


def assert_parity(source: str, **options) -> None:
    want, want_error = _reference(source, **options)
    bad = _malformed(want)
    try:
        got = tokenize(source, **options)
    except LexError as exc:
        if bad is not None:
            assert exc.line == bad.line, source
            assert bad.col <= exc.col < bad.col + len(bad.text), source
            return
        assert want_error is not None, f"{source!r}: unexpected {exc}"
        assert (str(exc), exc.line, exc.col) == (
            str(want_error), want_error.line, want_error.col
        ), source
        return
    assert bad is None, f"{source!r}: {bad.text!r} lexed as a number"
    assert want_error is None, f"{source!r}: missed {want_error}"
    assert [tuple(t) for t in got] == [tuple(t) for t in want], source


def _table_sources():
    for table, suites, target in (
        ("table1", js_suites, "js"),
        ("table2", c_suites, "c"),
        ("table3", rust_suites, "rust"),
    ):
        for suite in suites.suite_names():
            yield f"{table}/{suite}", target, suites.suite(suite)[0]


TABLE_SOURCES = list(_table_sources())


class TestCorpora:
    @pytest.mark.parametrize(
        "target,source",
        [(t, s) for _, t, s in TABLE_SOURCES],
        ids=[name for name, _, _ in TABLE_SOURCES],
    )
    def test_table_programs(self, target, source):
        assert_parity(source, **OPTIONS[target])

    def test_libraries_and_deep_paths_corpus(self):
        assert_parity(js_library.full_library())
        library = c_library.full_library()
        assert_parity(library, char_literals=True)
        for seed in range(10):
            source, _ = deepgen.generate(seed)
            assert_parity(library + "\n" + source, char_literals=True)

    @pytest.mark.parametrize("seed", CROSS_QUICK_SEEDS)
    def test_cross_target_corpus(self, seed):
        for target, source in generate_cross_program(seed).sources.items():
            assert_parity(source, **OPTIONS[target])

    def test_gil_text_of_compiled_programs(self):
        languages = cross_languages()
        for _, target, source in TABLE_SOURCES:
            text = print_prog(languages[target].compile(source))
            assert_parity(text, punct=GIL_PUNCT)
        for seed in CROSS_QUICK_SEEDS:
            for target, source in generate_cross_program(seed).sources.items():
                text = print_prog(languages[target].compile(source))
                assert_parity(text, punct=GIL_PUNCT)


#: every character some rule of the grammar turns on, plus characters
#: the ASCII rules do not cover: a non-decimal digit (²), a number sign
#: (½), a non-ASCII letter (é), a non-ASCII decimal digit (٣) and a
#: character no rule accepts (—)
ALPHABET = (
    "ab_xZ09 5.eE+-\t\r\n/*\"'\\<>=!&|:;,(){}[]%^~?@#$"
    "²½é٣—"
)


class TestGenerated:
    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=40))
    def test_default_operators(self, source):
        assert_parity(source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=40))
    def test_char_literals(self, source):
        assert_parity(source, char_literals=True)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=40))
    def test_gil_text_operators(self, source):
        assert_parity(source, punct=GIL_PUNCT)

    @pytest.mark.parametrize(
        "source",
        ["1.", ".5", "1.e5", "007", "٣", "x٣", "1e5e", "1.5E5.3", "a.5", "é²",
         "/*/", "/* a */ 1", "'\\\n'", "\"a\\", "½", "²", "x²", "\f", "— 1"],
    )
    def test_edge_cases(self, source):
        assert_parity(source)

    @pytest.mark.parametrize("source", ["'\n'x", "'a\\\n' \"b\"\n'", "'\n'²"])
    def test_edge_cases_char_literals(self, source):
        assert_parity(source, char_literals=True)
