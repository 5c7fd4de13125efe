"""Tests for the shared lexer and label-resolving emitter."""

import re

import pytest

from repro import MiniCLanguage, MiniJSLanguage, MiniRustLanguage, WhileLanguage
from repro.frontend import lexer
from repro.frontend.emitter import Emitter, Label
from repro.frontend.lexer import LexError, ParseError, Token, TokenStream, tokenize
from repro.gil.syntax import Assignment, Goto, IfGoto, Return
from repro.logic.expr import Lit, PVar
from repro.targets.c_like import RUNTIME as C_RUNTIME


class TestLexer:
    def test_identifiers_numbers_strings(self):
        tokens = tokenize('abc 42 3.5 "hi"')
        assert [t.kind for t in tokens] == ["ident", "number", "number", "string", "eof"]

    def test_number_values(self):
        tokens = tokenize("42 3.5 1e3")
        assert tokens[0].number_value == 42
        assert tokens[1].number_value == 3.5
        assert tokens[2].number_value == 1000.0

    def test_multichar_operators_longest_match(self):
        tokens = tokenize("a === b !== c <= >= && || :=")
        texts = [t.text for t in tokens if t.kind == "punct"]
        assert texts == ["===", "!==", "<=", ">=", "&&", "||", ":="]

    def test_comments_skipped(self):
        tokens = tokenize("a // line\n /* block\n over lines */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_string_escapes(self):
        tokens = tokenize(r'"a\nb\t\"q\""')
        assert tokens[0].text == 'a\nb\t"q"'

    def test_char_literal_mode(self):
        tokens = tokenize("'a' \"s\"", char_literals=True)
        assert tokens[0].kind == "char"
        assert tokens[1].kind == "string"

    def test_char_literal_mode_off(self):
        tokens = tokenize("'a'")
        assert tokens[0].kind == "string"

    def test_pattern_uses_no_python_311_syntax(self):
        # Possessive quantifiers and atomic groups need Python 3.11's re;
        # setup.py supports 3.10.
        assert not re.search(r"(?<!\\)[+*?}]\+|\(\?>", lexer._RULES)

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_unterminated_string(self):
        with pytest.raises(LexError) as info:
            tokenize('a\n  "abc\n')
        assert (info.value.line, info.value.col) == (2, 3)
        assert str(info.value) == "unterminated string literal at line 2, column 3"

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError) as info:
            tokenize("x /* abc */ y /* abc")
        assert (info.value.line, info.value.col) == (1, 15)
        assert str(info.value) == "unterminated block comment at line 1, column 15"

    def test_unexpected_character(self):
        with pytest.raises(LexError) as info:
            tokenize("a\n\n/* c\n */ b @ c")
        assert (info.value.line, info.value.col) == (4, 7)
        assert str(info.value) == "unexpected character '@' at line 4, column 7"

    def test_positions_after_multiline_string_and_comment(self):
        tokens = tokenize('"a\nb"  /* x\n\n yz */ c')
        assert [(t.text, t.line, t.col) for t in tokens] == [
            ("a\nb", 1, 1), ("c", 4, 8), ("", 4, 9)
        ]

    @pytest.mark.parametrize(
        "source,value",
        [("1.", 1.0), (".5", 0.5), ("1.e5", 100000.0), ("007", 7), ("٣", 3)],
    )
    def test_accepted_number_literals(self, source, value):
        tokens = tokenize(source)
        assert [(t.kind, t.text) for t in tokens[:-1]] == [("number", source)]
        assert tokens[0].number_value == value

    @pytest.mark.parametrize(
        "source,message,col",
        [
            ("x 1.2.3", "malformed number '1.2.3'", 3),
            ("x 1e+ y", "malformed number '1e+'", 3),
            ("x .5.", "malformed number '.5.'", 3),
            ("x 3²", "unexpected character '²'", 4),
            ("x ½", "unexpected character '½'", 3),
        ],
    )
    def test_unreadable_number_literals(self, source, message, col):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == f"{message} at line 1, column {col}"


class TestMalformedNumberLiterals:
    """A number literal ``int`` and ``float`` reject is a ``LexError``
    with a position in every front end, not a bare ``ValueError`` from
    the parser.  Each literal is on the program's second line (MiniC
    compiles its runtime prelude first)."""

    @pytest.mark.parametrize(
        "language,source,col",
        [
            (MiniJSLanguage, "function main() {\n  return 1.2.3;\n}", 10),
            (MiniJSLanguage, "function main() {\n  return 1e;\n}", 10),
            (MiniCLanguage, "int main() {\n  return 1.2.3;\n}", 10),
            (MiniCLanguage, "int main() {\n  return 3²;\n}", 11),
            (WhileLanguage, "proc main() {\n  x := 1.2.3;\n  return x;\n}", 8),
            (MiniRustLanguage, "fn main() -> i64 {\n  return 1..2;\n}", 10),
        ],
    )
    def test_compile_raises_lex_error(self, language, source, col):
        prelude = C_RUNTIME.count("\n") if language is MiniCLanguage else 0
        with pytest.raises(LexError) as info:
            language().compile(source)
        assert (info.value.line, info.value.col) == (prelude + 2, col)


class TestTokenStream:
    def test_accept_expect(self):
        ts = TokenStream(tokenize("a := 1;"))
        assert ts.expect_kind("ident").text == "a"
        assert ts.accept(":=") is not None
        assert ts.expect_kind("number").text == "1"
        ts.expect(";")
        assert ts.current.kind == "eof"

    def test_expect_failure(self):
        ts = TokenStream(tokenize("a"))
        with pytest.raises(ParseError):
            ts.expect("(")

    def test_peek_does_not_advance(self):
        ts = TokenStream(tokenize("a b"))
        assert ts.peek(1).text == "b"
        assert ts.current.text == "a"

    def test_eof_is_sticky(self):
        ts = TokenStream(tokenize(""))
        ts.advance()
        ts.advance()
        assert ts.current.kind == "eof"


def _number(ts):
    return ts.expect_kind("number").number_value


class TestGrammarHelpers:
    LEVELS = {
        "+": (0, "punct", lambda a, b: ("+", a, b)),
        "*": (1, "punct", lambda a, b: ("*", a, b)),
        "or": (0, "ident", lambda a, b: ("or", a, b)),
    }

    def test_binary_climbs_by_level_left_to_right(self):
        ts = TokenStream(tokenize("1 + 2 * 3 * 4 + 5 or 6"))
        assert ts.binary(self.LEVELS, _number) == (
            "or", ("+", ("+", 1, ("*", ("*", 2, 3), 4)), 5), 6
        )
        assert ts.current.kind == "eof"

    def test_binary_matches_token_kind_as_well_as_text(self):
        ts = TokenStream(tokenize('1 "+" 2'))
        assert ts.binary(self.LEVELS, _number) == 1
        assert ts.current.kind == "string"
        ts = TokenStream(
            [Token("number", "1", 1, 1), Token("punct", "or", 1, 3), Token("eof", "", 1, 5)]
        )
        assert ts.binary(self.LEVELS, _number) == 1
        assert ts.current.kind == "punct"

    def test_items_consumes_close(self):
        ts = TokenStream(tokenize("1, 2, 3) ;"))
        assert ts.items(_number, ")") == (1, 2, 3)
        assert ts.current.text == ";"
        ts = TokenStream(tokenize("]"))
        assert ts.items(_number, "]") == ()
        assert ts.current.kind == "eof"

    def test_items_rejects_missing_comma(self):
        with pytest.raises(ParseError) as info:
            TokenStream(tokenize("1 2]")).items(_number, "]")
        assert str(info.value) == "expected ']', found '2' (number) at line 1, column 3"

    def test_block(self):
        ts = TokenStream(tokenize("{ 1 2 } {}"))
        assert ts.block(_number) == (1, 2)
        assert ts.block(_number) == ()
        with pytest.raises(ParseError):
            TokenStream(tokenize("1 }")).block(_number)


class TestCompileError:
    @pytest.mark.parametrize(
        "language,source",
        [
            (MiniJSLanguage, "function main() { break; }"),
            (MiniCLanguage, "int main() { break; return 0; }"),
            (MiniRustLanguage, "fn main() -> i64 { break; }"),
        ],
    )
    def test_one_class_for_every_compiler(self, language, source):
        from repro.frontend import CompileError

        with pytest.raises(CompileError) as info:
            language().compile(source)
        assert type(info.value) is CompileError
        assert str(info.value) == "break outside a loop"

    def test_compiler_modules_reexport_it(self):
        from repro.frontend import CompileError
        from repro.targets.c_like import compiler as c
        from repro.targets.js_like import compiler as js
        from repro.targets.rust_like import compiler as rust

        assert c.CompileError is js.CompileError is rust.CompileError is CompileError


class TestEmitter:
    def test_forward_label(self):
        em = Emitter()
        end = Label("end")
        em.emit(IfGoto(Lit(True), end))
        em.emit(Assignment("x", Lit(1)))
        em.mark(end)
        em.emit(Return(PVar("x")))
        cmds = em.finish()
        assert cmds[0] == IfGoto(Lit(True), 2)

    def test_backward_label(self):
        em = Emitter()
        start = Label("start")
        em.mark(start)
        em.emit(Assignment("x", Lit(1)))
        em.emit(Goto(start))
        cmds = em.finish()
        assert cmds[1] == Goto(0)

    def test_unmarked_label_rejected(self):
        em = Emitter()
        em.emit(Goto(Label("never")))
        with pytest.raises(ValueError):
            em.finish()

    def test_double_mark_rejected(self):
        em = Emitter()
        label = Label("l")
        em.mark(label)
        with pytest.raises(ValueError):
            em.mark(label)

    def test_fresh_temps_unique(self):
        em = Emitter()
        names = {em.fresh_temp() for _ in range(10)}
        assert len(names) == 10
