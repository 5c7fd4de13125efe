"""Tests for the shared lexer, the label-resolving emitter and its lowering
helpers."""

import re

import pytest

from repro import MiniCLanguage, MiniJSLanguage, MiniRustLanguage, WhileLanguage
from repro.frontend import lexer
from repro.frontend.emitter import COMPARISONS, Emitter, Label
from repro.frontend.lexer import LexError, ParseError, Token, TokenStream, tokenize
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Return,
    Vanish,
)
from repro.gil.values import GilType
from repro.logic.expr import BinOp, BinOpExpr, Lit, PVar, UnOp, UnOpExpr, lst
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

    @pytest.mark.parametrize(
        "language,name,count",
        [(MiniCLanguage, name, count) for name, count in [
            ("malloc", 1), ("calloc", 2), ("free", 1), ("memcpy", 3),
            ("memmove", 3), ("memset", 3), ("block_size", 1),
        ]]
        + [(MiniRustLanguage, name, 1)
           for name in ("alloc", "len", "as_ref", "as_handle")]
        + [(MiniJSLanguage, name, count) for name, count in [
            ("floor", 1), ("strlen", 1), ("str_of", 1), ("num_of", 1),
            ("char_at", 2), ("min_of", 2), ("max_of", 2), ("dispose", 1),
            ("has_prop", 2),
        ]],
    )
    def test_builtin_arity(self, language, name, count):
        from repro.frontend import CompileError

        template = {
            MiniCLanguage: "int main() {{ {call}; return 0; }}",
            MiniRustLanguage: "fn main() -> i64 {{ {call}; return 0; }}",
            MiniJSLanguage: "function main() {{ {call}; }}",
        }[language]
        for given in (count - 1, count + 1):
            call = f"{name}({', '.join(['1'] * given)})"
            with pytest.raises(CompileError) as info:
                language().compile(template.format(call=call))
            plural = "" if count == 1 else "s"
            message = f"{name}() takes {count} argument{plural}, got {given}"
            assert str(info.value) == message

    def test_compiler_modules_reexport_it(self):
        from repro.frontend import CompileError
        from repro.targets.c_like import compiler as c
        from repro.targets.js_like import compiler as js
        from repro.targets.rust_like import compiler as rust

        assert c.CompileError is js.CompileError is rust.CompileError is CompileError


class TestActions:
    def test_every_action_call_is_provided_by_both_memory_models(self):
        from tools.fingerprint import frontend_programs

        provided = {}
        for key, language, source in frontend_programs():
            name = language.name
            if name not in provided:
                concrete = language.concrete_memory().actions
                provided[name] = concrete & language.symbolic_memory().actions
            for proc in language.compile(source).procs.values():
                for cmd in proc.body:
                    if isinstance(cmd, ActionCall):
                        assert cmd.action in provided[name], (key, proc.name, cmd)
        assert sorted(provided) == ["minic", "minijs", "rust", "while"]


def _lower(em, name, value):
    """A callback that emits ``name := value`` and yields ``value``."""

    def lower():
        em.emit(Assignment(name, Lit(value)))
        return Lit(value)

    return lower


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

    def test_assume_vanishes_when_false(self):
        em = Emitter()
        em.assume(PVar("a"))
        em.emit(Return(Lit(0)))
        assert em.finish() == (IfGoto(PVar("a"), 2), Vanish(), Return(Lit(0)))

    def test_assert_fails_with_its_text(self):
        em = Emitter()
        em.assert_(PVar("a"), "a < 1")
        em.emit(Return(Lit(0)))
        assert em.finish() == (
            IfGoto(PVar("a"), 2),
            Fail(lst("assertion-failure", "a < 1")),
            Return(Lit(0)),
        )

    def test_if_else_branch_falls_through(self):
        em = Emitter()
        em.if_(PVar("c"), _lower(em, "x", 1), _lower(em, "x", 2))
        em.emit(Return(PVar("x")))
        assert em.finish() == (
            IfGoto(PVar("c"), 3),
            Assignment("x", Lit(2)),
            Goto(4),
            Assignment("x", Lit(1)),
            Return(PVar("x")),
        )

    @pytest.mark.parametrize("with_step", [False, True])
    def test_loop_continue_targets_step_or_head(self, with_step):
        em = Emitter()

        def body():
            em.emit(Goto(em.loop_exit("continue")))
            em.emit(Goto(em.loop_exit("break")))

        em.emit(Assignment("i", Lit(0)))
        em.loop(lambda: PVar("c"), body, _lower(em, "i", 1) if with_step else None)
        cmds = em.finish()
        end = len(cmds)
        assert cmds[:3] == (Assignment("i", Lit(0)), IfGoto(PVar("c"), 3), Goto(end))
        if with_step:
            assert cmds[3:] == (Goto(5), Goto(7), Assignment("i", Lit(1)), Goto(1))
        else:
            assert cmds[3:] == (Goto(1), Goto(6), Goto(1))

    def test_loop_without_condition_runs_until_break(self):
        em = Emitter()
        em.loop(None, lambda: em.emit(Goto(em.loop_exit("break"))), lambda: None)
        assert em.finish() == (Goto(2), Goto(0))

    def test_loop_exit_outside_a_loop(self):
        from repro.frontend import CompileError

        em = Emitter()
        em.loop(lambda: PVar("c"), lambda: em.loop_exit("break"))
        for kind in ("break", "continue"):
            with pytest.raises(CompileError, match=f"^{kind} outside a loop$"):
                em.loop_exit(kind)

    def test_choose_lowers_each_side_on_its_side(self):
        em = Emitter()
        temps = []

        def cond():
            temps.append(em.fresh_temp())
            return PVar("c")

        result = em.choose("pick", cond, _lower(em, "then", 1), _lower(em, "else", 2))
        assert (result, temps) == (PVar("__pick1"), ["__t2"])
        assert em.finish() == (
            IfGoto(PVar("c"), 4),
            Assignment("else", Lit(2)),
            Assignment("__pick1", Lit(2)),
            Goto(6),
            Assignment("then", Lit(1)),
            Assignment("__pick1", Lit(1)),
        )

    @pytest.mark.parametrize(
        "op,test,decided",
        [("&&", PVar("a"), False), ("||", UnOpExpr(UnOp.NOT, PVar("a")), True)],
    )
    def test_short_circuit_lowers_right_only_when_undecided(self, op, test, decided):
        em = Emitter()
        result = em.short_circuit(op, lambda: PVar("a"), _lower(em, "r", 1))
        assert result == PVar("__sc1")
        assert em.finish() == (
            IfGoto(test, 3),
            Assignment("__sc1", Lit(decided)),
            Goto(5),
            Assignment("r", Lit(1)),
            Assignment("__sc1", Lit(1)),
        )

    def test_symbolic_assumes_type_then_integer_then_bounds(self):
        em = Emitter()
        x = em.symbolic("x", GilType.NUMBER, True, (0, 255))
        cmds = em.finish()
        assert x == PVar("x") and cmds[0] == ISym("x", 0)
        assert [type(c) for c in cmds[1:]] == [IfGoto, Vanish] * 3
        assert [c.condition for c in cmds if isinstance(c, IfGoto)] == [
            x.typeof().eq(Lit(GilType.NUMBER)),
            UnOpExpr(UnOp.FLOOR, x).eq(x),
            Lit(0).leq(x).and_(x.leq(Lit(255))),
        ]
        untyped = Emitter()
        untyped.symbolic("y")
        assert untyped.finish() == (ISym("y", 0),)

    def test_comparisons(self):
        a, b = PVar("a"), PVar("b")
        assert {op: lower(a, b) for op, lower in COMPARISONS.items()} == {
            "==": BinOpExpr(BinOp.EQ, a, b),
            "!=": UnOpExpr(UnOp.NOT, BinOpExpr(BinOp.EQ, a, b)),
            "<": BinOpExpr(BinOp.LT, a, b),
            "<=": BinOpExpr(BinOp.LEQ, a, b),
            ">": BinOpExpr(BinOp.LT, b, a),
            ">=": BinOpExpr(BinOp.LEQ, b, a),
        }
