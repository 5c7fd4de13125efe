"""A textual format for GIL programs (printer and parser).

The OCaml Gillian ships a ``.gil`` concrete syntax so compiled programs
can be inspected, stored, and re-loaded.  This module provides the same
for the reproduction: :func:`print_prog` renders a program, and
:func:`parse_prog` reads it back; the two round-trip
(``parse_prog(print_prog(p)) == p``).

Format, one command per line, indices implicit:

    proc main(x, y) {
      0: x := (x + 1)
      1: ifgoto (x < y) 3
      2: goto 4
      3: r := lookup([x, "p"])
      4: return r
    }

Values print as in the engine: strings quoted, symbols ``$name``,
logical variables ``#name`` (only in specs), lists bracketed, types
``@Num``-style, ``null``, ``true``/``false``.
"""

from __future__ import annotations

from typing import List

from repro.frontend.lexer import ParseError, TokenStream, tokenize
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Command,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    USym,
    Vanish,
)
from repro.gil.values import NULL, GilType, Null, Symbol, Value
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    EList,
    Expr,
    Lit,
    LVar,
    PVar,
    UnOp,
    UnOpExpr,
)

# -- printing -------------------------------------------------------------------


def print_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
        return str(int(v))
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, Symbol):
        return f"${v.name}"
    if isinstance(v, GilType):
        return f"@{v.name}"
    if isinstance(v, Null):
        return "null"
    if isinstance(v, tuple):
        return "{{" + ", ".join(print_value(item) for item in v) + "}}"
    raise TypeError(f"not a GIL value: {v!r}")


#: Identifier-safe operator spellings for the text format (GIL's internal
#: spellings like ``s++`` do not lex as single tokens).
_UNOP_NAMES = {
    UnOp.NOT: "not", UnOp.NEG: "-", UnOp.TYPEOF: "typeof",
    UnOp.STRLEN: "s_len", UnOp.LSTLEN: "l_len", UnOp.HEAD: "hd",
    UnOp.TAIL: "tl", UnOp.TOSTRING: "num_to_str",
    UnOp.TONUMBER: "str_to_num", UnOp.FLOOR: "floor",
}
_BINOP_NAMES = {
    BinOp.ADD: "+", BinOp.SUB: "-", BinOp.MUL: "*", BinOp.DIV: "/",
    BinOp.MOD: "%", BinOp.EQ: "=", BinOp.LT: "<", BinOp.LEQ: "<=",
    BinOp.AND: "and", BinOp.OR: "or", BinOp.SCONCAT: "s_concat",
    BinOp.SNTH: "s_nth", BinOp.LCONCAT: "l_concat", BinOp.LNTH: "l_nth",
    BinOp.LCONS: "l_cons", BinOp.MIN: "min", BinOp.MAX: "max",
}
_UNOPS_BY_NAME = {name: op for op, name in _UNOP_NAMES.items()}
_BINOPS_BY_NAME = {name: op for op, name in _BINOP_NAMES.items()}


def print_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return print_value(e.value)
    if isinstance(e, PVar):
        return e.name
    if isinstance(e, LVar):
        return f"#{e.name}"
    if isinstance(e, UnOpExpr):
        # ``(- 1)`` would re-parse as the start of a binary expression
        # over the literal -1; print negated numeric literals directly.
        if (
            e.op is UnOp.NEG
            and isinstance(e.operand, Lit)
            and isinstance(e.operand.value, (int, float))
            and not isinstance(e.operand.value, bool)
        ):
            return print_value(-e.operand.value)
        return f"({_UNOP_NAMES[e.op]}! {print_expr(e.operand)})"
    if isinstance(e, BinOpExpr):
        return (
            f"({print_expr(e.left)} {_BINOP_NAMES[e.op]} {print_expr(e.right)})"
        )
    if isinstance(e, EList):
        return "[" + ", ".join(print_expr(item) for item in e.items) + "]"
    raise TypeError(f"not an expression: {e!r}")


def print_command(cmd: Command) -> str:
    if isinstance(cmd, Assignment):
        return f"{cmd.target} := {print_expr(cmd.expr)}"
    if isinstance(cmd, IfGoto):
        return f"ifgoto {print_expr(cmd.condition)} {cmd.target}"
    if isinstance(cmd, Goto):
        return f"goto {cmd.target}"
    if isinstance(cmd, Call):
        args = ", ".join(print_expr(a) for a in cmd.args)
        return f"{cmd.target} := call {print_expr(cmd.callee)}({args})"
    if isinstance(cmd, Return):
        return f"return {print_expr(cmd.expr)}"
    if isinstance(cmd, Fail):
        return f"fail {print_expr(cmd.expr)}"
    if isinstance(cmd, Vanish):
        return "vanish"
    if isinstance(cmd, ActionCall):
        return f"{cmd.target} := action {cmd.action}({print_expr(cmd.arg)})"
    if isinstance(cmd, USym):
        return f"{cmd.target} := uSym_{cmd.site}"
    if isinstance(cmd, ISym):
        return f"{cmd.target} := iSym_{cmd.site}"
    raise TypeError(f"not a command: {cmd!r}")


def print_proc(proc: Proc) -> str:
    lines = [f"proc {proc.name}({', '.join(proc.params)}) {{"]
    for i, cmd in enumerate(proc.body):
        lines.append(f"  {i}: {print_command(cmd)}")
    lines.append("}")
    return "\n".join(lines)


def print_prog(prog: Prog) -> str:
    return "\n\n".join(print_proc(p) for p in prog.procs.values()) + "\n"


# -- parsing --------------------------------------------------------------------

_PUNCT = [
    ":=", "<=", "{{", "}}", "!",
    "+", "-", "*", "/", "%", "<", "=", "(", ")", "[", "]", "{", "}",
    ",", ":", ";", "#", "$", "@",
]



def parse_prog(text: str) -> Prog:
    ts = TokenStream(tokenize(text, punct=_PUNCT))
    prog = Prog()
    while ts.current.kind != "eof":
        prog.add(_parse_proc(ts))
    return prog


def _parse_proc(ts: TokenStream) -> Proc:
    ts.expect("proc", kind="ident")
    name = ts.expect_kind("ident").text
    ts.expect("(")
    params = ts.items(lambda ts: ts.expect_kind("ident").text, ")")
    ts.expect("{")
    body: List[Command] = []
    while not ts.at("}"):
        tok = ts.expect_kind("number")
        idx = int(tok.text)
        if idx != len(body):
            raise ParseError(f"command index {idx} out of order", tok)
        ts.expect(":")
        body.append(_parse_command(ts))
    ts.expect("}")
    return Proc(name, params, tuple(body))


def _parse_command(ts: TokenStream) -> Command:
    tok = ts.current
    if ts.accept("ifgoto", kind="ident"):
        cond = _parse_expr(ts)
        target = int(ts.expect_kind("number").text)
        return IfGoto(cond, target)
    if ts.accept("goto", kind="ident"):
        return Goto(int(ts.expect_kind("number").text))
    if ts.accept("return", kind="ident"):
        return Return(_parse_expr(ts))
    if ts.accept("fail", kind="ident"):
        return Fail(_parse_expr(ts))
    if ts.accept("vanish", kind="ident"):
        return Vanish()
    # target := ...
    target = ts.expect_kind("ident").text
    ts.expect(":=")
    if ts.at("call", kind="ident"):
        ts.advance()
        callee = _parse_expr(ts)
        ts.expect("(")
        return Call(target, callee, ts.items(_parse_expr, ")"))
    if ts.at("action", kind="ident"):
        ts.advance()
        action = ts.expect_kind("ident").text
        ts.expect("(")
        arg = _parse_expr(ts)
        ts.expect(")")
        return ActionCall(target, action, arg)
    tok = ts.current
    if tok.kind == "ident" and tok.text.startswith("uSym_"):
        ts.advance()
        return USym(target, int(tok.text[len("uSym_"):]))
    if tok.kind == "ident" and tok.text.startswith("iSym_"):
        ts.advance()
        return ISym(target, int(tok.text[len("iSym_"):]))
    return Assignment(target, _parse_expr(ts))


def _parse_expr(ts: TokenStream) -> Expr:
    tok = ts.current
    if ts.accept("("):
        # Unary: "(op e)"; binary: "(e op e)".
        first = ts.current
        if (
            first.kind == "ident"
            and first.text in _UNOPS_BY_NAME
            and ts.peek(1).text == "!"
        ):
            ts.advance()
            ts.expect("!")
            operand = _parse_expr(ts)
            ts.expect(")")
            return UnOpExpr(_UNOPS_BY_NAME[first.text], operand)
        if first.kind == "punct" and first.text == "-" and ts.peek(1).text == "!":
            # "(-! e)" is unary negation of a non-literal operand.
            ts.advance()
            ts.expect("!")
            operand = _parse_expr(ts)
            ts.expect(")")
            return UnOpExpr(UnOp.NEG, operand)
        left = _parse_expr(ts)
        op_tok = ts.advance()
        op_text = op_tok.text
        if op_text not in _BINOPS_BY_NAME:
            raise ParseError(f"unknown operator {op_text!r}", op_tok)
        right = _parse_expr(ts)
        ts.expect(")")
        return BinOpExpr(_BINOPS_BY_NAME[op_text], left, right)
    if ts.accept("["):
        return EList(ts.items(_parse_expr, "]"))
    if ts.accept("#"):
        return LVar(ts.expect_kind("ident").text)
    return Lit(_parse_value(ts)) if _at_value(ts) else PVar(ts.expect_kind("ident").text)


def _at_value(ts: TokenStream) -> bool:
    tok = ts.current
    if tok.kind in ("number", "string"):
        return True
    if tok.kind == "punct" and tok.text in ("$", "@", "{{", "-"):
        return True
    return tok.kind == "ident" and tok.text in ("true", "false", "null")


def _parse_value(ts: TokenStream) -> Value:
    tok = ts.current
    if tok.kind == "number":
        ts.advance()
        return tok.number_value
    if tok.kind == "punct" and tok.text == "-":
        ts.advance()
        inner = _parse_value(ts)
        return -inner
    if tok.kind == "string":
        ts.advance()
        return tok.text
    if ts.accept("true", kind="ident"):
        return True
    if ts.accept("false", kind="ident"):
        return False
    if ts.accept("null", kind="ident"):
        return NULL
    if ts.accept("$"):
        return Symbol(ts.expect_kind("ident").text)
    if ts.accept("@"):
        return GilType[ts.expect_kind("ident").text]
    if ts.accept("{{"):
        return ts.items(_parse_value, "}}")
    raise ParseError(f"expected a value, found {tok.text!r}", tok)
