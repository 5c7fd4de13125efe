"""Parser for the While language (paper §2.2).

Concrete syntax (statements end in ``;``, blocks are braced):

    proc sum(xs) {
      i := 0; total := 0;
      while (i < len(xs)) { total := total + nth(xs, i); i := i + 1; }
      return total;
    }

    proc main() {
      n := symb_number();
      assume(0 <= n);
      o := { count: n, name: "box" };
      c := o.count;
      assert(c = n);
      return null;
    }

Expression builtins: ``len``, ``slen``, ``typeof``, ``nth``, ``snth``,
``hd``, ``tl``, ``str``, ``num``, ``floor``, ``min``, ``max``; list
literals ``[e1, ..., en]``; equality is ``=`` (with ``!=`` sugar).
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

from repro.frontend.lexer import ParseError, TokenStream, tokenize
from repro.gil.values import NULL
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    EList,
    Expr,
    Lit,
    PVar,
    UnOp,
    UnOpExpr,
)
from repro.targets.while_lang.ast import (
    Assert,
    Assign,
    Assume,
    CallStmt,
    Dispose,
    If,
    Lookup,
    Mutate,
    New,
    ProcDef,
    Program,
    ReturnStmt,
    Skip,
    Stmt,
    SymbolicInput,
    While,
)

_KEYWORDS = {
    "proc", "if", "else", "while", "return", "assume", "assert", "dispose",
    "skip", "true", "false", "null", "and", "or", "not",
    "symb", "symb_number", "symb_int", "symb_string", "symb_bool",
}

_BUILTIN_UNARY = {
    "len": UnOp.LSTLEN,
    "slen": UnOp.STRLEN,
    "typeof": UnOp.TYPEOF,
    "hd": UnOp.HEAD,
    "tl": UnOp.TAIL,
    "str": UnOp.TOSTRING,
    "num": UnOp.TONUMBER,
    "floor": UnOp.FLOOR,
}

_BUILTIN_BINARY = {
    "nth": BinOp.LNTH,
    "snth": BinOp.SNTH,
    "min": BinOp.MIN,
    "max": BinOp.MAX,
    "cons": BinOp.LCONS,
}

_SYMB_TYPES = {
    "symb": None,
    "symb_number": "number",
    "symb_int": "int",
    "symb_string": "string",
    "symb_bool": "bool",
}


#: Binary operators for ``TokenStream.binary``: text -> (level, token
#: kind, build); ``!=`` is ``not (a = b)``, and ``>=``/``>`` swap their
#: operands into ``<=``/``<``.
_BINARY = {
    "or": (0, "ident", partial(BinOpExpr, BinOp.OR)),
    "and": (1, "ident", partial(BinOpExpr, BinOp.AND)),
    "=": (2, "punct", partial(BinOpExpr, BinOp.EQ)),
    "!=": (2, "punct", lambda a, b: UnOpExpr(UnOp.NOT, BinOpExpr(BinOp.EQ, a, b))),
    "<=": (2, "punct", partial(BinOpExpr, BinOp.LEQ)),
    "<": (2, "punct", partial(BinOpExpr, BinOp.LT)),
    ">=": (2, "punct", lambda a, b: BinOpExpr(BinOp.LEQ, b, a)),
    ">": (2, "punct", lambda a, b: BinOpExpr(BinOp.LT, b, a)),
    "++": (3, "punct", partial(BinOpExpr, BinOp.SCONCAT)),
    "+": (3, "punct", partial(BinOpExpr, BinOp.ADD)),
    "-": (3, "punct", partial(BinOpExpr, BinOp.SUB)),
    "*": (4, "punct", partial(BinOpExpr, BinOp.MUL)),
    "/": (4, "punct", partial(BinOpExpr, BinOp.DIV)),
    "%": (4, "punct", partial(BinOpExpr, BinOp.MOD)),
}


def parse_program(source: str) -> Program:
    ts = TokenStream(tokenize(source))
    procs = []
    while ts.current.kind != "eof":
        procs.append(_parse_proc(ts))
    return Program(tuple(procs))


def _parse_proc(ts: TokenStream) -> ProcDef:
    ts.expect("proc", kind="ident")
    name = ts.expect_kind("ident").text
    ts.expect("(")
    params = ts.items(lambda ts: ts.expect_kind("ident").text, ")")
    return ProcDef(name, params, ts.block(_parse_stmt))


def _parse_stmt(ts: TokenStream) -> Stmt:
    tok = ts.current
    if tok.kind == "ident" and tok.text in _KEYWORDS:
        if ts.accept("skip", kind="ident"):
            ts.expect(";")
            return Skip()
        if ts.accept("if", kind="ident"):
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            then_body = ts.block(_parse_stmt)
            else_body: Tuple[Stmt, ...] = ()
            if ts.accept("else", kind="ident"):
                else_body = ts.block(_parse_stmt)
            return If(cond, then_body, else_body)
        if ts.accept("while", kind="ident"):
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            return While(cond, ts.block(_parse_stmt))
        if ts.accept("return", kind="ident"):
            expr = _parse_expr(ts)
            ts.expect(";")
            return ReturnStmt(expr)
        if ts.accept("assume", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return Assume(expr)
        if ts.accept("assert", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return Assert(expr)
        if ts.accept("dispose", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return Dispose(expr)
        raise ParseError(f"unexpected keyword {tok.text!r}", tok)

    # Assignment-like statements: x := ... | e.p := e'
    expr = _parse_expr(ts)
    if ts.at("."):
        ts.expect(".")
        prop = ts.expect_kind("ident").text
        ts.expect(":=")
        value = _parse_expr(ts)
        ts.expect(";")
        return Mutate(expr, prop, value)
    if not isinstance(expr, PVar):
        raise ParseError("expected a statement", tok)
    target = expr.name
    ts.expect(":=")
    stmt = _parse_rhs(ts, target)
    ts.expect(";")
    return stmt


def _parse_rhs(ts: TokenStream, target: str) -> Stmt:
    tok = ts.current
    # Object creation: x := { p: e, ... }
    if ts.accept("{"):
        return New(target, ts.items(_parse_prop, "}"))
    # Symbolic input: x := symb_number();
    if tok.kind == "ident" and tok.text in _SYMB_TYPES:
        ts.advance()
        ts.expect("(")
        ts.expect(")")
        return SymbolicInput(target, _SYMB_TYPES[tok.text])
    # Static call: x := f(e, ...) — an identifier applied but not a builtin.
    if (
        tok.kind == "ident"
        and tok.text not in _KEYWORDS
        and tok.text not in _BUILTIN_UNARY
        and tok.text not in _BUILTIN_BINARY
        and ts.peek(1).kind == "punct"
        and ts.peek(1).text == "("
    ):
        func = ts.advance().text
        ts.expect("(")
        return CallStmt(target, func, ts.items(_parse_expr, ")"))
    # Property lookup: x := e.p — or a plain expression assignment.
    expr = _parse_expr(ts)
    if ts.at("."):
        ts.expect(".")
        prop = ts.expect_kind("ident").text
        return Lookup(target, expr, prop)
    return Assign(target, expr)


def _parse_prop(ts: TokenStream) -> Tuple[str, Expr]:
    name_tok = ts.current
    if name_tok.kind not in ("ident", "string"):
        raise ParseError("expected a property name", name_tok)
    ts.advance()
    ts.expect(":")
    return name_tok.text, _parse_expr(ts)


# -- expressions --------------------------------------------------------------


def _parse_expr(ts: TokenStream) -> Expr:
    return ts.binary(_BINARY, _parse_unary)


def _parse_unary(ts: TokenStream) -> Expr:
    if ts.accept("-"):
        return UnOpExpr(UnOp.NEG, _parse_unary(ts))
    if ts.at("not", kind="ident"):
        ts.advance()
        return UnOpExpr(UnOp.NOT, _parse_unary(ts))
    return _parse_primary(ts)


def _parse_primary(ts: TokenStream) -> Expr:
    tok = ts.current
    if tok.kind == "number":
        ts.advance()
        return Lit(tok.number_value)
    if tok.kind == "string":
        ts.advance()
        return Lit(tok.text)
    if ts.accept("true", kind="ident"):
        return Lit(True)
    if ts.accept("false", kind="ident"):
        return Lit(False)
    if ts.accept("null", kind="ident"):
        return Lit(NULL)
    if ts.accept("("):
        expr = _parse_expr(ts)
        ts.expect(")")
        return expr
    if ts.accept("["):
        return EList(ts.items(_parse_expr, "]"))
    if tok.kind == "ident":
        if tok.text in _BUILTIN_UNARY:
            ts.advance()
            ts.expect("(")
            operand = _parse_expr(ts)
            ts.expect(")")
            return UnOpExpr(_BUILTIN_UNARY[tok.text], operand)
        if tok.text in _BUILTIN_BINARY:
            ts.advance()
            ts.expect("(")
            left = _parse_expr(ts)
            ts.expect(",")
            right = _parse_expr(ts)
            ts.expect(")")
            return BinOpExpr(_BUILTIN_BINARY[tok.text], left, right)
        if tok.text in _KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok)
        ts.advance()
        return PVar(tok.text)
    raise ParseError(f"unexpected token {tok.text!r}", tok)
