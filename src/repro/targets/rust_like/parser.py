"""Parser for MiniRust.

Concrete syntax (Rust-flavoured, braces mandatory, no parens needed
around ``if``/``while`` conditions)::

    fn sum(v: &[i64]) -> i64 {
      let mut i = 0; let mut total = 0;
      while i < len(v) { total = total + v[i]; i = i + 1; }
      return total;
    }

    fn main() -> i64 {
      let n = symb_int();
      assume(0 <= n && n <= 10);
      let b = Box::new(n);
      let r = &b;
      let v = *r + 1;
      drop(r);
      drop(b);
      assert!(v <= 11);
      return v;
    }

Expressions: integer/boolean literals, variables, arithmetic with
``+ - * / %``, comparisons, ``&&``/``||``/``!``, deref ``*e``, borrows
``&x`` / ``&mut x``, indexing ``e[i]``, array literals ``[e1, ..., en]``,
``Box::new(e)``, calls, and the symbolic inputs ``symb_int()`` /
``symb_bool()``.  ``assert`` accepts both ``assert(e)`` and the
Rust-style ``assert!(e)``; ``Box::new`` lexes as the four tokens
``Box : : new`` (the shared lexer has no ``::`` punctuator).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.frontend.lexer import ParseError, TokenStream, tokenize
from repro.targets.rust_like import ast

_KEYWORDS = {
    "fn", "let", "mut", "if", "else", "while", "return", "break",
    "continue", "drop", "assume", "assert", "true", "false",
}

_SYMB_TYPES = {"symb_int": "int", "symb_bool": "bool"}

#: Binary operators for ``TokenStream.binary``, one string per level,
#: loosest first.
_BINARY = {
    op: (level, "punct", partial(ast.Binary, op))
    for level, ops in enumerate(["||", "&&", "== !=", "<= >= < >", "+ -", "* / %"])
    for op in ops.split()
}


def parse_program(source: str) -> ast.Program:
    """Parse a MiniRust compilation unit."""
    ts = TokenStream(tokenize(source))
    functions: List[ast.FnDef] = []
    while ts.current.kind != "eof":
        functions.append(_parse_fn(ts))
    return ast.Program(tuple(functions))


def _parse_fn(ts: TokenStream) -> ast.FnDef:
    """``fn name(params) -> T { ... }``"""
    ts.expect("fn", kind="ident")
    name = ts.expect_kind("ident").text
    ts.expect("(")
    params = ts.items(_parse_param, ")")
    ret_type: Optional[ast.TypeExpr] = None
    if ts.accept("->"):
        ret_type = _parse_type(ts)
    return ast.FnDef(name, params, ret_type, ts.block(_parse_stmt))


def _parse_param(ts: TokenStream) -> ast.Param:
    """``name: T``"""
    name = ts.expect_kind("ident").text
    ts.expect(":")
    return ast.Param(name, _parse_type(ts))


def _parse_type(ts: TokenStream) -> ast.TypeExpr:
    """A type: ``i64``, ``bool``, ``&[mut] T``, ``Box<T>``, ``[T; n]``."""
    if ts.accept("&"):
        is_mut = bool(ts.accept("mut", kind="ident"))
        inner = _parse_type(ts)
        return ast.TypeExpr(inner.name, ref=not is_mut, ref_mut=is_mut)
    if ts.accept("["):
        _parse_type(ts)
        if ts.accept(";"):
            ts.expect_kind("number")
        ts.expect("]")
        return ast.TypeExpr("array")
    name = ts.expect_kind("ident").text
    if ts.accept("<"):
        _parse_type(ts)
        ts.expect(">")
    return ast.TypeExpr(name)


def _parse_stmt(ts: TokenStream) -> ast.Node:
    """One statement."""
    tok = ts.current
    if tok.kind == "ident" and tok.text in _KEYWORDS:
        if ts.accept("let", kind="ident"):
            mutable = bool(ts.accept("mut", kind="ident"))
            name = ts.expect_kind("ident").text
            type_: Optional[ast.TypeExpr] = None
            if ts.accept(":"):
                type_ = _parse_type(ts)
            ts.expect("=")
            value = _parse_expr(ts)
            ts.expect(";")
            return ast.LetStmt(name, value, mutable, type_)
        if ts.accept("if", kind="ident"):
            return _parse_if(ts)
        if ts.accept("while", kind="ident"):
            cond = _parse_expr(ts)
            return ast.WhileStmt(cond, ts.block(_parse_stmt))
        if ts.accept("return", kind="ident"):
            if ts.accept(";"):
                return ast.ReturnStmt(None)
            expr = _parse_expr(ts)
            ts.expect(";")
            return ast.ReturnStmt(expr)
        if ts.accept("break", kind="ident"):
            ts.expect(";")
            return ast.BreakStmt()
        if ts.accept("continue", kind="ident"):
            ts.expect(";")
            return ast.ContinueStmt()
        if ts.accept("drop", kind="ident"):
            ts.expect("(")
            name = ts.expect_kind("ident").text
            ts.expect(")")
            ts.expect(";")
            return ast.DropStmt(name)
        if ts.accept("assume", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssumeStmt(expr)
        if ts.accept("assert", kind="ident"):
            ts.accept("!")
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssertStmt(expr)
        raise ParseError(f"unexpected keyword {tok.text!r}", tok)

    expr = _parse_expr(ts)
    if ts.accept("="):
        value = _parse_expr(ts)
        ts.expect(";")
        return ast.AssignStmt(expr, value)
    ts.expect(";")
    return ast.ExprStmt(expr)


def _parse_if(ts: TokenStream) -> ast.IfStmt:
    """The body of an ``if`` whose keyword is already consumed."""
    cond = _parse_expr(ts)
    then_body = ts.block(_parse_stmt)
    else_body: Tuple[ast.Node, ...] = ()
    if ts.accept("else", kind="ident"):
        if ts.accept("if", kind="ident"):
            else_body = (_parse_if(ts),)
        else:
            else_body = ts.block(_parse_stmt)
    return ast.IfStmt(cond, then_body, else_body)


# -- expressions ---------------------------------------------------------------


def _parse_expr(ts: TokenStream) -> ast.Node:
    """Lowest-precedence entry point."""
    return ts.binary(_BINARY, _parse_unary)


def _parse_unary(ts: TokenStream) -> ast.Node:
    """``- ! * & &mut`` prefixes."""
    if ts.accept("-"):
        return ast.Unary("-", _parse_unary(ts))
    if ts.accept("!"):
        return ast.Unary("!", _parse_unary(ts))
    if ts.accept("*"):
        return ast.Unary("*", _parse_unary(ts))
    if ts.accept("&"):
        if ts.accept("mut", kind="ident"):
            return ast.Unary("&mut", _parse_unary(ts))
        return ast.Unary("&", _parse_unary(ts))
    return _parse_postfix(ts)


def _parse_postfix(ts: TokenStream) -> ast.Node:
    """Indexing postfixes: ``e[i]``."""
    expr = _parse_primary(ts)
    while ts.accept("["):
        index = _parse_expr(ts)
        ts.expect("]")
        expr = ast.Index(expr, index)
    return expr


def _parse_primary(ts: TokenStream) -> ast.Node:
    """Literals, variables, calls, ``Box::new``, arrays, parens."""
    tok = ts.current
    if tok.kind == "number":
        ts.advance()
        value = tok.number_value
        if not isinstance(value, int):
            if value != int(value):
                raise ParseError("MiniRust integers must be integral", tok)
            value = int(value)
        return ast.IntLit(value)
    if ts.accept("true", kind="ident"):
        return ast.BoolLit(True)
    if ts.accept("false", kind="ident"):
        return ast.BoolLit(False)
    if ts.accept("("):
        expr = _parse_expr(ts)
        ts.expect(")")
        return expr
    if ts.accept("["):
        items = ts.items(_parse_expr, "]")
        if not items:
            raise ParseError("empty array literal", tok)
        return ast.ArrayLit(items)
    if tok.kind == "ident":
        if tok.text == "Box" and ts.peek(1).text == ":":
            ts.advance()
            ts.expect(":")
            ts.expect(":")
            ts.expect("new", kind="ident")
            ts.expect("(")
            value = _parse_expr(ts)
            ts.expect(")")
            return ast.BoxNew(value)
        if tok.text in _SYMB_TYPES:
            ts.advance()
            ts.expect("(")
            ts.expect(")")
            return ast.SymbolicExpr(_SYMB_TYPES[tok.text])
        if tok.text in _KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok)
        ts.advance()
        if ts.accept("("):
            return ast.CallExpr(tok.text, ts.items(_parse_expr, ")"))
        return ast.Var(tok.text)
    raise ParseError(f"unexpected token {tok.text!r}", tok)
