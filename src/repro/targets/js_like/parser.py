"""Parser for MiniJS.

JavaScript-flavoured concrete syntax:

    function bag_add(bag, item) {
      var count = bag_count(bag, item);
      bag.data[item] = count + 1;
      bag.size = bag.size + 1;
      return true;
    }

    function test_add() {
      var bag = { data: {}, size: 0 };
      var x = symb_number();
      bag_add(bag, x);
      assert(bag.size === 1);
    }

Supported statements: ``var``, assignments (including ``+=``, ``-=``,
``++``, ``--`` and member targets), ``if``/``else``, ``while``, ``for``,
``return``, ``break``, ``continue``, ``delete o[p]``, expression
statements, ``assume(e)``, ``assert(e)``.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.frontend.lexer import ParseError, Token, TokenStream, tokenize
from repro.targets.js_like import ast

_KEYWORDS = {
    "function", "var", "if", "else", "while", "for", "return", "break",
    "continue", "delete", "true", "false", "null", "undefined", "typeof",
    "assume", "assert",
}

_SYMB_TYPES = {
    "symb": None,
    "symb_number": "number",
    "symb_int": "int",
    "symb_string": "string",
    "symb_bool": "bool",
}

#: Binary operators for ``TokenStream.binary``, one string per level,
#: loosest first; ``?:`` sits below them in ``_parse_expr``.
_BINARY = {
    op: (level, "punct", partial(ast.Binary, op))
    for level, ops in enumerate(["||", "&&", "=== !==", "<= >= < >", "+ -", "* / %"])
    for op in ops.split()
}


def parse_program(source: str) -> ast.Program:
    ts = TokenStream(tokenize(source))
    functions: List[ast.FunctionDef] = []
    while ts.current.kind != "eof":
        functions.append(_parse_function(ts))
    return ast.Program(tuple(functions))


def _parse_function(ts: TokenStream) -> ast.FunctionDef:
    ts.expect("function", kind="ident")
    name = ts.expect_kind("ident").text
    ts.expect("(")
    params = ts.items(lambda ts: ts.expect_kind("ident").text, ")")
    return ast.FunctionDef(name, params, ts.block(_parse_stmt))


def _parse_body_or_stmt(ts: TokenStream) -> Tuple[ast.Statement, ...]:
    if ts.at("{"):
        return ts.block(_parse_stmt)
    return (_parse_stmt(ts),)


def _parse_stmt(ts: TokenStream) -> ast.Statement:
    tok = ts.current

    if tok.kind == "ident" and tok.text in _KEYWORDS:
        if ts.accept("var", kind="ident"):
            name = ts.expect_kind("ident").text
            init = None
            if ts.accept("="):
                init = _parse_expr(ts)
            ts.expect(";")
            return ast.VarDecl(name, init)
        if ts.accept("if", kind="ident"):
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            then_body = _parse_body_or_stmt(ts)
            else_body: Tuple[ast.Statement, ...] = ()
            if ts.accept("else", kind="ident"):
                else_body = _parse_body_or_stmt(ts)
            return ast.IfStmt(cond, then_body, else_body)
        if ts.accept("while", kind="ident"):
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            return ast.WhileStmt(cond, _parse_body_or_stmt(ts))
        if ts.accept("for", kind="ident"):
            ts.expect("(")
            init: Optional[ast.Statement] = None
            if not ts.at(";"):
                init = _parse_simple_stmt(ts)
            ts.expect(";")
            cond: Optional[ast.Expression] = None
            if not ts.at(";"):
                cond = _parse_expr(ts)
            ts.expect(";")
            step: Optional[ast.Statement] = None
            if not ts.at(")"):
                step = _parse_simple_stmt(ts)
            ts.expect(")")
            return ast.ForStmt(init, cond, step, _parse_body_or_stmt(ts))
        if ts.accept("return", kind="ident"):
            expr = None
            if not ts.at(";"):
                expr = _parse_expr(ts)
            ts.expect(";")
            return ast.ReturnStmt(expr)
        if ts.accept("break", kind="ident"):
            ts.expect(";")
            return ast.BreakStmt()
        if ts.accept("continue", kind="ident"):
            ts.expect(";")
            return ast.ContinueStmt()
        if ts.accept("delete", kind="ident"):
            target = _parse_unary(ts)
            if not isinstance(target, ast.Member):
                raise ParseError("delete target must be a property access", tok)
            ts.expect(";")
            return ast.DeleteStmt(target.obj, target.prop)
        if ts.accept("assume", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssumeStmt(expr)
        if ts.accept("assert", kind="ident"):
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssertStmt(expr)
        raise ParseError(f"unexpected keyword {tok.text!r}", tok)

    stmt = _parse_simple_stmt(ts)
    ts.expect(";")
    return stmt


def _parse_simple_stmt(ts: TokenStream) -> ast.Statement:
    """An assignment / var / increment / expression statement (no ';')."""
    tok = ts.current
    if ts.accept("var", kind="ident"):
        name = ts.expect_kind("ident").text
        init = None
        if ts.accept("="):
            init = _parse_expr(ts)
        return ast.VarDecl(name, init)

    expr = _parse_expr(ts)

    # Increment / decrement: x++ / x-- / o.p++ …
    for op, delta in (("++", "+"), ("--", "-")):
        if ts.accept(op):
            return _make_assign(tok, expr, ast.Binary(delta, expr, ast.Literal(1)))
    # Compound assignment.
    for op in ("+=", "-=", "*=", "/=", "%="):
        if ts.accept(op):
            value = _parse_expr(ts)
            return _make_assign(tok, expr, ast.Binary(op[0], expr, value))
    if ts.accept("="):
        value = _parse_expr(ts)
        return _make_assign(tok, expr, value)
    return ast.ExprStmt(expr)


def _make_assign(tok: Token, target: ast.Expression, value: ast.Expression) -> ast.Statement:
    if isinstance(target, ast.Var):
        return ast.AssignVar(target.name, value)
    if isinstance(target, ast.Member):
        return ast.AssignMember(target.obj, target.prop, value)
    raise ParseError("invalid assignment target", tok)


# -- expressions ----------------------------------------------------------------

def _parse_expr(ts: TokenStream) -> ast.Expression:
    """``c ? a : b`` over the binary operators, which all bind tighter."""
    cond = ts.binary(_BINARY, _parse_unary)
    if ts.accept("?"):
        then_expr = _parse_expr(ts)
        ts.expect(":")
        else_expr = _parse_expr(ts)
        return ast.Conditional(cond, then_expr, else_expr)
    return cond


def _parse_unary(ts: TokenStream) -> ast.Expression:
    if ts.accept("-"):
        return ast.Unary("-", _parse_unary(ts))
    if ts.accept("!"):
        return ast.Unary("!", _parse_unary(ts))
    if ts.at("typeof", kind="ident"):
        ts.advance()
        return ast.Unary("typeof", _parse_unary(ts))
    return _parse_postfix(ts)


def _parse_postfix(ts: TokenStream) -> ast.Expression:
    expr = _parse_primary(ts)
    while True:
        if ts.accept("."):
            prop = ts.expect_kind("ident").text
            expr = ast.Member(expr, ast.Literal(prop))
        elif ts.accept("["):
            prop = _parse_expr(ts)
            ts.expect("]")
            expr = ast.Member(expr, prop)
        elif ts.accept("("):
            expr = ast.CallExpr(expr, ts.items(_parse_expr, ")"))
        else:
            return expr


def _parse_primary(ts: TokenStream) -> ast.Expression:
    tok = ts.current
    if tok.kind == "number":
        ts.advance()
        return ast.Literal(tok.number_value)
    if tok.kind == "string":
        ts.advance()
        return ast.Literal(tok.text)
    if ts.accept("true", kind="ident"):
        return ast.Literal(True)
    if ts.accept("false", kind="ident"):
        return ast.Literal(False)
    if ts.accept("null", kind="ident"):
        return ast.NullLit()
    if ts.accept("undefined", kind="ident"):
        return ast.Undefined()
    if ts.accept("("):
        expr = _parse_expr(ts)
        ts.expect(")")
        return expr
    if ts.accept("{"):
        return ast.ObjectLit(ts.items(_parse_object_prop, "}"))
    if ts.accept("["):
        return ast.ArrayLit(ts.items(_parse_expr, "]"))
    if tok.kind == "ident":
        if tok.text in _SYMB_TYPES:
            ts.advance()
            ts.expect("(")
            ts.expect(")")
            return ast.SymbolicExpr(_SYMB_TYPES[tok.text])
        if tok.text in _KEYWORDS:
            raise ParseError(f"unexpected keyword {tok.text!r}", tok)
        ts.advance()
        return ast.Var(tok.text)
    raise ParseError(f"unexpected token {tok.text!r}", tok)


def _parse_object_prop(ts: TokenStream) -> Tuple[str, ast.Expression]:
    tok = ts.current
    if tok.kind not in ("ident", "string", "number"):
        raise ParseError("expected a property name", tok)
    ts.advance()
    ts.expect(":")
    return tok.text, _parse_expr(ts)
