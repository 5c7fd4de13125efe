"""Parser for MiniC.

C-flavoured concrete syntax:

    struct Node { int value; struct Node *next; };

    struct Node *node_new(int v) {
      struct Node *n = (struct Node *) malloc(sizeof(struct Node));
      n->value = v;
      n->next = NULL;
      return n;
    }

    void test_node() {
      int x = symb_int();
      struct Node *n = node_new(x);
      assert(n->value == x);
      free(n);
    }

Types: ``int``, ``char``, ``void``, ``struct S``, any level of ``*``.
Statements: declarations (with optional initialiser and stack arrays
``int a[4];``), assignments (including ``*p = e``, ``p->f = e``,
``a[i] = e``, ``+=``-family, ``++``/``--``), ``if``/``else``, ``while``,
``for``, ``return``, ``break``, ``continue``, expression statements,
``assume``/``assert``.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from repro.frontend.lexer import ParseError, TokenStream, tokenize
from repro.targets.c_like import ast
from repro.targets.c_like.ctypes import (
    CHAR,
    INT,
    VOID,
    ArrayType,
    CType,
    PointerType,
    StructType,
)

_KEYWORDS = {
    "struct", "int", "char", "void", "if", "else", "while", "for", "return",
    "break", "continue", "sizeof", "NULL", "assume", "assert",
}

_SYMB_TYPES = {
    "symb": None,
    "symb_int": "int",
    "symb_char": "char",
    "symb_bool": "bool",
}

#: Binary operators for ``TokenStream.binary``, one string per level,
#: loosest first.
_BINARY = {
    op: (level, "punct", partial(ast.Binary, op))
    for level, ops in enumerate(["||", "&&", "== !=", "<= >= < >", "+ -", "* / %"])
    for op in ops.split()
}


def parse_program(source: str) -> ast.Program:
    ts = TokenStream(tokenize(source, char_literals=True))
    structs: List[ast.StructDef] = []
    functions: List[ast.FuncDef] = []
    while ts.current.kind != "eof":
        if ts.at("struct", kind="ident") and ts.peek(2).text == "{":
            structs.append(_parse_struct(ts))
        else:
            functions.append(_parse_function(ts))
    return ast.Program(tuple(structs), tuple(functions))


def _at_type(ts: TokenStream) -> bool:
    tok = ts.current
    return tok.kind == "ident" and tok.text in ("int", "char", "void", "struct")


def _parse_type(ts: TokenStream) -> CType:
    tok = ts.current
    if ts.accept("int", kind="ident"):
        base: CType = INT
    elif ts.accept("char", kind="ident"):
        base = CHAR
    elif ts.accept("void", kind="ident"):
        base = VOID
    elif ts.accept("struct", kind="ident"):
        name = ts.expect_kind("ident").text
        base = StructType(name)
    else:
        raise ParseError(f"expected a type, found {tok.text!r}", tok)
    while ts.accept("*"):
        base = PointerType(base)
    return base


def _parse_struct(ts: TokenStream) -> ast.StructDef:
    ts.expect("struct", kind="ident")
    name = ts.expect_kind("ident").text
    fields = ts.block(_parse_field)
    ts.expect(";")
    return ast.StructDef(name, fields)


def _parse_field(ts: TokenStream) -> Tuple[str, CType]:
    ftype = _parse_type(ts)
    fname = ts.expect_kind("ident").text
    if ts.accept("["):
        length = int(ts.expect_kind("number").text)
        ts.expect("]")
        ftype = ArrayType(ftype, length)
    ts.expect(";")
    return fname, ftype


def _parse_function(ts: TokenStream) -> ast.FuncDef:
    ret_type = _parse_type(ts)
    name = ts.expect_kind("ident").text
    ts.expect("(")
    if ts.at("void", kind="ident") and ts.peek(1).text == ")":
        ts.advance()
    params = ts.items(_parse_param, ")")
    return ast.FuncDef(ret_type, name, params, ts.block(_parse_stmt))


def _parse_param(ts: TokenStream) -> ast.Param:
    ptype = _parse_type(ts)
    name = ts.expect_kind("ident").text
    return ast.Param(ptype, name)


def _parse_body_or_stmt(ts: TokenStream) -> Tuple[ast.Statement, ...]:
    if ts.at("{"):
        return ts.block(_parse_stmt)
    return (_parse_stmt(ts),)


def _parse_stmt(ts: TokenStream) -> ast.Statement:
    tok = ts.current
    if tok.kind == "ident" and tok.text in _KEYWORDS:
        if ts.at("if", kind="ident"):
            ts.advance()
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            then_body = _parse_body_or_stmt(ts)
            else_body: Tuple[ast.Statement, ...] = ()
            if ts.accept("else", kind="ident"):
                else_body = _parse_body_or_stmt(ts)
            return ast.IfStmt(cond, then_body, else_body)
        if ts.at("while", kind="ident"):
            ts.advance()
            ts.expect("(")
            cond = _parse_expr(ts)
            ts.expect(")")
            return ast.WhileStmt(cond, _parse_body_or_stmt(ts))
        if ts.at("for", kind="ident"):
            ts.advance()
            ts.expect("(")
            init = None if ts.at(";") else _parse_simple_stmt(ts)
            ts.expect(";")
            cond = None if ts.at(";") else _parse_expr(ts)
            ts.expect(";")
            step = None if ts.at(")") else _parse_simple_stmt(ts)
            ts.expect(")")
            return ast.ForStmt(init, cond, step, _parse_body_or_stmt(ts))
        if ts.at("return", kind="ident"):
            ts.advance()
            expr = None if ts.at(";") else _parse_expr(ts)
            ts.expect(";")
            return ast.ReturnStmt(expr)
        if ts.at("break", kind="ident"):
            ts.advance()
            ts.expect(";")
            return ast.BreakStmt()
        if ts.at("continue", kind="ident"):
            ts.advance()
            ts.expect(";")
            return ast.ContinueStmt()
        if ts.at("assume", kind="ident"):
            ts.advance()
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssumeStmt(expr)
        if ts.at("assert", kind="ident"):
            ts.advance()
            ts.expect("(")
            expr = _parse_expr(ts)
            ts.expect(")")
            ts.expect(";")
            return ast.AssertStmt(expr)
        if _at_type(ts):
            stmt = _parse_decl(ts)
            ts.expect(";")
            return stmt
        raise ParseError(f"unexpected keyword {tok.text!r}", tok)
    stmt = _parse_simple_stmt(ts)
    ts.expect(";")
    return stmt


def _parse_decl(ts: TokenStream) -> ast.Statement:
    decl_type = _parse_type(ts)
    name = ts.expect_kind("ident").text
    if ts.accept("["):
        length = int(ts.expect_kind("number").text)
        ts.expect("]")
        return ast.ArrayDecl(decl_type, name, length)
    init = None
    if ts.accept("="):
        init = _parse_expr(ts)
    return ast.Decl(decl_type, name, init)


def _parse_simple_stmt(ts: TokenStream) -> ast.Statement:
    if _at_type(ts):
        return _parse_decl(ts)
    tok = ts.current
    expr = _parse_expr(ts)
    for op, delta in (("++", "+"), ("--", "-")):
        if ts.accept(op):
            return ast.Assign(expr, ast.Binary(delta, expr, ast.IntLit(1)))
    for op in ("+=", "-=", "*=", "/=", "%="):
        if ts.accept(op):
            value = _parse_expr(ts)
            return ast.Assign(expr, ast.Binary(op[0], expr, value))
    if ts.accept("="):
        return ast.Assign(expr, _parse_expr(ts))
    return ast.ExprStmt(expr)


# -- expressions -------------------------------------------------------------------


def _parse_expr(ts: TokenStream) -> ast.Expression:
    return ts.binary(_BINARY, _parse_unary)


def _parse_unary(ts: TokenStream) -> ast.Expression:
    if ts.accept("-"):
        return ast.Unary("-", _parse_unary(ts))
    if ts.accept("!"):
        return ast.Unary("!", _parse_unary(ts))
    if ts.accept("*"):
        return ast.Unary("*", _parse_unary(ts))
    if ts.accept("&"):
        return ast.Unary("&", _parse_unary(ts))
    if ts.at("sizeof", kind="ident"):
        ts.advance()
        ts.expect("(")
        t = _parse_type(ts)
        ts.expect(")")
        return ast.SizeofExpr(t)
    # Cast: '(' type ... ')'
    if ts.at("(") and ts.peek(1).kind == "ident" and ts.peek(1).text in (
        "int", "char", "void", "struct"
    ):
        ts.expect("(")
        t = _parse_type(ts)
        ts.expect(")")
        return ast.Cast(t, _parse_unary(ts))
    return _parse_postfix(ts)


def _parse_postfix(ts: TokenStream) -> ast.Expression:
    expr = _parse_primary(ts)
    while True:
        if ts.accept("->"):
            field = ts.expect_kind("ident").text
            expr = ast.Member(expr, field, arrow=True)
        elif ts.accept("."):
            field = ts.expect_kind("ident").text
            expr = ast.Member(expr, field, arrow=False)
        elif ts.accept("["):
            index = _parse_expr(ts)
            ts.expect("]")
            expr = ast.Index(expr, index)
        else:
            return expr


def _parse_primary(ts: TokenStream) -> ast.Expression:
    tok = ts.current
    if tok.kind == "number":
        ts.advance()
        value = tok.number_value
        if isinstance(value, float):
            raise ParseError("MiniC has no floating-point literals", tok)
        return ast.IntLit(value)
    if tok.kind == "string":
        ts.advance()
        return ast.StrLit(tok.text)
    if tok.kind == "char":
        ts.advance()
        if len(tok.text) != 1:
            raise ParseError("char literal must be a single character", tok)
        return ast.CharLit(tok.text)
    if ts.accept("NULL", kind="ident"):
        return ast.NullLit()
    if ts.accept("("):
        expr = _parse_expr(ts)
        ts.expect(")")
        return expr
    if tok.kind == "ident":
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
