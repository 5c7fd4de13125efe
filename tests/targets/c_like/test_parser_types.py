"""Tests for the MiniC parser and type layout."""

import pytest

from repro.frontend import CompileError
from repro.frontend.lexer import ParseError
from repro.targets.c_like import ast
from repro.targets.c_like.ctypes import (
    CHAR,
    INT,
    VOID,
    ArrayType,
    PointerType,
    StructType,
    TypeTable,
)
from repro.targets.c_like.parser import parse_program


def parse_main(body: str, prelude: str = "") -> ast.FuncDef:
    program = parse_program(f"{prelude}\nint main() {{ {body} }}")
    return program.functions[-1]


def first_stmt(body: str, prelude: str = "") -> ast.Statement:
    return parse_main(body, prelude).body[0]


def expr_of(text: str) -> ast.Expression:
    stmt = first_stmt(f"int x = {text};")
    assert isinstance(stmt, ast.Decl)
    return stmt.init


class TestLayout:
    def test_scalar_sizes(self):
        t = TypeTable()
        assert t.size_of(INT) == 4
        assert t.size_of(CHAR) == 1
        assert t.size_of(PointerType(INT)) == 8

    def test_struct_layout_with_padding(self):
        t = TypeTable()
        layout = t.define_struct("S", [("c", CHAR), ("n", INT), ("p", PointerType(VOID))])
        assert layout.fields["c"][0] == 0
        assert layout.fields["n"][0] == 4   # padded to int alignment
        assert layout.fields["p"][0] == 8
        assert layout.size == 16
        assert layout.align == 8

    def test_struct_of_struct(self):
        t = TypeTable()
        t.define_struct("Inner", [("a", INT), ("b", INT)])
        layout = t.define_struct("Outer", [("c", CHAR), ("i", StructType("Inner"))])
        assert layout.fields["i"][0] == 4
        assert layout.size == 12

    def test_array_field(self):
        t = TypeTable()
        layout = t.define_struct("Buf", [("data", ArrayType(INT, 4)), ("n", INT)])
        assert layout.fields["n"][0] == 16
        assert layout.size == 20

    def test_redefinition_rejected(self):
        t = TypeTable()
        t.define_struct("S", [("a", INT)])
        with pytest.raises(CompileError, match="struct S redefined"):
            t.define_struct("S", [("a", INT)])

    def test_chunks(self):
        t = TypeTable()
        assert t.chunk_of(INT) == (4, 4, "int32")
        assert t.chunk_of(CHAR) == (1, 1, "int8")
        assert t.chunk_of(PointerType(INT)) == (8, 8, "ptr")


class TestParserDeclarations:
    def test_struct_def(self):
        program = parse_program(
            "struct Node { int value; struct Node *next; };"
            "int main() { return 0; }"
        )
        struct = program.structs[0]
        assert struct.name == "Node"
        assert struct.fields[0] == ("value", INT)
        assert struct.fields[1] == ("next", PointerType(StructType("Node")))

    def test_pointer_levels(self):
        stmt = first_stmt("int **pp = NULL;")
        assert stmt.type == PointerType(PointerType(INT))

    def test_array_decl(self):
        stmt = first_stmt("int a[4];")
        assert stmt == ast.ArrayDecl(INT, "a", 4)

    def test_params(self):
        program = parse_program("int f(int a, char *s) { return a; } int main() { return 0; }")
        params = program.functions[0].params
        assert params[0].type == INT
        assert params[1].type == PointerType(CHAR)

    def test_void_param_list(self):
        program = parse_program("int f(void) { return 0; } int main() { return 0; }")
        assert program.functions[0].params == ()


class TestParserStatements:
    def test_deref_assign(self):
        stmt = first_stmt("int *p = NULL; *p = 1;", "")
        stmt2 = parse_main("int *p = NULL; *p = 1;").body[1]
        assert isinstance(stmt2, ast.Assign)
        assert isinstance(stmt2.target, ast.Unary) and stmt2.target.op == "*"

    def test_arrow_assign(self):
        prelude = "struct N { int v; };"
        stmt = parse_main("struct N *n = NULL; n->v = 3;", prelude).body[1]
        assert isinstance(stmt.target, ast.Member) and stmt.target.arrow

    def test_index_assign(self):
        stmt = parse_main("int a[2]; a[1] = 5;").body[1]
        assert isinstance(stmt.target, ast.Index)

    def test_increment(self):
        stmt = parse_main("int i = 0; i++;").body[1]
        assert stmt == ast.Assign(
            ast.Var("i"), ast.Binary("+", ast.Var("i"), ast.IntLit(1))
        )

    def test_for_loop(self):
        stmt = first_stmt("for (int i = 0; i < 3; i++) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.Decl)

    def test_assume_assert(self):
        assert isinstance(first_stmt("assume(1 < 2);"), ast.AssumeStmt)
        assert isinstance(first_stmt("assert(1 < 2);"), ast.AssertStmt)


class TestParserExpressions:
    def test_char_literal_is_code(self):
        assert expr_of("'a'") == ast.CharLit("a")

    def test_string_literal(self):
        stmt = first_stmt('char *s = "hi";')
        assert stmt.init == ast.StrLit("hi")

    def test_null(self):
        assert expr_of("NULL") == ast.NullLit()

    def test_sizeof(self):
        assert expr_of("sizeof(int)") == ast.SizeofExpr(INT)
        assert expr_of("sizeof(struct Node)") == ast.SizeofExpr(StructType("Node"))

    def test_cast(self):
        e = expr_of("(int *) malloc(4)")
        assert isinstance(e, ast.Cast)
        assert e.type == PointerType(INT)

    def test_arrow_chain(self):
        e = expr_of("n->next->value")
        assert isinstance(e, ast.Member) and e.field == "value"
        assert isinstance(e.obj, ast.Member) and e.obj.field == "next"

    def test_address_of(self):
        e = expr_of("&v")
        assert e == ast.Unary("&", ast.Var("v"))

    def test_deref_in_expression(self):
        e = expr_of("*p + 1")
        assert isinstance(e, ast.Binary)
        assert isinstance(e.left, ast.Unary) and e.left.op == "*"

    def test_precedence(self):
        e = expr_of("a + b * c")
        assert e == ast.Binary(
            "+", ast.Var("a"), ast.Binary("*", ast.Var("b"), ast.Var("c"))
        )

    def test_logical(self):
        e = expr_of("a && b || !c")
        assert isinstance(e, ast.Binary) and e.op == "||"

    def test_symbolic_inputs(self):
        assert expr_of("symb_int()") == ast.SymbolicExpr("int")
        assert expr_of("symb_char()") == ast.SymbolicExpr("char")

    def test_no_floats(self):
        with pytest.raises(ParseError):
            parse_program("int main() { int x = 1.5; }")
