"""MiniJS abstract syntax.

MiniJS is the ES5-Strict-like target language of the Gillian-JS
reproduction (paper §4.1).  It keeps the features that make the JavaScript
memory model interesting — extensible objects, *dynamic* property access
``o[e]``, object metadata, property deletion, functions as first-class
(by-name) values — and drops what the evaluation does not need
(prototypes, closures, ``this``, coercions beyond ``+`` dispatch).
Deviations from full JS are catalogued in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


class Node:
    """Base class for all MiniJS AST nodes."""

    __slots__ = ()


# -- expressions ---------------------------------------------------------------


class Expression(Node):
    """Base class for MiniJS expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    """Number, string, or boolean literal."""

    value: object  # number | str | bool | "null"/"undefined" markers handled below


@dataclass(frozen=True)
class Undefined(Expression):
    """The ``undefined`` literal."""

    pass


@dataclass(frozen=True)
class NullLit(Expression):
    """The ``null`` literal."""

    pass


@dataclass(frozen=True)
class Var(Expression):
    """Variable reference."""

    name: str


@dataclass(frozen=True)
class ObjectLit(Expression):
    """``{p1: e1, ...}`` object literal."""

    props: Tuple[Tuple[str, Expression], ...]


@dataclass(frozen=True)
class ArrayLit(Expression):
    """``[e1, ..., en]`` array literal."""

    items: Tuple[Expression, ...]


@dataclass(frozen=True)
class Member(Expression):
    """o.p (static) or o[e] (dynamic): prop is an Expression either way."""

    obj: Expression
    prop: Expression


@dataclass(frozen=True)
class CallExpr(Expression):
    """f(args) — callee is an expression (identifier, variable, member)."""

    callee: Expression
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class Unary(Expression):
    """Unary operator application."""

    op: str  # "-" | "!" | "typeof"
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    """Binary operator application."""

    op: str  # + - * / % === !== < <= > >= && ||
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Conditional(Expression):
    """c ? a : b"""

    cond: Expression
    then_expr: Expression
    else_expr: Expression


@dataclass(frozen=True)
class SymbolicExpr(Expression):
    """symb() / symb_number() / symb_int() / symb_string() / symb_bool()."""

    type_name: Optional[str]


# -- statements ----------------------------------------------------------------


class Statement(Node):
    """Base class for MiniJS statements."""

    __slots__ = ()


@dataclass(frozen=True)
class VarDecl(Statement):
    """``var name = init;``."""

    name: str
    init: Optional[Expression]


@dataclass(frozen=True)
class AssignVar(Statement):
    """``name = value;``."""

    name: str
    value: Expression


@dataclass(frozen=True)
class AssignMember(Statement):
    """``o.p = value;`` / ``o[e] = value;``."""

    obj: Expression
    prop: Expression
    value: Expression


@dataclass(frozen=True)
class DeleteStmt(Statement):
    """``delete o.p;`` / ``delete o[e];``."""

    obj: Expression
    prop: Expression


@dataclass(frozen=True)
class ExprStmt(Statement):
    """An expression evaluated for its side effects."""

    expr: Expression


@dataclass(frozen=True)
class IfStmt(Statement):
    """``if (cond) { ... } else { ... }``."""

    cond: Expression
    then_body: Tuple[Statement, ...]
    else_body: Tuple[Statement, ...]


@dataclass(frozen=True)
class WhileStmt(Statement):
    """``while (cond) { ... }``."""

    cond: Expression
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class ForStmt(Statement):
    """``for (init; cond; step) { ... }``."""

    init: Optional[Statement]
    cond: Optional[Expression]
    step: Optional[Statement]
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class ReturnStmt(Statement):
    """``return e;``."""

    expr: Optional[Expression]


@dataclass(frozen=True)
class BreakStmt(Statement):
    """``break;``."""

    pass


@dataclass(frozen=True)
class ContinueStmt(Statement):
    """``continue;``."""

    pass


@dataclass(frozen=True)
class AssumeStmt(Statement):
    """``assume(e);`` — prune paths where ``e`` is false."""

    expr: Expression


@dataclass(frozen=True)
class AssertStmt(Statement):
    """``assert(e);`` — flag paths where ``e`` can be false."""

    expr: Expression


# -- program -------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionDef(Node):
    """A top-level function definition."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class Program(Node):
    """A complete MiniJS program."""

    functions: Tuple[FunctionDef, ...]
