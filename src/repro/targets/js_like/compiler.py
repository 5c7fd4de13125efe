"""The MiniJS-to-GIL compiler (paper §4.1).

Follows the JaVerT methodology the paper inherits: the TL memory model is
preserved (the compiler only emits the eight JS actions), TL control flow
is trivially compiled to GIL conditional gotos, and JS-specific dynamic
behaviour (``+`` overloading, ``typeof``) is compiled to explicit GIL
branching / internal GIL procedures, the way JaVerT compiles ES5's
internal functions to JSIL.

Highlights:

* object/array literals compile to ``uSym`` + ``initObj`` + ``setProp``
  (fresh locations come from Gillian's built-in allocator, §2.2);
* ``o[e]`` compiles to ``getProp`` with a *symbolic* property expression —
  the source of the JS memory model's branching;
* ``a + b`` dispatches at run time on the type of ``a`` (number addition
  vs string concatenation);
* ``&&``/``||`` short-circuit via gotos; ``c ? a : b`` likewise;
* ``typeof`` calls the internal procedure ``__js_typeof`` (emitted into
  every compiled program), returning JS type names.
"""

from __future__ import annotations

from typing import Set

from repro.frontend.emitter import (
    ARITHMETIC,
    COMPARISONS,
    CompileError,
    Emitter,
    Label,
    arguments,
)
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Goto,
    IfGoto,
    Proc,
    Prog,
    Return,
    USym,
    allocate_sites,
)
from repro.gil.values import GilType
from repro.logic.expr import (
    BinOp,
    BinOpExpr,
    Expr,
    Lit,
    PVar,
    UnOp,
    UnOpExpr,
    lst,
)
from repro.targets.js_like import ast
from repro.targets.js_like.memory import JSNULL, UNDEFINED

#: ``symb_*`` type name -> :meth:`Emitter.symbolic`'s assumptions
_SYMB = {
    None: (),
    "number": (GilType.NUMBER,),
    "int": (GilType.NUMBER, True),
    "string": (GilType.STRING,),
    "bool": (GilType.BOOLEAN,),
}

#: JS comparison operator -> its :data:`COMPARISONS` key
_COMPARE = {"===": "==", "!==": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Built-in global functions compiled inline to GIL operators.
_INLINE_UNARY = {
    "floor": UnOp.FLOOR,
    "strlen": UnOp.STRLEN,
    "str_of": UnOp.TOSTRING,
    "num_of": UnOp.TONUMBER,
}
_INLINE_BINARY = {
    "char_at": BinOp.SNTH,
    "min_of": BinOp.MIN,
    "max_of": BinOp.MAX,
}


def compile_source(source: str) -> Prog:
    from repro.targets.js_like.parser import parse_program

    return compile_program(parse_program(source))


def compile_program(program: ast.Program) -> Prog:
    function_names = {f.name for f in program.functions}
    prog = Prog()
    for func in program.functions:
        compiler = _FunctionCompiler(function_names)
        prog.add(compiler.compile(func))
    prog.add(_make_js_typeof())
    return allocate_sites(prog)


def _collect_locals(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set(func.params)

    def visit_stmt(stmt: ast.Statement) -> None:
        if isinstance(stmt, (ast.VarDecl, ast.AssignVar)):
            names.add(stmt.name)
        for attr in ("then_body", "else_body", "body"):
            for sub in getattr(stmt, attr, ()):
                visit_stmt(sub)
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                visit_stmt(stmt.init)
            if stmt.step is not None:
                visit_stmt(stmt.step)

    for stmt in func.body:
        visit_stmt(stmt)
    return names


class _FunctionCompiler:
    def __init__(self, function_names: Set[str]) -> None:
        self.function_names = function_names
        self.em = Emitter()
        self.locals: Set[str] = set()

    def compile(self, func: ast.FunctionDef) -> Proc:
        self.locals = _collect_locals(func)
        self.stmts(func.body)
        self.em.emit(Return(Lit(UNDEFINED)))
        return Proc(func.name, func.params, self.em.finish())

    # -- statements -----------------------------------------------------------

    def stmt(self, stmt: ast.Statement) -> None:
        em = self.em
        if isinstance(stmt, ast.VarDecl):
            value = self.expr(stmt.init) if stmt.init is not None else Lit(UNDEFINED)
            em.emit(Assignment(stmt.name, value))
            return
        if isinstance(stmt, ast.AssignVar):
            em.emit(Assignment(stmt.name, self.expr(stmt.value)))
            return
        if isinstance(stmt, ast.AssignMember):
            obj = self.expr(stmt.obj)
            prop = self.expr(stmt.prop)
            value = self.expr(stmt.value)
            em.emit(ActionCall(em.fresh_temp(), "setProp", lst(obj, prop, value)))
            return
        if isinstance(stmt, ast.DeleteStmt):
            obj = self.expr(stmt.obj)
            prop = self.expr(stmt.prop)
            em.emit(ActionCall(em.fresh_temp(), "delProp", lst(obj, prop)))
            return
        if isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr)
            return
        if isinstance(stmt, ast.IfStmt):
            em.if_(
                self.expr(stmt.cond),
                lambda: self.stmts(stmt.then_body),
                lambda: self.stmts(stmt.else_body),
            )
            return
        if isinstance(stmt, ast.WhileStmt):
            em.loop(lambda: self.expr(stmt.cond), lambda: self.stmts(stmt.body))
            return
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self.stmt(stmt.init)
            step = () if stmt.step is None else (stmt.step,)
            em.loop(
                None if stmt.cond is None else lambda: self.expr(stmt.cond),
                lambda: self.stmts(stmt.body),
                lambda: self.stmts(step),
            )
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self.expr(stmt.expr) if stmt.expr is not None else Lit(UNDEFINED)
            em.emit(Return(value))
            return
        if isinstance(stmt, ast.BreakStmt):
            em.emit(Goto(em.loop_exit("break")))
            return
        if isinstance(stmt, ast.ContinueStmt):
            em.emit(Goto(em.loop_exit("continue")))
            return
        if isinstance(stmt, ast.AssumeStmt):
            em.assume(self.expr(stmt.expr))
            return
        if isinstance(stmt, ast.AssertStmt):
            em.assert_(self.expr(stmt.expr), repr(stmt.expr))
            return
        raise CompileError(f"unknown statement {stmt!r}")

    def stmts(self, body) -> None:
        for stmt in body:
            self.stmt(stmt)

    # -- expressions ------------------------------------------------------------

    def expr(self, e: ast.Expression) -> Expr:
        """Compile an expression; effectful parts go through fresh temps."""
        em = self.em
        if isinstance(e, ast.Literal):
            return Lit(e.value)
        if isinstance(e, ast.Undefined):
            return Lit(UNDEFINED)
        if isinstance(e, ast.NullLit):
            return Lit(JSNULL)
        if isinstance(e, ast.Var):
            if e.name in self.locals:
                return PVar(e.name)
            if e.name in self.function_names:
                return Lit(e.name)  # by-name function value
            raise CompileError(f"unknown identifier {e.name!r}")
        if isinstance(e, ast.ObjectLit):
            return self._object_literal(e)
        if isinstance(e, ast.ArrayLit):
            return self._array_literal(e)
        if isinstance(e, ast.Member):
            obj = self.expr(e.obj)
            prop = self.expr(e.prop)
            target = em.fresh_temp("get")
            em.emit(ActionCall(target, "getProp", lst(obj, prop)))
            return PVar(target)
        if isinstance(e, ast.CallExpr):
            return self._call(e)
        if isinstance(e, ast.Unary):
            return self._unary(e)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Conditional):
            return em.choose(
                "cond",
                lambda: self.expr(e.cond),
                lambda: self.expr(e.then_expr),
                lambda: self.expr(e.else_expr),
            )
        if isinstance(e, ast.SymbolicExpr):
            return em.symbolic(em.fresh_temp("symb"), *_SYMB[e.type_name])
        raise CompileError(f"unknown expression {e!r}")

    def _object_literal(self, e: ast.ObjectLit) -> Expr:
        em = self.em
        target = em.fresh_temp("obj")
        em.emit(USym(target, 0))
        em.emit(
            ActionCall(em.fresh_temp(), "initObj", lst(PVar(target), "Object"))
        )
        for prop, value in e.props:
            compiled = self.expr(value)
            em.emit(
                ActionCall(
                    em.fresh_temp(), "setProp", lst(PVar(target), prop, compiled)
                )
            )
        return PVar(target)

    def _array_literal(self, e: ast.ArrayLit) -> Expr:
        em = self.em
        target = em.fresh_temp("arr")
        em.emit(USym(target, 0))
        em.emit(ActionCall(em.fresh_temp(), "initObj", lst(PVar(target), "Array")))
        for i, item in enumerate(e.items):
            compiled = self.expr(item)
            em.emit(
                ActionCall(em.fresh_temp(), "setProp", lst(PVar(target), i, compiled))
            )
        em.emit(
            ActionCall(
                em.fresh_temp(), "setProp", lst(PVar(target), "length", len(e.items))
            )
        )
        return PVar(target)

    def _call(self, e: ast.CallExpr) -> Expr:
        em = self.em
        # Inline builtins.
        if isinstance(e.callee, ast.Var) and e.callee.name not in self.locals:
            name = e.callee.name
            if name in _INLINE_UNARY:
                (arg,) = [self.expr(a) for a in arguments(name, e.args, 1)]
                return UnOpExpr(_INLINE_UNARY[name], arg)
            if name in _INLINE_BINARY:
                a, b = [self.expr(a) for a in arguments(name, e.args, 2)]
                return BinOpExpr(_INLINE_BINARY[name], a, b)
            if name == "dispose":
                (arg,) = [self.expr(a) for a in arguments(name, e.args, 1)]
                em.emit(ActionCall(em.fresh_temp(), "dispose", lst(arg)))
                return Lit(UNDEFINED)
            if name == "has_prop":
                obj, prop = [self.expr(a) for a in arguments(name, e.args, 2)]
                target = em.fresh_temp("has")
                em.emit(ActionCall(target, "hasProp", lst(obj, prop)))
                return PVar(target)
        callee = self.expr(e.callee)
        args = tuple(self.expr(a) for a in e.args)
        target = em.fresh_temp("ret")
        em.emit(Call(target, callee, args))
        return PVar(target)

    def _unary(self, e: ast.Unary) -> Expr:
        operand = self.expr(e.operand)
        if e.op == "-":
            return UnOpExpr(UnOp.NEG, operand)
        if e.op == "!":
            return UnOpExpr(UnOp.NOT, operand)
        if e.op == "typeof":
            target = self.em.fresh_temp("ty")
            self.em.emit(Call(target, Lit("__js_typeof"), (operand,)))
            return PVar(target)
        raise CompileError(f"unknown unary operator {e.op!r}")

    def _binary(self, e: ast.Binary) -> Expr:
        if e.op == "&&" or e.op == "||":
            return self.em.short_circuit(
                e.op, lambda: self.expr(e.left), lambda: self.expr(e.right)
            )
        left = self.expr(e.left)
        right = self.expr(e.right)
        if e.op == "+":
            return self._plus(left, right)
        if e.op in ARITHMETIC:
            return BinOpExpr(ARITHMETIC[e.op], left, right)
        if e.op in _COMPARE:
            return COMPARISONS[_COMPARE[e.op]](left, right)
        raise CompileError(f"unknown binary operator {e.op!r}")

    def _plus(self, left: Expr, right: Expr) -> Expr:
        """JS ``+``: string concatenation when the left operand is a
        string, numeric addition otherwise — dispatched at run time."""
        if isinstance(left, Lit):
            if isinstance(left.value, str):
                return BinOpExpr(BinOp.SCONCAT, left, right)
            if isinstance(left.value, (int, float)):
                return BinOpExpr(BinOp.ADD, left, right)
        return self.em.choose(
            "plus",
            lambda: left.typeof().eq(Lit(GilType.STRING)),
            lambda: BinOpExpr(BinOp.SCONCAT, left, right),
            lambda: BinOpExpr(BinOp.ADD, left, right),
        )


def _make_js_typeof() -> Proc:
    """The internal GIL procedure implementing JS ``typeof``."""
    em = Emitter()
    v = PVar("v")
    cases = [
        (GilType.NUMBER, "number"),
        (GilType.STRING, "string"),
        (GilType.BOOLEAN, "boolean"),
    ]
    labels = [Label(f"ty_{name}") for _, name in cases]
    undef_label = Label("ty_undef")
    for (gil_type, _), label in zip(cases, labels):
        em.emit(IfGoto(v.typeof().eq(Lit(gil_type)), label))
    em.emit(IfGoto(v.eq(Lit(UNDEFINED)), undef_label))
    em.emit(Return(Lit("object")))
    for (_, name), label in zip(cases, labels):
        em.mark(label)
        em.emit(Return(Lit(name)))
    em.mark(undef_label)
    em.emit(Return(Lit("undefined")))
    return Proc("__js_typeof", ("v",), em.finish())
