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

from typing import List, Set, Tuple

from repro.frontend.emitter import CompileError, Emitter, Label
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Fail,
    Goto,
    IfGoto,
    ISym,
    Proc,
    Prog,
    Return,
    USym,
    Vanish,
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

ACTIONS = frozenset(
    {
        "initObj",
        "dispose",
        "getProp",
        "setProp",
        "delProp",
        "hasProp",
        "getMetadata",
        "setMetadata",
    }
)


_SYMB_TYPE = {
    "number": GilType.NUMBER,
    "int": GilType.NUMBER,
    "string": GilType.STRING,
    "bool": GilType.BOOLEAN,
}

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
        # (break_label, continue_label) stack for loops.
        self.loop_stack: List[Tuple[Label, Label]] = []

    def compile(self, func: ast.FunctionDef) -> Proc:
        self.locals = _collect_locals(func)
        for stmt in func.body:
            self.stmt(stmt)
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
            then_label, end_label = Label("then"), Label("endif")
            cond = self.expr(stmt.cond)
            em.emit(IfGoto(cond, then_label))
            for s in stmt.else_body:
                self.stmt(s)
            em.emit(Goto(end_label))
            em.mark(then_label)
            for s in stmt.then_body:
                self.stmt(s)
            em.mark(end_label)
            return
        if isinstance(stmt, ast.WhileStmt):
            start, body_label, end = Label("loop"), Label("lbody"), Label("endloop")
            em.mark(start)
            cond = self.expr(stmt.cond)
            em.emit(IfGoto(cond, body_label))
            em.emit(Goto(end))
            em.mark(body_label)
            self.loop_stack.append((end, start))
            for s in stmt.body:
                self.stmt(s)
            self.loop_stack.pop()
            em.emit(Goto(start))
            em.mark(end)
            return
        if isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self.stmt(stmt.init)
            start, body_label, step_label, end = (
                Label("for"),
                Label("fbody"),
                Label("fstep"),
                Label("endfor"),
            )
            em.mark(start)
            if stmt.cond is not None:
                cond = self.expr(stmt.cond)
                em.emit(IfGoto(cond, body_label))
                em.emit(Goto(end))
                em.mark(body_label)
            # continue jumps to the step, not the condition.
            self.loop_stack.append((end, step_label))
            for s in stmt.body:
                self.stmt(s)
            self.loop_stack.pop()
            em.mark(step_label)
            if stmt.step is not None:
                self.stmt(stmt.step)
            em.emit(Goto(start))
            em.mark(end)
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self.expr(stmt.expr) if stmt.expr is not None else Lit(UNDEFINED)
            em.emit(Return(value))
            return
        if isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise CompileError("break outside a loop")
            em.emit(Goto(self.loop_stack[-1][0]))
            return
        if isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise CompileError("continue outside a loop")
            em.emit(Goto(self.loop_stack[-1][1]))
            return
        if isinstance(stmt, ast.AssumeStmt):
            self._assume(self.expr(stmt.expr))
            return
        if isinstance(stmt, ast.AssertStmt):
            ok = Label("assert_ok")
            cond = self.expr(stmt.expr)
            self.em.emit(IfGoto(cond, ok))
            self.em.emit(Fail(lst("assertion-failure", repr(stmt.expr))))
            self.em.mark(ok)
            return
        raise CompileError(f"unknown statement {stmt!r}")

    def _assume(self, condition: Expr) -> None:
        ok = Label("assume_ok")
        self.em.emit(IfGoto(condition, ok))
        self.em.emit(Vanish())
        self.em.mark(ok)

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
        if isinstance(e, ast.FuncRef):
            return Lit(e.name)
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
            return self._conditional(e)
        if isinstance(e, ast.SymbolicExpr):
            return self._symbolic(e)
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
                (arg,) = [self.expr(a) for a in e.args]
                return UnOpExpr(_INLINE_UNARY[name], arg)
            if name in _INLINE_BINARY:
                a, b = [self.expr(a) for a in e.args]
                return BinOpExpr(_INLINE_BINARY[name], a, b)
            if name == "dispose":
                (arg,) = [self.expr(a) for a in e.args]
                em.emit(ActionCall(em.fresh_temp(), "dispose", lst(arg)))
                return Lit(UNDEFINED)
            if name == "has_prop":
                obj, prop = [self.expr(a) for a in e.args]
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
        em = self.em
        if e.op == "&&" or e.op == "||":
            return self._short_circuit(e)
        left = self.expr(e.left)
        right = self.expr(e.right)
        if e.op == "+":
            return self._plus(left, right)
        table = {
            "-": BinOp.SUB,
            "*": BinOp.MUL,
            "/": BinOp.DIV,
            "%": BinOp.MOD,
            "===": BinOp.EQ,
            "<": BinOp.LT,
            "<=": BinOp.LEQ,
        }
        if e.op in table:
            return BinOpExpr(table[e.op], left, right)
        if e.op == "!==":
            return UnOpExpr(UnOp.NOT, BinOpExpr(BinOp.EQ, left, right))
        if e.op == ">":
            return BinOpExpr(BinOp.LT, right, left)
        if e.op == ">=":
            return BinOpExpr(BinOp.LEQ, right, left)
        raise CompileError(f"unknown binary operator {e.op!r}")

    def _plus(self, left: Expr, right: Expr) -> Expr:
        """JS ``+``: string concatenation when the left operand is a
        string, numeric addition otherwise — dispatched at run time."""
        if isinstance(left, Lit):
            if isinstance(left.value, str):
                return BinOpExpr(BinOp.SCONCAT, left, right)
            if isinstance(left.value, (int, float)):
                return BinOpExpr(BinOp.ADD, left, right)
        em = self.em
        target = em.fresh_temp("plus")
        is_str, end = Label("plus_str"), Label("plus_end")
        em.emit(IfGoto(left.typeof().eq(Lit(GilType.STRING)), is_str))
        em.emit(Assignment(target, BinOpExpr(BinOp.ADD, left, right)))
        em.emit(Goto(end))
        em.mark(is_str)
        em.emit(Assignment(target, BinOpExpr(BinOp.SCONCAT, left, right)))
        em.mark(end)
        return PVar(target)

    def _short_circuit(self, e: ast.Binary) -> Expr:
        em = self.em
        target = em.fresh_temp("sc")
        left = self.expr(e.left)
        right_label, end = Label("sc_right"), Label("sc_end")
        if e.op == "&&":
            em.emit(IfGoto(left, right_label))
            em.emit(Assignment(target, Lit(False)))
            em.emit(Goto(end))
        else:  # ||
            em.emit(IfGoto(UnOpExpr(UnOp.NOT, left), right_label))
            em.emit(Assignment(target, Lit(True)))
            em.emit(Goto(end))
        em.mark(right_label)
        right = self.expr(e.right)
        em.emit(Assignment(target, right))
        em.mark(end)
        return PVar(target)

    def _conditional(self, e: ast.Conditional) -> Expr:
        em = self.em
        target = em.fresh_temp("cond")
        then_label, end = Label("cond_then"), Label("cond_end")
        cond = self.expr(e.cond)
        em.emit(IfGoto(cond, then_label))
        else_value = self.expr(e.else_expr)
        em.emit(Assignment(target, else_value))
        em.emit(Goto(end))
        em.mark(then_label)
        then_value = self.expr(e.then_expr)
        em.emit(Assignment(target, then_value))
        em.mark(end)
        return PVar(target)

    def _symbolic(self, e: ast.SymbolicExpr) -> Expr:
        em = self.em
        target = em.fresh_temp("symb")
        em.emit(ISym(target, 0))
        if e.type_name is not None:
            gil_type = _SYMB_TYPE[e.type_name]
            self._assume(PVar(target).typeof().eq(Lit(gil_type)))
            if e.type_name == "int":
                self._assume(UnOpExpr(UnOp.FLOOR, PVar(target)).eq(PVar(target)))
        return PVar(target)


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
