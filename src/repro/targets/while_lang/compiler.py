"""The While-to-GIL compiler (paper §2.2, Figure 2).

Each statement form compiles exactly as in the paper:

* ``assume e``  →  ``ifgoto e +2; vanish``
* ``assert e``  →  ``ifgoto e +2; fail e``
* ``x := {p̄: ē}`` →  ``x := uSym; mutate([x, pi, ei])…``
* ``x := e.p``  →  ``x := lookup([e, p])``
* control flow becomes conditional gotos (labels resolved by the shared
  :class:`repro.frontend.emitter.Emitter`).

Symbolic inputs ``x := symb_number()`` compile to ``x := iSym`` followed
by the assume-pattern on ``typeof x`` — interpreted symbols are the
logical variables of classical symbolic execution (paper §2.1).
"""

from __future__ import annotations

from repro.frontend.emitter import Emitter
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Proc,
    Prog,
    Return,
    USym,
    allocate_sites,
)
from repro.gil.values import NULL, GilType
from repro.logic.expr import Lit, PVar, lst
from repro.targets.while_lang import ast

#: ``symb_*`` type name -> :meth:`Emitter.symbolic`'s assumptions
_SYMB = {
    None: (),
    "number": (GilType.NUMBER,),
    "int": (GilType.NUMBER, True),
    "string": (GilType.STRING,),
    "bool": (GilType.BOOLEAN,),
}


def compile_program(program: ast.Program) -> Prog:
    prog = Prog()
    for proc_def in program.procs:
        prog.add(_compile_proc(proc_def))
    return allocate_sites(prog)


def compile_source(source: str) -> Prog:
    from repro.targets.while_lang.parser import parse_program

    return compile_program(parse_program(source))


def _compile_proc(proc_def: ast.ProcDef) -> Proc:
    em = Emitter()
    _compile_stmts(em, proc_def.body)
    # A procedure that falls off the end returns null.
    em.emit(Return(Lit(NULL)))
    return Proc(proc_def.name, proc_def.params, em.finish())


def _compile_stmt(em: Emitter, stmt: ast.Stmt) -> None:
    if isinstance(stmt, ast.Skip):
        return

    if isinstance(stmt, ast.Assign):
        em.emit(Assignment(stmt.target, stmt.expr))
        return

    if isinstance(stmt, ast.New):
        em.emit(USym(stmt.target, 0))
        for prop, expr in stmt.props:
            em.emit(
                ActionCall(
                    em.fresh_temp(),
                    "mutate",
                    lst(PVar(stmt.target), prop, expr),
                )
            )
        return

    if isinstance(stmt, ast.Lookup):
        em.emit(ActionCall(stmt.target, "lookup", lst(stmt.obj, stmt.prop)))
        return

    if isinstance(stmt, ast.Mutate):
        em.emit(
            ActionCall(em.fresh_temp(), "mutate", lst(stmt.obj, stmt.prop, stmt.value))
        )
        return

    if isinstance(stmt, ast.Dispose):
        em.emit(ActionCall(em.fresh_temp(), "dispose", lst(stmt.expr)))
        return

    if isinstance(stmt, ast.If):
        em.if_(
            stmt.condition,
            lambda: _compile_stmts(em, stmt.then_body),
            lambda: _compile_stmts(em, stmt.else_body),
        )
        return

    if isinstance(stmt, ast.While):
        em.loop(lambda: stmt.condition, lambda: _compile_stmts(em, stmt.body))
        return

    if isinstance(stmt, ast.CallStmt):
        em.emit(Call(stmt.target, Lit(stmt.func), stmt.args))
        return

    if isinstance(stmt, ast.ReturnStmt):
        em.emit(Return(stmt.expr))
        return

    if isinstance(stmt, ast.Assume):
        em.assume(stmt.expr)
        return

    if isinstance(stmt, ast.Assert):
        em.assert_(stmt.expr, repr(stmt.expr))
        return

    if isinstance(stmt, ast.SymbolicInput):
        em.symbolic(stmt.target, *_SYMB[stmt.type_name])
        return

    raise TypeError(f"unknown While statement {stmt!r}")


def _compile_stmts(em: Emitter, stmts) -> None:
    for stmt in stmts:
        _compile_stmt(em, stmt)
