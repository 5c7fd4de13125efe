"""The MiniRust-to-GIL compiler.

Control flow lowers to conditional gotos exactly like the MiniC
compiler; what is new is the *ownership discipline*, restated in terms
of the owner-table actions of :mod:`repro.targets.rust_like.memory`:

* every binding carries a static **kind** — value, owned handle, shared
  reference, mutable reference — inferred from declared types and
  initialiser shapes;
* handles are GIL two-element lists ``[loc, gen]``; the ``alloc``
  result ``[loc, 0]`` doubles as the generation-0 handle;
* a **move** (``let y = x`` / passing an owned var to a call, with
  ``x`` owned) emits ``own_move`` and rebuilds the handle with the
  returned generation — the stale source binding keeps the old
  generation and faults dynamically on use (``use-after-move``);
* ``&x`` / ``&mut x`` (let initialisers and call arguments only) emit
  ``borrow`` / ``borrow_mut``; the compiler keeps a scope stack of
  pending releases and emits ``release`` / ``release_mut`` at block
  end, before ``break``/``continue`` leave the loop, and before every
  ``return`` — the *dynamic* checks (sharing xor mutation, drop/move
  while borrowed) all live in the memory model;
* every heap access (deref, indexing, ``len``) is guarded by
  ``own_check`` before the word ``load``/``store``; writes are only
  compiled through owned handles and ``&mut`` references;
* ``drop(x)`` on an owned binding emits ``drop_check`` + ``own_drop`` +
  ``free``; on a reference it emits the pending release early.

Deviations from real Rust, chosen to keep the front end small: no
implicit drops at scope end (leaks are legal), copying a reference
yields an unregistered alias (only the original borrow is released),
and borrow errors are runtime memory faults rather than compile errors
— which is precisely what makes them symbolically explorable bugs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.frontend.emitter import (
    ARITHMETIC,
    COMPARISONS,
    CompileError,
    Emitter,
    arguments,
)
from repro.gil.syntax import (
    ActionCall,
    Assignment,
    Call,
    Goto,
    Proc,
    Prog,
    Return,
    USym,
    allocate_sites,
)
from repro.gil.values import GilType
from repro.logic.expr import BinOp, BinOpExpr, EList, Expr, Lit, PVar, UnOp, UnOpExpr, lst
from repro.targets.rust_like import ast
from repro.targets.rust_like.memory import FRESH_OWNER_META, WORD_CHUNK

#: Binding kinds: plain value, internal boolean, owned handle, borrows.
VAL, BOOL, OWN, REF, MUTREF = "val", "bool", "own", "ref", "mutref"

#: Kinds that denote a ``[loc, gen]`` handle value.
HANDLE_KINDS = frozenset({OWN, REF, MUTREF})

_VALUE_TYPE_NAMES = frozenset({"i64", "i32", "u64", "u32", "isize", "usize", "bool"})

#: ``symb_*`` type name -> :meth:`Emitter.symbolic`'s assumptions
_SYMB = {
    "int": (GilType.NUMBER, True),
    "bool": (GilType.NUMBER, True, (0, 1)),
}

def kind_of_type(t: Optional[ast.TypeExpr]) -> str:
    """The binding kind a declared type denotes."""
    if t is None:
        return VAL
    if t.ref:
        return REF
    if t.ref_mut:
        return MUTREF
    if t.name in _VALUE_TYPE_NAMES:
        return VAL
    return OWN


def compile_source(source: str) -> Prog:
    """Parse and compile MiniRust source to a GIL program."""
    from repro.targets.rust_like.parser import parse_program

    return compile_program(parse_program(source))


def compile_program(program: ast.Program) -> Prog:
    """Compile a parsed MiniRust program to GIL."""
    sigs: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for fn in program.functions:
        sigs[fn.name] = (
            kind_of_type(fn.ret_type),
            tuple(kind_of_type(p.type) for p in fn.params),
        )
    prog = Prog()
    for fn in program.functions:
        prog.add(_FnCompiler(sigs).compile(fn))
    return allocate_sites(prog)


def _loc(h: Expr) -> Expr:
    """The block symbol of a handle ``[loc, gen]``."""
    return BinOpExpr(BinOp.LNTH, h, Lit(0))


def _gen(h: Expr) -> Expr:
    """The generation of a handle ``[loc, gen]``."""
    return BinOpExpr(BinOp.LNTH, h, Lit(1))


def _owner_args(h: Expr) -> Expr:
    """Owner-table action arguments ``[loc, gen]`` for handle ``h``."""
    return lst(_loc(h), _gen(h))


def _word_ptr(h: Expr, index: Expr) -> Expr:
    """The heap pointer ``[loc, index]`` for word ``index`` of ``h``."""
    return EList((_loc(h), index))


class _FnCompiler:
    """Per-function compilation state (emitter, kinds, borrow scopes)."""

    def __init__(self, sigs: Dict[str, Tuple[str, Tuple[str, ...]]]) -> None:
        self.sigs = sigs
        self.em = Emitter()
        self.kinds: Dict[str, str] = {}
        self.mutable: set = set()
        #: scope stack of pending borrow releases:
        #: (release action, handle temp name, binding name or None)
        self.scopes: List[List[Tuple[str, str, Optional[str]]]] = []
        #: scope depth at the entry of each enclosing loop
        self.loop_depths: List[int] = []

    def compile(self, fn: ast.FnDef) -> Proc:
        for p in fn.params:
            self.kinds[p.name] = kind_of_type(p.type)
        self.scopes.append([])
        for stmt in fn.body:
            self.stmt(stmt)
        self._release_scope(self.scopes[-1])
        self.scopes.pop()
        self.em.emit(Return(Lit(0)))
        return Proc(fn.name, tuple(p.name for p in fn.params), self.em.finish())

    # -- borrow-release bookkeeping ------------------------------------------

    def _release_scope(self, entries: List[Tuple[str, str, Optional[str]]]) -> None:
        """Emit releases for one scope frame, newest first."""
        for action, handle, _binding in reversed(entries):
            self._emit_release(action, handle)

    def _emit_release(self, action: str, handle: str) -> None:
        self.em.emit(
            ActionCall(self.em.fresh_temp(), action, _owner_args(PVar(handle)))
        )

    def _release_down_to(self, depth: int) -> None:
        """Emit releases for every frame deeper than ``depth`` (jumps)."""
        for entries in reversed(self.scopes[depth:]):
            self._release_scope(entries)

    def _block(self, body: Tuple[ast.Node, ...]) -> None:
        """Compile a nested block with its own borrow-release frame."""
        self.scopes.append([])
        for stmt in body:
            self.stmt(stmt)
        self._release_scope(self.scopes[-1])
        self.scopes.pop()

    # -- statements -----------------------------------------------------------

    def stmt(self, stmt: ast.Node) -> None:
        em = self.em
        if isinstance(stmt, ast.LetStmt):
            self._let(stmt)
            return
        if isinstance(stmt, ast.AssignStmt):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.IfStmt):
            em.if_(
                self.condition(stmt.cond),
                lambda: self._block(stmt.then_body),
                lambda: self._block(stmt.else_body),
            )
            return
        if isinstance(stmt, ast.WhileStmt):
            em.loop(
                lambda: self.condition(stmt.cond), lambda: self._loop_body(stmt.body)
            )
            return
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.expr is None:
                self._release_down_to(0)
                em.emit(Return(Lit(0)))
                return
            value, kind = self.expr(stmt.expr)
            value = self.rvalue(value, kind)
            self._release_down_to(0)
            em.emit(Return(value))
            return
        if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            target = em.loop_exit(
                "break" if isinstance(stmt, ast.BreakStmt) else "continue"
            )
            self._release_down_to(self.loop_depths[-1])
            em.emit(Goto(target))
            return
        if isinstance(stmt, ast.DropStmt):
            self._drop(stmt.name)
            return
        if isinstance(stmt, ast.AssumeStmt):
            em.assume(self.condition(stmt.expr))
            return
        if isinstance(stmt, ast.AssertStmt):
            em.assert_(self.condition(stmt.expr), repr(stmt.expr))
            return
        if isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr)
            return
        raise CompileError(f"unknown statement {stmt!r}")

    def _loop_body(self, body: Tuple[ast.Node, ...]) -> None:
        """A loop body block; ``break``/``continue`` release down to here."""
        self.loop_depths.append(len(self.scopes))
        self._block(body)
        self.loop_depths.pop()

    def _let(self, stmt: ast.LetStmt) -> None:
        em = self.em
        if stmt.name in self.kinds:
            raise CompileError(f"rebinding of {stmt.name!r} (shadowing unsupported)")
        value, kind = self._binding_value(stmt.value, stmt.name)
        declared = kind_of_type(stmt.type) if stmt.type is not None else None
        if declared is not None and declared != kind and not (
            declared == VAL and kind in (VAL, BOOL)
        ):
            raise CompileError(
                f"let {stmt.name}: declared kind {declared!r} but initialiser "
                f"has kind {kind!r}"
            )
        self.kinds[stmt.name] = VAL if kind == BOOL else kind
        if stmt.mutable:
            self.mutable.add(stmt.name)
        em.emit(Assignment(stmt.name, self.rvalue(value, kind)))

    def _binding_value(
        self, e: ast.Node, binding: Optional[str]
    ) -> Tuple[Expr, str]:
        """An initialiser / argument value: borrows and moves allowed."""
        if isinstance(e, ast.Unary) and e.op in ("&", "&mut"):
            return self._borrow(e, binding)
        if isinstance(e, ast.Var) and self.kinds.get(e.name) == OWN:
            return self._move(e.name), OWN
        return self.expr(e)

    def _borrow(self, e: ast.Unary, binding: Optional[str]) -> Tuple[Expr, str]:
        """``&x`` / ``&mut x``: take the borrow, register its release."""
        em = self.em
        if not isinstance(e.operand, ast.Var):
            raise CompileError("can only borrow a named binding")
        name = e.operand.name
        kind = self.kinds.get(name)
        if kind not in HANDLE_KINDS:
            raise CompileError(f"cannot borrow non-handle binding {name!r}")
        action = "borrow_mut" if e.op == "&mut" else "borrow"
        gen = em.fresh_temp("bgen")
        em.emit(ActionCall(gen, action, _owner_args(PVar(name))))
        handle = em.fresh_temp("bh")
        em.emit(Assignment(handle, EList((_loc(PVar(name)), PVar(gen)))))
        release = "release_mut" if e.op == "&mut" else "release"
        self.scopes[-1].append((release, handle, binding))
        return PVar(handle), MUTREF if e.op == "&mut" else REF

    def _move(self, name: str) -> Expr:
        """Move out of owned binding ``name``: bump the generation."""
        em = self.em
        gen = em.fresh_temp("mgen")
        em.emit(ActionCall(gen, "own_move", _owner_args(PVar(name))))
        handle = em.fresh_temp("mh")
        em.emit(Assignment(handle, EList((_loc(PVar(name)), PVar(gen)))))
        return PVar(handle)

    def _assign(self, stmt: ast.AssignStmt) -> None:
        em = self.em
        target = stmt.target
        if isinstance(target, ast.Var):
            name = target.name
            if name not in self.kinds:
                raise CompileError(f"assignment to undeclared {name!r}")
            if name not in self.mutable:
                raise CompileError(f"assignment to immutable binding {name!r}")
            value, kind = self._binding_value(stmt.value, name)
            old = self.kinds[name]
            new = VAL if kind == BOOL else kind
            if new != old:
                raise CompileError(
                    f"assignment changes kind of {name!r} ({old!r} -> {new!r})"
                )
            em.emit(Assignment(name, self.rvalue(value, kind)))
            return
        handle, index = self._write_slot(target)
        value, kind = self.expr(stmt.value)
        em.emit(ActionCall(em.fresh_temp(), "own_check", _owner_args(handle)))
        em.emit(
            ActionCall(
                em.fresh_temp(),
                "store",
                lst(Lit(WORD_CHUNK), _word_ptr(handle, index), self.rvalue(value, kind)),
            )
        )

    def _write_slot(self, target: ast.Node) -> Tuple[Expr, Expr]:
        """A writable (handle, word index) slot for ``*x`` / ``x[i]``."""
        if isinstance(target, ast.Unary) and target.op == "*":
            handle, kind = self.expr(target.operand)
            index: Expr = Lit(0)
        elif isinstance(target, ast.Index):
            handle, kind = self.expr(target.base)
            idx_value, idx_kind = self.expr(target.index)
            index = self.rvalue(idx_value, idx_kind)
        else:
            raise CompileError(f"not an assignable place: {target!r}")
        if kind not in HANDLE_KINDS:
            raise CompileError("write target is not a handle")
        if kind == REF:
            raise CompileError("cannot write through a shared reference")
        return handle, index

    def _drop(self, name: str) -> None:
        """``drop(x)``: free an owned handle or release a borrow early."""
        em = self.em
        kind = self.kinds.get(name)
        if kind is None:
            raise CompileError(f"drop of unknown binding {name!r}")
        if kind == OWN:
            em.emit(
                ActionCall(em.fresh_temp(), "drop_check", _owner_args(PVar(name)))
            )
            em.emit(ActionCall(em.fresh_temp(), "own_drop", lst(_loc(PVar(name)))))
            em.emit(
                ActionCall(
                    em.fresh_temp(),
                    "free",
                    lst(EList((_loc(PVar(name)), Lit(0)))),
                )
            )
            return
        if kind in (REF, MUTREF):
            for entries in reversed(self.scopes):
                for i, (action, handle, binding) in enumerate(entries):
                    if binding == name:
                        self._emit_release(action, handle)
                        del entries[i]
                        return
            raise CompileError(f"drop of already-released reference {name!r}")
        raise CompileError(f"cannot drop value binding {name!r}")

    # -- expressions ----------------------------------------------------------

    def expr(self, e: ast.Node) -> Tuple[Expr, str]:
        em = self.em
        if isinstance(e, ast.IntLit):
            return Lit(e.value), VAL
        if isinstance(e, ast.BoolLit):
            return Lit(1 if e.value else 0), VAL
        if isinstance(e, ast.Var):
            if e.name not in self.kinds:
                raise CompileError(f"unknown identifier {e.name!r}")
            return PVar(e.name), self.kinds[e.name]
        if isinstance(e, ast.SymbolicExpr):
            return em.symbolic(em.fresh_temp("symb"), *_SYMB[e.type_name]), VAL
        if isinstance(e, ast.Unary):
            return self._unary(e)
        if isinstance(e, ast.Binary):
            return self._binary(e)
        if isinstance(e, ast.Index):
            handle, kind = self.expr(e.base)
            if kind not in HANDLE_KINDS:
                raise CompileError("indexing a non-handle")
            idx_value, idx_kind = self.expr(e.index)
            return self._read_word(handle, self.rvalue(idx_value, idx_kind)), VAL
        if isinstance(e, ast.ArrayLit):
            return self._array_literal(e), OWN
        if isinstance(e, ast.BoxNew):
            value, kind = self.expr(e.value)
            return self._alloc_owned(1, (self.rvalue(value, kind),)), OWN
        if isinstance(e, ast.CallExpr):
            return self._call(e)
        raise CompileError(f"unknown expression {e!r}")

    def _read_word(self, handle: Expr, index: Expr) -> Expr:
        """``own_check`` then a word load at ``[loc, index]``."""
        em = self.em
        em.emit(ActionCall(em.fresh_temp(), "own_check", _owner_args(handle)))
        target = em.fresh_temp("ld")
        em.emit(
            ActionCall(
                target, "load", lst(Lit(WORD_CHUNK), _word_ptr(handle, index))
            )
        )
        return PVar(target)

    def _alloc_owned(self, size: int, init: Tuple[Expr, ...]) -> Expr:
        """A fresh owned block of ``size`` words, ``init`` stored first.

        The ``alloc`` result ``[loc, 0]`` doubles as the generation-0
        handle, so no handle-construction assignment is needed.
        """
        em = self.em
        block = em.fresh_temp("blk")
        em.emit(USym(block, 0))
        handle = em.fresh_temp("own")
        em.emit(ActionCall(handle, "alloc", lst(PVar(block), size)))
        em.emit(
            ActionCall(
                em.fresh_temp(),
                "own_new",
                lst(_loc(PVar(handle)), Lit(FRESH_OWNER_META)),
            )
        )
        for i, value in enumerate(init):
            em.emit(
                ActionCall(
                    em.fresh_temp(),
                    "store",
                    lst(Lit(WORD_CHUNK), _word_ptr(PVar(handle), Lit(i)), value),
                )
            )
        return PVar(handle)

    def _array_literal(self, e: ast.ArrayLit) -> Expr:
        """``[e1, ..., en]``: an owned n-word block, items stored."""
        items = tuple(self.rvalue(*self.expr(item)) for item in e.items)
        return self._alloc_owned(len(items), items)

    def _unary(self, e: ast.Unary) -> Tuple[Expr, str]:
        if e.op == "-":
            value, kind = self.expr(e.operand)
            return UnOpExpr(UnOp.NEG, self.rvalue(value, kind)), VAL
        if e.op == "!":
            return UnOpExpr(UnOp.NOT, self.condition(e.operand)), BOOL
        if e.op == "*":
            handle, kind = self.expr(e.operand)
            if kind not in HANDLE_KINDS:
                raise CompileError("dereference of a non-handle")
            return self._read_word(handle, Lit(0)), VAL
        if e.op in ("&", "&mut"):
            raise CompileError(
                "borrows are only allowed as let initialisers or call arguments"
            )
        raise CompileError(f"unknown unary operator {e.op!r}")

    def _binary(self, e: ast.Binary) -> Tuple[Expr, str]:
        if e.op in ("&&", "||"):
            short_circuit = self.em.short_circuit(
                e.op, lambda: self.condition(e.left), lambda: self.condition(e.right)
            )
            return short_circuit, BOOL
        left, lkind = self.expr(e.left)
        right, rkind = self.expr(e.right)
        if e.op in COMPARISONS:
            if lkind in HANDLE_KINDS or rkind in HANDLE_KINDS:
                raise CompileError("cannot compare handles")
            lv, rv = self.rvalue(left, lkind), self.rvalue(right, rkind)
            return COMPARISONS[e.op](lv, rv), BOOL
        if lkind in HANDLE_KINDS or rkind in HANDLE_KINDS:
            raise CompileError(f"arithmetic on handles ({e.op!r})")
        if e.op in ARITHMETIC:
            result = BinOpExpr(
                ARITHMETIC[e.op], self.rvalue(left, lkind), self.rvalue(right, rkind)
            )
            if e.op == "/":
                result = UnOpExpr(UnOp.FLOOR, result)
            return result, VAL
        raise CompileError(f"unknown binary operator {e.op!r}")

    def condition(self, e: ast.Node) -> Expr:
        """Compile an expression used as a truth value to a GIL boolean."""
        value, kind = self.expr(e)
        if kind == BOOL:
            return value
        if kind == VAL:
            return value.neq(Lit(0))
        raise CompileError("a handle is not a condition")

    def rvalue(self, value: Expr, kind: str) -> Expr:
        """Materialise internal booleans into integers 0/1."""
        if kind != BOOL:
            return value
        return self.em.choose("b2i", lambda: value, lambda: Lit(1), lambda: Lit(0))

    # -- calls ----------------------------------------------------------------

    def _call(self, e: ast.CallExpr) -> Tuple[Expr, str]:
        em = self.em
        name = e.name
        if name == "alloc":
            (size_ast,) = arguments(name, e.args, 1)
            if not isinstance(size_ast, ast.IntLit):
                raise CompileError("alloc() needs a literal size")
            return self._alloc_owned(size_ast.value, ()), OWN
        if name == "len":
            (handle_ast,) = arguments(name, e.args, 1)
            if isinstance(handle_ast, ast.Unary) and handle_ast.op in ("&", "&mut"):
                handle_ast = handle_ast.operand
            handle, kind = self.expr(handle_ast)
            if kind not in HANDLE_KINDS:
                raise CompileError("len() of a non-handle")
            em.emit(ActionCall(em.fresh_temp(), "own_check", _owner_args(handle)))
            target = em.fresh_temp("bnd")
            em.emit(
                ActionCall(target, "bounds", lst(_word_ptr(handle, Lit(0))))
            )
            return PVar(target), VAL
        if name in ("as_ref", "as_handle"):
            # Raw-handle escape hatches for handles stored in cells
            # (list links): reinterpret a loaded word as a reference /
            # owned handle.  Purely a static re-kinding — the dynamic
            # owner checks still guard every use.
            (value_ast,) = arguments(name, e.args, 1)
            value, kind = self.expr(value_ast)
            return self.rvalue(value, kind), (REF if name == "as_ref" else OWN)
        if name not in self.sigs:
            raise CompileError(f"call to unknown function {name!r}")
        ret_kind, param_kinds = self.sigs[name]
        if len(e.args) != len(param_kinds):
            raise CompileError(f"{name}: expected {len(param_kinds)} arguments")
        mark = len(self.scopes[-1])
        args: List[Expr] = []
        for arg_ast, param_kind in zip(e.args, param_kinds):
            value, kind = self._binding_value(arg_ast, None)
            norm = VAL if kind == BOOL else kind
            if (param_kind in HANDLE_KINDS) != (norm in HANDLE_KINDS):
                raise CompileError(
                    f"{name}: argument kind {norm!r} does not match "
                    f"parameter kind {param_kind!r}"
                )
            args.append(self.rvalue(value, kind))
        target = em.fresh_temp("ret")
        em.emit(Call(target, Lit(name), tuple(args)))
        # Borrows taken for this call's arguments are statement
        # temporaries (Rust's temporary lifetime): release them as soon
        # as the call returns.
        temporaries = self.scopes[-1][mark:]
        del self.scopes[-1][mark:]
        self._release_scope(temporaries)
        return PVar(target), ret_kind
