"""GIL syntax (paper §2.1).

GIL is a simple goto language with top-level procedures, parametric on a
set of actions ``A ∋ α``.  Commands are:

* ``x := e`` — variable assignment (:class:`Assignment`);
* ``ifgoto e i`` — conditional goto (:class:`IfGoto`);
* ``goto i`` — unconditional goto (sugar for ``ifgoto true i``; the
  compilers emit it for readability);
* ``x := e(e')`` — dynamic procedure call (:class:`Call`);
* ``return e`` (:class:`Return`); ``fail e`` (:class:`Fail`);
  ``vanish`` (:class:`Vanish`);
* ``x := α(e)`` — action execution (:class:`ActionCall`);
* ``x := uSym_j`` / ``x := iSym_j`` — fresh-symbol generation at
  allocation site ``j`` (:class:`USym` / :class:`ISym`).

Deviation from the paper's minimal grammar: procedures take a *tuple* of
formal parameters and calls pass a tuple of argument expressions.  The
paper's single-parameter form passes a GIL list; the real OCaml Gillian
uses multi-parameter procedures, which we follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.logic.expr import Expr


class Command:
    """Base class for GIL commands."""

    __slots__ = ()

    def __reduce__(self):
        # Commands are frozen dataclasses with __slots__ and no __dict__,
        # which defeats default pickling (it would setattr on a frozen
        # instance); rebuild through the constructor instead.  Programs
        # cross process boundaries in the parallel explorer.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True, repr=False)
class Assignment(Command):
    """``x := e`` — assign the value of ``expr`` to ``target``."""

    target: str
    expr: Expr

    __slots__ = ("target", "expr")

    def __repr__(self) -> str:
        return f"{self.target} := {self.expr!r}"


@dataclass(frozen=True, repr=False)
class IfGoto(Command):
    """``ifgoto e i`` — jump to command index ``target`` when ``condition`` holds."""

    condition: Expr
    target: int

    __slots__ = ("condition", "target")

    def __repr__(self) -> str:
        return f"ifgoto {self.condition!r} {self.target}"


@dataclass(frozen=True, repr=False)
class Goto(Command):
    """``goto i`` — unconditional jump to command index ``target``."""

    target: int

    __slots__ = ("target",)

    def __repr__(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True, repr=False)
class Call(Command):
    """``x := e(e1, ..., en)`` — dynamic procedure call."""

    target: str
    callee: Expr
    args: Tuple[Expr, ...]

    __slots__ = ("target", "callee", "args")

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.target} := {self.callee!r}({args})"


@dataclass(frozen=True, repr=False)
class Return(Command):
    """``return e`` — leave the current procedure with a value."""

    expr: Expr

    __slots__ = ("expr",)

    def __repr__(self) -> str:
        return f"return {self.expr!r}"


@dataclass(frozen=True, repr=False)
class Fail(Command):
    """``fail e`` — terminate the path with an error outcome."""

    expr: Expr

    __slots__ = ("expr",)

    def __repr__(self) -> str:
        return f"fail {self.expr!r}"


@dataclass(frozen=True, repr=False)
class Vanish(Command):
    """``vanish`` — terminate the path silently (no reported outcome)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "vanish"


@dataclass(frozen=True, repr=False)
class ActionCall(Command):
    """``x := α(e)`` — execute a memory-model action."""

    target: str
    action: str
    arg: Expr

    __slots__ = ("target", "action", "arg")

    def __repr__(self) -> str:
        return f"{self.target} := {self.action}({self.arg!r})"


@dataclass(frozen=True, repr=False)
class USym(Command):
    """``x := uSym_j`` — fresh *uninterpreted* symbol from site ``j``."""

    target: str
    site: int

    __slots__ = ("target", "site")

    def __repr__(self) -> str:
        return f"{self.target} := uSym_{self.site}"


@dataclass(frozen=True, repr=False)
class ISym(Command):
    """``x := iSym_j`` — fresh *interpreted* symbol from site ``j``."""

    target: str
    site: int

    __slots__ = ("target", "site")

    def __repr__(self) -> str:
        return f"{self.target} := iSym_{self.site}"


@dataclass(frozen=True)
class Proc:
    """A GIL procedure ``f(x...){c}``."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Command, ...]

    def __repr__(self) -> str:
        header = f"proc {self.name}({', '.join(self.params)})"
        lines = [f"  {i}: {cmd!r}" for i, cmd in enumerate(self.body)]
        return header + " {\n" + "\n".join(lines) + "\n}"


@dataclass
class Prog:
    """A GIL program: a map from procedure identifiers to procedures."""

    procs: Dict[str, Proc] = field(default_factory=dict)

    def add(self, proc: Proc) -> None:
        if proc.name in self.procs:
            raise ValueError(f"duplicate procedure {proc.name}")
        self.procs[proc.name] = proc

    def get(self, name: str) -> Optional[Proc]:
        return self.procs.get(name)

    def command_at(self, proc_name: str, idx: int) -> Command:
        """``cmd(p, cs, i)`` of the paper: the i-th command of a procedure."""
        proc = self.procs[proc_name]
        return proc.body[idx]

    def __repr__(self) -> str:
        return "\n\n".join(repr(p) for p in self.procs.values())


def allocate_sites(prog: Prog) -> Prog:
    """Renumber uSym/iSym allocation sites so each is globally unique.

    Compilers emit site 0 everywhere for brevity; the allocator requires
    one site per syntactic occurrence (paper §2.1: "an allocation site j is
    the program point associated with the uSym_j or iSym_j command").
    """
    site = 0
    new_procs: Dict[str, Proc] = {}
    for name, proc in prog.procs.items():
        body = []
        for cmd in proc.body:
            if isinstance(cmd, USym):
                body.append(USym(cmd.target, site))
                site += 1
            elif isinstance(cmd, ISym):
                body.append(ISym(cmd.target, site))
                site += 1
            else:
                body.append(cmd)
        new_procs[name] = Proc(name, proc.params, tuple(body))
    return Prog(new_procs)
