"""The GIL code emitter and lowering toolkit shared by the four compilers.

The paper's compiler (Fig. 2) threads an explicit program counter; doing
that by hand for structured control flow is error-prone, so compilers emit
commands whose jump targets may be :class:`Label` placeholders, marked at
positions as compilation proceeds, and resolved to integer indices by
:meth:`Emitter.finish`.

Every target-language (TL) control-flow form lowers by one fixed GIL
pattern, written once here.  Each helper takes the already-lowered
condition, or callbacks that lower one part where the pattern needs it,
as :meth:`repro.frontend.lexer.TokenStream.binary` takes its operand
parser:

* :meth:`Emitter.assume` -- ``ifgoto e +2; vanish`` (Fig. 2 [Assume]);
* :meth:`Emitter.assert_` -- ``ifgoto e +2; fail`` (Fig. 2 [Assert]);
* :meth:`Emitter.if_` -- the else branch is the fall-through;
* :meth:`Emitter.loop` -- ``while``, and ``for`` when a step is given;
  the emitter keeps the loop stack, and :meth:`Emitter.loop_exit` gives
  the target of ``break`` / ``continue``;
* :meth:`Emitter.choose` -- a fresh temp assigned on each side of a
  branch (bool-to-int, ``c ? a : b``, MiniJS's run-time ``+``);
* :meth:`Emitter.short_circuit` -- ``&&`` / ``||`` as a value;
* :meth:`Emitter.symbolic` -- a fresh ``iSym`` input and its type,
  integrality and bound assumptions;
* :data:`COMPARISONS` and :data:`ARITHMETIC` -- operator text to its GIL
  expression or operator.

A compiler keeps only what its language adds: its statement and
expression dispatch, its memory actions and types (MiniC's typed
lvalues, pointer arithmetic and ``cmp_ptr``; MiniRust's borrow-release
scopes; MiniJS's ``typeof`` procedure and ``+`` folding), and its table
from ``symb_*`` type name to :meth:`Emitter.symbolic`'s assumptions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gil.syntax import Assignment, Command, Fail, Goto, IfGoto, ISym, Vanish
from repro.gil.values import GilType
from repro.logic.expr import BinOp, Expr, Lit, PVar, UnOp, UnOpExpr, lst


class CompileError(Exception):
    """Raised when a parsed TL program cannot be lowered to GIL."""


def arguments(name: str, args: Sequence, count: int) -> Sequence:
    """The arguments of a call to built-in ``name``, which takes ``count``."""
    if len(args) != count:
        plural = "" if count == 1 else "s"
        raise CompileError(f"{name}() takes {count} argument{plural}, got {len(args)}")
    return args


#: comparison operator text -> the GIL expression it lowers to
COMPARISONS: Dict[str, Callable[[Expr, Expr], Expr]] = {
    "==": Expr.eq, "!=": Expr.neq, "<": Expr.lt,
    "<=": Expr.leq, ">": Expr.gt, ">=": Expr.geq,
}

#: arithmetic operator text -> its GIL binary operator
ARITHMETIC = {
    "+": BinOp.ADD, "-": BinOp.SUB, "*": BinOp.MUL, "/": BinOp.DIV, "%": BinOp.MOD,
}


class Label:
    """A forward-referenceable code position."""

    __slots__ = ("name",)

    _counter = 0

    def __init__(self, name: str = "") -> None:
        Label._counter += 1
        self.name = name or f"L{Label._counter}"

    def __repr__(self) -> str:
        return self.name


class Emitter:
    """Accumulates commands; resolves labels on :meth:`finish`."""

    def __init__(self) -> None:
        self._cmds: List[Command] = []
        self._positions: Dict[Label, int] = {}
        self._temp = 0
        #: (break target, continue target) of each enclosing loop
        self._loops: List[Tuple[Label, Label]] = []

    def fresh_temp(self, prefix: str = "t") -> str:
        """A fresh compiler-generated variable name."""
        self._temp += 1
        return f"__{prefix}{self._temp}"

    def emit(self, cmd: Command) -> int:
        idx = len(self._cmds)
        self._cmds.append(cmd)
        return idx

    def mark(self, label: Label) -> None:
        """Bind ``label`` to the position of the next emitted command."""
        if label in self._positions:
            raise ValueError(f"label {label!r} marked twice")
        self._positions[label] = len(self._cmds)

    # -- lowering helpers -----------------------------------------------------

    def assume(self, cond: Expr) -> None:
        """Fig. 2 [Assume]: ``ifgoto e +2; vanish``."""
        self._guard(cond, Vanish())

    def assert_(self, cond: Expr, text: str) -> None:
        """Fig. 2 [Assert]: ``ifgoto e +2; fail``, naming the assertion."""
        self._guard(cond, Fail(lst("assertion-failure", text)))

    def _guard(self, cond: Expr, otherwise: Command) -> None:
        ok = Label()
        self.emit(IfGoto(cond, ok))
        self.emit(otherwise)
        self.mark(ok)

    def if_(
        self, cond: Expr, then: Callable[[], None], else_: Callable[[], None]
    ) -> None:
        """``if``: jump to ``then`` when ``cond`` holds; ``else_`` falls through."""
        then_label, end = Label(), Label()
        self.emit(IfGoto(cond, then_label))
        else_()
        self.emit(Goto(end))
        self.mark(then_label)
        then()
        self.mark(end)

    def loop(
        self,
        cond: Optional[Callable[[], Expr]],
        body: Callable[[], None],
        step: Optional[Callable[[], None]] = None,
    ) -> None:
        """A loop testing ``cond`` (lowered at the head; None loops until a
        ``break``) before each ``body``.  With a ``step``, as in ``for``,
        ``continue`` jumps to the step; without one, to the head."""
        head, end = Label(), Label()
        self.mark(head)
        if cond is not None:
            body_label = Label()
            self.emit(IfGoto(cond(), body_label))
            self.emit(Goto(end))
            self.mark(body_label)
        step_label = head if step is None else Label()
        self._loops.append((end, step_label))
        body()
        self._loops.pop()
        if step is not None:
            self.mark(step_label)
            step()
        self.emit(Goto(head))
        self.mark(end)

    def loop_exit(self, kind: str) -> Label:
        """The jump target of ``break`` or ``continue`` in the innermost loop."""
        if not self._loops:
            raise CompileError(f"{kind} outside a loop")
        end, step = self._loops[-1]
        return end if kind == "break" else step

    def choose(
        self,
        prefix: str,
        cond: Callable[[], Expr],
        then: Callable[[], Expr],
        else_: Callable[[], Expr],
    ) -> PVar:
        """A fresh temp holding ``then()`` when ``cond()`` holds and
        ``else_()`` otherwise; each side's code is lowered on its side only,
        the else side as the fall-through.  The temp is allocated before
        ``cond`` is lowered."""
        target = self.fresh_temp(prefix)
        then_label, end = Label(), Label()
        self.emit(IfGoto(cond(), then_label))
        self.emit(Assignment(target, else_()))
        self.emit(Goto(end))
        self.mark(then_label)
        self.emit(Assignment(target, then()))
        self.mark(end)
        return PVar(target)

    def short_circuit(
        self, op: str, left: Callable[[], Expr], right: Callable[[], Expr]
    ) -> PVar:
        """``left && right`` / ``left || right`` as a value: ``right`` is
        lowered only on the side where ``left`` does not decide."""
        if op == "&&":
            return self.choose("sc", left, right, lambda: Lit(False))
        return self.choose(
            "sc", lambda: UnOpExpr(UnOp.NOT, left()), right, lambda: Lit(True)
        )

    def symbolic(
        self,
        target: str,
        gil_type: Optional[GilType] = None,
        integer: bool = False,
        bounds: Optional[Tuple[int, int]] = None,
    ) -> PVar:
        """``target := iSym``, then assume its type, that it is an integer,
        and ``low <= target <= high``, in that order, for those given."""
        self.emit(ISym(target, 0))
        x = PVar(target)
        if gil_type is not None:
            self.assume(x.typeof().eq(Lit(gil_type)))
        if integer:
            self.assume(UnOpExpr(UnOp.FLOOR, x).eq(x))
        if bounds is not None:
            low, high = bounds
            self.assume(Lit(low).leq(x).and_(x.leq(Lit(high))))
        return x

    # -- resolution ------------------------------------------------------------

    def finish(self) -> Tuple[Command, ...]:
        """Resolve all Label targets to integer indices."""
        resolved: List[Command] = []
        for cmd in self._cmds:
            if isinstance(cmd, IfGoto) and isinstance(cmd.target, Label):
                resolved.append(IfGoto(cmd.condition, self._resolve(cmd.target)))
            elif isinstance(cmd, Goto) and isinstance(cmd.target, Label):
                resolved.append(Goto(self._resolve(cmd.target)))
            else:
                resolved.append(cmd)
        return tuple(resolved)

    def _resolve(self, label: Label) -> int:
        if label not in self._positions:
            raise ValueError(f"label {label!r} never marked")
        return self._positions[label]
