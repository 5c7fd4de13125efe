"""A label-resolving GIL code emitter shared by the four compilers.

The paper's compiler (Fig. 2) threads an explicit program counter; doing
that by hand for structured control flow is error-prone, so compilers emit
commands whose jump targets may be :class:`Label` placeholders, marked at
positions as compilation proceeds, and resolved to integer indices by
:meth:`Emitter.finish`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.gil.syntax import Command, Goto, IfGoto


class CompileError(Exception):
    """Raised when a parsed TL program cannot be lowered to GIL."""


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
