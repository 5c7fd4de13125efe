"""The target-language (TL) instantiation interface (paper §1, §4.3).

To instantiate Gillian to a new TL, a tool developer provides:

1. a trusted **compiler** from the TL to GIL (:meth:`Language.compile`);
2. **concrete and symbolic memory models** in terms of the TL's actions
   (:meth:`Language.concrete_memory` / :meth:`Language.symbolic_memory`);
3. optionally, a **memory interpretation function** relating the two
   (:meth:`Language.interpretation`), which the soundness harness uses to
   check the MA-RS/MA-RC properties (paper Def. 3.7) empirically.

The four instantiations in :mod:`repro.targets` (While, MiniJS, MiniC,
MiniRust) implement this interface.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.gil.syntax import Prog
from repro.state.interface import ConcreteMemoryModel, SymbolicMemoryModel


class Language(abc.ABC):
    """A Gillian instantiation: compiler + memory models."""

    #: Short name used in reports ("while", "minijs", "minic", "rust").
    name: str = "?"

    @abc.abstractmethod
    def compile(self, source: str) -> Prog:
        """Compile TL source text to a GIL program."""

    @abc.abstractmethod
    def concrete_memory(self) -> ConcreteMemoryModel:
        """A fresh concrete memory model instance."""

    @abc.abstractmethod
    def symbolic_memory(self) -> SymbolicMemoryModel:
        """A fresh symbolic memory model instance."""

    def interpretation(self) -> Optional[Callable]:
        """The memory interpretation function I(ε, µ̂) → µ, if provided.

        Takes a logical environment (a mapping from logical-variable names
        to concrete values) and a symbolic memory, and produces the
        concrete memory it denotes.  Used by the soundness test harness.
        """
        return None
