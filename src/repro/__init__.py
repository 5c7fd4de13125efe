"""Gillian, Part I — a multi-language platform for symbolic execution.

Python reproduction of Fragoso Santos, Maksimović, Ayoun & Gardner,
PLDI 2020.  The platform's core is a symbolic execution engine for the
intermediate language GIL, parametric on the memory model of the target
language; see DESIGN.md for the system inventory and EXPERIMENTS.md for
the reproduced evaluation.

Quickstart::

    from repro import SymbolicTester, WhileLanguage

    source = '''
    proc main() {
      n := symb_number();
      assume(0 <= n and n <= 10);
      assert(n * n <= 100);
      return null;
    }
    '''
    result = SymbolicTester(WhileLanguage()).run_source(source, "main")
    assert result.passed
"""

from repro.engine.budget import Budget, StopReason
from repro.engine.concolic import ConcolicTester
from repro.engine.config import EngineConfig, gillian, javert2_baseline
from repro.engine.events import EventBus
from repro.engine.explorer import Explorer
from repro.engine.strategy import SearchStrategy, make_strategy, strategy_names
from repro.logic.solver import SatResult, Solver
from repro.targets import LANGUAGES, language_class
from repro.testing.harness import Bug, SuiteResult, SymbolicTester, TestResult

__version__ = "1.1.0"

__all__ = [
    "Budget",
    "Bug",
    "ConcolicTester",
    "EngineConfig",
    "EventBus",
    "Explorer",
    "SatResult",
    "SearchStrategy",
    "Solver",
    "StopReason",
    "SuiteResult",
    "SymbolicTester",
    "TestResult",
    "gillian",
    "javert2_baseline",
    "make_strategy",
    "strategy_names",
] + [cls for _, cls in LANGUAGES.values()]


def __getattr__(name):
    # Lazy: `import repro` stays light and avoids import cycles; the
    # language table imports a front end only when a class is asked for.
    found = language_class(name)
    if found is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return found
