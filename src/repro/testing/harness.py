"""Whole-program symbolic testing (paper §1, §4).

Gillian's user-facing analysis: run a symbolic test — a TL procedure with
symbolic inputs and first-order ``assume``/``assert`` annotations — over
all paths up to a bound, and report either *bounded verification* (no
reachable error) or bugs.  Each reported bug comes with the final path
condition; the harness asks the solver for a model ε (the "true
counter-model" of §1) and *replays it concretely*: a confirmed bug is one
whose scripted concrete execution reproduces the error.  This realises
the paper's no-false-positives guarantee (Theorem 3.6) operationally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.parallel import ParallelExplorer, resolve_workers
from repro.engine.results import ExecutionStats, RunReport
from repro.gil.semantics import Final, OutcomeKind
from repro.gil.syntax import Prog
from repro.gil.values import Value
from repro.logic.expr import Expr
from repro.logic.solver import Solver
from repro.state.allocator import ConcreteAllocator
from repro.state.concrete import ConcreteStateModel
from repro.state.symbolic import SymbolicStateModel
from repro.targets.language import Language


@dataclass
class Bug:
    """A reported violation on one symbolic path."""

    value: object                      # the error value (symbolic)
    path_condition: object             # PathCondition at the error
    model: Optional[Dict[str, Value]]  # counter-model ε, if found
    confirmed: bool                    # concrete replay reproduced the error
    concrete_value: object = None      # error value observed on replay

    def __repr__(self) -> str:
        status = "confirmed" if self.confirmed else (
            "counter-model" if self.model else "potential"
        )
        return f"Bug({self.value!r}, {status})"


def judge(bugs: Sequence[Bug], report: RunReport) -> str:
    """The verdict a run's diagnosed bugs and report support: the one
    rule the harness and the analysis service share.

    ``"bug"`` needs a counter-model that reproduced the error on
    concrete replay (Thm 3.6); bugs without one are only
    ``"potential-bug"``.  A bug-free run is ``"bounded-verified"`` only
    if it was *complete* — every path explored to its bound with no
    degraded decision.  One that hit a global bound, timed out queries,
    assumed or pruned UNKNOWN branches, or lost a shard is only
    ``"bounded-verified-incomplete"``: the engine cannot honestly claim
    the bound was covered.
    """
    if not bugs:
        return "bounded-verified" if report.complete else "bounded-verified-incomplete"
    if any(b.confirmed for b in bugs):
        return "bug"
    return "potential-bug"


@dataclass
class TestResult:
    """The outcome of one symbolic test."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    bugs: List[Bug]
    stats: ExecutionStats
    paths: int
    #: why exploration stopped and what it could not decide (see
    #: :class:`repro.engine.results.RunReport`)
    report: RunReport

    @property
    def passed(self) -> bool:
        return not self.bugs

    @property
    def verdict(self) -> str:
        """See :func:`judge`."""
        return judge(self.bugs, self.report)


@dataclass
class SuiteResult:
    """Aggregated results over a test suite (one Table row)."""

    name: str
    results: List[TestResult] = field(default_factory=list)

    @property
    def tests(self) -> int:
        return len(self.results)

    @property
    def commands(self) -> int:
        return sum(r.stats.commands_executed for r in self.results)

    @property
    def time(self) -> float:
        return sum(r.stats.wall_time for r in self.results)

    @property
    def failures(self) -> List[TestResult]:
        return [r for r in self.results if not r.passed]


class SymbolicTester:
    """Runs symbolic tests for a language instantiation.

    ``strategy`` and ``events`` are handed to the scheduler unchanged
    (see :class:`repro.engine.explorer.Explorer`): the harness drives the
    same scheduler loop as every other engine client, so search order,
    budgets, and instrumentation behave identically here.  Every test
    runs through :class:`repro.engine.parallel.ParallelExplorer` at
    ``workers`` (default: ``config.workers``) processes; the multiset of
    outcomes — and hence every verdict — is the same at any count.
    """

    def __init__(
        self,
        language: Language,
        config: Optional[EngineConfig] = None,
        replay: bool = True,
        strategy=None,
        events=None,
        workers=None,
    ) -> None:
        self.language = language
        self.config = config if config is not None else EngineConfig()
        self.replay = replay
        self.strategy = strategy
        self.events = events
        self.workers = resolve_workers(
            workers if workers is not None else self.config.workers
        )

    def make_solver(self) -> Solver:
        """A fresh solver for one test, as the configuration describes
        it (subclasses override this to observe or instrument it)."""
        return Solver.from_config(self.config)

    def run_test(
        self,
        prog: Prog,
        entry: str,
        name: Optional[str] = None,
        args: Sequence[Expr] = (),
    ) -> TestResult:
        """Symbolically execute ``entry`` and report bugs with models."""
        solver = self.make_solver()
        sm = SymbolicStateModel(
            self.language.symbolic_memory(),
            solver=solver,
            unknown_policy=self.config.unknown_policy,
        )
        explorer = ParallelExplorer(
            prog, sm, self.config,
            strategy=self.strategy, events=self.events, workers=self.workers,
        )
        start = time.perf_counter()
        result = explorer.run(entry, args)
        bugs = self.diagnose(prog, entry, result.errors, solver)
        result.stats.wall_time = time.perf_counter() - start
        return TestResult(
            name=name or entry,
            bugs=bugs,
            stats=result.stats,
            paths=result.stats.paths_finished,
            report=result.report,
        )

    def run_source(self, source: str, entry: str, name: Optional[str] = None) -> TestResult:
        start = time.perf_counter()
        prog = self.language.compile(source)
        if self.events:
            from repro.engine.events import SpanEnd

            self.events.emit(SpanEnd("compile", time.perf_counter() - start, 0))
        return self.run_test(prog, entry, name)

    # -- counter-models and replay ------------------------------------------

    def diagnose(
        self, prog: Prog, entry: str, errors: Sequence[Final], solver: Solver
    ) -> List[Bug]:
        """One :class:`Bug` per error final of a run of ``entry``: a
        counter-model for its path condition from ``solver`` and, when
        replay is on, the model's concrete replay."""
        bugs = []
        for fin in errors:
            pc = fin.state.pc
            # Pass the PathCondition itself: the error path's prefix
            # context is usually already solved with a verified model.
            model = solver.get_model(pc)
            concrete_value = None
            if model is not None and self.replay:
                concrete_value = self.replay_model(prog, entry, model)
            bugs.append(Bug(
                value=fin.value,
                path_condition=pc,
                model=model,
                confirmed=concrete_value is not None,
                concrete_value=concrete_value,
            ))
        return bugs

    def enumerate_models(
        self, bug: Bug, count: int = 3
    ) -> List[Dict[str, Value]]:
        """Up to ``count`` distinct verified counter-models for a bug.

        Useful when triaging: several witnesses make the failure pattern
        visible (e.g. "any n ≥ 100 fails", not just "n = 100 fails").
        Models are enumerated by excluding previous assignments.
        """
        from repro.gil.values import is_value
        from repro.logic.expr import Lit, LVar, conj, disj

        solver = self.make_solver()
        conjuncts = list(bug.path_condition.conjuncts)
        models: List[Dict[str, Value]] = []
        while len(models) < count:
            model = solver.get_model(conjuncts)
            if model is None:
                break
            models.append(model)
            # Exclude this exact assignment: ∨_v (v ≠ model[v]).
            exclusion = disj(
                *[
                    LVar(name).neq(Lit(value))
                    for name, value in model.items()
                    if is_value(value)
                ]
            )
            from repro.logic.expr import FALSE

            if exclusion == FALSE:
                break
            conjuncts.append(exclusion)
        return models

    def replay_model(
        self, prog: Prog, entry: str, model: Dict[str, Value]
    ) -> Optional[object]:
        """Concretely re-run ``entry`` scripted by the counter-model ε.

        Returns the concrete error value if the run errors (bug
        confirmed), else None.  The script directs every ``iSym`` choice:
        the allocator names logical variables deterministically
        (``val_site_idx``), so ε keys line up with replay allocations.
        """
        allocator = ConcreteAllocator(script=dict(model))
        sm = ConcreteStateModel(self.language.concrete_memory(), allocator)
        explorer = Explorer(prog, sm, self.config)
        try:
            result = explorer.run(entry)
        except Exception:
            return None
        for fin in result.finals:
            if fin.kind is OutcomeKind.ERROR:
                return fin.value
        return None

