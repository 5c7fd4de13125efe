"""Execution drivers: scheduler, strategies, budgets, events, concolic mode."""

from repro.engine.budget import Budget, BudgetDecision, StopReason
from repro.engine.concolic import ConcolicBug, ConcolicReport, ConcolicTester
from repro.engine.config import EngineConfig, gillian, javert2_baseline
from repro.engine.events import (
    BranchEvent,
    EventBus,
    PathEndEvent,
    ShardLostEvent,
    ShardRetryEvent,
    SolverQueryEvent,
    SolverUnknownEvent,
    StepEvent,
)
from repro.engine.events import WorkerEvent
from repro.engine.explorer import Explorer
from repro.engine.parallel import (
    ConcreteModelFactory,
    ParallelExplorer,
    SymbolicModelFactory,
    resolve_workers,
)
from repro.engine.results import (
    STOP_REASON_PRECEDENCE,
    ExecutionResult,
    ExecutionStats,
    Incompleteness,
    RunReport,
    merge_results,
    merge_stop_reasons,
)
from repro.engine.strategy import (
    BFSStrategy,
    CoverageGuidedStrategy,
    DFSStrategy,
    SearchStrategy,
    make_strategy,
    strategy_names,
)

__all__ = [
    "BFSStrategy", "BranchEvent", "Budget", "BudgetDecision",
    "ConcolicBug", "ConcolicReport", "ConcolicTester",
    "ConcreteModelFactory", "CoverageGuidedStrategy", "DFSStrategy",
    "EngineConfig", "EventBus", "ExecutionResult", "ExecutionStats",
    "Explorer", "Incompleteness", "ParallelExplorer", "PathEndEvent",
    "RunReport", "STOP_REASON_PRECEDENCE",
    "SearchStrategy", "ShardLostEvent", "ShardRetryEvent",
    "SolverQueryEvent", "SolverUnknownEvent", "StepEvent", "StopReason",
    "SymbolicModelFactory", "WorkerEvent", "gillian",
    "javert2_baseline", "make_strategy", "merge_results",
    "merge_stop_reasons", "resolve_workers", "strategy_names",
]
