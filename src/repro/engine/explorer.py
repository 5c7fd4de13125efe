"""The symbolic execution driver: a scheduler over GIL configurations.

Explores all branches of the GIL semantics up to configurable bounds
(paper §1: "exploring all paths and unrolling loops up to a bound").
Dropping a path at a bound is sound for bug-finding by the relaxed
trace-composition result (paper §3.1): "this gives us permission to
arbitrarily drop paths in the analysis by need".

The driver is a thin scheduler composed from three pluggable layers:

* a :class:`~repro.engine.strategy.SearchStrategy` owns the worklist and
  decides exploration order and eviction victims (DFS by default);
* a :class:`~repro.engine.budget.Budget` owns every bound — per-path
  depth, path cap, global steps, wall-clock deadline — judged by a
  single :meth:`~repro.engine.budget.Budget.decide` call per iteration,
  and the run records *why* it stopped in ``ExecutionStats.stop_reason``;
* an optional :class:`~repro.engine.events.EventBus` receives
  step/branch/path-end events from the loop (and solver-query events
  from the attached solver); when absent or subscriber-less the loop
  pays one falsy check per step.

Every step goes through the tree-walking interpreter
:func:`repro.gil.semantics.step`, the engine's one stepper, for every
state model.  The scheduler takes one private fast path of its own:
under plain DFS, a step with a single successor and no finals continues
inline instead of round-tripping through the worklist (push/pop order,
budget decisions, and eviction victims are unchanged — the successor
would have been the next pop anyway).

The same scheduler drives concrete execution — a concrete state model
simply never branches — which is what the differential conformance tests
(E5), counter-model replay (Thm. 3.6), the concolic driver, and the
symbolic testing harness all rely on: one exploration loop, many modes.

For an exhaustive run (stop reason ``exhausted``) the strategy cannot
change the *multiset* of final outcomes, only the order they are found
in: branching is path-local and allocation records are threaded through
states, so every path produces the same finals whenever it is scheduled.
``benchmarks/bench_strategies.py`` asserts this invariance.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

from repro.engine.budget import Budget, StopReason
from repro.engine.config import EngineConfig
from repro.engine.events import (
    BranchEvent,
    EventBus,
    PathEndEvent,
    SpanEnd,
    StepEvent,
)
from repro.engine.results import ExecutionResult, ExecutionStats
from repro.engine.strategy import (
    DFSStrategy,
    SearchStrategy,
    StrategySpec,
    make_strategy,
)
from repro.gil.semantics import (
    Config,
    Final,
    OutcomeKind,
    make_call_config,
    step,
)
from repro.gil.syntax import Prog
from repro.logic.solver import UnknownAbort

_VANISH = OutcomeKind.VANISH


@contextmanager
def _batched_gc(threshold: int):
    """Raise the gen-0 collector threshold around a drive loop.

    Exploration allocates short-lived objects fast enough that CPython's
    default gen-0 threshold collects hundreds of times per run, a
    double-digit share of wall time.  Collection stays *enabled* (peak
    memory remains bounded); only the batch size grows.  Reentrant:
    a nested drive (e.g. counter-model replay inside a test) sees the
    already-raised threshold and leaves it alone.
    """
    if threshold <= 0 or not gc.isenabled():
        yield
        return
    prev = gc.get_threshold()
    if prev[0] >= threshold:
        yield
        return
    gc.set_threshold(threshold, prev[1], prev[2])
    try:
        yield
    finally:
        gc.set_threshold(*prev)


class Explorer:
    """Runs a GIL program under a state model to completion.

    ``strategy`` accepts a spec string (``"dfs"``, ``"bfs"``,
    ``"random[:seed]"``, ``"coverage"``) or a ready
    :class:`SearchStrategy` instance; None defers to
    ``config.strategy``.  ``budget`` defaults to the bounds the config
    carries.  ``events`` is an optional :class:`EventBus`.

    ``checkpoint`` is an optional crash-recovery hook (duck-typed; see
    :class:`repro.service.checkpoint.CheckpointManager`): an object with
    an ``interval`` attribute (commands between snapshots; 0 disables)
    and a ``save(frontier, finals, stats)`` method.  The scheduler calls
    ``save`` at the :meth:`Budget.decide` boundary — after the decision,
    before the step — every ``interval`` executed commands, passing the
    full pending frontier (the in-flight item first), the finals found
    so far, and the live stats with every solver/degradation delta
    folded in, so a process killed at any point resumes from the last
    snapshot with nothing double-counted.
    """

    def __init__(
        self,
        prog: Prog,
        state_model,
        config: Optional[EngineConfig] = None,
        strategy: StrategySpec = None,
        budget: Optional[Budget] = None,
        events: Optional[EventBus] = None,
        checkpoint=None,
    ):
        self.prog = prog
        self.sm = state_model
        self.config = config if config is not None else EngineConfig()
        self.strategy = strategy
        self.budget = budget if budget is not None else Budget.from_config(self.config)
        self.events = events
        self.checkpoint = checkpoint
        # Deterministic fault injection: a FaultPlan shipped through the
        # config (by the fault harness, or by the parallel explorer to
        # its workers) is resolved to this process's injector here.  A
        # plan with no fault for (fault_worker, fault_attempt) resolves
        # to None and the loop pays nothing.
        self.faults = None
        plan = self.config.fault_plan
        if plan is not None:
            from repro.testing.faults import install_faults

            injector = plan.injector(
                self.config.fault_worker, self.config.fault_attempt
            )
            if injector is not None:
                install_faults(self.sm, injector)
                self.faults = injector
        # Compositional execution: a summary engine intercepts Call
        # commands (the interpreter's ``summaries`` parameter).  Never
        # constructed alongside a fault injector — an injected fault
        # could be recorded into a summary and then replayed everywhere.
        self._summaries = None
        if self.config.summaries and self.faults is None:
            from repro.specs.engine import make_summary_engine

            self._summaries = make_summary_engine(
                prog, self.sm, self.config, events=events
            )

    def run(
        self,
        proc: str,
        args: Sequence = (),
        state: object = None,
    ) -> ExecutionResult:
        """Execute ``proc(args)`` from ``state`` (default: initial state)."""
        if state is None:
            state = self.sm.initial_state()
        # Arguments are expressions; evaluate them in the initial state so
        # concrete stores hold values and symbolic stores hold logical
        # expressions.
        from repro.logic.expr import Expr

        evaluated = [
            self.sm.eval_expr(state, a) if isinstance(a, Expr) else a for a in args
        ]
        cfg = make_call_config(self.sm, state, self.prog, proc, evaluated)
        return self.explore([cfg])

    def _make_strategy(self) -> SearchStrategy:
        spec = self.strategy if self.strategy is not None else self.config.strategy
        return make_strategy(spec, seed=self.config.random_seed)

    def _drive(
        self,
        strategy: SearchStrategy,
        stats: ExecutionStats,
        finals: List[Final],
        start: float,
        frontier_target: Optional[int],
    ) -> Tuple[List[tuple], Optional[StopReason]]:
        """The scheduler loop shared by :meth:`explore` (``frontier_target``
        None: run to completion) and :meth:`explore_frontier` (stop once the
        worklist holds that many pending items and hand them back).

        Returns ``(frontier_items, stop_reason)`` — items empty unless a
        frontier was cut, stop None unless a bound fired.
        """
        budget = self.budget
        bus = self.events  # truthy only when subscribers are attached
        prog = self.prog
        sm = self.sm
        faults = self.faults
        summaries = self._summaries
        checkpoint = self.checkpoint
        ck_every = getattr(checkpoint, "interval", 0) if checkpoint is not None else 0
        ck_next = ck_every  # first snapshot after ``interval`` commands
        # The deadline is the only bound needing wall clock; without one,
        # Budget.decide ignores ``elapsed`` and the loop skips the read.
        timed = budget.deadline is not None
        perf = time.perf_counter
        # Inline continuation is a DFS-only identity: the sole successor
        # of a non-branching step is exactly what a push would pop next.
        inline = frontier_target is None and type(strategy) is DFSStrategy

        items: List[tuple] = []
        stop: Optional[StopReason] = None
        item: Optional[tuple] = None
        # Solver work, unknown-policy degradations and summary activity
        # are attributed to this drive as start/end deltas: the counters
        # are additive, so folding them at the checkpoints and once at
        # loop exit equals folding them per step, at none of the per-step
        # snapshot cost.  Each fold resets its baselines, so the folds
        # together count everything exactly once; the ``finally`` makes
        # the last one cover every exit, including UnknownAbort.
        solver_stats = getattr(getattr(sm, "solver", None), "stats", None)
        degradation = getattr(sm, "degradation", None)
        sum_counters = summaries.counters if summaries is not None else None
        s0 = solver_stats.snapshot() if solver_stats is not None else None
        d0 = degradation.snapshot() if degradation is not None else None
        c0 = sum_counters.snapshot() if sum_counters is not None else None

        def fold() -> None:
            nonlocal s0, d0, c0
            if s0 is not None:
                stats.add_solver_delta(solver_stats.delta(s0))
                s0 = solver_stats.snapshot()
            if d0 is not None:
                d1 = degradation.snapshot()
                stats.add_degradation_delta(d1[0] - d0[0], d1[1] - d0[1])
                d0 = d1
            if c0 is not None:
                c1 = sum_counters.snapshot()
                stats.add_summary_delta(*(a - b for a, b in zip(c1, c0)))
                c0 = c1

        try:
            while True:
                if item is None:
                    pending = len(strategy)
                    if not pending:
                        break
                    if frontier_target is not None and pending >= frontier_target:
                        items = [strategy.pop() for _ in range(pending)]
                        break
                    item = strategy.pop()
                cfg, depth = item
                item = None
                # The one budget checkpoint of the loop.
                decision = budget.decide(
                    stats,
                    depth=depth,
                    pending=len(strategy),
                    elapsed=perf() - start if timed else 0.0,
                )
                if decision.stop is not None:
                    stats.paths_dropped += 1 + len(strategy)
                    stop = decision.stop
                    break
                if decision.evict:
                    stats.paths_dropped += len(strategy.evict(decision.evict))
                if decision.drop_path:
                    stats.paths_dropped += 1
                    if decision.cap_hit and not len(strategy):
                        stop = StopReason.MAX_PATHS
                    continue

                if ck_every and stats.commands_executed >= ck_next:
                    # Snapshot at the decide() boundary: the popped item
                    # leads the frontier (its step has not run yet), and
                    # every externally-held counter delta is folded into
                    # ``stats`` first, making the snapshot self-contained:
                    # resume = frontier + finals + stats, nothing
                    # double-counted.
                    ck_next = stats.commands_executed + ck_every
                    fold()
                    checkpoint.save(
                        ((cfg, depth),) + strategy.snapshot(), finals, stats
                    )

                if faults is not None:
                    faults.on_step()
                try:
                    successors, finished = step(prog, sm, cfg, summaries)
                except UnknownAbort:
                    stats.commands_executed += 1
                    stats.paths_dropped += 1 + len(strategy)
                    stop = StopReason.UNKNOWN_ABORT
                    break
                stats.commands_executed += 1

                if bus:
                    bus.emit(
                        StepEvent(
                            cfg.proc, cfg.idx, depth,
                            len(successors), len(finished),
                        )
                    )
                    if len(successors) > 1:
                        bus.emit(
                            BranchEvent(cfg.proc, cfg.idx, depth, len(successors))
                        )
                if finished:
                    for fin in finished:
                        if fin.kind is _VANISH:
                            stats.paths_vanished += 1
                        else:
                            stats.paths_finished += 1
                            finals.append(fin)
                        if bus:
                            bus.emit(PathEndEvent(fin.kind.name, depth, fin.value))
                elif inline and len(successors) == 1:
                    item = (successors[0], depth + 1)
                    continue
                for succ in successors:
                    strategy.push((succ, depth + 1))
        finally:
            fold()
        return items, stop

    def explore(
        self,
        configs: List[Config],
        depths: Optional[Sequence[int]] = None,
    ) -> ExecutionResult:
        """Drive every configuration to a final under budget and strategy.

        ``depths`` optionally gives the starting depth of each config —
        parallel-explorer shards resume mid-path, so their loop-unrolling
        bound must keep counting from where the seeding phase stopped.
        """
        stats = ExecutionStats()
        strategy = self._make_strategy()
        bus = self.events
        solver = getattr(self.sm, "solver", None)
        # Route this run's solver queries onto our bus (restored on exit:
        # nested or interleaved explorers over a shared solver each see
        # their own wiring).
        prev_solver_events = None
        if solver is not None and bus is not None:
            prev_solver_events = solver.events
            solver.events = bus

        start = time.perf_counter()
        finals: List[Final] = []
        try:
            for i, cfg in enumerate(configs):
                strategy.push((cfg, depths[i] if depths is not None else 0))
            with _batched_gc(self.config.gc_batch):
                _, stop = self._drive(strategy, stats, finals, start, None)
            stats.stop_reason = (stop or StopReason.EXHAUSTED).value
        finally:
            if solver is not None and bus is not None:
                solver.events = prev_solver_events
        stats.wall_time = time.perf_counter() - start
        if bus:
            bus.emit(SpanEnd("explore", stats.wall_time, stats.commands_executed))
            for name, seconds in sorted(stats.phase_times.items()):
                bus.emit(SpanEnd(name, seconds, 0))
        return ExecutionResult(finals, stats)

    def explore_frontier(
        self, configs: List[Config], target: int
    ) -> "tuple[List[tuple], ExecutionResult]":
        """Breadth-first seeding: step until the worklist holds ``target``
        pending items, then hand the frontier back instead of finishing.

        This is the parallel explorer's phase 1.  BFS order is used
        regardless of the configured strategy so the frontier is a *cut*
        across the shallow part of the execution tree — every path of the
        full run extends exactly one frontier item (or already ended),
        which is what makes sharding the frontier a partition of the path
        set (§3.1 trace composition: outcomes are path-local).

        Returns ``(items, result)`` where ``items`` is the pending
        ``(Config, depth)`` list (empty when the run finished during
        seeding) and ``result`` carries the finals found so far plus the
        seeding stats.  ``result.stats.stop_reason`` is ``""`` while the
        frontier is live, or the budget's stop reason if a global bound
        fired mid-seed (the frontier is then dropped and counted, exactly
        as :meth:`explore` would have).
        """
        from repro.engine.strategy import BFSStrategy

        stats = ExecutionStats()
        strategy = BFSStrategy()
        bus = self.events
        solver = getattr(self.sm, "solver", None)
        prev_solver_events = None
        if solver is not None and bus is not None:
            prev_solver_events = solver.events
            solver.events = bus

        start = time.perf_counter()
        finals: List[Final] = []
        try:
            for cfg in configs:
                strategy.push((cfg, 0))
            with _batched_gc(self.config.gc_batch):
                items, stop = self._drive(
                    strategy, stats, finals, start, target
                )
            if not items:
                # The run either drained (exhausted) or a bound fired.
                stats.stop_reason = (stop or StopReason.EXHAUSTED).value
        finally:
            if solver is not None and bus is not None:
                solver.events = prev_solver_events
        stats.wall_time = time.perf_counter() - start
        if bus:
            bus.emit(SpanEnd("seed", stats.wall_time, stats.commands_executed))
        return items, ExecutionResult(finals, stats)
