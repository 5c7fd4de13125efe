"""Execution budgets: every bound the scheduler enforces, in one object.

Bounded symbolic execution (paper §1: "exploring all paths and unrolling
loops up to a bound") is sound for bug-finding by the relaxed
trace-composition result (§3.1): the engine has permission to drop paths
by need.  Historically each bound was an ad-hoc ``if`` scattered through
the exploration loop; :class:`Budget` unifies them behind a single
:meth:`decide` call per scheduler iteration, and the decision records
*why* exploration stopped so :class:`~repro.engine.results.ExecutionStats`
can report it.

Bounds:

* ``max_steps_per_path`` — loop-unrolling bound: a popped item deeper
  than this is dropped (the path, not the run).
* ``max_paths`` — cap on finished+pending paths: overshoot is *evicted*
  from the worklist (the strategy chooses the victims).
* ``max_total_steps`` — global command budget: stops the run.
* ``deadline`` — wall-clock budget in seconds: stops the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class StopReason(enum.Enum):
    """Why a scheduler run ended; stored in ``ExecutionStats.stop_reason``."""

    #: the worklist drained — every path ran to a final or was dropped at
    #: its depth bound (the only *exhaustive* stop)
    EXHAUSTED = "exhausted"
    #: the ``max_paths`` eviction emptied the worklist
    MAX_PATHS = "max-paths"
    #: the global ``max_total_steps`` command budget ran out
    MAX_TOTAL_STEPS = "max-total-steps"
    #: the wall-clock ``deadline`` passed
    DEADLINE = "deadline"
    #: a branch's feasibility came back UNKNOWN under
    #: ``unknown_policy="abort"`` — the run stopped rather than degrade
    UNKNOWN_ABORT = "unknown-abort"
    #: a parallel shard exhausted its crash retries and its frontier was
    #: abandoned; partial results from healthy shards were kept
    INCOMPLETE = "incomplete"


@dataclass(frozen=True)
class BudgetDecision:
    """The budget's verdict for one scheduler iteration.

    Exactly one of three shapes: ``stop`` set (end the run, dropping the
    current item and everything pending), ``drop_path`` (discard the
    current item only, keep running), or neither (continue; first
    evicting ``evict`` pending items if positive).  ``cap_hit`` marks a
    drop caused by the path cap rather than the depth bound, so the
    scheduler can report ``max-paths`` when the cap drains the worklist.
    """

    stop: Optional[StopReason] = None
    drop_path: bool = False
    evict: int = 0
    cap_hit: bool = False


_CONTINUE = BudgetDecision()
_DROP_PATH = BudgetDecision(drop_path=True)


@dataclass(frozen=True)
class Budget:
    """All scheduler bounds; checked at exactly one point in the loop."""

    max_steps_per_path: int = 100_000
    max_paths: int = 100_000
    max_total_steps: int = 5_000_000
    #: wall-clock budget for one ``explore`` call, in seconds (None: off)
    deadline: Optional[float] = None

    @classmethod
    def from_config(cls, config) -> "Budget":
        """The budget an :class:`~repro.engine.config.EngineConfig` implies."""
        return cls(
            max_steps_per_path=config.max_steps_per_path,
            max_paths=config.max_paths,
            max_total_steps=config.max_total_steps,
            deadline=config.deadline,
        )

    def shard_slice(
        self,
        shards: int,
        steps_spent: int = 0,
        paths_found: int = 0,
        elapsed: float = 0.0,
    ) -> "Budget":
        """The per-shard slice of this budget for a ``shards``-way split.

        The global bounds that survive the seeding phase (``steps_spent``
        commands, ``paths_found`` finished paths, ``elapsed`` seconds)
        are divided evenly across shards, rounding up so the shard sum
        covers the remainder; the per-path depth bound is path-local and
        passes through unchanged.  Exhaustive runs never touch these
        bounds, which is why slicing preserves the outcome multiset; a
        budget-bound run stops with the most restrictive shard reason
        (see ``STOP_REASON_PRECEDENCE``) exactly as a sequential run
        records why *it* stopped.
        """
        shards = max(1, shards)
        remaining_steps = max(0, self.max_total_steps - steps_spent)
        remaining_paths = max(0, self.max_paths - paths_found)
        deadline = None
        if self.deadline is not None:
            deadline = max(0.0, self.deadline - elapsed)
        return Budget(
            max_steps_per_path=self.max_steps_per_path,
            max_paths=-(-remaining_paths // shards),
            max_total_steps=-(-remaining_steps // shards),
            deadline=deadline,
        )

    def scaled(self, factor: float) -> "Budget":
        """A cheaper copy of this budget, every global bound multiplied
        by ``factor`` (with a floor of 1 so a scaled budget can still do
        *some* work).

        This is the degradation ladder's lever
        (:mod:`repro.service.degrade`): under memory pressure the
        analysis service admits new jobs at ``scaled(0.25)`` (say)
        rather than refusing them or OOMing.  The per-path depth bound
        is left alone — it bounds a single path's memory, not the run's
        fan-out — and the wall-clock deadline scales like the step
        bounds.
        """
        if not 0 < factor <= 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        return Budget(
            max_steps_per_path=self.max_steps_per_path,
            max_paths=max(1, int(self.max_paths * factor)),
            max_total_steps=max(1, int(self.max_total_steps * factor)),
            deadline=None if self.deadline is None else self.deadline * factor,
        )

    def decide(
        self, stats, depth: int, pending: int, elapsed: float
    ) -> BudgetDecision:
        """Judge the item just popped (at ``depth``) against every bound.

        ``stats`` is the run's live :class:`ExecutionStats`; ``pending``
        is the worklist size *after* the pop; ``elapsed`` is wall-clock
        seconds since the run started.
        """
        if stats.commands_executed >= self.max_total_steps:
            return BudgetDecision(stop=StopReason.MAX_TOTAL_STEPS)
        if self.deadline is not None and elapsed >= self.deadline:
            return BudgetDecision(stop=StopReason.DEADLINE)
        # Path cap: the popped item plus everything pending are prospective
        # paths on top of those already finished.  Overshoot is evicted
        # (strategy's choice of victims); if even the popped item is over
        # the cap, it is dropped too.
        overshoot = stats.paths_finished + pending + 1 - self.max_paths
        if overshoot > pending:
            return BudgetDecision(drop_path=True, evict=pending, cap_hit=True)
        if depth >= self.max_steps_per_path:
            return _DROP_PATH
        if overshoot > 0:
            return BudgetDecision(evict=overshoot)
        return _CONTINUE
