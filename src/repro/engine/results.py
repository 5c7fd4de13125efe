"""Execution results, statistics, and incompleteness accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.gil.semantics import Final, OutcomeKind

#: Stop-reason precedence for merging runs: lower rank wins.  A merged
#: run reports the *most restrictive* reason any constituent hit —
#: "incomplete" (a shard's frontier was abandoned after crash retries)
#: over "unknown-abort" (the run stopped on an undecidable branch) over
#: "deadline" (the run was cut mid-flight by wall clock) over
#: "max-total-steps" (the global command budget ran dry) over
#: "max-paths" (the path cap evicted the worklist) over "exhausted"
#: (every constituent drained its worklist).  The parallel explorer's
#: shard merge relies on this order being total and documented; an
#: unknown reason ranks most restrictive of all so it is never silently
#: swallowed.
STOP_REASON_PRECEDENCE = (
    "incomplete",
    "unknown-abort",
    "deadline",
    "max-total-steps",
    "max-paths",
    "exhausted",
)

_STOP_RANK = {reason: rank for rank, reason in enumerate(STOP_REASON_PRECEDENCE)}


def merge_stop_reasons(*reasons: str) -> str:
    """The most restrictive of the given reasons ("" entries ignored)."""
    live = [r for r in reasons if r]
    if not live:
        return ""
    return min(live, key=lambda r: _STOP_RANK.get(r, -1))


@dataclass
class Incompleteness:
    """What a run could *not* decide or explore, itemised.

    The OCaml Gillian leans on Z3's per-query timeouts and ``Unknown``
    verdict to survive hostile inputs; this record is the engine-side
    ledger of every such degradation — each counter is a place where the
    "explores all paths up to a bound" claim (paper §1) was narrowed
    further than the configured bounds alone would narrow it.  All-zero
    means the run's only incompleteness is the explicit budget.
    """

    #: solver queries that hit the per-query step budget (or an injected
    #: timeout fault) and answered UNKNOWN
    solver_timeouts: int = 0
    #: branches dropped because their feasibility was UNKNOWN under
    #: ``unknown_policy="prune"``
    unknown_pruned: int = 0
    #: branches kept alive under ``unknown_policy="assume-sat"`` (the
    #: default) despite a *timed-out* UNKNOWN feasibility verdict (step
    #: budget exhausted or fault-injected): sound for bug-finding, but
    #: the branch may be infeasible.  Baseline incomplete-search
    #: UNKNOWNs — those the solver reports even with no budget — are the
    #: documented ``is_sat`` over-approximation and are not counted here
    unknown_assumed: int = 0
    #: parallel shards that crashed/hung and were re-sharded for retry.
    #: Informational: a retried shard that then succeeds loses nothing,
    #: so retries alone do not make a run :attr:`clean`-false
    shards_retried: int = 0
    #: parallel shards abandoned after exhausting their retries
    shards_lost: int = 0
    #: frontier items lost with abandoned shards (their subtrees were
    #: never explored; see ``ExecutionResult.lost_frontier``)
    frontier_lost: int = 0

    def merge(self, other: "Incompleteness") -> None:
        self.solver_timeouts += other.solver_timeouts
        self.unknown_pruned += other.unknown_pruned
        self.unknown_assumed += other.unknown_assumed
        self.shards_retried += other.shards_retried
        self.shards_lost += other.shards_lost
        self.frontier_lost += other.frontier_lost

    @property
    def clean(self) -> bool:
        """True iff nothing was degraded: no timeouts, no undecided
        branches, no lost shards.  ``shards_retried`` is deliberately
        excluded — a retry that succeeded recovered the exact result."""
        return not (
            self.solver_timeouts
            or self.unknown_pruned
            or self.unknown_assumed
            or self.shards_lost
            or self.frontier_lost
        )

    def to_dict(self) -> Dict[str, int]:
        """A JSON-able counter dict (durable job records store this)."""
        return {
            "solver_timeouts": self.solver_timeouts,
            "unknown_pruned": self.unknown_pruned,
            "unknown_assumed": self.unknown_assumed,
            "shards_retried": self.shards_retried,
            "shards_lost": self.shards_lost,
            "frontier_lost": self.frontier_lost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "Incompleteness":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        return cls(**data)


@dataclass(frozen=True)
class RunReport:
    """The operational verdict of a run: why it stopped and what it
    could not decide — the shape a caller needs to judge whether
    "no bug found" means *verified up to the bound* or merely *nothing
    surfaced before the engine degraded*."""

    stop_reason: str
    incompleteness: Incompleteness

    @property
    def complete(self) -> bool:
        """Every path ran to a final and no decision was degraded."""
        return self.stop_reason == "exhausted" and self.incompleteness.clean

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able record: stop reason plus the itemised ledger."""
        return {
            "stop_reason": self.stop_reason,
            "incompleteness": self.incompleteness.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            stop_reason=data["stop_reason"],
            incompleteness=Incompleteness.from_dict(data["incompleteness"]),
        )

    def summary(self) -> str:
        inc = self.incompleteness
        parts = [f"stop={self.stop_reason or 'not-run'}"]
        for label, count in (
            ("solver-timeouts", inc.solver_timeouts),
            ("unknown-pruned", inc.unknown_pruned),
            ("unknown-assumed", inc.unknown_assumed),
            ("shards-retried", inc.shards_retried),
            ("shards-lost", inc.shards_lost),
            ("frontier-lost", inc.frontier_lost),
        ):
            if count:
                parts.append(f"{label}={count}")
        return " ".join(parts)


@dataclass
class ExecutionStats:
    """Counters for one engine run; the benchmark tables report these."""

    commands_executed: int = 0
    #: always 0: the engine has one stepper and no fast lane.  Kept only
    #: because the verdict-level benchmark (``perfbench/sweep.py``) reads
    #: this ``to_dict()`` key; the next change to the benchmark drops it
    fast_lane_steps: int = 0
    paths_finished: int = 0
    paths_vanished: int = 0
    paths_dropped: int = 0
    solver_queries: int = 0
    solver_cache_hits: int = 0
    solver_prefix_hits: int = 0
    solver_model_reuse: int = 0
    solver_time: float = 0.0
    wall_time: float = 0.0
    #: call sites served from an already-recorded summary (memory/disk)
    summary_hits: int = 0
    #: calls to pure procedures a summary could not answer (cold,
    #: corrupt disk entry, incomplete in verify mode); calls to impure
    #: procedures run inline and are not counted
    summary_misses: int = 0
    #: call sites answered by summary replay (hits plus freshly-built)
    summary_replays: int = 0
    #: GIL commands replays avoided re-executing (the summarisation
    #: run's command count, credited once per replay)
    summary_commands_saved: int = 0
    #: GIL commands executed *inside* summarisation sub-runs — not part
    #: of ``commands_executed``, so a cold compositional run's true cost
    #: is ``commands_executed + summary_build_commands``
    summary_build_commands: int = 0
    #: why the scheduler stopped (a StopReason value, e.g. "exhausted",
    #: "max-paths", "max-total-steps", "deadline", "unknown-abort",
    #: "incomplete"); "" before any run
    stop_reason: str = ""
    #: the run's degradation ledger (see :class:`Incompleteness`)
    incompleteness: Incompleteness = field(default_factory=Incompleteness)
    #: wall-clock seconds attributed to named phases — solver pipeline
    #: phases ("solver/split", "solver/propagation", "solver/search")
    #: when the solver profiles them (``EngineConfig.
    #: profile_solver_phases``), and anything else a caller folds in.
    #: Merged key-wise additively, so per-worker stats aggregate like
    #: every other counter.  Empty unless profiling is on.
    phase_times: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "ExecutionStats") -> None:
        self.commands_executed += other.commands_executed
        self.fast_lane_steps += other.fast_lane_steps
        self.paths_finished += other.paths_finished
        self.paths_vanished += other.paths_vanished
        self.paths_dropped += other.paths_dropped
        self.solver_queries += other.solver_queries
        self.solver_cache_hits += other.solver_cache_hits
        self.solver_prefix_hits += other.solver_prefix_hits
        self.solver_model_reuse += other.solver_model_reuse
        self.solver_time += other.solver_time
        self.wall_time += other.wall_time
        self.summary_hits += other.summary_hits
        self.summary_misses += other.summary_misses
        self.summary_replays += other.summary_replays
        self.summary_commands_saved += other.summary_commands_saved
        self.summary_build_commands += other.summary_build_commands
        # A merged run was exhaustive only if every constituent was: the
        # most restrictive stop reason wins (see STOP_REASON_PRECEDENCE).
        self.stop_reason = merge_stop_reasons(self.stop_reason, other.stop_reason)
        self.incompleteness.merge(other.incompleteness)
        for name, seconds in other.phase_times.items():
            self.phase_times[name] = self.phase_times.get(name, 0.0) + seconds

    def add_solver_delta(self, delta) -> None:
        """Fold a :class:`repro.logic.solver.SolverSnapshot` delta in."""
        self.solver_queries += delta.queries
        self.solver_cache_hits += delta.cache_hits
        self.solver_prefix_hits += delta.prefix_hits
        self.solver_model_reuse += delta.model_reuse_hits
        self.solver_time += delta.solve_time
        self.incompleteness.solver_timeouts += delta.timeouts
        for name, seconds in (
            ("solver/split", delta.split_time),
            ("solver/propagation", delta.propagation_time),
            ("solver/search", delta.search_time),
        ):
            if seconds:
                self.phase_times[name] = (
                    self.phase_times.get(name, 0.0) + seconds
                )

    def add_phase_time(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall clock to phase ``name``."""
        self.phase_times[name] = self.phase_times.get(name, 0.0) + seconds

    def add_degradation_delta(self, pruned: int, assumed: int) -> None:
        """Fold the state model's per-step unknown-policy counters in."""
        self.incompleteness.unknown_pruned += pruned
        self.incompleteness.unknown_assumed += assumed

    def add_summary_delta(
        self, hits: int, misses: int, replays: int, saved: int, built: int
    ) -> None:
        """Fold a summary engine's counter movement in (see
        :class:`repro.specs.engine.SummaryCounters`)."""
        self.summary_hits += hits
        self.summary_misses += misses
        self.summary_replays += replays
        self.summary_commands_saved += saved
        self.summary_build_commands += built

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able summary (durable job records and reports).

        Carries every counter plus the stop reason and ledger; the
        wall-clock and solver-time floats are included for reporting but
        are *not* part of any determinism contract.
        """
        return {
            "commands_executed": self.commands_executed,
            "fast_lane_steps": self.fast_lane_steps,
            "paths_finished": self.paths_finished,
            "paths_vanished": self.paths_vanished,
            "paths_dropped": self.paths_dropped,
            "solver_queries": self.solver_queries,
            "solver_cache_hits": self.solver_cache_hits,
            "solver_prefix_hits": self.solver_prefix_hits,
            "solver_model_reuse": self.solver_model_reuse,
            "solver_time": self.solver_time,
            "wall_time": self.wall_time,
            "summary_hits": self.summary_hits,
            "summary_misses": self.summary_misses,
            "summary_replays": self.summary_replays,
            "summary_commands_saved": self.summary_commands_saved,
            "summary_build_commands": self.summary_build_commands,
            "stop_reason": self.stop_reason,
            "incompleteness": self.incompleteness.to_dict(),
        }


def final_sort_key(fin: Final) -> tuple:
    """A canonical order on finals for the deterministic shard merge.

    Keyed by outcome kind and the repr of the outcome value — enough to
    make the merged *list* order independent of worker scheduling: the
    sort is stable and the per-shard input order is itself deterministic
    (seeding is sequential, shards are fixed by round-robin).
    """
    return (fin.kind.name, repr(fin.value))


def merge_results(parts: List["ExecutionResult"]) -> "ExecutionResult":
    """Deterministically merge sub-runs into one result.

    Finals are combined as a sorted multiset (stable sort over
    :func:`final_sort_key`, so equal-keyed finals keep their shard
    order); stats are folded with :meth:`ExecutionStats.merge`, whose
    stop-reason precedence makes the merged reason the most restrictive
    one any shard hit.  This is the merge the parallel explorer's
    outcome-determinism guarantee rests on: any partition of the same
    path set yields the same multiset, hence the same sorted list.
    """
    finals: List[Final] = []
    stats = ExecutionStats()
    lost: List[tuple] = []
    for part in parts:
        finals.extend(part.finals)
        stats.merge(part.stats)
        lost.extend(part.lost_frontier)
    finals.sort(key=final_sort_key)
    return ExecutionResult(finals, stats, lost_frontier=tuple(lost))


@dataclass
class ExecutionResult:
    """All finished paths of a (concrete or symbolic) execution."""

    finals: List[Final]
    stats: ExecutionStats
    #: ``(Config, depth)`` frontier items whose subtrees were abandoned
    #: with a lost shard — re-feeding them to ``Explorer.explore`` (with
    #: their depths) resumes exactly the unexplored remainder of an
    #: ``"incomplete"`` run
    lost_frontier: Tuple[tuple, ...] = ()

    @property
    def report(self) -> RunReport:
        """The run's :class:`RunReport` (stop reason + incompleteness)."""
        return RunReport(self.stats.stop_reason, self.stats.incompleteness)

    @property
    def normal(self) -> List[Final]:
        return [f for f in self.finals if f.kind is OutcomeKind.NORMAL]

    @property
    def errors(self) -> List[Final]:
        return [f for f in self.finals if f.kind is OutcomeKind.ERROR]

    @property
    def sole_outcome(self) -> Final:
        """The unique final of a deterministic (concrete) run."""
        real = [f for f in self.finals if f.kind is not OutcomeKind.VANISH]
        if len(real) != 1:
            raise ValueError(f"expected exactly one outcome, got {len(real)}")
        return real[0]
