"""Engine configurations.

The paper attributes Gillian-JS being roughly twice as fast as JaVerT 2.0
(§4.1, Table 1) to improvements in the symbolic execution engine — "more
efficient use of OCaml features, such as hashtables" and "better
simplifications and better caching of results" in the first-order solver.
We expose exactly those levers so the benchmark ablation (E4) can run the
same analysis under both configurations:

* :func:`gillian` — memoised simplifier + solver result cache;
* :func:`javert2_baseline` — same simplification *rules* (so exploration
  is identical: same branches, same results) but nothing is memoised or
  cached, which re-does the work JaVerT 2.0 re-did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

#: valid values for :attr:`EngineConfig.unknown_policy`
UNKNOWN_POLICIES = ("assume-sat", "prune", "abort")

#: valid values for :attr:`EngineConfig.shard_failure`
SHARD_FAILURE_MODES = ("degrade", "raise")

#: valid values for :attr:`EngineConfig.summary_mode`
SUMMARY_MODES = ("verify", "incorrectness")


@dataclass
class EngineConfig:
    """Every engine knob in one bundle; the named constructors below
    build the paper's tool configurations.
    """

    name: str = "gillian"
    #: memoise the expression simplifier
    simplifier_memoisation: bool = True
    #: cache solver results per path-condition
    solver_cache: bool = True
    #: solve path conditions incrementally along prefix chains (per-prefix
    #: solver contexts, delta-only normalization, parent-model reuse); off
    #: means every query re-solves the whole conjunction monolithically
    solver_incremental: bool = True
    #: gen-0 garbage-collector threshold while a drive loop runs (0:
    #: leave the collector alone).  Path exploration allocates short-lived
    #: states, configs, and expression nodes at a rate that makes the
    #: default gen-0 threshold (~700 allocations) collect hundreds of
    #: times per run; batching collections recovers a double-digit share
    #: of wall time with bounded peak memory.  Purely a timing knob —
    #: results are unaffected.
    gc_batch: int = 50_000
    #: bound on GIL commands executed along a single path (loop unrolling
    #: bound; paper §1: "unrolling loops up to a bound")
    max_steps_per_path: int = 100_000
    #: bound on the number of explored paths
    max_paths: int = 100_000
    #: global bound on executed GIL commands
    max_total_steps: int = 5_000_000
    #: wall-clock budget per ``explore`` call, in seconds (None: unbounded)
    deadline: Optional[float] = None
    #: search strategy spec: "dfs" | "bfs" | "random" | "random:<seed>" |
    #: "coverage" (see :mod:`repro.engine.strategy`)
    strategy: str = "dfs"
    #: PRNG seed for the "random" strategy (when the spec carries none)
    random_seed: int = 0
    #: worker processes for path exploration: 1 (sequential, the
    #: default), an explicit count, or "auto" (``os.cpu_count()``).
    #: Values above 1 route harness/parallel-explorer runs through
    #: :class:`repro.engine.parallel.ParallelExplorer`, which shards the
    #: frontier across OS processes and merges outcomes
    #: deterministically (same multiset of finals as ``workers=1``).
    workers: Union[int, str] = 1
    #: per-query solver work budget, counted in solver *steps* (split
    #: branches, propagation passes, model-search nodes) rather than wall
    #: clock, so bounded runs stay deterministic.  A query that exhausts
    #: the budget answers ``UNKNOWN`` with its timeout recorded in
    #: ``SolverStats.timeouts`` / ``Incompleteness.solver_timeouts``.
    #: None (the default) leaves queries unbounded.
    solver_step_budget: Optional[int] = None
    #: attribute solver wall clock to pipeline phases (boolean case
    #: splitting, interval propagation, model search), surfaced in
    #: ``SolverStats`` / ``ExecutionStats.phase_times`` and emitted as
    #: ``SpanEnd`` events at the end of a run.  Off by default: profiling
    #: adds two ``perf_counter`` calls around each phase invocation
    profile_solver_phases: bool = False
    #: what the engine does with a branch whose feasibility the solver
    #: could not decide (``UNKNOWN``):
    #: ``"assume-sat"`` (default) keeps the branch alive — sound for
    #: bug-finding since every reported bug is separately confirmed by
    #: concrete replay (Theorem 3.6); ``"prune"`` drops the branch,
    #: trading possible coverage for a path set with no undecided
    #: feasibility; ``"abort"`` stops the run with stop reason
    #: ``"unknown-abort"``.  Every degraded decision is counted in the
    #: run's :class:`~repro.engine.results.Incompleteness` record.
    unknown_policy: str = "assume-sat"
    #: how many times a crashed/hung parallel shard is re-sharded and
    #: retried before its frontier is abandoned (counted per shard
    #: lineage, not per run)
    max_shard_retries: int = 2
    #: seconds of backoff before retry round ``r`` (scaled by ``r``);
    #: affects wall clock only, never results
    shard_retry_backoff: float = 0.05
    #: ``"degrade"`` (default): exhausted shard retries downgrade the run
    #: to stop reason ``"incomplete"`` — partial results from healthy
    #: shards are kept and the lost frontier is reported on the result;
    #: ``"raise"``: restore the historical behaviour of raising
    #: :class:`~repro.engine.parallel.WorkerError` on the first failure.
    shard_failure: str = "degrade"
    #: wall-clock seconds a silent worker may run before it is declared
    #: hung, terminated, and treated as a crashed shard (None: wait
    #: forever — hung workers then stall the run, as they always did)
    worker_timeout: Optional[float] = None
    #: seconds the parent waits when joining a worker process at shutdown
    #: before escalating to ``terminate()``
    worker_join_timeout: float = 30.0
    #: seconds between polls of the worker result queue (also the
    #: granularity of crash detection)
    worker_result_poll: float = 0.2
    #: compositional execution via function summaries
    #: (:mod:`repro.specs`): a procedure is executed once against a
    #: ``π = true`` pre-state and replayed at call sites from a
    #: content-addressed cache.  Off by default; applies only to the
    #: stock symbolic state model, and is ignored (never constructed)
    #: when a fault plan is installed.  With the default ``verify``
    #: mode the finals multiset is identical on vs off — the
    #: differential fuzz arm asserts it
    summaries: bool = False
    #: ``"verify"`` (default) replays only *complete* summaries (every
    #: callee path recorded), preserving the whole path set;
    #: ``"incorrectness"`` also replays partial summaries — paths may
    #: be dropped but never widened (arXiv 2407.10838), so bug reports
    #: remain true positives once confirmed by concrete replay
    summary_mode: str = "verify"
    #: directory for the durable checksummed summary store
    #: (:class:`repro.service.store.SummaryStore`); None keeps
    #: summaries in process memory only
    summary_dir: Optional[str] = None
    #: bound on GIL commands one summarisation run may execute before
    #: the summary is cut (and marked incomplete)
    summary_max_commands: int = 100_000
    #: bound on paths one summarisation run may explore
    summary_max_paths: int = 512
    #: deterministic fault-injection plan
    #: (:class:`repro.testing.faults.FaultPlan`); None disables injection
    #: entirely.  Test-only: production runs never set this.
    fault_plan: Optional[object] = None
    #: fault-injection context, set internally by the parallel explorer:
    #: the shard's worker id (None: the sequential/seeding phase)
    fault_worker: Optional[int] = None
    #: fault-injection context, set internally: the retry round (0 = the
    #: first attempt), letting plans model transient vs permanent faults
    fault_attempt: int = 0

    def __post_init__(self) -> None:
        if self.unknown_policy not in UNKNOWN_POLICIES:
            raise ValueError(
                f"unknown_policy must be one of {UNKNOWN_POLICIES}, "
                f"got {self.unknown_policy!r}"
            )
        if self.shard_failure not in SHARD_FAILURE_MODES:
            raise ValueError(
                f"shard_failure must be one of {SHARD_FAILURE_MODES}, "
                f"got {self.shard_failure!r}"
            )
        if self.max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.summary_mode not in SUMMARY_MODES:
            raise ValueError(
                f"summary_mode must be one of {SUMMARY_MODES}, "
                f"got {self.summary_mode!r}"
            )
        if self.summary_max_commands <= 0 or self.summary_max_paths <= 0:
            raise ValueError(
                "summary_max_commands and summary_max_paths must be positive"
            )


def gillian(**overrides) -> EngineConfig:
    """The optimised Gillian engine configuration."""
    return EngineConfig(name="gillian", **overrides)


def javert2_baseline(**overrides) -> EngineConfig:
    """The JaVerT 2.0-like baseline: identical precision, no caching."""
    return EngineConfig(
        name="javert2",
        simplifier_memoisation=False,
        solver_cache=False,
        solver_incremental=False,
        **overrides,
    )
