"""The checkpointed job runner: one JobSpec in, one total result out.

This is the bridge between the service layer (durable queue, caches,
checkpoints) and the engine.  A run proceeds in up to three phases:

1. **Compile** — the TL source is compiled to GIL, through the
   content-addressed :class:`~repro.service.store.GilStore` when one is
   wired in (jobs differing only in entry point or budget share the
   compiled program).
2. **Resume or start** — if the job's checkpoint slot holds a durable
   snapshot, the runner adopts its finals/stats as the base and feeds
   its frontier back into the engine with the *remaining* budget
   (global bounds minus what the snapshot already consumed); otherwise
   it builds the entry-point configuration from a fresh initial state.
3. **Explore** — one
   :meth:`~repro.engine.parallel.ParallelExplorer.explore` call at the
   job's worker count, with the checkpoint manager installed as its
   snapshot hook: the sequential explorer at ``workers == 1``; at
   ``workers > 1`` a seeded frontier cut processed in rounds of
   ``round_items``, the unprocessed remainder saved between rounds.

The identity contract (exercised by the crash-resume suite): for an
exhaustive run, base + resumed-run merged through
:func:`~repro.engine.results.merge_results` has exactly the finals
multiset and incompleteness ledger of the uninterrupted run, at any
worker count — path outcomes are path-local (paper §3.1 trace
composition), so neither the cut point nor the partition matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.budget import Budget
from repro.engine.config import EngineConfig
from repro.engine.parallel import ParallelExplorer, SymbolicModelFactory
from repro.engine.results import ExecutionResult, ExecutionStats, merge_results
from repro.gil.semantics import make_call_config
from repro.service.jobs import JobSpec
from repro.targets import LANGUAGES, language_for


class InvalidJob(ValueError):
    """A spec that no attempt can run: it names an unknown language, or
    an entry procedure that its program does not define.

    Both follow from the spec alone, so the daemon quarantines such a
    job on the attempt that raises this, as it does a front-end error.
    """


def budget_for(spec: JobSpec) -> Budget:
    """The budget a spec requests (before any degradation scaling)."""
    return Budget(
        max_steps_per_path=spec.max_steps_per_path,
        max_paths=spec.max_paths,
        max_total_steps=spec.max_total_steps,
        deadline=spec.timeout,
    )


def verdict_for(result: ExecutionResult) -> str:
    """The job-level verdict a finished result supports."""
    if result.errors:
        return "bug"
    if result.report.complete:
        return "bounded-verified"
    return "bounded-verified-incomplete"


@dataclass
class RunOutcome:
    """What one runner invocation produced.

    ``result`` is the *total* run — base progress from any adopted
    snapshot merged with this invocation's exploration — and
    ``compile_cache_hit`` records whether the GIL program came from the
    content store (the warm path the service benchmark measures).
    """

    result: ExecutionResult
    compile_cache_hit: bool = False
    resumed: bool = False


class JobRunner:
    """Runs :class:`JobSpec`\\ s, optionally compile-cached and checkpointed.

    ``gil_store`` is an optional :class:`~repro.service.store.GilStore`;
    ``round_items`` bounds how many frontier items a parallel round
    processes between checkpoint saves (smaller = tighter crash window,
    more snapshot overhead).
    """

    def __init__(self, gil_store=None, round_items: int = 0) -> None:
        """Create a runner; see class docstring for the knobs."""
        self.gil_store = gil_store
        self.round_items = round_items

    # -- compile ------------------------------------------------------------

    def compile(self, spec: JobSpec) -> Tuple[object, bool]:
        """The spec's GIL program, and whether it came from the cache.

        Raises :class:`InvalidJob` if the spec's language is unknown.
        """
        if spec.language not in LANGUAGES:
            raise InvalidJob(f"unknown language {spec.language!r}")
        language = language_for(spec.language)
        if self.gil_store is None:
            return language.compile(spec.source), False
        key = spec.source_key()
        prog = self.gil_store.get(key)
        if prog is not None:
            return prog, True
        prog = language.compile(spec.source)
        self.gil_store.put(key, prog)
        return prog, False

    # -- run ----------------------------------------------------------------

    def run(
        self,
        spec: JobSpec,
        budget: Optional[Budget] = None,
        unknown_policy: Optional[str] = None,
        checkpoint=None,
        events=None,
    ) -> RunOutcome:
        """Execute ``spec`` to completion, resuming from its checkpoint
        slot if a durable snapshot exists.

        ``budget``/``unknown_policy`` override the spec (the degradation
        ladder admits jobs at a scaled budget and a pruning policy);
        ``checkpoint`` is a :class:`~repro.service.checkpoint.CheckpointManager`
        or None to run without snapshots.  Raises :class:`InvalidJob`
        if the spec's language or entry procedure does not exist.
        """
        prog, cache_hit = self.compile(spec)
        if prog.get(spec.entry) is None:
            raise InvalidJob(f"unknown entry procedure {spec.entry!r}")
        policy = unknown_policy if unknown_policy is not None else spec.unknown_policy
        budget = budget if budget is not None else budget_for(spec)

        config = EngineConfig(unknown_policy=policy)
        memory = language_for(spec.language).symbolic_memory()
        sm = SymbolicModelFactory(memory, config)()

        snapshot = checkpoint.load() if checkpoint is not None else None
        if snapshot is not None:
            checkpoint.resume_from(snapshot)
            items: List[tuple] = list(snapshot.frontier)
            budget = budget.shard_slice(
                1,
                steps_spent=snapshot.stats.commands_executed,
                paths_found=snapshot.stats.paths_finished,
            )
            if not items:
                # The snapshot already covers the whole run (a crash fell
                # between the last save and the ack).
                total = ExecutionResult(
                    list(snapshot.finals), self._copy_stats(snapshot.stats)
                )
                if not total.stats.stop_reason:
                    total.stats.stop_reason = "exhausted"
                return RunOutcome(total, cache_hit, resumed=True)
        else:
            state = sm.initial_state()
            items = [(make_call_config(sm, state, prog, spec.entry, []), 0)]

        explorer = ParallelExplorer(
            prog, sm, config, budget=budget, events=events,
            workers=spec.workers, checkpoint=checkpoint,
            round_items=self.round_items,
        )
        session = explorer.explore(
            [cfg for cfg, _ in items], [depth for _, depth in items]
        )
        total = self._fold_base(checkpoint, session)
        if checkpoint is not None:
            checkpoint.clear()
        return RunOutcome(total, cache_hit, resumed=snapshot is not None)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _copy_stats(stats: ExecutionStats) -> ExecutionStats:
        """A detached copy (merge into a fresh instance)."""
        copy = ExecutionStats()
        copy.merge(stats)
        return copy

    @staticmethod
    def _fold_base(checkpoint, session: ExecutionResult) -> ExecutionResult:
        """Merge a resumed base (if any) with this invocation's run."""
        if checkpoint is None or checkpoint.base_stats is None:
            return session
        base = ExecutionResult(
            list(checkpoint.base_finals),
            JobRunner._copy_stats(checkpoint.base_stats),
        )
        return merge_results([base, session])
