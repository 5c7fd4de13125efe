"""Parallel multi-worker path exploration.

The paper's engine "explores all paths up to a bound" (§1), and the
relaxed trace-composition result (§3.1) grants permission to drop or
*reorder* paths at will — branching is path-local and allocation records
are threaded through states, so any schedule over the same path set
produces the same multiset of final outcomes.  That soundness argument is
exactly what licenses sharding the frontier across OS processes:

1. **Seed** — a sequential breadth-first phase
   (:meth:`~repro.engine.explorer.Explorer.explore_frontier`) steps the
   program — or a restored checkpoint frontier, at its saved depths —
   until the worklist holds a frontier of pending configurations (a
   *cut* across the shallow execution tree: every path of the full run
   extends exactly one frontier item or already ended during seeding).
2. **Shard** — frontier items are dealt round-robin across ``workers``
   processes, in rounds of at most ``round_items``.  Each worker
   rebuilds a fresh state model from a picklable *factory* (solvers and
   their caches are per-process; only programs, configurations, and
   results cross the boundary), then drives the ordinary sequential
   :class:`~repro.engine.explorer.Explorer` over its shard with a
   per-shard :meth:`~repro.engine.budget.Budget.shard_slice` of what the
   seed and earlier rounds left (steps, paths, elapsed time) and the
   frontier depths preserved (the loop-unrolling bound keeps counting
   from the cut).
3. **Merge** — after each round, finals from the seed phase and every
   shard so far are combined with
   :func:`~repro.engine.results.merge_results`: a sorted-multiset
   outcome merge (stable, canonical key), ``ExecutionStats.merge``
   aggregation, and the most restrictive ``stop_reason`` winning by the
   documented ``STOP_REASON_PRECEDENCE``.  With a checkpoint hook
   installed, the unprocessed remainder is saved between rounds — a
   frontier cut is a partition of the paths whether it bounds a shard
   or a snapshot.

The pickle layer underneath is what makes step 2 safe: hash-consed
``Expr`` nodes re-intern in the receiving process (``__reduce__`` routes
through the constructors), ``PathCondition`` prefix chains serialize as
delta lists and re-link on load, and state stores re-wrap their mapping
proxies.  Allocation records stay disjoint across shards by construction
— they are threaded through per-path states (Def. 2.2/3.3 restriction) —
so fresh names are identical to the sequential run's, which is why a
parallel run with *any* worker count yields the same multiset of finals
as ``workers=1``.  (:meth:`SymbolicAllocator.split` exists for the other
topology — independent runs fanned out of one shared root state — where
namespaces must be split per shard.)

Worker events are marshalled over a queue and re-emitted on the parent
bus wrapped in :class:`~repro.engine.events.WorkerEvent` (a ``worker_id``
plus the inner event), but only when the parent bus has subscribers —
the zero-overhead-when-unsubscribed contract holds across processes.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.engine.backoff import BackoffPolicy
from repro.engine.budget import Budget
from repro.engine.config import EngineConfig
from repro.engine.events import (
    EventBus,
    ShardLostEvent,
    ShardRetryEvent,
    SpanEnd,
    WorkerEvent,
)
from repro.engine.explorer import Explorer
from repro.engine.results import ExecutionResult, merge_results
from repro.engine.strategy import StrategySpec, make_strategy
from repro.gil.semantics import Config
from repro.gil.syntax import Prog

#: Frontier items targeted per worker during seeding.  Oversubscription
#: smooths load imbalance: subtree sizes vary wildly, so handing each
#: worker several frontier items keeps a worker with small subtrees from
#: idling while another grinds a big one.
SEED_FACTOR = 4

#: Consecutive empty result polls before a dead-without-reporting worker
#: is declared failed.  A worker that crashed *after* putting its result
#: may still have the payload in flight through the queue's feeder pipe;
#: a few extra polls let it land before the shard is written off.
_DEAD_WORKER_GRACE_POLLS = 3


def resolve_workers(spec: Union[int, str, None]) -> int:
    """Normalise a ``workers`` spec: int count, or ``"auto"`` → CPUs."""
    if spec is None:
        return 1
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            spec = int(spec)
        except ValueError:
            raise ValueError(
                f"workers must be a positive int or 'auto', got {spec!r}"
            ) from None
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise ValueError(f"workers must be a positive int or 'auto', got {spec!r}")
    if spec < 1:
        raise ValueError(f"workers must be >= 1, got {spec}")
    return spec


# -- state-model factories ----------------------------------------------------
#
# Workers never unpickle a live state model: solvers carry per-process
# caches (and an event-bus slot) that must not cross the boundary.  A
# factory is a small picklable recipe that builds a *fresh* model inside
# the worker, mirroring what the harness does for every test.


@dataclass(frozen=True)
class SymbolicModelFactory:
    """Builds a fresh :class:`SymbolicStateModel` with its own solver."""

    memory_model: object
    config: EngineConfig

    def __call__(self):
        from repro.logic.solver import Solver
        from repro.state.symbolic import SymbolicStateModel

        return SymbolicStateModel(
            self.memory_model,
            solver=Solver.from_config(self.config),
            unknown_policy=self.config.unknown_policy,
        )


@dataclass(frozen=True)
class ConcreteModelFactory:
    """Builds a fresh :class:`ConcreteStateModel` (allocator included)."""

    memory_model: object
    allocator: object = None

    def __call__(self):
        from repro.state.concrete import ConcreteStateModel

        return ConcreteStateModel(self.memory_model, self.allocator)


def model_factory_for(state_model, config: EngineConfig):
    """Derive the worker factory matching a parent state model."""
    from repro.state.concrete import ConcreteStateModel
    from repro.state.symbolic import SymbolicStateModel
    from repro.testing.faults import FaultyMemoryModel

    if isinstance(state_model, SymbolicStateModel):
        memory = state_model.memory_model
        if isinstance(memory, FaultyMemoryModel):
            # The parent's injector wrapper must not leak into workers:
            # each worker resolves its own injector from the shipped plan.
            memory = memory.inner
        return SymbolicModelFactory(memory, config)
    if isinstance(state_model, ConcreteStateModel):
        return ConcreteModelFactory(state_model.memory_model, state_model.allocator)
    raise TypeError(
        f"cannot derive a worker factory for {type(state_model).__name__}; "
        f"pass factory= explicitly"
    )


# -- the worker process -------------------------------------------------------


@dataclass(frozen=True)
class _WorkerTask:
    """Everything one worker needs but the program, shipped as a single
    pickled blob."""

    config: EngineConfig
    strategy: StrategySpec
    budget: Budget
    factory: object
    items: Tuple[Tuple[Config, int], ...]  # (config, depth) shard


def _worker_main(
    worker_id: int, prog: Prog, blob: bytes, result_q, event_q
) -> None:
    """Worker entry point: run a sequential explorer over one shard.

    The program is a plain process argument: the fork start method
    inherits it without a copy, and spawn pickles it.  The task arrives
    pickled under every start method, fork included (expressions in the
    frontier re-intern into this process's tables on load); the result
    leaves the same way.  Any failure is reported as an ``("err", ...)``
    record rather than a silent exit, so the parent can surface the
    worker traceback.
    """
    try:
        task: _WorkerTask = pickle.loads(blob)
        # Stamp this process's shard id into the (worker-local) config so
        # a shipped FaultPlan resolves to this worker's injector.
        task.config.fault_worker = worker_id
        bus = None
        if event_q is not None:
            bus = EventBus()
            bus.subscribe(lambda ev: event_q.put((worker_id, ev)))
        sm = task.factory()
        explorer = Explorer(
            prog,
            sm,
            task.config,
            strategy=task.strategy,
            budget=task.budget,
            events=bus,
        )
        configs = [cfg for cfg, _ in task.items]
        depths = [depth for _, depth in task.items]
        result = explorer.explore(configs, depths=depths)
        payload = pickle.dumps((result.finals, result.stats))
        if event_q is not None:
            event_q.close()
            event_q.join_thread()  # flush forwarded events before reporting
        result_q.put(("ok", worker_id, payload))
    except BaseException:
        result_q.put(("err", worker_id, traceback.format_exc()))


class WorkerError(RuntimeError):
    """A worker process failed; carries the worker's traceback text."""


# -- the parallel explorer ----------------------------------------------------


class ParallelExplorer:
    """Shards bounded path exploration across a process pool.

    Mirrors :class:`~repro.engine.explorer.Explorer`'s surface —
    ``run(proc, args)`` / ``explore(configs, depths)`` returning an
    :class:`ExecutionResult`, with the same optional ``checkpoint``
    hook — plus:

    * ``workers``: process count, ``"auto"`` (→ ``os.cpu_count()``), or
      None to defer to ``config.workers``;
    * ``factory``: a picklable zero-arg recipe building a worker's state
      model (derived automatically for the stock symbolic/concrete
      models);
    * ``seed_factor``: frontier items targeted per worker before
      sharding;
    * ``round_items``: frontier items dealt to the workers per round,
      the checkpoint saving the unprocessed remainder between rounds
      (0: one round of every item).

    ``workers=1`` (or a frontier that never materialises — the program
    finishes during seeding) is the plain sequential run, so callers
    thread a single code path for any worker count.
    """

    def __init__(
        self,
        prog: Prog,
        state_model,
        config: Optional[EngineConfig] = None,
        strategy: StrategySpec = None,
        budget: Optional[Budget] = None,
        events: Optional[EventBus] = None,
        workers: Union[int, str, None] = None,
        factory=None,
        seed_factor: int = SEED_FACTOR,
        mp_context=None,
        checkpoint=None,
        round_items: int = 0,
    ):
        self.prog = prog
        self.sm = state_model
        self.config = config if config is not None else EngineConfig()
        self.strategy = strategy
        self.budget = budget  # None: the config's bounds, as in Explorer
        self.events = events
        self.workers = resolve_workers(
            workers if workers is not None else self.config.workers
        )
        self.factory = factory
        self.seed_factor = max(1, seed_factor)
        self.checkpoint = checkpoint
        self.round_items = round_items
        self._mp = mp_context if mp_context is not None else multiprocessing.get_context()
        self._sleep = time.sleep
        if self.workers > 1:
            # Validate the strategy spec up front: a malformed spec should
            # fail in the caller's process, not inside N workers.
            spec = self.strategy if self.strategy is not None else self.config.strategy
            make_strategy(spec, seed=self.config.random_seed)

    @functools.cached_property
    def backoff(self) -> BackoffPolicy:
        """Retry-delay schedule for crashed shards, built on first use;
        tests inject a fake ``_sleep`` to assert the exact delays
        without real waiting."""
        return BackoffPolicy(base=self.config.shard_retry_backoff)

    #: ``run(proc, args, state)``: :meth:`explore` from the call config
    run = Explorer.run

    def explore(
        self, configs: List[Config], depths: Optional[Sequence[int]] = None
    ) -> ExecutionResult:
        """Drive ``configs`` (at ``depths``, default 0) to one merged result.

        At ``workers <= 1`` this is :meth:`Explorer.explore`.  Above, it
        seeds a frontier cut breadth-first (checkpointing through the
        hook), then deals it to the workers in rounds of at most
        ``round_items``.  Each round's budget is what remains after the
        seed and every earlier round (steps, paths, elapsed time), and
        the checkpoint saves the unprocessed remainder after each round,
        so a kill at any round boundary resumes with exactly the path set
        one uninterrupted run covers.
        """
        seq = Explorer(
            self.prog, self.sm, self.config,
            strategy=self.strategy, budget=self.budget,
            events=self.events, checkpoint=self.checkpoint,
        )
        if self.workers <= 1:
            return seq.explore(configs, depths)

        start = time.perf_counter()
        items, merged = seq.explore_frontier(
            configs, self.workers * self.seed_factor, depths
        )
        if not items:
            # Finished (or hit a global bound) during seeding: the seed
            # result already carries the authoritative stop reason.
            return merged

        factory = self.factory
        if factory is None:
            factory = model_factory_for(self.sm, self.config)
        size = self.round_items if self.round_items > 0 else len(items)
        wait = merge = 0.0
        shard_steps = 0
        while items:
            batch, items = items[:size], items[size:]
            shards = [batch[i :: self.workers] for i in range(self.workers)]
            shards = [shard for shard in shards if shard]
            slice_budget = seq.budget.shard_slice(
                len(shards),
                steps_spent=merged.stats.commands_executed,
                paths_found=merged.stats.paths_finished,
                elapsed=time.perf_counter() - start,
            )
            shards_start = time.perf_counter()
            parts = self._run_shards(shards, slice_budget, factory)
            merge_start = time.perf_counter()
            merged = merge_results([merged] + parts)
            wait += merge_start - shards_start
            merge += time.perf_counter() - merge_start
            shard_steps += sum(p.stats.commands_executed for p in parts)
            if items and self.checkpoint is not None:
                self.checkpoint.save(tuple(items), merged.finals, merged.stats)
        if self.events:
            self.events.emit(SpanEnd("shards", wait, shard_steps))
            self.events.emit(SpanEnd("merge", merge, len(merged.finals)))
        # Per-part wall times are CPU-aggregate across processes; the
        # run's wall clock is what the caller observes.
        merged.stats.wall_time = time.perf_counter() - start
        return merged

    # -- internals -----------------------------------------------------------

    def _run_shards(
        self, shards: List[list], slice_budget: Budget, factory
    ) -> List[ExecutionResult]:
        """Run shards to completion with crash recovery.

        Rounds: every shard of the round runs in its own process; results
        from healthy workers are *salvaged* even when a sibling crashes.
        Failed shards' frontier items are re-dealt across up to
        ``workers`` fresh processes and retried (with
        ``shard_retry_backoff`` exponential backoff) until they succeed
        or ``max_shard_retries`` extra rounds are spent.  Exhausted
        retries abandon the surviving items: the run *degrades* — stop
        reason ``"incomplete"``, the abandoned ``(Config, depth)`` items
        recorded on ``ExecutionResult.lost_frontier``, and the
        :class:`~repro.engine.results.Incompleteness` ledger counting
        every retry and loss — instead of raising.  Set
        ``EngineConfig.shard_failure="raise"`` to restore the fail-fast
        :class:`WorkerError`.
        """
        from repro.engine.results import ExecutionStats

        cfg = self.config
        bus = self.events
        event_q = None
        drainer = None
        if bus:  # truthy only with subscribers: keep idle runs queue-free
            event_q = self._mp.Queue()
            drainer = threading.Thread(
                target=_drain_events, args=(event_q, bus), daemon=True
            )
            drainer.start()

        acct = ExecutionStats()  # synthetic part: retry/loss accounting
        lost_items: List[tuple] = []
        parts: List[ExecutionResult] = []
        pending: List[tuple] = [tuple(shard) for shard in shards if shard]
        attempt = 0
        try:
            while pending:
                results, failures = self._run_round(
                    pending, slice_budget, factory, attempt, event_q
                )
                parts.extend(results)
                if not failures:
                    break
                if cfg.shard_failure == "raise":
                    worker_id, detail, _ = failures[0]
                    raise WorkerError(
                        f"parallel worker {worker_id} failed:\n{detail}"
                    )
                failed_items = [
                    item for _, _, items in failures for item in items
                ]
                if attempt >= cfg.max_shard_retries:
                    # Retries exhausted: salvage what we have, abandon the
                    # rest, and downgrade the run instead of raising.
                    for worker_id, _, items in failures:
                        acct.incompleteness.shards_lost += 1
                        acct.incompleteness.frontier_lost += len(items)
                        if bus:
                            bus.emit(
                                ShardLostEvent(worker_id, attempt, len(items))
                            )
                    acct.paths_dropped += len(failed_items)
                    acct.stop_reason = "incomplete"
                    lost_items.extend(failed_items)
                    break
                for worker_id, detail, items in failures:
                    acct.incompleteness.shards_retried += 1
                    if bus:
                        bus.emit(
                            ShardRetryEvent(
                                worker_id, attempt, len(items),
                                detail.strip().splitlines()[-1][:200]
                                if detail.strip() else "",
                            )
                        )
                delay = self.backoff.delay(attempt)
                if delay > 0:
                    self._sleep(delay)
                width = min(self.workers, len(failed_items))
                pending = [
                    tuple(failed_items[i::width]) for i in range(width)
                ]
                attempt += 1
        finally:
            if event_q is not None:
                event_q.put(None)  # drainer sentinel
                drainer.join(timeout=cfg.worker_join_timeout)

        if drainer is not None and drainer.is_alive():
            # Raised outside the finally so it cannot mask a WorkerError.
            raise RuntimeError(
                f"parallel event-drainer thread failed to shut down within "
                f"worker_join_timeout={cfg.worker_join_timeout}s; a bus "
                f"subscriber is likely blocked"
            )

        if not acct.incompleteness.clean or acct.incompleteness.shards_retried:
            parts.append(
                ExecutionResult([], acct, lost_frontier=tuple(lost_items))
            )
        return parts

    def _run_round(
        self,
        shards: List[tuple],
        slice_budget: Budget,
        factory,
        attempt: int,
        event_q,
    ) -> "Tuple[List[ExecutionResult], List[Tuple[int, str, tuple]]]":
        """Run one round of shard processes and collect every outcome.

        Returns ``(results, failures)``: salvaged results in worker-id
        order, and ``(worker_id, detail, items)`` for each shard that
        crashed (reported an error record), died without reporting
        (e.g. ``os._exit`` — detected by liveness polling with a few
        grace polls so an in-flight queue flush can land), or hung past
        ``EngineConfig.worker_timeout`` (terminated and counted failed).
        """
        from repro.engine.results import ExecutionResult as _Result

        cfg = self.config
        # Fresh queue per round: a dead worker's half-flushed pipe must
        # not pollute the next round's results.
        result_q = self._mp.Queue()
        round_config = dataclasses.replace(cfg, fault_attempt=attempt)
        procs: List = []
        for worker_id, shard in enumerate(shards):
            task = _WorkerTask(
                config=round_config,
                strategy=self.strategy,
                budget=slice_budget,
                factory=factory,
                items=tuple(shard),
            )
            proc = self._mp.Process(
                target=_worker_main,
                args=(worker_id, self.prog, pickle.dumps(task), result_q, event_q),
                daemon=True,
            )
            proc.start()
            procs.append(proc)

        by_worker: dict = {}
        failures: dict = {}
        grace: dict = {}
        outstanding = set(range(len(procs)))
        hard_deadline = (
            None
            if cfg.worker_timeout is None
            else time.monotonic() + cfg.worker_timeout
        )
        while outstanding:
            try:
                kind, worker_id, payload = result_q.get(
                    timeout=cfg.worker_result_poll
                )
            except queue_mod.Empty:
                if hard_deadline is not None and time.monotonic() > hard_deadline:
                    for i in sorted(outstanding):
                        proc = procs[i]
                        if proc.is_alive():
                            proc.terminate()
                            proc.join()
                        failures[i] = (
                            f"worker {i} hung past worker_timeout="
                            f"{cfg.worker_timeout}s and was terminated"
                        )
                        outstanding.discard(i)
                    continue
                for i in sorted(outstanding):
                    if not procs[i].is_alive():
                        grace[i] = grace.get(i, 0) + 1
                        if grace[i] >= _DEAD_WORKER_GRACE_POLLS:
                            failures[i] = (
                                f"worker {i} exited (code "
                                f"{procs[i].exitcode}) without reporting"
                            )
                            outstanding.discard(i)
                continue
            if kind == "err":
                failures[worker_id] = payload
            else:
                finals, stats = pickle.loads(payload)
                by_worker[worker_id] = _Result(finals, stats)
            outstanding.discard(worker_id)

        for proc in procs:
            proc.join(timeout=cfg.worker_join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        result_q.close()

        results = [by_worker[i] for i in sorted(by_worker)]
        failed = [(i, failures[i], shards[i]) for i in sorted(failures)]
        return results, failed


def _drain_events(event_q, bus: EventBus) -> None:
    """Parent-side pump: queue records → ``WorkerEvent`` on the bus."""
    while True:
        item = event_q.get()
        if item is None:
            return
        worker_id, inner = item
        bus.emit(WorkerEvent(worker_id, inner))
