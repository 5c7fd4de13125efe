"""The execution event bus.

Instrumentation for the scheduler loop and the solver without baking any
consumer into the hot path: the scheduler and solver hold an optional
:class:`EventBus` and guard every emission with its truthiness, so an
unattached or subscriber-less bus costs one falsy check per step — the
near-zero-overhead-when-unsubscribed contract the benchmarks assert.

Events are small frozen dataclasses:

* :class:`StepEvent` — one GIL command stepped by the scheduler;
* :class:`BranchEvent` — a step that produced more than one successor;
* :class:`PathEndEvent` — a path reached a final (normal/error/vanish);
* :class:`SolverQueryEvent` — the solver answered one satisfiability
  query (emitted from :mod:`repro.logic.solver`);
* :class:`SolverUnknownEvent` — a query degraded to ``UNKNOWN`` (budget
  timeout or incomplete search);
* :class:`ShardRetryEvent` / :class:`ShardLostEvent` — a parallel shard
  crashed and was retried, or exhausted its retries and was abandoned;
* :class:`SummaryHit` / :class:`SummaryMiss` / :class:`SummaryReplay` —
  a call to a pure procedure was served from the function-summary
  cache, could not be, or was answered by replaying a summary's
  recorded paths (emitted from :mod:`repro.specs.engine`);
* :class:`SummariesDisabled` — summaries were requested but an explorer
  runs without them (a fault injector, or a subclassed symbolic state
  model);
* :class:`SpanEnd` — a named engine phase (seed, explore, shards, merge,
  compile) finished, with its wall-clock duration and step count;
* :class:`MetricSample` — one observability metric reading, flushed by a
  :class:`repro.obs.metrics.MetricsRegistry`.

Consumers subscribe a callable, optionally filtered to specific event
types; :class:`repro.testing.trace.JsonlEventSink` is the stock JSONL
consumer and :class:`repro.obs.collect.MetricsCollector` is the stock
metrics consumer.  The schema of every event is documented in
``docs/events.md`` (kept authoritative by a test over
:func:`event_types`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, List, Optional, Tuple, Type


@dataclass(frozen=True)
class StepEvent:
    """One GIL command executed by the scheduler."""

    proc: str
    idx: int
    depth: int
    successors: int
    finals: int


@dataclass(frozen=True)
class BranchEvent:
    """A step that split the path into ``arms`` successors."""

    proc: str
    idx: int
    depth: int
    arms: int


@dataclass(frozen=True)
class PathEndEvent:
    """A path reached a final outcome."""

    kind: str      # OutcomeKind name: NORMAL / ERROR / VANISH
    depth: int
    value: object  # outcome value (symbolic expression or concrete value)


@dataclass(frozen=True)
class SolverQueryEvent:
    """The solver answered one query (cache hits included)."""

    result: str     # SatResult name: SAT / UNSAT / UNKNOWN
    conjuncts: int  # size of the queried conjunction
    cached: bool    # answered without running a solve pipeline
    time: float     # seconds spent answering (0.0 for cache hits)


@dataclass(frozen=True)
class SolverUnknownEvent:
    """A solver query degraded to ``UNKNOWN`` (incomplete search, a
    step-budget timeout, or an internal degradation such as a type
    conflict while completing a model).

    Recorded in-band so JSONL traces show *where* a run's soundness
    envelope narrowed, not just that it did.
    """

    reason: str     # "timeout" | "incomplete-search" | "model-completion"
    conjuncts: int  # size of the queried conjunction
    timed_out: bool # True iff the step budget (or an injected fault) fired


@dataclass(frozen=True)
class ShardRetryEvent:
    """A parallel shard crashed or hung and its frontier is being
    re-sharded for another attempt."""

    worker_id: int  # the failed worker (ids are per retry round)
    attempt: int    # the round that failed (0 = first attempt)
    items: int      # frontier items being retried
    detail: str     # truncated failure description (traceback head)


@dataclass(frozen=True)
class ShardLostEvent:
    """A parallel shard exhausted its retries; its frontier is abandoned
    and the run downgrades to stop reason ``"incomplete"``."""

    worker_id: int  # the worker that failed last
    attempt: int    # the final round
    items: int      # frontier items lost


@dataclass(frozen=True)
class SummaryHit:
    """A ``Call`` found a usable summary in the cache."""

    proc: str    # the summarised callee
    source: str  # "memory" | "disk" (which cache level answered)
    paths: int   # recorded paths in the summary


@dataclass(frozen=True)
class SummaryMiss:
    """A call to a pure procedure could not be served from the summary
    cache.

    ``"cold"`` and ``"corrupt"`` misses are followed by a summarisation
    run (and then a replay when the new summary is usable);
    ``"incomplete"`` falls back to inline descent.  Calls to impure
    procedures are never summarised and emit nothing.
    """

    proc: str    # the callee
    reason: str  # "cold" | "incomplete" | "corrupt"


@dataclass(frozen=True)
class SummaryReplay:
    """A ``Call`` was answered by replaying a summary's paths."""

    proc: str            # the summarised callee
    paths: int           # recorded paths considered
    feasible: int        # paths admitted under the caller's π
    commands_saved: int  # GIL commands the replay avoided re-executing


@dataclass(frozen=True)
class SummariesDisabled:
    """``EngineConfig.summaries`` is on, but this explorer runs without
    a summary engine.

    Emitted once per explorer construction.  Concrete state models never
    emit it: their runs never branch, so inline execution is already
    what a summary would buy.
    """

    reason: str  # "fault-plan" | "state-model:<class name>"


@dataclass(frozen=True)
class SpanEnd:
    """A named engine phase finished.

    Emitted once per phase per run (not per step), so spans are cheap
    enough to leave on whenever a bus is attached: ``seed`` and
    ``explore`` come from the scheduler, ``shards`` and ``merge`` from
    the parallel explorer, ``compile`` from the testing harness, and
    ``solver/*`` from the scheduler, out of the solver phase times a run
    accrues under ``EngineConfig.profile_solver_phases``.
    Worker processes emit their own ``explore`` spans, which arrive
    wrapped in :class:`WorkerEvent`.
    """

    name: str    # phase name ("seed", "explore", "shards", "merge", ...)
    wall: float  # wall-clock seconds spent in the phase
    steps: int   # work units attributed to the phase (0 when untracked)


@dataclass(frozen=True)
class MetricSample:
    """One metric reading flushed from a metrics registry.

    ``labels`` is a (sorted) tuple of ``(key, value)`` string pairs so
    samples stay hashable and JSONL-serialisable; histogram registries
    flush one sample per bucket with an ``le`` label plus ``_count`` /
    ``_sum`` samples.
    """

    name: str                    # metric name ("engine.paths", ...)
    kind: str                    # "counter" | "gauge" | "histogram"
    value: float                 # the reading
    labels: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class WorkerEvent:
    """An event forwarded from a parallel-explorer worker process.

    Workers run the ordinary scheduler loop against a local bus whose
    single subscriber marshals every event over a queue; the parent
    drains the queue and re-emits each one wrapped in this envelope, so
    consumers see the usual Step/Branch/PathEnd/SolverQuery stream tagged
    with the shard it came from.  Events from different workers interleave
    in queue-arrival order; within one worker the order is the worker's
    own emission order.
    """

    worker_id: int
    inner: object   # the original event (StepEvent, BranchEvent, ...)


Event = object
Subscriber = Callable[[Event], None]


class EventBus:
    """A tiny synchronous pub/sub hub.

    ``bool(bus)`` is False while nobody subscribes; emitters use that to
    skip event construction entirely, which keeps the unsubscribed cost
    to a single branch.
    """

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: List[Tuple[Subscriber, Optional[tuple]]] = []

    def __bool__(self) -> bool:
        return bool(self._subscribers)

    def subscribe(
        self,
        callback: Subscriber,
        kinds: Optional[Iterable[Type[Event]]] = None,
    ) -> Subscriber:
        """Register ``callback``; ``kinds`` filters to those event types.

        Returns the callback so it can be passed to :meth:`unsubscribe`.
        """
        self._subscribers.append(
            (callback, tuple(kinds) if kinds is not None else None)
        )
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        self._subscribers = [
            (cb, kinds) for cb, kinds in self._subscribers if cb is not callback
        ]

    def emit(self, event: Event) -> None:
        for callback, kinds in self._subscribers:
            if kinds is None or isinstance(event, kinds):
                callback(event)


def event_types() -> List[Type[Event]]:
    """Every event dataclass this module defines, in definition order.

    The single source of truth for "what can appear on the bus": the
    docs test walks it to enforce that ``docs/events.md`` documents
    every type, and the report CLI uses it to distinguish engine events
    from foreign JSONL lines.
    """
    import dataclasses as _dc
    import sys as _sys

    module = _sys.modules[__name__]
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and _dc.is_dataclass(obj)
        and obj.__module__ == __name__
    ]


def event_payload(event: Event) -> dict:
    """``{"event": <type name>, ...fields}`` — the serialisation shape.

    A :class:`WorkerEvent` envelope flattens to its inner event's payload
    plus a ``worker_id`` field, so JSONL streams of parallel runs stay
    grep-compatible with sequential ones.
    """
    if isinstance(event, WorkerEvent):
        payload = event_payload(event.inner)
        payload["worker_id"] = event.worker_id
        return payload
    payload = {"event": type(event).__name__}
    for f in fields(event):
        payload[f.name] = getattr(event, f.name)
    return payload
