"""The crash-safe analysis daemon: queue in, durable verdicts out.

:class:`AnalysisService` owns one service root directory::

    root/
      queue/        durable job queue (pending/active/done/quarantine)
      results/      whole-run result cache   (spec hash -> JobResult)
      gil/          compiled-program cache   (source hash -> Prog)
      checkpoints/  per-job resumable snapshots (spec hash -> frame)

Everything under the root is written atomically and checksummed, so the
daemon can be SIGKILLed at *any* instant and restarted: startup recovery
re-delivers claimed-but-unfinished jobs (at-least-once), interrupted
jobs resume from their last checkpoint, and any entry damaged in flight
is detected, evicted, and recomputed — never served.

The processing loop per claimed job:

1. serve from the result cache if an identical spec already completed
   at full budget (idempotent replay — this is what makes at-least-once
   delivery and client resubmission harmless);
2. otherwise admit through the degradation ladder (memory watermarks
   may scale the budget down and force UNKNOWN-pruning), run via the
   checkpointed :class:`~repro.service.runner.JobRunner`, store the
   result, ack;
3. on failure, requeue with exponential backoff
   (:class:`~repro.engine.backoff.BackoffPolicy`) until the attempt
   budget is spent, then quarantine with a structured failure — a
   poison job never wedges the queue.  A front-end error (``LexError``,
   ``ParseError``, ``CompileError``) comes from the job's own source and
   recurs on every attempt, and so does an ``InvalidJob`` (an unknown
   language or entry procedure), so each is quarantined at once.

Run it as a module for the CLI form used in ``docs/service.md``::

    python -m repro.service.daemon --root /tmp/svc --until-idle
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Optional, Tuple

from repro.engine.backoff import BackoffPolicy
from repro.frontend import CompileError, LexError, ParseError
from repro.obs.service import ServiceMetrics
from repro.service.checkpoint import CheckpointManager
from repro.service.degrade import DegradationPolicy
from repro.service.jobs import JobResult, JobSpec, finals_digest
from repro.service.queue import DurableQueue, JobLease
from repro.service.runner import InvalidJob, JobRunner, budget_for
from repro.service.store import GilStore, ResultStore


class AnalysisService:
    """The daemon: one service root, one processing loop (see module doc).

    ``capacity`` bounds the pending queue (admission control);
    ``max_attempts`` is the delivery-attempt budget before quarantine;
    ``fault_plan`` threads a :class:`~repro.testing.faults.FaultPlan`
    into each job's checkpoint manager (the crash suites' kill switch);
    ``clock``/``sleep`` are injectable for fake-time tests.
    """

    def __init__(
        self,
        root: str,
        capacity: Optional[int] = None,
        max_attempts: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        degradation: Optional[DegradationPolicy] = None,
        metrics: Optional[ServiceMetrics] = None,
        events=None,
        checkpoint_interval: int = 500,
        round_items: int = 0,
        fault_plan=None,
        clock=time.time,
        sleep=time.sleep,
        poll_interval: float = 0.01,
    ) -> None:
        """Open (creating or recovering) the service rooted at ``root``."""
        self.root = os.fspath(root)
        self.max_attempts = max_attempts
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.degradation = degradation
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.events = events
        self.checkpoint_interval = checkpoint_interval
        self.fault_plan = fault_plan
        self.clock = clock
        self._sleep = sleep
        self.poll_interval = poll_interval

        self.queue = DurableQueue(
            os.path.join(self.root, "queue"), capacity=capacity, clock=clock
        )
        self.results = ResultStore(
            os.path.join(self.root, "results"), on_corrupt=self._on_corrupt
        )
        self.gil = GilStore(
            os.path.join(self.root, "gil"), on_corrupt=self._on_corrupt
        )
        self.checkpoint_root = os.path.join(self.root, "checkpoints")
        self.runner = JobRunner(gil_store=self.gil, round_items=round_items)
        #: jobs re-delivered by startup recovery (left in active/ by a
        #: previous incarnation that died mid-job)
        self.recovered = self.queue.recover()

    # -- client surface ------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[Optional[str], Optional[JobResult]]:
        """Submit a job; returns ``(job_id, cached_result)``.

        An identical spec that already completed at full budget is
        served from the result store without touching the queue
        (``job_id`` None, ``cached_result`` set).  Otherwise the job is
        enqueued — raising :class:`~repro.service.queue.QueueFull` when
        admission control rejects it — and both fields of a *queued*
        submission are ``(job_id, None)``.
        """
        cached = self._cached(spec.key())
        if cached is not None:
            self.metrics.cache_hit_result()
            return None, cached
        job_id = self.queue.submit(spec)
        self.metrics.job_submitted()
        self.metrics.queue_depth(self.queue.depth)
        return job_id, None

    def result_for(self, key: str) -> Optional[JobResult]:
        """The stored result for a spec hash, if any (cached or not)."""
        stored = self.results.get(key)
        if stored is None:
            return None
        return stored

    # -- processing loop -----------------------------------------------------

    def process_one(self) -> Optional[str]:
        """Claim and process one job; returns its disposition or None.

        Dispositions: ``"completed"``, ``"cached"`` (served from the
        result store), ``"retried"``, ``"quarantined"``.  None means no
        job was claimable right now (queue empty, or every pending job
        is inside its backoff window).
        """
        lease = self.queue.claim()
        if lease is None:
            return None
        self.metrics.queue_depth(self.queue.depth)

        cached = self._cached(lease.key)
        if cached is not None:
            self.metrics.cache_hit_result()
            self.queue.ack(lease, cached)
            return "cached"

        try:
            spec = lease.spec
            result = self._run(lease, spec)
        except Exception as exc:
            return self._failed(lease, exc)
        self.results.put(lease.key, result)
        self.queue.ack(lease, result)
        self.metrics.job_completed()
        return "completed"

    def run_until_idle(self, max_jobs: Optional[int] = None) -> int:
        """Process jobs until the queue drains; returns the job count.

        Sleeps through backoff windows (pending jobs whose retry time
        has not come) rather than spinning; stops early after
        ``max_jobs`` dispositions when given.
        """
        processed = 0
        while max_jobs is None or processed < max_jobs:
            disposition = self.process_one()
            if disposition is not None:
                processed += 1
                continue
            if not self.queue.pending_ids():
                break
            self._sleep(self.poll_interval)
        return processed

    # -- internals -----------------------------------------------------------

    def _cached(self, key: str) -> Optional[JobResult]:
        """A reusable stored result for ``key``, or None."""
        stored = self.results.get(key)
        if isinstance(stored, JobResult) and stored.reusable:
            return stored
        return None

    def _run(self, lease: JobLease, spec: JobSpec) -> JobResult:
        """Admit, run (checkpointed), and package one job."""
        budget = budget_for(spec)
        policy = spec.unknown_policy
        level = 0
        if self.degradation is not None:
            level, budget, policy = self.degradation.admit(budget, policy)
            if level:
                self.metrics.job_degraded()
        injector = None
        if self.fault_plan is not None:
            injector = self.fault_plan.injector(None, lease.attempts - 1)
        checkpoint = CheckpointManager(
            self.checkpoint_root,
            lease.key,
            interval=self.checkpoint_interval,
            injector=injector,
            clock=self.clock,
        )
        outcome = self.runner.run(
            spec,
            budget=budget,
            unknown_policy=policy,
            checkpoint=checkpoint,
            events=self.events,
        )
        if outcome.compile_cache_hit:
            self.metrics.cache_hit_gil()
        else:
            self.metrics.cache_miss()
        if checkpoint.last_save_time is not None:
            self.metrics.checkpoint_age(checkpoint.age() or 0.0)
        res = outcome.result
        return JobResult(
            key=lease.key,
            verdict=outcome.verdict,
            bugs=len(outcome.bugs),
            paths=res.stats.paths_finished,
            report=res.report,
            stats=res.stats.to_dict(),
            degraded_level=level,
            finals_digest=finals_digest(res.finals),
            attempts=lease.attempts,
        )

    def _failed(self, lease: JobLease, exc: Exception) -> str:
        """Quarantine a front-end error, an unrunnable spec, or a job
        whose attempts are spent; retry anything else with backoff."""
        error = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )[-2000:]
        permanent = isinstance(
            exc, (LexError, ParseError, CompileError, InvalidJob)
        )
        if permanent or lease.attempts >= self.max_attempts:
            self.queue.quarantine(lease, error)
            self.metrics.job_quarantined()
            return "quarantined"
        delay = self.backoff.delay(lease.attempts - 1)
        self.queue.retry(lease, error, delay)
        self.metrics.job_retried()
        return "retried"

    def _on_corrupt(self, key: str, reason: str) -> None:
        """A checksummed store entry failed validation and was evicted."""
        self.metrics.integrity_degraded()
        if self.events:
            self.metrics.flush(self.events)


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.service.daemon``."""
    parser = argparse.ArgumentParser(
        prog="repro.service.daemon",
        description="Run the crash-safe analysis service over a root directory.",
    )
    parser.add_argument("--root", required=True, help="service root directory")
    parser.add_argument(
        "--until-idle",
        action="store_true",
        help="process jobs until the queue drains, then exit",
    )
    parser.add_argument(
        "--capacity", type=int, default=None, help="bound the pending queue"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, help="attempts before quarantine"
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=500,
        help="commands between checkpoint snapshots (0 disables)",
    )
    parser.add_argument(
        "--submit",
        metavar="SPEC_JSON",
        action="append",
        default=[],
        help="submit a JobSpec JSON file before processing (repeatable)",
    )
    args = parser.parse_args(argv)

    service = AnalysisService(
        args.root,
        capacity=args.capacity,
        max_attempts=args.max_attempts,
        checkpoint_interval=args.checkpoint_interval,
    )
    import json

    for path in args.submit:
        with open(path) as fh:
            spec = JobSpec.from_dict(json.load(fh))
        job_id, cached = service.submit(spec)
        tag = "cached" if cached is not None else job_id
        sys.stdout.write(f"submitted {spec.key()[:12]} -> {tag}\n")
    if args.until_idle:
        processed = service.run_until_idle()
        sys.stdout.write(f"processed {processed} job(s)\n")
    summary = json.dumps(service.metrics.as_dict(), indent=2, sort_keys=True)
    sys.stdout.write(summary + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
