"""The crash-safe analysis service (durable queue + checkpoint/resume).

A persistent daemon that accepts analysis jobs — program, entry point,
budget — through a durable on-disk queue with at-least-once delivery,
executes them through the engine with periodic durable checkpoints, and
caches compiled programs and whole-run results content-addressed and
checksummed.  Killing the daemon (SIGKILL included) at any instant loses
no accepted job and at most the work since the last checkpoint; see
``docs/service.md`` for the full lifecycle, checkpoint format,
degradation ladder, and cache integrity model.

Public surface:

* :class:`~repro.service.jobs.JobSpec` / ``JobResult`` / ``JobFailure``
  — the job vocabulary;
* :class:`~repro.service.queue.DurableQueue` — the maildir-style queue;
* :class:`~repro.service.store.ContentStore` (``GilStore`` /
  ``ResultStore``) — checksummed content-addressed caches;
* :class:`~repro.service.checkpoint.CheckpointManager` — durable
  explorer snapshots;
* :class:`~repro.service.runner.JobRunner` — checkpointed execution;
* :class:`~repro.service.degrade.DegradationPolicy` — admission under
  memory pressure;
* :class:`~repro.service.daemon.AnalysisService` — the daemon itself.
"""

from repro.service.checkpoint import Checkpoint, CheckpointManager
from repro.service.degrade import DegradationPolicy
from repro.service.jobs import JobFailure, JobResult, JobSpec, finals_digest
from repro.service.queue import DurableQueue, JobLease, QueueFull
from repro.service.runner import JobRunner, budget_for, verdict_for
from repro.service.store import ContentStore, GilStore, ResultStore
from repro.targets import language_for

__all__ = [
    "AnalysisService",
    "Checkpoint",
    "CheckpointManager",
    "ContentStore",
    "DegradationPolicy",
    "DurableQueue",
    "GilStore",
    "JobFailure",
    "JobLease",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "QueueFull",
    "ResultStore",
    "budget_for",
    "finals_digest",
    "language_for",
    "verdict_for",
]


def __getattr__(name):
    """Resolve the daemon class lazily so ``python -m
    repro.service.daemon`` does not import the daemon module twice
    (runpy warns when the -m target is already loaded)."""
    if name == "AnalysisService":
        from repro.service.daemon import AnalysisService

        return AnalysisService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
