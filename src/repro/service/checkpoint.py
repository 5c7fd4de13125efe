"""Checkpoint/resume for analysis jobs: durable explorer snapshots.

A checkpoint is the full resumable state of a job at a
``Budget.decide()`` boundary: the **frontier** (every work item not yet
stepped, with depths — the just-popped item included, since its step has
not run) plus the **finals and stats accumulated so far**, with all
deferred counter deltas flushed (the explorer's checkpoint hook flushes
solver/degradation/summary baselines before calling ``save``, so
checkpointed stats + post-resume stats sum exactly to the uninterrupted
totals).

:class:`CheckpointManager` implements the explorer's duck-typed
checkpoint contract — an ``interval`` attribute (commands between
snapshots) and a ``save(frontier, finals, stats)`` method — and adds the
durability discipline: the snapshot is pickled through the engine's
pickle-safe state layer, wrapped in a checksummed frame, and written
atomically, so a crash at *any* instant leaves either the previous
complete snapshot or the new complete snapshot, never a torn one.  A
snapshot that fails its checksum on load is evicted and treated as
absent (the job simply restarts from its previous snapshot or from
scratch — slower, never wrong).

On resume, the manager carries the loaded finals/stats as a *base* that
every subsequent save folds in, so snapshots always describe total
progress since job start even across multiple crash/resume cycles.

The ``injector`` hook (``on_checkpoint("pre"/"post")``) is the seam the
crash-resume identity suite uses to deliver a real ``SIGKILL`` exactly
at a checkpoint boundary; see
:class:`repro.testing.faults.CheckpointKill`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.results import ExecutionStats
from repro.testing.io import CorruptPayload, read_checked_bytes, write_checked_bytes


@dataclass(frozen=True)
class Checkpoint:
    """One durable snapshot: resumable frontier + progress so far."""

    key: str
    seq: int
    frontier: Tuple
    finals: Tuple
    stats: ExecutionStats


class CheckpointManager:
    """Durable snapshot writer/loader for one job (see module docstring).

    Satisfies the explorer's checkpoint contract (``interval`` +
    ``save``); one manager instance serves one job attempt.
    """

    def __init__(
        self,
        root: str,
        key: str,
        interval: int = 2000,
        injector=None,
        clock=time.time,
    ) -> None:
        """Open the snapshot slot for job ``key`` under ``root``.

        ``interval`` is the explorer-facing snapshot cadence in executed
        commands (0 disables snapshotting); ``injector`` is an optional
        fault injector whose ``on_checkpoint`` hook brackets each save.
        """
        self.root = os.fspath(root)
        self.key = key
        self.interval = interval
        self.injector = injector
        self.clock = clock
        self.seq = 0
        self.base_finals: List = []
        self.base_stats: Optional[ExecutionStats] = None
        self.last_save_time: Optional[float] = None
        os.makedirs(self.root, exist_ok=True)

    @property
    def path(self) -> str:
        """The snapshot file for this job."""
        return os.path.join(self.root, self.key + ".ck")

    def save(self, frontier, finals, stats: ExecutionStats) -> None:
        """Durably snapshot the job (the explorer's checkpoint hook).

        Folds the resume base into the written totals, so the snapshot
        is self-contained: loading it needs no earlier snapshot.
        """
        if self.injector is not None:
            self.injector.on_checkpoint("pre")
        total_finals = tuple(self.base_finals) + tuple(finals)
        total_stats = ExecutionStats()
        if self.base_stats is not None:
            total_stats.merge(self.base_stats)
        total_stats.merge(stats)
        snapshot = Checkpoint(
            key=self.key,
            seq=self.seq,
            frontier=tuple(frontier),
            finals=total_finals,
            stats=total_stats,
        )
        write_checked_bytes(self.path, pickle.dumps(snapshot))
        self.seq += 1
        self.last_save_time = self.clock()
        if self.injector is not None:
            self.injector.on_checkpoint("post")

    def load(self) -> Optional[Checkpoint]:
        """The last durable snapshot, or None.

        A snapshot that fails its checksum or does not unpickle is
        evicted and reported as absent — resume falls back to an earlier
        state rather than trusting damaged bytes.
        """
        try:
            payload = read_checked_bytes(self.path)
        except FileNotFoundError:
            return None
        except CorruptPayload:
            self._evict()
            return None
        try:
            snapshot = pickle.loads(payload)
        except Exception:
            self._evict()
            return None
        if not isinstance(snapshot, Checkpoint) or snapshot.key != self.key:
            self._evict()
            return None
        return snapshot

    def resume_from(self, snapshot: Checkpoint) -> None:
        """Adopt a loaded snapshot as the base for subsequent saves."""
        self.base_finals = list(snapshot.finals)
        self.base_stats = snapshot.stats
        self.seq = snapshot.seq + 1

    def age(self) -> Optional[float]:
        """Seconds since the last save this run, or None if none yet."""
        if self.last_save_time is None:
            return None
        return self.clock() - self.last_save_time

    def clear(self) -> None:
        """Discard the snapshot (the job completed; nothing to resume)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def _evict(self) -> None:
        """Drop a damaged snapshot file."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
