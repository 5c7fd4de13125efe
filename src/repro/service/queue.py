"""A durable, crash-safe, at-least-once job queue on the filesystem.

Maildir discipline: a job is one JSON record file, and its lifecycle is
a sequence of atomic renames between sibling directories —

* ``pending/`` — submitted, waiting to be claimed (FIFO by file name,
  which embeds a monotonic submission stamp);
* ``active/`` — claimed by a worker (the rename *is* the claim: two
  workers racing for one job cannot both win a rename);
* ``done/`` — finished, the record now carrying the result summary;
* ``quarantine/`` — poison: repeatedly failing or unreadable jobs are
  parked here with a structured failure and never block the queue.

Delivery is **at-least-once**: a worker that dies mid-job leaves the
record in ``active/``; :meth:`DurableQueue.recover` (run at daemon
start) moves every such orphan back to ``pending/`` with its attempt
count bumped.  Exactly-once *effects* come from the layer above — jobs
are keyed by content hash and results live in an idempotent store, so a
re-delivered job re-runs into the same cache slot or is served from it.

Every record embeds a checksum over its canonical body; a torn or
bit-flipped record is detected on load and quarantined rather than
parsed into garbage.  All writes go through the atomic
write-temp-fsync-rename helper (:mod:`repro.testing.io`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.service.jobs import JobFailure, JobResult, JobSpec
from repro.testing.io import atomic_write_text, fsync_dir

_STATES = ("pending", "active", "done", "quarantine")

#: process-local tiebreaker so two submissions in the same nanosecond
#: (or on a coarse clock) still get distinct, ordered ids
_seq = itertools.count()


class QueueFull(RuntimeError):
    """Admission control: the bounded pending queue is at capacity.

    Raised by :meth:`DurableQueue.submit` — this is the backpressure
    signal clients see instead of the daemon buffering without bound.
    """


@dataclass(frozen=True)
class JobLease:
    """A claimed job: the record as read plus its identity."""

    job_id: str
    record: Dict[str, object]

    @property
    def spec(self) -> JobSpec:
        """The job's :class:`JobSpec`, rebuilt from the record."""
        return JobSpec.from_dict(self.record["spec"])

    @property
    def key(self) -> str:
        """The job's content hash."""
        return self.record["key"]

    @property
    def attempts(self) -> int:
        """Delivery attempts burned so far (this one included)."""
        return self.record["attempts"]


def _record_blob(record: Dict[str, object]) -> str:
    """Serialize a record with an embedded checksum over its body.

    The blob is one line, ``{"body":<body>,"sha256":"<hex>"}``, where
    ``<body>`` is the record's canonical JSON (sorted keys, no spaces)
    and ``<hex>`` its SHA-256: the body is encoded once, and the digest
    covers exactly the bytes written.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return f'{{"body":{body},"sha256":"{digest}"}}\n'


def _parse_blob(text: str) -> Dict[str, object]:
    """Parse and validate a record blob; raises ``ValueError`` on damage.

    Reads the one-line layout of :func:`_record_blob` and the older
    indented one (``json.dumps(..., indent=1, sort_keys=True)``) alike:
    both are a JSON object whose body re-encodes canonically to the
    bytes its digest covers.
    """
    wrapper = json.loads(text)
    if not isinstance(wrapper, dict) or "body" not in wrapper:
        raise ValueError("record missing body")
    body = wrapper["body"]
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    if digest != wrapper.get("sha256"):
        raise ValueError("record checksum mismatch")
    return body


class DurableQueue:
    """The on-disk queue; see the module docstring for the protocol.

    ``capacity`` bounds ``pending/`` (None: unbounded); ``clock`` is
    injectable so retry ``not_before`` scheduling is testable without
    real waiting.
    """

    def __init__(
        self,
        root: str,
        capacity: Optional[int] = None,
        clock=time.time,
    ) -> None:
        """Create (or reopen) the queue rooted at ``root``."""
        self.root = os.fspath(root)
        self.capacity = capacity
        self.clock = clock
        for state in _STATES:
            os.makedirs(os.path.join(self.root, state), exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def _dir(self, state: str) -> str:
        """Directory holding records in ``state``."""
        return os.path.join(self.root, state)

    def _path(self, state: str, job_id: str) -> str:
        """Record file for ``job_id`` in ``state``."""
        return os.path.join(self.root, state, job_id + ".json")

    def _ids(self, state: str) -> List[str]:
        """Job ids in ``state``, sorted — ids embed submission time, so
        sorted order is FIFO order."""
        names = os.listdir(self._dir(state))
        return sorted(n[:-5] for n in names if n.endswith(".json"))

    # -- introspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs waiting in ``pending/`` (the backpressure gauge)."""
        return len(self._ids("pending"))

    def pending_ids(self) -> List[str]:
        """Pending job ids in FIFO order."""
        return self._ids("pending")

    def active_ids(self) -> List[str]:
        """Claimed-but-unfinished job ids."""
        return self._ids("active")

    def done_ids(self) -> List[str]:
        """Finished job ids."""
        return self._ids("done")

    def quarantined_ids(self) -> List[str]:
        """Poison job ids."""
        return self._ids("quarantine")

    def load_done(self, job_id: str) -> Dict[str, object]:
        """The finished record for ``job_id`` (raises if absent/corrupt)."""
        with open(self._path("done", job_id)) as fh:
            return _parse_blob(fh.read())

    def load_quarantined(self, job_id: str) -> JobFailure:
        """The structured failure for a quarantined job."""
        with open(self._path("quarantine", job_id)) as fh:
            record = _parse_blob(fh.read())
        return JobFailure.from_dict(record["failure"])

    # -- lifecycle -----------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Enqueue a job; returns its id.  Raises :class:`QueueFull`
        when the pending queue is at capacity (backpressure: the caller
        must retry later or shed load)."""
        if self.capacity is not None and self.depth >= self.capacity:
            raise QueueFull(
                f"pending queue at capacity ({self.capacity}); retry later"
            )
        key = spec.key()
        job_id = f"{time.time_ns():020d}-{os.getpid()}-{next(_seq):06d}-{key[:8]}"
        record = {
            "id": job_id,
            "key": key,
            "spec": spec.to_dict(),
            "attempts": 0,
            "not_before": 0.0,
            "submitted_at": self.clock(),
        }
        atomic_write_text(self._path("pending", job_id), _record_blob(record))
        return job_id

    def claim(self) -> Optional[JobLease]:
        """Claim the oldest eligible pending job, or None.

        Eligibility: the record's ``not_before`` (retry backoff
        schedule) has passed.  A record that fails to parse or checksum
        is quarantined on the spot — a poison *file* must not wedge the
        queue any more than a poison job.  The pending→active rename is
        the mutual-exclusion point: of two racing claimants exactly one
        sees the rename succeed.
        """
        now = self.clock()
        for job_id in self._ids("pending"):
            path = self._path("pending", job_id)
            try:
                with open(path) as fh:
                    record = _parse_blob(fh.read())
            except (OSError, ValueError) as exc:
                self._quarantine_file(job_id, path, f"unreadable record: {exc}")
                continue
            if record.get("not_before", 0.0) > now:
                continue
            active = self._path("active", job_id)
            try:
                os.rename(path, active)
            except OSError:
                continue  # lost the claim race; try the next record
            record["attempts"] = record.get("attempts", 0) + 1
            atomic_write_text(active, _record_blob(record))
            return JobLease(job_id, record)
        return None

    def ack(self, lease: JobLease, result: JobResult) -> None:
        """Finish a job: durably record the result, then release the
        claim.  Crash between the two writes re-delivers the job, whose
        re-run is absorbed by the idempotent result store."""
        record = dict(lease.record)
        record["result"] = result.to_dict()
        record["finished_at"] = self.clock()
        atomic_write_text(self._path("done", lease.job_id), _record_blob(record))
        self._release(lease)

    def retry(self, lease: JobLease, error: str, delay: float) -> None:
        """Return a failed job to ``pending/`` with a backoff delay.

        The record keeps its id (so ``done/`` ends up with exactly one
        record per submission no matter how many attempts were burned)
        and notes the last error for operators.
        """
        record = dict(lease.record)
        record["last_error"] = error
        record["not_before"] = self.clock() + max(0.0, delay)
        atomic_write_text(
            self._path("pending", lease.job_id), _record_blob(record)
        )
        self._release(lease)

    def quarantine(self, lease: JobLease, error: str) -> JobFailure:
        """Declare a job poison: park a structured failure, release the
        claim, and return the failure record."""
        failure = JobFailure(
            key=lease.key,
            error=error,
            attempts=lease.attempts,
            spec=lease.record.get("spec"),
        )
        record = dict(lease.record)
        record["failure"] = failure.to_dict()
        atomic_write_text(
            self._path("quarantine", lease.job_id), _record_blob(record)
        )
        self._release(lease)
        return failure

    def recover(self) -> int:
        """Re-deliver orphaned ``active/`` jobs (daemon-start recovery).

        Every record a dead worker left behind moves back to
        ``pending/`` untouched — its attempt count was already bumped at
        claim time, so repeated crash-loops still converge on the
        quarantine threshold.  Returns the number of jobs re-delivered.
        """
        recovered = 0
        for job_id in self._ids("active"):
            os.replace(
                self._path("active", job_id), self._path("pending", job_id)
            )
            recovered += 1
        if recovered:
            fsync_dir(self._dir("pending"))
        return recovered

    # -- internals -----------------------------------------------------------

    def _release(self, lease: JobLease) -> None:
        """Drop the active-state record once its outcome is durable."""
        try:
            os.unlink(self._path("active", lease.job_id))
        except FileNotFoundError:
            pass  # already released (crash replay); nothing to do

    def _quarantine_file(self, job_id: str, path: str, error: str) -> None:
        """Park an unreadable record file under ``quarantine/``."""
        failure = JobFailure(key="unknown", error=error, attempts=0)
        record = {"id": job_id, "key": "unknown", "failure": failure.to_dict()}
        atomic_write_text(
            self._path("quarantine", job_id), _record_blob(record)
        )
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass  # a racing claimant already moved it
