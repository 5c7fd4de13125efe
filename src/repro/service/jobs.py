"""Analysis jobs: the unit of work the service queues, runs, and caches.

A :class:`JobSpec` is everything needed to reproduce an analysis —
target language, source text, entry point, budget bounds, worker count,
unknown policy.  Its :meth:`~JobSpec.key` is a SHA-256 over the
canonical JSON encoding, which is what makes the whole service
*idempotent*: two submissions of the same spec share one key, so a
resubmitted (or at-least-once re-delivered) job is served from the
result store instead of re-running, and a crash between "result written"
and "job acked" re-runs into the same cache slot harmlessly.

:class:`JobResult` is the durable outcome record — verdict-level
summary, stop reason, incompleteness ledger, stats — shaped for JSON so
queue ``done/`` records stay greppable; the full pickled
:class:`~repro.engine.results.ExecutionResult` lives in the result store
keyed by the same hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.results import RunReport

#: spec fields that participate in the content hash, in canonical order
_KEY_FIELDS = (
    "language",
    "source",
    "entry",
    "max_paths",
    "max_total_steps",
    "max_steps_per_path",
    "unknown_policy",
    "workers",
)


@dataclass(frozen=True)
class JobSpec:
    """One analysis request: program + entry point + budget.

    ``timeout`` (wall-clock seconds for the run, enforced through
    ``Budget.deadline``) is deliberately *excluded* from the content
    key: a deadline changes when a run is cut, not what the program
    means, and including it would fragment the result cache — but a
    result produced under a deadline records its stop reason, and the
    service only serves a cached result for a spec whose run completed
    (see :meth:`JobResult.reusable`).
    """

    language: str
    source: str
    entry: str = "main"
    max_paths: int = 100_000
    max_total_steps: int = 5_000_000
    max_steps_per_path: int = 100_000
    unknown_policy: str = "assume-sat"
    workers: int = 1
    timeout: Optional[float] = None

    def key(self) -> str:
        """The spec's content hash (hex SHA-256): the cache/queue key.

        Computed on the first call and kept on the instance (the spec is
        frozen, so it cannot go stale): a submission asks for it in the
        service, the queue and the client.  ``dataclasses.replace``
        builds a new instance, which hashes afresh.
        """
        return self._key

    @functools.cached_property
    def _key(self) -> str:
        """The hash behind :meth:`key`, cached in the instance dict."""
        payload = {name: getattr(self, name) for name in _KEY_FIELDS}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def source_key(self) -> str:
        """The compile-cache key: language + source only.

        Jobs differing only in entry point or budget share one compiled
        GIL program, so the compile cache is keyed narrower than the
        result cache.
        """
        canon = json.dumps(
            {"language": self.language, "source": self.source},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able record of every field (queue files store this)."""
        return {
            "language": self.language,
            "source": self.source,
            "entry": self.entry,
            "max_paths": self.max_paths,
            "max_total_steps": self.max_total_steps,
            "max_steps_per_path": self.max_steps_per_path,
            "unknown_policy": self.unknown_policy,
            "workers": self.workers,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobSpec":
        """Rebuild from :meth:`to_dict` output (unknown keys rejected)."""
        return cls(**data)


@dataclass(frozen=True)
class JobResult:
    """The durable outcome of one job run.

    ``degraded_level`` records where on the admission ladder the run was
    admitted (0 = as submitted; see :mod:`repro.service.degrade`), so a
    caller can tell a full-budget verdict from a degraded one.
    """

    key: str
    #: "bug" | "potential-bug" | "bounded-verified[-incomplete]", by
    #: :func:`repro.testing.harness.judge`
    verdict: str
    bugs: int
    paths: int
    report: RunReport
    stats: Dict[str, object]           # ExecutionStats.to_dict()
    degraded_level: int = 0
    #: multiset digest of the finals (order-independent), letting two
    #: runs be compared for outcome identity without shipping the finals
    finals_digest: str = ""
    attempts: int = 1

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able record (queue ``done/`` files store this)."""
        return {
            "key": self.key,
            "verdict": self.verdict,
            "bugs": self.bugs,
            "paths": self.paths,
            "report": self.report.to_dict(),
            "stats": self.stats,
            "degraded_level": self.degraded_level,
            "finals_digest": self.finals_digest,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobResult":
        """Rebuild from :meth:`to_dict` output."""
        data = dict(data)
        data["report"] = RunReport.from_dict(data["report"])
        return cls(**data)

    @property
    def reusable(self) -> bool:
        """Whether this result may be served for an identical
        resubmission: only runs admitted at full budget (level 0) whose
        deadline did not fire are idempotent-replay candidates — a
        degraded or deadline-cut result is an artefact of *that* run's
        circumstances, not of the spec."""
        return self.degraded_level == 0 and self.report.stop_reason != "deadline"


def finals_digest(finals) -> str:
    """An order-independent hex digest of a finals multiset.

    Hashes the sorted ``(kind, repr(value))`` pairs — the same canonical
    key the deterministic shard merge sorts by — so any two runs over
    the same path set agree on the digest regardless of schedule,
    worker count, or resume history.
    """
    items = sorted((fin.kind.name, repr(fin.value)) for fin in finals)
    blob = json.dumps(items, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class JobFailure:
    """A structured permanent failure (the quarantine record).

    ``attempts`` is how many delivery attempts were burned before the
    job was declared poison; ``error`` is the last traceback tail.  A
    quarantined job never wedges the queue: its record is parked under
    ``quarantine/`` and the worker moves on.
    """

    key: str
    error: str
    attempts: int
    spec: Optional[Dict[str, object]] = field(default=None)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-able record (queue ``quarantine/`` files store this)."""
        return {
            "key": self.key,
            "error": self.error,
            "attempts": self.attempts,
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobFailure":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**data)
