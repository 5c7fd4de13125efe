"""Crash-safe content-addressed stores for compiled programs and results.

A :class:`ContentStore` maps a hex content hash to a pickled payload on
disk.  Entries are written atomically (write-temp-fsync-rename) and
wrapped in a checksummed frame (:func:`repro.testing.io.checked_frame`),
so the store distinguishes three states on read:

* **hit** — the frame validates; the payload is unpickled and returned;
* **miss** — no entry for the key;
* **corrupt** — the frame fails its length/digest check (torn write that
  somehow bypassed the rename, bit flip, truncation).  The entry is
  *evicted on the spot* and the read reports a miss, so the caller
  recomputes; a damaged entry is never served.  An ``on_corrupt``
  callback (the service wires it to the ``service.degraded`` counter on
  the obs bus) makes the eviction observable.

Three stores sit on this base: :class:`GilStore` caches compiled GIL
programs keyed by ``JobSpec.source_key()`` (language + source),
:class:`ResultStore` caches whole-run results keyed by
``JobSpec.key()`` (the full spec hash) — the idempotent-replay cache —
and :class:`SummaryStore` persists function summaries for the
compositional execution layer (:mod:`repro.specs`).
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Callable, List, Optional

from repro.testing.io import CorruptPayload, read_checked_bytes, write_checked_bytes


class ContentStore:
    """A directory of checksummed, content-addressed pickle entries."""

    def __init__(
        self,
        root: str,
        on_corrupt: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        """Open (creating if needed) the store rooted at ``root``.

        ``on_corrupt(key, reason)`` is invoked whenever a read detects a
        damaged entry, after the entry has been evicted.
        """
        self.root = os.fspath(root)
        self.on_corrupt = on_corrupt
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        """Entry file for ``key``; rejects path-traversal characters."""
        if not key or any(c in key for c in "/\\."):
            raise ValueError(f"invalid store key {key!r}")
        return os.path.join(self.root, key + ".bin")

    def put(self, key: str, value: Any) -> None:
        """Durably store ``value`` (pickled, framed, atomic) under ``key``."""
        write_checked_bytes(self._path(key), pickle.dumps(value))

    def get(self, key: str) -> Optional[Any]:
        """The value stored under ``key``, or None on miss.

        A corrupted entry (checksum/length mismatch, unpicklable
        payload) is evicted, reported through ``on_corrupt``, and
        treated as a miss — the caller recomputes and re-puts.
        """
        path = self._path(key)
        try:
            payload = read_checked_bytes(path)
        except FileNotFoundError:
            return None
        except CorruptPayload as exc:
            self._evict(key, path, f"corrupt frame: {exc}")
            return None
        try:
            return pickle.loads(payload)
        except Exception as exc:  # payload passed checksum but not unpickle
            self._evict(key, path, f"unpicklable payload: {exc}")
            return None

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no validation)."""
        return os.path.exists(self._path(key))

    def delete(self, key: str) -> None:
        """Remove the entry for ``key`` if present."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def keys(self) -> List[str]:
        """All keys with an entry file, sorted."""
        return sorted(
            name[:-4] for name in os.listdir(self.root) if name.endswith(".bin")
        )

    def _evict(self, key: str, path: str, reason: str) -> None:
        """Drop a damaged entry and surface the eviction."""
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        if self.on_corrupt is not None:
            self.on_corrupt(key, reason)


class GilStore(ContentStore):
    """The compiled-GIL cache: ``JobSpec.source_key()`` → pickled Prog.

    A ``Prog`` is plain data (procedures of frozen commands), so it
    pickles as is; the cache saves the parse/compile front end, which
    dominates for small programs resubmitted in bursts.
    """


class ResultStore(ContentStore):
    """The whole-run result cache: ``JobSpec.key()`` → pickled payload.

    This is the idempotent-replay store — an identical resubmission (or
    an at-least-once re-delivery) is served from here without re-running
    the analysis, provided the stored :class:`~repro.service.jobs.JobResult`
    is ``reusable`` (full budget, no deadline cut).
    """


class SummaryStore(ContentStore):
    """The durable function-summary cache: summary key → pickled
    :class:`~repro.specs.summary.Summary`.

    Keys are content hashes over the procedure's transitive code hash
    plus (for the exact tier) the pickled pre-state, salted with the
    engine format version and configuration — so summaries persist
    across processes and runs, and a code or engine change simply misses
    to a fresh key.  The inherited corrupt-entry handling is the
    integrity story: a torn or bit-flipped frame is evicted on read,
    reported through ``on_corrupt``, and recomputed — a damaged summary
    is never replayed.
    """
