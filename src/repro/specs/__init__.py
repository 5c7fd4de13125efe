"""Compositional execution via function summaries (specs layer).

The follow-on Gillian papers (*Compositional Symbolic Execution for
All*, arXiv 2001.05059; *Correctness and Incorrectness Reasoning*,
arXiv 2407.10838) turn whole-program symbolic execution compositional:
execute a procedure *once*, record a **summary** — per-path outcome
value, path-condition delta, and memory footprint over a symbolic
pre-state — and *replay* the summary at call sites instead of
descending into the callee.

This package is that layer for the GIL engine:

* :mod:`repro.specs.summary` — the :class:`Summary` record, purity
  classification, and content-addressed cache keys;
* :mod:`repro.specs.cache` — the process-wide in-memory cache plus the
  durable checksummed :class:`repro.service.store.SummaryStore`;
* :mod:`repro.specs.engine` — the :class:`SummaryEngine` that the
  interpreter (:func:`repro.gil.semantics.step`) consults at ``Call``
  commands;
* :mod:`repro.specs.incorrectness` — the under-approximate bug-finding
  arm whose reports are confirmed true-positive by concrete replay.

Enabled by ``EngineConfig(summaries=True)``; see ``docs/summaries.md``
for semantics and guarantees.
"""

from repro.specs.cache import SummaryCache, clear_summary_cache
from repro.specs.engine import SummaryEngine, make_summary_engine
from repro.specs.incorrectness import IncorrectnessReport, find_bugs
from repro.specs.summary import Summary, SummaryPath, classify_pure, proc_hash

__all__ = [
    "Summary",
    "SummaryPath",
    "SummaryCache",
    "SummaryEngine",
    "IncorrectnessReport",
    "classify_pure",
    "clear_summary_cache",
    "find_bugs",
    "make_summary_engine",
    "proc_hash",
]
