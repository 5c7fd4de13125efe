"""Observability: metrics, phase profiling, and trace analysis.

The engine's :class:`~repro.engine.events.EventBus` already puts every
interesting occurrence — steps, branches, path ends, solver queries,
degradations, shard failures — on a near-zero-overhead bus.  This
package is the consumer side:

* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with the
  same idle-overhead contract as the bus (hold ``None``, pay one falsy
  check) and a deterministic, order-independent merge so per-worker
  registries aggregate to the same totals under any scheduling;
* :mod:`repro.obs.collect` — :class:`~repro.obs.collect.MetricsCollector`
  subscribes a registry to a bus and folds every engine event (including
  :class:`~repro.engine.events.WorkerEvent`-wrapped ones from parallel
  runs) into metrics;
* :mod:`repro.obs.report` — the trace-analysis CLI
  (``python -m repro.obs.report trace.jsonl``) turning a JSONL trace
  into the paper-style run breakdown (§5-style solver/exploration
  buckets);
* :mod:`repro.obs.smoke` — the ``make verify`` end-to-end check: record
  a real trace, run the report, assert the required sections exist;
* :mod:`repro.obs.service` — :class:`~repro.obs.service.ServiceMetrics`,
  the analysis daemon's counter/gauge surface (jobs, cache tiers,
  degradation, integrity evictions) over the same registry.

See ``docs/events.md`` for the event schema and ``docs/architecture.md``
for where observability sits in the engine dataflow.
"""

from repro.obs.collect import MetricsCollector
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MetricsCollector",
    "MetricsRegistry",
    "ServiceMetrics",
    "TraceReport",
    "analyse_trace",
]


def __getattr__(name):
    # Lazy so ``python -m repro.obs.report`` does not import the report
    # module twice (runpy warns when the -m target is already loaded).
    if name in ("TraceReport", "analyse_trace"):
        from repro.obs import report

        return getattr(report, name)
    if name == "ServiceMetrics":
        from repro.obs.service import ServiceMetrics

        return ServiceMetrics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
