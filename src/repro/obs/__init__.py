"""Observability: tracing, metrics registry, query profiles, exporters.

The paper's analysis (Tables 1-2, Figs 4-5, the JTS-vs-GEOS and
static-vs-dynamic discussions) is an exercise in explaining *where time
goes* inside two engines.  Real Impala ships per-query runtime profiles
and Spark ships an event log/UI for the same reason.  This package is the
reproduction's equivalent:

* :mod:`repro.obs.tracer` — hierarchical spans (query -> stage/fragment
  -> task -> phase) recording wall-clock *and* simulated seconds, with a
  zero-overhead no-op path when tracing is disabled;
* :mod:`repro.obs.registry` — a process-wide registry of named
  counters/gauges (HDFS reads, shuffle bytes, tiles joined, ...);
* :mod:`repro.obs.profile` — Impala-style query profile trees
  (``EXPLAIN ANALYZE``-like text per exec node / RDD stage, with rows
  produced, bytes read, vertices refined and task-skew statistics);
* :mod:`repro.obs.export` — JSON and Chrome ``trace_event`` exporters so
  a capture opens in ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.events` — a Spark-style structured event log (JSONL,
  versioned schema) that survives the process and replays later;
* :mod:`repro.obs.monitor` — the replay-driven cluster monitor: per-worker
  Gantt timelines, stage summary tables, straggler detection;
* :mod:`repro.obs.explain` — ``EXPLAIN`` / ``EXPLAIN ANALYZE``: annotated
  plan trees with per-operator cost estimates, measured-actual overlays
  and misestimate flags.

Profiles are derived from the metrics the engines already accrue
(:mod:`repro.cluster.metrics`), so they are exact: a profile's per-phase
simulated seconds sum to the query's reported ``simulated_seconds``.
Spans additionally capture real wall-clock nesting when a
:class:`~repro.obs.tracer.Tracer` is enabled via :func:`tracing`.
"""

from repro.obs.events import (
    SCHEMA_VERSION,
    EventLog,
    get_event_log,
    install_event_log,
    logging_events,
    normalize_events,
    read_events,
    set_event_log,
)
from repro.obs.export import (
    profile_to_chrome_trace,
    spans_to_chrome_trace,
    spans_to_json,
    write_chrome_trace,
)
from repro.obs.explain import (
    ExplainNode,
    ExplainReport,
    explain,
    overlay_profile,
    report_from_profile,
)
from repro.obs.monitor import monitor_report
from repro.obs.profile import ProfileNode, QueryProfile
from repro.obs.registry import REGISTRY, Histogram, MetricsRegistry, collecting
from repro.obs.tracer import NULL_SPAN, Span, Tracer, get_tracer, set_tracer, tracing

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "get_tracer",
    "set_tracer",
    "tracing",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "collecting",
    "ProfileNode",
    "QueryProfile",
    "profile_to_chrome_trace",
    "spans_to_chrome_trace",
    "spans_to_json",
    "write_chrome_trace",
    "SCHEMA_VERSION",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "install_event_log",
    "logging_events",
    "read_events",
    "normalize_events",
    "monitor_report",
    "ExplainNode",
    "ExplainReport",
    "explain",
    "overlay_profile",
    "report_from_profile",
]
