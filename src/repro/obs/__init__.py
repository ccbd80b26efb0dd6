"""Observability: span tracing, metrics, EXPLAIN ANALYZE, slow-query log.

The paper's Fig. 7/8 pipeline (XNF parse → QGM → semantic rewrite → SQL
operators) is a multi-stage translation whose cost structure is invisible
without instrumentation.  This package supplies the substrate every perf
PR measures against:

* :mod:`repro.obs.trace` — a lightweight span tracer threaded through
  ``Database.execute`` → parse → QGM build → rewrite → optimize →
  executor, and through the XNF reachability fixpoint (one span per
  round).  Each statement leaves a structured span tree in
  ``Database.tracer.last_trace``.
* :mod:`repro.obs.metrics` — process-wide counters / gauges / histograms;
  ``Database.metrics_snapshot()`` merges them with the storage, WAL, lock,
  transaction, fixpoint and plan-cache counters.
* :mod:`repro.obs.analyze` — operator-level instrumentation behind
  ``EXPLAIN ANALYZE`` (rows in/out, the planner's row estimate and
  cumulative time per plan operator).
* :mod:`repro.obs.slowlog` — a threshold-configurable slow-query log with
  the statement's span tree attached.
* :mod:`repro.obs.statements` — bounded per-fingerprint statement stats
  (calls, latency quantiles, plan-cache hits) behind
  ``SYS_STAT_STATEMENTS``.
* :mod:`repro.obs.costats` — per-CO instantiation cardinalities and
  fixpoint profiles (``SYS_CO_STATS``).
* :mod:`repro.obs.export` — JSONL trace exporter (one root span per line,
  batched writes, trace ids stitch client- and server-side records).
* :mod:`repro.obs.network` — wire-server frame/byte counters and live
  session rows (``SYS_STAT_NETWORK`` / ``SYS_SESSIONS``).
* :mod:`repro.obs.profile` — per-statement profiles aggregated from one
  trace tree (pipeline stages, queue/retry waits, per-shard durations),
  behind the ``PROFILE`` wire op and the ``\\profile`` REPL command.
"""

from repro.obs.analyze import OpStats, instrument_plan, render_analyzed
from repro.obs.costats import COStat, COStatsRegistry
from repro.obs.export import JsonlTraceExporter
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.network import NetworkStats, WireSessionRegistry, WireSessionStats
from repro.obs.profile import build_profile, render_profile
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.statements import StatementStat, StatementStatsRegistry
from repro.obs.trace import FRESH_CONTEXT, NULL_SPAN, Span, TraceContext, Tracer

__all__ = [
    "COStat",
    "COStatsRegistry",
    "Counter",
    "FRESH_CONTEXT",
    "Gauge",
    "Histogram",
    "JsonlTraceExporter",
    "MetricsRegistry",
    "NULL_SPAN",
    "NetworkStats",
    "WireSessionRegistry",
    "WireSessionStats",
    "OpStats",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "StatementStat",
    "StatementStatsRegistry",
    "TraceContext",
    "Tracer",
    "build_profile",
    "instrument_plan",
    "render_analyzed",
    "render_profile",
]
