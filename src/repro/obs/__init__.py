"""Observability for the distributed scheduler: tracing, metrics, checking.

The paper's execution model (Section 4.3) is defined entirely by
message flow -- ``[]e``/``<>e`` announcements, guard evaluations, and
actor state transitions -- which makes a run opaque exactly when it
misbehaves.  This package turns every run into a self-explaining
artifact.  One record stream is written, and every reader takes what
a record means from the writer's module:

* :mod:`repro.obs.tracer` -- causal event tracing.  A :class:`Tracer`
  stamps every message, actor transition, guard evaluation, fault and
  sync round with a per-site Lamport clock as a JSONL record; a trace
  holds no wall-clock time, so two runs of one seed write the same
  bytes, and the inert :data:`NULL_TRACER` takes the same decisions.
  Beside the writer live the reading vocabulary -- ``OCCURRED_OPS``
  (``fired``, ``accepted``), ``SETTLEMENT_OPS`` and ``base_name`` --
  and the one trace index, ``index_trace``: per-site streams without
  recorder window headers, sends by message id, and the first
  occurrence of each signed event.
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of per-site
  counters, gauges (with peaks) and summary histograms; it holds every
  count of a run once, and ``ExecutionResult`` reads its counts off it.
* :mod:`repro.obs.check` -- the streaming trace-replay checker
  (``repro trace check``): Lamport monotonicity, causal order along
  every message, trace safety, and justified firings.
* :mod:`repro.obs.query` -- ``repro trace query`` / ``repro slo
  check``: record filters, attempt->occurrence latencies
  (cross-checked against the ``time_to_allow`` histograms), critical
  paths, and SLO evaluation over ``run --json`` reports.
* :mod:`repro.obs.diff` -- ``repro diff``: per-site alignment of two
  traces, the first divergence, its kind, and the causal chain into it.
* :mod:`repro.obs.provenance` -- *why* is an event parked, fired or
  dead?  One assembly serves ``DistributedScheduler.explain(event)``
  (live, from the settlement record) and ``repro explain TRACE EVENT``
  (offline, Lamport-stamped from the trace).
* :mod:`repro.obs.snapshot` -- consistent global snapshots read between
  two simulator steps, and :func:`~repro.obs.snapshot.check_snapshot`.
* :mod:`repro.obs.export` / :mod:`repro.obs.prom` -- Chrome-trace and
  Prometheus exports (``repro trace export``, ``run --prom``,
  ``repro prom lint``).
* :mod:`repro.obs.merge` -- per-shard traces and reports merged into
  artifacts the same readers accept.
* :mod:`repro.obs.profile` / :mod:`repro.obs.timeseries` -- the span
  profiler (an unprofiled run holds none) and sim-time gauge series.
* :mod:`repro.obs.recorder` -- the flight recorder: the one tracer with
  bounded storage, whose dumped window starts with a header the readers
  understand.
* :mod:`repro.obs.registry` -- the cross-run regression registry
  (``repro runs ...``).
"""

from repro.obs.check import Diagnostic, check_file, check_records
from repro.obs.diff import Divergence, TraceDiff, diff_files, diff_traces
from repro.obs.export import to_chrome
from repro.obs.merge import (
    merge_metrics,
    merge_timeseries,
    merge_traces,
    shard_prefix,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler, merge_profiles
from repro.obs.query import (
    KNOWN_INDICATORS,
    causal_chain,
    chain_segments,
    critical_path,
    evaluate_slos,
    filter_records,
    histogram_cross_check,
    latency_summary,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import RunRegistry
from repro.obs.timeseries import TimeSeriesRegistry
from repro.obs.prom import lint_prometheus, render_prometheus, write_prometheus
from repro.obs.provenance import (
    Explanation,
    Fact,
    explain_records,
    minimal_unblocking_sets,
)
from repro.obs.snapshot import Snapshot, check_snapshot
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    open_trace,
    read_jsonl,
)

__all__ = [
    "Diagnostic",
    "Divergence",
    "Explanation",
    "Fact",
    "FlightRecorder",
    "KNOWN_INDICATORS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Profiler",
    "RunRegistry",
    "Snapshot",
    "TimeSeriesRegistry",
    "TraceDiff",
    "Tracer",
    "causal_chain",
    "chain_segments",
    "check_file",
    "check_records",
    "check_snapshot",
    "critical_path",
    "diff_files",
    "diff_traces",
    "evaluate_slos",
    "explain_records",
    "filter_records",
    "histogram_cross_check",
    "latency_summary",
    "lint_prometheus",
    "merge_metrics",
    "merge_profiles",
    "merge_timeseries",
    "merge_traces",
    "minimal_unblocking_sets",
    "open_trace",
    "read_jsonl",
    "render_prometheus",
    "shard_prefix",
    "to_chrome",
    "write_prometheus",
]
