"""Observability for the distributed scheduler: tracing, metrics, checking.

The paper's execution model (Section 4.3) is defined entirely by
message flow -- ``[]e``/``<>e`` announcements, guard evaluations, and
actor state transitions -- which makes a run opaque exactly when it
misbehaves.  This package turns every run into a self-explaining
artifact:

* :mod:`repro.obs.tracer` -- causal event tracing.  A :class:`Tracer`
  stamps every message send/receive/drop/retransmit, actor state
  transition, guard evaluation, crash/restart, and sync round with a
  per-site Lamport clock and emits structured JSONL records.  A trace
  is a pure function of the run (it holds no wall-clock time), so two
  runs of one seed write the same bytes.  The default
  :data:`NULL_TRACER` is inert: the per-message and per-evaluation
  sites test ``tracer.active``, the rest call a no-op, so a run without
  tracing takes the same decisions.
* :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of counters,
  gauges (with peaks), and summary histograms, labelled per site and
  dumpable as JSON from ``DistributedScheduler.metrics_report()``; it
  holds every count of a run once, and ``ExecutionResult`` reads its
  counts off it.
* :mod:`repro.obs.export` -- conversion of a trace to the Chrome
  ``chrome://tracing`` / Perfetto JSON format (``repro trace export``).
* :mod:`repro.obs.check` -- the trace-replay invariant checker
  (``repro trace check``): re-reads a JSONL trace offline and verifies
  Lamport monotonicity, per-session causal order, trace safety (no
  base event twice, never both ``e`` and ``~e``), and that every
  firing is justified by a recorded guard verdict.
* :mod:`repro.obs.provenance` -- decision provenance: *why* is an
  event parked/fired/dead?  ``DistributedScheduler.explain(event)``
  (live, justified from the settlement record, the same traced or
  not) and ``repro explain TRACE EVENT`` (offline, Lamport-stamped
  from the trace) classify every guard literal against the actor's
  knowledge, name the occurrences that justified it, and compute
  minimal unblocking announcement sets.
* :mod:`repro.obs.snapshot` -- consistent global snapshots, each the
  whole run read between two simulator steps, sending nothing
  (``scheduler.snapshot()`` / ``repro run --snapshot-every N``), plus
  :func:`~repro.obs.snapshot.check_snapshot` validating each cut
  against the causal trace.
* :mod:`repro.obs.prom` -- Prometheus text-format export of
  ``metrics_report()`` (``repro run --prom FILE``) and a format linter
  (``repro prom lint``).
* :mod:`repro.obs.merge` -- merging per-shard traces and metrics
  reports from the scale-out runner (:mod:`repro.scale`) into single
  artifacts that still satisfy the checker and exporter, with
  shard-prefixed site names and re-based message ids.
* :mod:`repro.obs.profile` -- a span-based phase profiler with
  hierarchical attribution (synthesis, template stamping, guard
  evaluation, cube ops, watch wakes, delivery, retransmits, sync
  rounds), self-vs-cumulative time, per-site/per-event breakdowns, and
  collapsed-stack / Chrome-trace exporters.  An unprofiled run holds
  no profiler (``None``).
* :mod:`repro.obs.timeseries` -- a :class:`TimeSeriesRegistry` of
  sim-time gauge series (parked events, channel backlog, in-flight
  messages, fires per interval) sampled on the simulator's clock, with
  per-shard merging as fleet-total step functions.
* :mod:`repro.obs.query` -- the offline trace analytics engine behind
  ``repro trace query`` and ``repro slo check``: record filters,
  attempt->fire latency percentiles (cross-checked against the
  lifecycle histograms), critical-path extraction, and declarative SLO
  evaluation over ``run --json`` reports.
* :mod:`repro.obs.diff` -- the trace differ behind ``repro diff``:
  causal per-site alignment of two traces (volatile fields dropped),
  localization of the first divergent event, a divergence-kind
  classifier (guard verdict flip, message reorder, crash-schedule
  mismatch, rng drift, settlement mismatch), and a root-cause chain
  walked backward through the causal machinery of :mod:`~.query`.
* :mod:`repro.obs.recorder` -- the flight recorder
  (``repro run --flight-record N``): a ring-buffered
  :class:`~repro.obs.recorder.FlightRecorder`, the one tracer with
  bounded storage, that keeps the last *N* records (crash/restart
  records pinned) in constant memory, counts evictions into
  ``metrics_report()``/Prometheus, and dumps the retained window --
  with a self-describing header the checker understands -- when an
  SLO violation, invariant failure, or crash arms it.
* :mod:`repro.obs.registry` -- the cross-run regression registry
  (``repro runs ...``): a content-addressed ``.repro/runs/`` store of
  reports, traces, and profiles, with ``compare`` (reusing the
  differ) and ``regress`` (indicator trending against the best stored
  baseline, optionally SLO-gated).
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
