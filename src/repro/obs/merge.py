"""Merging per-shard observability artifacts into one coherent view.

The shard runner (:mod:`repro.scale`) executes independent workflow
instances on one :class:`DistributedScheduler` per shard, each with its
own :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`.  Downstream tooling --
``repro trace check``, ``repro explain``, the Prometheus exporter --
expects a *single* trace and a *single* metrics report, so this module
merges the per-shard artifacts while preserving every invariant the
offline checker (:mod:`repro.obs.check`) verifies:

* **site uniqueness** -- every ``site``/``src``/``dst`` field is
  prefixed with its shard (``s0/airline_i4``), so per-site Lamport
  monotonicity and per-channel FIFO are judged within one shard only
  (the shards never exchanged messages, so there is nothing causal to
  check *across* them);
* **message-id uniqueness** -- each tracer numbers messages from 1, so
  shard ``k``'s mids are offset by the running total of earlier
  shards' maxima, keeping every ``recv`` paired with exactly its own
  ``send``;
* **record order** -- records are stably sorted by virtual time with
  the shard index and original position as tie-breaks; within a shard
  time is non-decreasing, so each shard's record order (which the
  clock and causal checks depend on) is preserved verbatim.

Metrics reports merge shape-for-shape into what
:func:`repro.obs.prom.render_prometheus` consumes: counters, gauges
and histograms pool by the registry's own rules
(:data:`repro.obs.metrics.POOL`: totals and gauge levels sum, peaks
take the max, histograms pool their summary statistics), and per-site
breakdowns are united under the same shard prefixes the
trace uses.  Symbolic-kernel statistics are *process-local cache
snapshots*, not additive work counters, so they merge by element-wise
maximum -- the report shows the hottest shard's cache shape rather
than a fictitious sum over caches that shared nothing.  The one
exception is ``kernel["watch"]``: the scheduler reports its *own*
wake/skip counts there, so those are additive across shards and merge
by sum.

Profiler reports merge through
:func:`repro.obs.profile.merge_profiles` -- span times and call counts
are additive -- and time-series registries through
:func:`merge_timeseries`, which sums each gauge as a step
function over the union of the shards' sample times.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.obs.metrics import POOL
from repro.obs.timeseries import step_sum

__all__ = [
    "merge_metrics",
    "merge_timeseries",
    "merge_traces",
    "shard_prefix",
]


def shard_prefix(shard: int) -> str:
    """The site-name prefix for shard ``shard`` (``"s3/"``)."""
    return f"s{shard}/"


# ----------------------------------------------------------------------
# traces

_SITE_FIELDS = ("site", "src", "dst")


def merge_traces(
    shard_records: Sequence[Sequence[Mapping[str, Any]]],
    prefixes: Sequence[str] | None = None,
) -> list[dict]:
    """Merge per-shard tracer records into one checkable trace.

    ``shard_records[k]`` is shard ``k``'s ``tracer.records`` list (in
    recording order).  Returns new record dicts; inputs are untouched.
    """
    if prefixes is None:
        prefixes = [shard_prefix(k) for k in range(len(shard_records))]
    if len(prefixes) != len(shard_records):
        raise ValueError(
            f"{len(shard_records)} shards but {len(prefixes)} prefixes"
        )
    tagged: list[tuple[float, int, int, dict]] = []
    mid_offset = 0
    for shard, (records, prefix) in enumerate(zip(shard_records, prefixes)):
        max_mid = 0
        for position, record in enumerate(records):
            merged = dict(record)
            for field in _SITE_FIELDS:
                value = merged.get(field)
                if isinstance(value, str):
                    merged[field] = prefix + value
            mid = merged.get("mid")
            if isinstance(mid, int):
                max_mid = max(max_mid, mid)
                merged["mid"] = mid + mid_offset
            if merged.get("cat") == "recorder":
                # a flight-recorder window header names sites and mids
                # in its shard's namespace; rewrite both so the merged
                # header still describes the merged trace.  The mid
                # horizon also counts toward the shard's max mid: the
                # evicted sends it stands for may outnumber the
                # retained ones.
                evicted = merged.get("evicted_lc")
                if isinstance(evicted, Mapping):
                    merged["evicted_lc"] = {
                        prefix + site: stamp
                        for site, stamp in evicted.items()
                    }
                horizon = merged.get("mid_horizon")
                if isinstance(horizon, int) and horizon:
                    max_mid = max(max_mid, horizon)
                    merged["mid_horizon"] = horizon + mid_offset
            tagged.append((merged["t"], shard, position, merged))
        mid_offset += max_mid
    tagged.sort(key=lambda item: item[:3])
    return [record for _, _, _, record in tagged]


# ----------------------------------------------------------------------
# metrics reports

def _merge_registry_section(
    sections: Sequence[tuple[str, Mapping[str, Any]]],
    combine,
) -> dict:
    """Merge one ``counters``/``gauges``/``histograms`` section.

    ``sections`` pairs each shard's prefix with its section dict;
    ``combine`` pools a list of same-shaped values.
    """
    out: dict[str, dict] = {}
    names = sorted({name for _, section in sections for name in section})
    for name in names:
        entries = [
            (prefix, section[name])
            for prefix, section in sections
            if name in section
        ]
        merged: dict[str, Any] = {
            "total": combine([entry["total"] for _, entry in entries])
        }
        sites = {
            prefix + site: value
            for prefix, entry in entries
            for site, value in entry.get("sites", {}).items()
        }
        if sites:
            merged["sites"] = dict(sorted(sites.items()))
        # a shard entry with no per-site breakdown is all-unlabelled:
        # its total IS its unlabelled value (the registry only emits an
        # explicit "unlabelled" key next to real sites)
        unlabelled = [
            entry["unlabelled"] if "unlabelled" in entry else entry["total"]
            for _, entry in entries
            if "unlabelled" in entry or "sites" not in entry
        ]
        if unlabelled and sites:
            merged["unlabelled"] = combine(unlabelled)
        out[name] = merged
    return out


def _elementwise_max(values: Sequence[Any]) -> Any:
    """Element-wise max of same-shaped nested dicts of numbers."""
    first = values[0]
    if isinstance(first, Mapping):
        keys = sorted({key for value in values for key in value})
        return {
            key: _elementwise_max([v[key] for v in values if key in v])
            for key in keys
        }
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return max(values)
    return first


def _elementwise_sum(values: Sequence[Any]) -> Any:
    """Element-wise sum of same-shaped nested dicts of numbers."""
    first = values[0]
    if isinstance(first, Mapping):
        keys = sorted({key for value in values for key in value})
        return {
            key: _elementwise_sum([v[key] for v in values if key in v])
            for key in keys
        }
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return sum(values)
    return first


def _merge_kernel(sections: Sequence[Mapping[str, Any]]) -> dict:
    """Merge per-shard ``kernel`` sections.

    Cache-shape snapshots (interning/synthesis/memo) take the
    element-wise max -- summing caches that shared nothing would
    fabricate work.  The ``watch`` and ``compiled`` subsections are
    different: each scheduler reports its own wake counts and its
    private guard engine's counters there (see ``metrics_report``),
    which count real per-shard work and therefore sum.  So do the
    shape-table lookups its constructor made, overlaid on
    ``synthesis`` (the table's size stays a cache shape).
    """
    merged = _elementwise_max(sections)
    for key in ("watch", "compiled"):
        own = [s[key] for s in sections if isinstance(s.get(key), Mapping)]
        if own:
            merged[key] = _elementwise_sum(own)
    for key in ("shape_hits", "shape_misses"):
        own = [
            s["synthesis"][key] for s in sections
            if key in s.get("synthesis", ())
        ]
        if own:
            merged["synthesis"][key] = sum(own)
    return merged


def _merge_network(sections: Sequence[tuple[str, Mapping[str, Any]]]) -> dict:
    out: dict[str, Any] = {}
    keys = sorted({key for _, section in sections for key in section})
    for key in keys:
        values = [
            (prefix, section[key])
            for prefix, section in sections
            if key in section
        ]
        sample = values[0][1]
        if isinstance(sample, Mapping):
            table: dict[str, float] = {}
            for prefix, mapping in values:
                for k, v in mapping.items():
                    label = prefix + k if key == "per_site_handled" else k
                    table[label] = table.get(label, 0) + v
            out[key] = dict(sorted(table.items()))
        elif key == "max_queue_wait":
            out[key] = max(v for _, v in values)
        else:
            out[key] = sum(v for _, v in values)
    return out


def merge_metrics(
    reports: Sequence[Mapping[str, Any]],
    prefixes: Sequence[str] | None = None,
) -> dict:
    """Merge per-shard :meth:`metrics_report` dicts into one report.

    Site labels get the same shard prefixes the merged trace uses, so
    a Prometheus scrape and a trace query agree on site naming.
    """
    if not reports:
        raise ValueError("merge_metrics needs at least one report")
    if prefixes is None:
        prefixes = [shard_prefix(k) for k in range(len(reports))]
    if len(prefixes) != len(reports):
        raise ValueError(f"{len(reports)} reports but {len(prefixes)} prefixes")

    def section(name: str) -> list[tuple[str, Mapping[str, Any]]]:
        return [
            (prefix, report[name])
            for prefix, report in zip(prefixes, reports)
            if report.get(name)
        ]

    merged: dict[str, Any] = {
        name: _merge_registry_section(section(name), pool)
        for name, pool in POOL.items()
    }
    network = section("network")
    if network:
        merged["network"] = _merge_network(network)
    kernel = [report["kernel"] for report in reports if report.get("kernel")]
    if kernel:
        merged["kernel"] = _merge_kernel(kernel)
    timeseries = [
        report["timeseries"] for report in reports
        if report.get("timeseries")
    ]
    if timeseries:
        merged["timeseries"] = merge_timeseries(timeseries)
    faults = [report["faults"] for report in reports if report.get("faults")]
    if faults:
        totals: dict[str, float] = {}
        for table in faults:
            for key, value in table.items():
                totals[key] = totals.get(key, 0) + value
        merged["faults"] = dict(sorted(totals.items()))
    recorder = section("recorder")
    if recorder:
        merged["recorder"] = _merge_recorder(recorder)
    return merged


def _merge_recorder(sections: Sequence[tuple[str, Mapping[str, Any]]]) -> dict:
    """Merge per-shard flight-recorder sections of ``metrics_report``.

    Drop counts, retained counts, anomaly/dump counts are additive;
    the ring capacity reported is the fleet total (each shard holds its
    own ring); evicted stamps are united under shard-prefixed sites the
    way the merged trace names them.
    """
    out: dict[str, Any] = {
        "ring": sum(s.get("ring", 0) for _, s in sections),
        "retained": sum(s.get("retained", 0) for _, s in sections),
        "dropped_total": sum(s.get("dropped_total", 0) for _, s in sections),
    }
    dropped: dict[str, int] = {}
    for _, section in sections:
        for cat, count in (section.get("dropped") or {}).items():
            dropped[cat] = dropped.get(cat, 0) + count
    out["dropped"] = dict(sorted(dropped.items()))
    out["evicted_lc"] = dict(sorted(
        (prefix + site, stamp)
        for prefix, section in sections
        for site, stamp in (section.get("evicted_lc") or {}).items()
    ))
    out["mid_horizon"] = max(
        (s.get("mid_horizon", 0) for _, s in sections), default=0
    )
    for key in ("anomalies", "dumps"):
        if any(key in s for _, s in sections):
            out[key] = sum(s.get(key, 0) for _, s in sections)
    return out


# ----------------------------------------------------------------------
# time series

def merge_timeseries(registries: Sequence[Mapping[str, Any]]) -> dict:
    """Merge per-shard :meth:`TimeSeriesRegistry.as_dict` payloads.

    Every series present in any shard appears in the merged result;
    its points are the step-function sum over the union of the shards'
    sample times (:func:`repro.obs.timeseries.step_sum`), so merged
    sample times are non-decreasing and each merged value is the fleet
    total at that instant.  The merged interval is the coarsest of the
    inputs (the merged series is only as fine as its sparsest shard).
    """
    if not registries:
        raise ValueError("merge_timeseries needs at least one registry")
    names = sorted({
        name for reg in registries for name in reg.get("series", {})
    })
    return {
        "interval": max(reg.get("interval", 1.0) for reg in registries),
        "series": {
            name: step_sum([
                reg.get("series", {}).get(name, []) for reg in registries
            ])
            for name in names
        },
    }
