"""A small metrics registry: counters, gauges, summary histograms.

Metrics are named and optionally labelled with the *site* at which
they were observed, so the report shows both the fleet total and the
per-site breakdown (the distributed scheduler's whole argument is the
per-site shape).  Three instrument kinds:

* **counter** -- monotone count (``inc``);
* **gauge** -- a level with its high-water mark (``gauge_adjust``),
  e.g. the parked-queue depth;
* **histogram** -- summary statistics of observed values (count, sum,
  min, max, mean), e.g. guard-evaluation latency or time-to-allow.

Updates are always on and write numbers into per-site columns, so
they allocate nothing the cycle collector tracks, and everything in
the registry is a deterministic function of the run: a run's
wall-clock time is the profiler's alone.  The registry is where a
run's counts live; ``ExecutionResult`` reads its own off it when the
run finishes (:meth:`MetricsRegistry.totals`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

_TOTAL = ""  # label key under which the cross-site total is reported


def _finish_histogram(h: dict[str, float]) -> dict[str, float]:
    out = dict(h)
    out["mean"] = h["sum"] / h["count"] if h["count"] else 0.0
    return out


def _pool_gauges(items) -> dict[str, float]:
    return {
        "value": sum(i["value"] for i in items),
        "peak": max(i["peak"] for i in items),
    }


def _pool_histograms(items) -> dict[str, float]:
    return _finish_histogram({
        "count": sum(i["count"] for i in items),
        "sum": sum(i["sum"] for i in items),
        "min": min(i["min"] for i in items),
        "max": max(i["max"] for i in items),
    })


#: How each report section pools values of one name: across sites in
#: :meth:`MetricsRegistry.as_dict`, across shards in
#: :func:`repro.obs.merge.merge_metrics`.
POOL = {"counters": sum, "gauges": _pool_gauges, "histograms": _pool_histograms}


def _rows(columns: dict[str, tuple], *stats: str) -> dict[str, dict]:
    """``name -> site -> {stat: value}``, from per-stat site columns."""
    return {
        name: {s: dict(zip(stats, [c[s] for c in by_stat]))
               for s in by_stat[0]}
        for name, by_stat in columns.items()
    }


class MetricsRegistry:
    """Counters, gauges, and summary histograms, labelled per site.

    One ``{site: number}`` column per statistic, made on a name's first
    update: a counter's count, a gauge's level and peak, a histogram's
    count, sum, min and max.  Reading never inserts."""

    def __init__(self) -> None:
        self._counters = defaultdict(lambda: defaultdict(int))
        self._gauges = defaultdict(
            lambda: (defaultdict(float), defaultdict(float))
        )
        self._histograms = defaultdict(lambda: ({}, {}, {}, {}))

    # ------------------------------------------------------------------

    def inc(self, name: str, n: int = 1, site: str = _TOTAL) -> None:
        self._counters[name][site] += n

    def gauge_adjust(self, name: str, delta: float, site: str = _TOTAL) -> None:
        level, peak = self._gauges[name]
        level[site] += delta
        if level[site] > peak[site]:
            peak[site] = level[site]

    def observe(self, name: str, value: float, site: str = _TOTAL) -> None:
        count, total, low, high = self._histograms[name]
        if site not in count:
            count[site] = 1
            total[site] = low[site] = high[site] = value
            return
        count[site] += 1
        total[site] += value
        if value < low[site]:
            low[site] = value
        if value > high[site]:
            high[site] = value

    # ------------------------------------------------------------------
    # reading

    def counter(self, name: str, site: str = _TOTAL) -> int:
        """Cross-site total unless a specific site is asked for."""
        if site is _TOTAL:
            return self.totals(name)[name]
        return self._counters.get(name, {}).get(site, 0)

    def totals(self, *names: str) -> dict[str, int]:
        """The cross-site total of each counter in ``names``, its sites
        summed in the order they were first counted."""
        out = dict.fromkeys(names, 0)
        for name in out:
            for value in self._counters.get(name, {}).values():
                out[name] += value
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: totals plus per-site breakdowns."""
        return {
            "counters": self._group(self._counters, lambda v: v, sum),
            "gauges": self._group(
                _rows(self._gauges, "value", "peak"), lambda v: v, _pool_gauges
            ),
            "histograms": self._group(
                _rows(self._histograms, "count", "sum", "min", "max"),
                _finish_histogram, _pool_histograms,
            ),
        }

    @staticmethod
    def _group(columns: dict, finish, combine) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in sorted(columns):
            by_site = columns[name]
            ordered = sorted(by_site)
            entry = {"total": combine([by_site[s] for s in ordered])}
            sites = {s: finish(by_site[s]) for s in ordered if s != _TOTAL}
            if sites:
                entry["sites"] = sites
            if _TOTAL in by_site and sites:
                # unlabelled observations, kept apart from real sites
                entry["unlabelled"] = finish(by_site[_TOTAL])
            out[name] = entry
        return out
