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

Counters and gauges are cheap dict updates and are always on, and
everything in the registry is a deterministic function of the run: a
run's wall-clock time is the profiler's alone.  The registry is where
a run's counts live; ``ExecutionResult`` reads its own off it when the
run finishes (:meth:`totals`).
"""

from __future__ import annotations

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


class MetricsRegistry:
    """Counters, gauges, and summary histograms, labelled per site."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, str], int] = {}
        self._gauges: dict[tuple[str, str], dict[str, float]] = {}
        self._histograms: dict[tuple[str, str], dict[str, float]] = {}

    # ------------------------------------------------------------------

    def inc(self, name: str, n: int = 1, site: str = _TOTAL) -> None:
        key = (name, site)
        self._counters[key] = self._counters.get(key, 0) + n

    def gauge_adjust(self, name: str, delta: float, site: str = _TOTAL) -> None:
        key = (name, site)
        gauge = self._gauges.setdefault(key, {"value": 0.0, "peak": 0.0})
        gauge["value"] += delta
        gauge["peak"] = max(gauge["peak"], gauge["value"])

    def observe(self, name: str, value: float, site: str = _TOTAL) -> None:
        key = (name, site)
        h = self._histograms.get(key)
        if h is None:
            self._histograms[key] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
            return
        h["count"] += 1
        h["sum"] += value
        h["min"] = min(h["min"], value)
        h["max"] = max(h["max"], value)

    # ------------------------------------------------------------------
    # reading

    def counter(self, name: str, site: str = _TOTAL) -> int:
        """Cross-site total unless a specific site is asked for."""
        if site is _TOTAL:
            return self.totals(name)[name]
        return self._counters.get((name, site), 0)

    def totals(self, *names: str) -> dict[str, int]:
        """The cross-site total of each counter in ``names``, summed in
        one pass over the store."""
        out = dict.fromkeys(names, 0)
        for (name, _site), value in self._counters.items():
            if name in out:
                out[name] += value
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: totals plus per-site breakdowns."""
        return {
            "counters": self._group(self._counters, lambda v: v, sum),
            "gauges": self._group(self._gauges, dict, _pool_gauges),
            "histograms": self._group(
                self._histograms, _finish_histogram, _pool_histograms
            ),
        }

    @staticmethod
    def _group(store: dict, finish, combine) -> dict[str, Any]:
        names: dict[str, dict[str, Any]] = {}
        for (name, site), value in sorted(store.items()):
            names.setdefault(name, {})[site] = value
        out: dict[str, Any] = {}
        for name, by_site in names.items():
            entry: dict[str, Any] = {"total": combine(list(by_site.values()))}
            sites = {s: finish(v) for s, v in by_site.items() if s != _TOTAL}
            if sites:
                entry["sites"] = sites
            if _TOTAL in by_site and sites:
                # unlabelled observations, kept apart from real sites
                entry["unlabelled"] = finish(by_site[_TOTAL])
            out[name] = entry
        return out
