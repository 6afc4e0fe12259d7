"""Sim-time-sampled telemetry series: what is the system doing *now*?

Counters and histograms (:mod:`repro.obs.metrics`) summarize a whole
run; they cannot show that parked events piled up between t=4 and t=9
or that the retransmit queue drained only after the second sync round.
A :class:`TimeSeriesRegistry` holds named series of ``(sim_time,
value)`` points, filled by a periodic sampling tick that the scheduler
arms on its :class:`~repro.sim.clock.Simulator` (see
``DistributedScheduler.enable_timeseries`` and
``Simulator.sample_every``).  Sampling callbacks only *read* scheduler
state, so an instrumented run produces the same timeline, messages,
and rng stream as an unsampled one.

Series sampled by the scheduler tick:

* ``parked_events`` -- actors currently parked on an unsatisfied guard
* ``channel_backlog`` -- session-layer unacknowledged payloads (0 on a
  raw channel)
* ``inflight_messages`` -- messages sent but not yet delivered by the
  simulated network
* ``sim_pending`` -- live simulator entries (scheduled callbacks)
* ``fires_per_interval`` / ``messages_per_interval`` -- deltas of the
  settled bases and messages since the previous sample

Per-shard registries from the scale-out runner are merged by
:func:`repro.obs.merge.merge_timeseries` (step-function sum over the
union of sample times), and a run's series travel in ``run --json``
under ``"timeseries"`` and as ``repro_ts_*`` gauges in the Prometheus
export.
"""

from __future__ import annotations

from typing import Mapping


class TimeSeriesRegistry:
    """Named series of ``(sim_time, value)`` samples.

    ``interval`` records the sampling period for the report; the
    registry itself accepts samples at any time stamp (merged
    registries interleave shard ticks).
    """

    def __init__(self, interval: float = 1.0):
        self.interval = float(interval)
        self._series: dict[str, list[tuple[float, float]]] = {}
        self._last_totals: dict[str, float] = {}

    def record(self, name: str, t: float, value: float) -> None:
        """Append one gauge sample to ``name``."""
        self._series.setdefault(name, []).append((float(t), float(value)))

    def record_total(self, name: str, t: float, total: float) -> None:
        """Sample a cumulative counter as a per-interval delta.

        The recorded value is ``total`` minus the total at the
        previous call, so the series reads as throughput per sampling
        interval rather than an ever-growing line.
        """
        prev = self._last_totals.get(name, 0.0)
        self._last_totals[name] = float(total)
        self.record(name, t, float(total) - prev)

    def series(self, name: str) -> list[tuple[float, float]]:
        """The samples of one series, in recording order."""
        return list(self._series.get(name, ()))

    @property
    def names(self) -> list[str]:
        return sorted(self._series)

    def last(self, name: str) -> float | None:
        pts = self._series.get(name)
        return pts[-1][1] if pts else None

    def peak(self, name: str) -> float | None:
        pts = self._series.get(name)
        return max(v for _, v in pts) if pts else None

    def as_dict(self) -> dict:
        """JSON-ready form: ``{"interval": s, "series": {name: [[t, v]...]}}``."""
        return {
            "interval": self.interval,
            "series": {
                name: [[t, v] for t, v in pts]
                for name, pts in sorted(self._series.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TimeSeriesRegistry":
        reg = cls(interval=data.get("interval", 1.0))
        for name, pts in data.get("series", {}).items():
            for t, v in pts:
                reg.record(name, t, v)
        return reg


def monotone_in_time(points: list) -> bool:
    """Are the sample times non-decreasing?  (Merged-series invariant.)"""
    times = [p[0] for p in points]
    return all(a <= b for a, b in zip(times, times[1:]))


def step_sum(per_shard: list[list]) -> list[list]:
    """Sum step-function series over the union of their sample times.

    Each input is one shard's ``[[t, v], ...]`` points (t
    non-decreasing).  The merged series has one point per distinct
    sample time; its value is the sum over shards of each shard's most
    recent value at or before that time (0 before a shard's first
    sample).  This is the fleet-total view of a gauge: shards sample
    on their own clocks, and between its samples a shard's last value
    stands.
    """
    times = sorted({t for pts in per_shard for t, _ in pts})
    merged: list[list] = []
    cursors = [0] * len(per_shard)
    currents = [0.0] * len(per_shard)
    for t in times:
        for k, pts in enumerate(per_shard):
            while cursors[k] < len(pts) and pts[cursors[k]][0] <= t:
                currents[k] = pts[cursors[k]][1]
                cursors[k] += 1
        merged.append([t, sum(currents)])
    return merged
