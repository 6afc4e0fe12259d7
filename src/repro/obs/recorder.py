"""Flight-recorder tracing: bounded memory, dump-on-anomaly.

A :class:`FlightRecorder` is a :class:`~repro.obs.tracer.Tracer` that
keeps a bounded *window*: the newest ``ring`` records, older ones
evicted -- counted per category, with the highest evicted Lamport stamp
per site and the highest evicted message id remembered, so the offline
checker can reason about the missing prefix.  The categories in
:data:`PINNED` are never evicted.  On top of the window sit the *dump
triggers*: when something goes wrong, the retained window is written
out in full -- header included, so ``repro trace check`` can verify it
-- before the evidence scrolls away.  Triggers:

* **crash**: every injected ``crash`` fault record (the fault injector
  calls ``tracer.crash``, which this class overrides) arms the
  recorder; the window is dumped at the next :meth:`flush` (dumping
  *at* the crash would capture a window missing the recovery that
  follows -- the interesting part);
* **SLO violation / checker failure / run failure**: the driver calls
  :meth:`note_anomaly` with a reason string when a gate fails
  (``repro run --slo``, offline check diagnostics, unsettled events,
  an exception mid-run) and :meth:`flush` writes the window once, no
  matter how many triggers fired.

The memory model is the ROADMAP's async-runtime requirement: a
long-lived scheduler can keep a recorder attached forever -- storage
is ``O(ring)``, eviction bookkeeping is ``O(sites + categories)`` --
and still produce a checkable causal window when an anomaly finally
happens, like a cockpit flight recorder.

``recorder_stats()`` (surfaced in ``metrics_report()`` under
``"recorder"`` and exported to Prometheus) adds the dump bookkeeping
to the ring counters, so dashboards can alert on dropped-record rates
and anomaly dumps.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.tracer import Tracer, to_jsonl

__all__ = ["FlightRecorder", "PINNED", "RECORDER_SITE"]

#: categories the window never evicts: ``fault`` records (crash/restart)
#: are rare, and both the window checker and the dump triggers depend
#: on them.
PINNED = frozenset({"fault"})

#: synthetic site name carried by window headers
RECORDER_SITE = "@recorder"


class FlightRecorder(Tracer):
    """A ring-buffer tracer that dumps its window when a run misbehaves.

    ``ring`` bounds the retained records (plus the :data:`PINNED`
    categories).  ``dump_path`` names where the window goes (gzip for
    ``.gz``); with no path the recorder still tracks triggers and
    :meth:`window_records` can be inspected in memory.
    """

    def __init__(
        self,
        ring: int,
        dump_path: str | None = None,
    ) -> None:
        if ring < 1:
            raise ValueError(f"ring must be a positive capacity, got {ring!r}")
        super().__init__()
        self.ring = ring
        self._seq = 0
        self._main: deque[tuple[int, dict]] = deque()
        self._pinned: list[tuple[int, dict]] = []
        self.dropped: dict[str, int] = {}
        self._evicted_lc: dict[str, int] = {}
        self._mid_horizon = 0
        self.dump_path = dump_path
        self.anomalies: list[str] = []
        self.dumps_written: list[str] = []

    # ------------------------------------------------------------------
    # the window

    @property
    def records(self) -> list[dict]:
        """Retained records in recording order: the window materialized
        (pinned records interleaved back into sequence position); treat
        it as a read-only view and don't mutate it."""
        entries = [*self._main, *self._pinned]
        entries.sort(key=lambda entry: entry[0])
        return [record for _, record in entries]

    def _emit(self, site: str, cat: str, op: str, t: float, lc: int, fields: dict) -> dict:
        record = {"lc": lc, "t": t, "site": site, "cat": cat, "op": op}
        record.update(fields)
        seq = self._seq
        self._seq = seq + 1
        if cat in PINNED:
            self._pinned.append((seq, record))
            return record
        main = self._main
        if len(main) >= self.ring:
            self._evict(main.popleft()[1])
        main.append((seq, record))
        return record

    def _evict(self, record: dict) -> None:
        """Account one record falling off the ring."""
        cat = record["cat"]
        self.dropped[cat] = self.dropped.get(cat, 0) + 1
        site = record["site"]
        if record["lc"] > self._evicted_lc.get(site, 0):
            self._evicted_lc[site] = record["lc"]
        mid = record.get("mid")
        if isinstance(mid, int) and mid > self._mid_horizon:
            self._mid_horizon = mid

    def window_records(self) -> list[dict]:
        """The retained window prefixed with its header record.

        The header (``cat="recorder"``, ``op="window"``, synthetic site
        :data:`RECORDER_SITE`) carries the eviction bookkeeping --
        per-category drop counts, the highest evicted Lamport stamp per
        site, and the message-id horizon -- so the offline checker can
        tell "the causal prefix was evicted" from "the trace is wrong".
        """
        header = {
            "lc": 1,
            "t": 0.0,
            "site": RECORDER_SITE,
            "cat": "recorder",
            "op": "window",
        }
        header.update(self.recorder_stats())
        return [header] + self.records

    def dumps(self) -> str:
        """The window as JSONL, header included, so ``repro trace
        check`` can verify a dump."""
        return to_jsonl(self.window_records())

    # ------------------------------------------------------------------
    # triggers

    def crash(self, t: float, site: str) -> None:
        super().crash(t, site)
        self.note_anomaly(f"crash at site {site} (t={t:g})")

    def note_anomaly(self, reason: str) -> None:
        """Arm the recorder: the next :meth:`flush` writes the window."""
        self.anomalies.append(reason)

    @property
    def armed(self) -> bool:
        return bool(self.anomalies)

    def flush(self, path: str | None = None) -> str | None:
        """Write the window if any trigger fired since the last flush.

        Returns the path written, or ``None`` when nothing was armed or
        no path is known.  Anomalies are consumed, so a long-lived
        scheduler can flush periodically and only pay the write when
        something actually went wrong between flushes.
        """
        target = path or self.dump_path
        if not self.anomalies or target is None:
            return None
        self.dump(target)
        self.dumps_written.append(target)
        self.anomalies = []
        return target

    # ------------------------------------------------------------------
    # stats

    def recorder_stats(self) -> dict[str, Any]:
        """The window's and the triggers' bookkeeping, for
        ``metrics_report()``."""
        return {
            "ring": self.ring,
            "retained": len(self._main) + len(self._pinned),
            "dropped": dict(sorted(self.dropped.items())),
            "dropped_total": sum(self.dropped.values()),
            "evicted_lc": dict(sorted(self._evicted_lc.items())),
            "mid_horizon": self._mid_horizon,
            "anomalies": len(self.anomalies),
            "dumps": len(self.dumps_written),
        }
