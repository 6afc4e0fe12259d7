"""Flight-recorder tracing: bounded memory, dump-on-anomaly.

A :class:`FlightRecorder` is a ring-mode :class:`~repro.obs.tracer.
Tracer` (newest ``ring`` records kept, ``fault`` records pinned, eviction
counters -- see the tracer module) plus the *dump triggers*: when
something goes wrong, the retained window is written out in full --
header included, so ``repro trace check`` can verify it -- before the
evidence scrolls away.  Triggers:

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

from typing import Any

from repro.obs.tracer import Tracer

__all__ = ["FlightRecorder"]


class FlightRecorder(Tracer):
    """A ring-buffer tracer that dumps its window when a run misbehaves.

    ``dump_path`` names where the window goes (gzip for ``.gz``); with
    no path the recorder still tracks triggers and
    :meth:`window_records` can be inspected in memory.
    """

    def __init__(
        self,
        ring: int,
        dump_path: str | None = None,
    ) -> None:
        super().__init__(ring=ring)
        self.dump_path = dump_path
        self.anomalies: list[str] = []
        self.dumps_written: list[str] = []

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
        stats = super().recorder_stats()
        stats["anomalies"] = len(self.anomalies)
        stats["dumps"] = len(self.dumps_written)
        return stats
