"""Site crash/restart fault injection for the simulated fabric.

A :class:`FaultPlan` is a declarative schedule of :class:`SiteCrash`
entries; the :class:`FaultInjector` arms them on a
:class:`~repro.sim.clock.Simulator` and tracks which sites are down at
any instant.  The crash semantics follow the fail-stop model the
recovery protocol (``scheduler/actors.py``) is designed against:

* while a site is down, every message addressed to it is lost (the
  reliable session layer counts these as ``crash_lost`` and keeps
  retransmitting);
* a crash wipes the site's *volatile* state -- actor knowledge masks,
  in-flight protocol rounds, session sequence numbers.  *Durable*
  facts survive: an event that occurred has occurred, promises granted
  are logged obligations, and not-yet freezes are written to stable
  storage before the certificate is sent (the classic prepared-state
  rule, which is what keeps a coordinator crash from invalidating a
  certificate in flight);
* on restart the injector fires its restart hooks in a fixed order:
  first the session layer re-establishes channels (``reset_site``),
  then the scheduler runs the recovery protocol for the site's actors
  and monitors.

The injector counts crashes and restarts; a scheduler reports them
under ``faults`` in its ``metrics_report()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Iterable

from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import Simulator


@dataclass(frozen=True)
class SiteCrash:
    """One scheduled fail-stop crash of a site.

    ``restart_at=None`` means the site never comes back (a permanent
    failure); liveness guarantees then apply only to the surviving
    part of the workflow, and the run reports the wedged bases as
    unsettled rather than silently claiming success.
    """

    site: str
    at: float
    restart_at: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.at < inf:
            raise ValueError(
                f"crash time must be finite and nonnegative: {self.at}"
            )
        if self.restart_at is not None and not self.at < self.restart_at < inf:
            raise ValueError(
                f"restart_at ({self.restart_at}) must follow the crash "
                f"({self.at}) and be finite"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of site crashes for one run."""

    crashes: tuple[SiteCrash, ...] = ()

    @staticmethod
    def of(crashes: Iterable[SiteCrash]) -> "FaultPlan":
        ordered = tuple(sorted(crashes, key=lambda c: (c.at, c.site)))
        sites_down: dict[str, float | None] = {}
        for crash in ordered:
            pending = sites_down.get(crash.site)
            if crash.site in sites_down and (
                pending is None or crash.at < pending
            ):
                raise ValueError(
                    f"overlapping crashes for site {crash.site!r}"
                )
            sites_down[crash.site] = crash.restart_at
        return FaultPlan(ordered)

    def __bool__(self) -> bool:
        return bool(self.crashes)


class FaultInjector:
    """Arms a :class:`FaultPlan` on a simulator and tracks down-ness.

    Parameters
    ----------
    sim:
        The driving simulator.
    plan:
        The crash schedule.
    on_crash / on_restart:
        Hooks invoked (with the site name) at the crash and restart
        instants; the scheduler uses them to wipe volatile actor state
        and to run the recovery protocol.  Multiple hooks fire in
        registration order.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan | None = None, tracer=None):
        self.sim = sim
        self.plan = plan or FaultPlan()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._down: dict[str, float | None] = {}  # site -> restart time
        self._on_crash: list[Callable[[str], None]] = []
        self._on_restart: list[Callable[[str], None]] = []
        self.crash_count = 0
        self.restart_count = 0
        #: (site, crashed_at, restart_at) per executed crash
        self.crash_log: list[tuple[str, float, float | None]] = []
        self._armed = False

    # ------------------------------------------------------------------

    def on_crash(self, hook: Callable[[str], None]) -> None:
        self._on_crash.append(hook)

    def on_restart(self, hook: Callable[[str], None]) -> None:
        self._on_restart.append(hook)

    def arm(self) -> None:
        """Schedule every planned crash/restart on the simulator."""
        if self._armed:
            return
        self._armed = True
        for crash in self.plan.crashes:
            self.sim.schedule_at(crash.at, self._crash, crash)

    def _crash(self, crash: SiteCrash) -> None:
        self._down[crash.site] = crash.restart_at
        self.crash_count += 1
        self.crash_log.append((crash.site, self.sim.now, crash.restart_at))
        self.tracer.crash(self.sim.now, crash.site)
        for hook in self._on_crash:
            hook(crash.site)
        if crash.restart_at is not None:
            self.sim.schedule_at(crash.restart_at, self._restart, crash.site)

    def _restart(self, site: str) -> None:
        self._down.pop(site, None)
        self.restart_count += 1
        self.tracer.restart(self.sim.now, site)
        for hook in self._on_restart:
            hook(site)

    # ------------------------------------------------------------------

    def is_down(self, site: str) -> bool:
        return site in self._down

    def restart_time(self, site: str) -> float | None:
        """When a down site comes back (None if up or never)."""
        return self._down.get(site)

    def down_sites(self) -> frozenset[str]:
        return frozenset(self._down)
