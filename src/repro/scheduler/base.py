"""What a run is under every scheduler.

Section 4.3 defines execution by a handful of events: an event is
attempted, parked, allowed (or refused), and its occurrence announced.
Whichever scheduler decides them, the frame around the decisions is the
same, and :class:`RunBase` is that frame: simulator and fabric, the
bases' sites and attributes, the ``start -> drain -> finish``
lifecycle, result and report -- and the one place each event is
reported.  A scheduler calls an event's ``note_*`` method where it
takes the decision; the method bumps the counter, the ``parked_depth``
gauge and the lifecycle latency histograms, and writes the trace
record.  The :class:`ExecutionResult` counts are read off the counters
once, in :meth:`RunBase.finish`.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Mapping

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import span
from repro.obs.tracer import NULL_TRACER
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import (
    AttemptOutcome,
    EventAttributes,
    ExecutionResult,
    TraceEntry,
    Violation,
)
from repro.sim.clock import Simulator
from repro.sim.network import Network
from repro.temporal.guards import kernel_stats

_DEFAULT_ATTRS = EventAttributes()


class RunBase:
    """Simulator, fabric, result, lifecycle and records of one run.

    ``tracer`` (a :class:`repro.obs.Tracer`; default the inert
    :data:`~repro.obs.tracer.NULL_TRACER`) records the run as a causal
    Lamport-stamped event trace, ``profiler`` (a
    :class:`repro.obs.Profiler`; default none) attributes wall time to
    phases, ``fabric`` reaches :class:`~repro.sim.network.Network`.
    Subclasses provide ``attempt(event)`` and ``drain()``, which
    settles until a round changes nothing; :meth:`finish` then names
    the terminal state the run ended in.
    """

    #: counter and trace op of a settlement: an actor's event *fired*,
    #: the center *accepted* it
    SETTLED_OP = "fired"

    def __init__(
        self,
        dependencies: Iterable[Expr],
        sites: Mapping[Event, str] | None,
        attributes: Mapping[Event, EventAttributes] | None,
        tracer,
        profiler,
        **fabric,
    ):
        self.dependencies = list(dependencies)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler
        #: per-run counters, gauges and histograms (``metrics_report``)
        self.metrics = MetricsRegistry()
        self.sim = Simulator()
        self.network = Network(
            self.sim, tracer=self.tracer, profiler=profiler, **fabric
        )
        self._sites = {e.base: s for e, s in (sites or {}).items()}
        self._attributes = {e.base: a for e, a in (attributes or {}).items()}
        self.result = ExecutionResult()
        #: crash injector (``repro.sim.faults``), for the scheduler that
        #: arms one
        self.faults = None
        self._settled: dict[Event, Event] = {}  # base -> signed occurrence
        self._waiters: dict[Event, list] = {}  # base -> callbacks on settle
        #: bases whose complement made no progress in settlement
        self._no_progress_bases: set[Event] = set()
        #: signed events parked right now -> when they parked
        self._parked_at: dict[Event, float] = {}
        self._sorted_bases_cache: tuple[Event, ...] | None = None

    # ------------------------------------------------------------------
    # the workflow's bases

    def site_of(self, base: Event) -> str:
        site = self._sites.get(base.base)
        return site if site is not None else f"site_{base.base.name}"

    def attributes(self, base: Event) -> EventAttributes:
        return self._attributes.get(base.base, _DEFAULT_ATTRS)

    def complements_refusal(self, event: Event) -> bool:
        """Is ``event``'s complement attempted once ``event`` is refused
        for good?  Only a refused *positive* event's task abandons the
        transition, and only if the base is ``auto_complement``; a
        refused complement causes nothing."""
        attributes = self.attributes(event.base)
        return not event.negated and attributes.auto_complement

    def _all_bases(self) -> frozenset[Event]:
        bases: set[Event] = set()
        for d in self.dependencies:
            bases |= d.bases()
        return frozenset(bases)

    def _sorted_bases(self) -> tuple[Event, ...]:
        """``_all_bases()`` in settlement order; computed once and
        dropped wherever ``self.dependencies`` changes at runtime."""
        cached = self._sorted_bases_cache
        if cached is None:
            cached = tuple(sorted(self._all_bases(), key=Event.sort_key))
            self._sorted_bases_cache = cached
        return cached

    def schedule_script(self, script: AgentScript) -> None:
        """Schedule an agent's attempts, honouring their ``after``
        gates: an attempt waits while its gate's base is unsettled and
        is dropped if the base settled the other way."""
        for attempt in script.attempts:
            self._schedule_gated(attempt)

    def _schedule_gated(self, attempt: ScriptedAttempt) -> None:
        self.sim.schedule(attempt.time, self._fire_gated, attempt)

    def _fire_gated(self, attempt: ScriptedAttempt) -> None:
        """``attempt``'s time has come (or its gate's base settled)."""
        if attempt.after is not None:
            gate = self._settled.get(attempt.after.base)
            if gate is None:
                # prerequisite pending: re-run when the base settles (a
                # partial, not a closure over itself: a fired attempt
                # is freed at once, not left for the cycle collector)
                self._waiters.setdefault(attempt.after.base, []).append(
                    partial(self._fire_gated, attempt)
                )
                return
            if gate != attempt.after:
                return  # settled against us: the task path is dead
        self.attempt(attempt.event)

    # ------------------------------------------------------------------
    # lifecycle records: one method per event of Section 4.3.  The ones
    # made per settled event (attempted, parked, settled, dead) test
    # ``tracer.active`` so an untraced run makes no call for them; the
    # rare ones call the hook outright (a no-op on ``NULL_TRACER``).

    def note_attempted(self, site: str, event: Event) -> None:
        self.metrics.inc("attempts", site=site)
        if self.tracer.active:
            self.tracer.actor(self.sim.now, site, event, "attempted")

    def note_parked(
        self, site: str, event: Event, attempted_at: float
    ) -> None:
        """``event`` is (still) parked: every undetermined evaluation
        counts, the first one of a stretch opens it."""
        self.metrics.inc("parked", site=site)
        if event not in self._parked_at:
            now = self.sim.now
            self._parked_at[event] = now
            self.metrics.gauge_adjust("parked_depth", 1, site=site)
            self.metrics.observe(
                "lifecycle_attempt_to_park", now - attempted_at, site=site
            )
        if self.tracer.active:
            self.tracer.actor(self.sim.now, site, event, "parked")

    def note_unparked(self, site: str, event: Event) -> float | None:
        """Close ``event``'s parked stretch, if it has one; returns when
        it began, for the histogram of whatever ended it."""
        since = self._parked_at.pop(event, None)
        if since is not None:
            self.metrics.gauge_adjust("parked_depth", -1, site=site)
        return since

    def note_rejected(self, site: str, event: Event) -> None:
        now = self.sim.now
        self.tracer.actor(now, site, event, "rejected")
        parked_since = self.note_unparked(site, event)
        if parked_since is not None:
            self.metrics.observe(
                "lifecycle_park_to_reject", now - parked_since, site=site
            )
        self.metrics.inc("rejected", site=site)

    def note_forced(self, site: str, event: Event) -> None:
        """A nonrejectable event the scheduler would have refused
        happens regardless (Section 3.3); its settlement follows."""
        self.tracer.actor(self.sim.now, site, event, "forced")
        self.result.violations.append(
            Violation(
                "forced",
                f"nonrejectable {event!r} accepted against its guard",
            )
        )

    def note_settled(
        self,
        site: str,
        event: Event,
        attempted_at: float,
        outcome: AttemptOutcome | None = None,
    ) -> None:
        """``event`` occurs.  ``outcome`` is the center's verdict and
        goes into its record; an actor's firing is always an
        acceptance (a forced one has its own ``forced`` record)."""
        now = self.sim.now
        self._settled[event.base] = event
        self.result.entries.append(
            TraceEntry(
                event, now, attempted_at, outcome or AttemptOutcome.ACCEPTED
            )
        )
        parked_since = self.note_unparked(site, event)
        self.metrics.inc(self.SETTLED_OP, site=site)
        self.metrics.observe("time_to_allow", now - attempted_at, site=site)
        if parked_since is not None:
            self.metrics.observe(
                "lifecycle_park_to_fire", now - parked_since, site=site
            )
        if self.tracer.active:
            fields = {"waited": now - attempted_at}
            if outcome is not None:
                fields["outcome"] = outcome.value
            self.tracer.actor(now, site, event, self.SETTLED_OP, **fields)

    def note_dead(self, site: str, event: Event) -> None:
        """``event``'s complement occurred: it never will."""
        self.note_unparked(site, event)
        if self.tracer.active:
            self.tracer.actor(self.sim.now, site, event, "dead")

    def note_triggered(self, site: str) -> None:
        """The scheduler causes a triggerable event on its own accord
        (``site`` decided so: a requirement monitor's, the center, or
        the event's own on a demanded promise)."""
        self.metrics.inc("triggered", site=site)

    # ------------------------------------------------------------------
    # closing a run

    def metrics_report(self) -> dict:
        """JSON-ready metrics: the per-site registry (parked depth,
        time-to-allow, ...), the ``network`` counters
        (:meth:`NetworkStats.as_dict`: messages by kind,
        retransmissions, session-layer accounting), a snapshot of the
        symbolic ``kernel``'s caches
        (:func:`repro.temporal.guards.kernel_stats`), and the flight
        ``recorder``'s bookkeeping when the tracer is one."""
        report = self.metrics.as_dict()
        report["network"] = self.network.stats.as_dict()
        report["kernel"] = kernel_stats()
        recorder = self.tracer.recorder_stats()
        if recorder is not None:
            report["recorder"] = recorder
        return report

    # ------------------------------------------------------------------
    # the lifecycle: start, run to quiescence, drain, finish

    def start(self, scripts: Iterable[AgentScript] = ()) -> None:
        """Lifecycle step 1: schedule the scripted task agents.
        Nothing moves until the caller runs the simulator."""
        for script in scripts:
            self.schedule_script(script)

    def run(
        self,
        scripts: Iterable[AgentScript] = (),
        settle: bool = True,
        verify: bool = True,
    ) -> ExecutionResult:
        """The whole lifecycle: :meth:`start`, run to quiescence, the
        scheduler's ``drain()`` (lifecycle step 2: settle the quiescent
        run by complements), :meth:`finish`."""
        self.start(scripts)
        self.sim.run()
        if settle:
            self.drain()
        return self.finish(verify)

    def _settlement_candidates(self) -> list[Event]:
        """The unsettled bases eligible for complement settlement, in
        base order.

        A parked positive attempt does not block settlement: at
        quiescence no further message will arrive to unpark it, so the
        base must be resolved by its complement (which may itself park,
        in which case the base is recorded as making no progress)."""
        return [
            base
            for base in self._sorted_bases()
            if base not in self._settled
            and base not in self._no_progress_bases
            and self.attributes(base).auto_complement
        ]

    def _settle_round(self, batch: list[Event]) -> bool:
        """One settlement round: attempt the complement of each base of
        ``batch`` (its task abandons the transition) and run to
        quiescence.  A new settlement makes every base eligible again;
        otherwise the batch is excluded until something settles.  False
        when ``batch`` is empty: nothing is left to try."""
        if not batch:
            return False
        before = len(self._settled)
        for base in batch:
            self._settle(base)
        self.sim.run()
        if len(self._settled) > before:
            self._no_progress_bases.clear()
        else:
            self._no_progress_bases.update(batch)
        return True

    def _settle(self, base: Event) -> None:
        """Settlement of ``base``: its complement is attempted."""
        self.attempt(base.complement)

    def _lost(self, base: Event) -> bool:
        """Does ``base`` live on a site that is down for good?"""
        site, faults = self.site_of(base), self.faults
        return (
            faults is not None
            and faults.is_down(site)
            and faults.restart_time(site) is None
        )

    def finish(self, verify: bool = True) -> ExecutionResult:
        """Lifecycle step 3: the result summary, the terminal state
        (``maximal``, else ``down`` when an unsettled base's site is
        down for good, else ``stuck``) and post-run verification."""
        stats = self.network.stats
        self.result.makespan = self.sim.now
        self.result.messages = stats.messages
        self.result.messages_by_kind = dict(stats.by_kind)
        self.result.max_site_load = self.network.max_site_load()
        self.result.central_queue_wait = stats.max_queue_wait
        counts = self.metrics.totals(
            "parked", "promises_granted", "not_yet_rounds", "triggered"
        )
        self.result.parked_total = counts["parked"]
        self.result.promises_granted = counts["promises_granted"]
        self.result.not_yet_rounds = counts["not_yet_rounds"]
        self.result.triggered = counts["triggered"]
        unsettled = [b for b in self._sorted_bases() if b not in self._settled]
        self.result.unsettled = unsettled
        if not unsettled:
            self.result.terminal = "maximal"
        elif any(self._lost(b) for b in unsettled):
            self.result.terminal = "down"
        else:
            self.result.terminal = "stuck"
        if verify:
            with span(self.profiler, "verify"):
                self.result.verify(self.dependencies)
        return self.result
