"""The distributed event-centric scheduler (the paper's contribution).

Guards are synthesized per event at compile time (Section 4.2) and
localized on one actor per base holding both polarity guards, placed
at the site of the task agent the base belongs to (Section 2).  At run
time only messages flow: occurrence announcements, promises, and
not-yet certificates; a fact crosses once to each destination site
where a base may still decide, and fans out there.  There is no
central node; the requirement monitors that trigger triggerable events
run at the sites of those events, fed by the same announcements.

The run lifecycle is :class:`~repro.scheduler.base.RunBase`'s, the
three steps ``run`` (and through it the shard runner and the CLI) goes
through: :meth:`DistributedScheduler.start` schedules the scripted
task agents, the simulator runs to quiescence,
:meth:`DistributedScheduler.drain` performs *settlement* -- unsettled
base events have their complements attempted (the task abandons the
transition), a batch per quiescent round so cascades are ordered, until
the trace is maximal or no further progress is possible -- and
:meth:`DistributedScheduler.finish` sums up and verifies.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import partial
from typing import Iterable, Mapping

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.scheduler.actors import (
    ActorStatus,
    BaseActor,
    Fanout,
    Role,
    join,
    members,
)
from repro.scheduler.agents import AgentScript
from repro.scheduler.base import RunBase
from repro.scheduler.events import EventAttributes, ExecutionResult, Violation
from repro.scheduler.messages import (
    Announce,
    Recovered,
    SyncReply,
    SyncRequest,
    TriggerMsg,
)
from repro.obs.profile import span
from repro.obs.provenance import Explanation, explain_actor
from repro.obs.snapshot import Snapshot
from repro.obs.timeseries import TimeSeriesRegistry
from repro.scheduler.monitors import RequirementMonitor
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import LatencyModel
from repro.sim.reliable import ReliableNetwork
from repro.temporal.compiled import (
    NOT_YET_MASK,
    CompiledGuardEngine,
    GuardCursor,
    WakeCounts,
)
from repro.temporal.cubes import TRUE_GUARD, GuardExpr
from repro.temporal.guards import (
    Binding,
    promise_wants,
    shape_lookups,
    workflow_bindings,
)


class DistributedScheduler(RunBase):
    """Compile a workflow into actors and run it on the simulated network.

    Construction synthesizes the guards and places the actors;
    :meth:`run` is then ``start(scripts)``, ``sim.run()``, ``drain()``
    (settle until a round changes nothing), ``finish(verify)``.  A
    driver that steps the clock itself calls the same three steps
    instead of ``run``.  Every run ends in a named terminal state
    (``result.terminal``): ``maximal``, ``stuck`` or ``down``.

    Parameters
    ----------
    dependencies:
        The workflow's dependencies (event-algebra expressions).
    sites:
        Mapping from base event to site name; events sharing a task
        agent share a site.  Unmapped bases live on ``site_of`` their
        name (one site per base) -- fully distributed by default.
    attributes:
        Per-base :class:`EventAttributes`.
    latency / rng:
        Network behaviour; defaults to unit latency, seed 0.
    reliable:
        Route all protocol traffic through the
        :class:`~repro.sim.reliable.ReliableNetwork` session layer
        (exactly-once FIFO over the lossy fabric).  Implied by a
        fault plan: crash recovery is built on the session layer.
    fault_plan:
        Scheduled site crashes/restarts (:class:`FaultPlan`); armed
        when the run starts.
    tracer / profiler:
        See :class:`~repro.scheduler.base.RunBase`.  A traced run
        takes the same decisions and :meth:`explain` gives the same
        answer: it reads the justifications off the settlement record.
    """

    def __init__(
        self,
        dependencies: Iterable[Expr],
        sites: Mapping[Event, str] | None = None,
        attributes: Mapping[Event, EventAttributes] | None = None,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        guards: Mapping[Event, Binding | GuardExpr] | None = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        reliable: bool = False,
        fault_plan: FaultPlan | None = None,
        tracer=None,
        profiler=None,
    ):
        super().__init__(
            dependencies, sites, attributes, tracer, profiler,
            latency=latency, rng=rng,
            drop_probability=drop_probability,
            duplicate_probability=duplicate_probability,
        )
        #: compiled-guard automaton store, and the factory every
        #: ``Role.__init__`` takes its cursor from
        self.compiled = CompiledGuardEngine()
        self.new_cursor = self.cursor_factory()
        if fault_plan is not None:
            reliable = True  # recovery is built on the session layer
            self.faults = FaultInjector(self.sim, fault_plan, tracer=self.tracer)
        self.reliable = reliable
        #: where protocol messages travel: the raw fabric, or the
        #: exactly-once FIFO session layer on top of it
        self.channel = (
            ReliableNetwork(self.network, faults=self.faults)
            if reliable
            else self.network
        )
        if self.faults is not None:
            self.faults.on_crash(self._crash_site)
            # restart order matters: sessions first, then the actors'
            # recovery protocol runs over the fresh sessions
            self.faults.on_restart(self.channel.reset_site)
            self.faults.on_restart(self._recover_site)
        # bound once: every trigger message holds this one method, and
        # every monitor reports through the other two
        self._on_trigger = self._on_trigger
        self._monitor_trigger = self._monitor_trigger
        self._monitor_doomed = self._monitor_doomed
        self._recovering: dict[str, dict] = {}
        self._round_counter = 0
        #: base -> its crossing group (a member standing for the group),
        #: or None: filled for settlement candidates as they come up
        #: (:meth:`_uncrossed`), from the static guard table
        self._crossing: dict[Event, Event | None] = {}
        #: every snapshot taken, oldest first (:meth:`snapshot`)
        self.snapshots: list[Snapshot] = []

        # this constructor's own shape-table lookups, overlaid on the
        # process-wide totals by ``metrics_report``; a table handed in
        # whole looks nothing up
        self._shape_lookups = {"shape_hits": 0, "shape_misses": 0}
        if guards is not None:
            table = dict(guards)
        else:
            before = shape_lookups()
            with span(self.profiler, "synthesis"):
                table = workflow_bindings(self.dependencies)
            after = shape_lookups()
            self._shape_lookups = {k: after[k] - before[k] for k in after}
        #: base -> its actor, holding a role per polarity in the table
        self.actors: dict[Event, BaseActor] = {}
        self._sorted_actors_cache: tuple[BaseActor, ...] | None = None
        #: announced base -> site -> the addressee of the base's
        #: announcement there (:func:`~repro.scheduler.actors.join`):
        #: the actors with a role whose guard mentions it (each once,
        #: the base's own actor never), then the site's monitor if it
        #: watches the base
        self._fanouts: defaultdict[Event, dict[str, BaseActor | Fanout]] = (
            defaultdict(dict)
        )
        self._build_actors(table)
        #: the static guard table, which the promise pairs are read
        #: off; None after a run-time modification, until the drain
        #: builds the table of the dependencies then in force
        self._table: Mapping[Event, Binding | GuardExpr] | None = table
        #: announcements that woke their role / took the skip path
        #: (``BaseActor.on_announce`` decides)
        self.watch = WakeCounts()
        # per-site requirement monitors for triggerable events
        #: one per site of a triggerable base; a crashed site's is
        #: rebuilt from its own dependencies and triggerable bases
        self._monitors: list[RequirementMonitor] = []
        self._build_monitors()
        #: sampled telemetry series (None until enabled); the sampler
        #: only reads state, so an instrumented run stays bit-identical
        self.timeseries: TimeSeriesRegistry | None = None

    # ------------------------------------------------------------------
    # construction helpers

    def cursor_factory(self):
        """The factory every role takes its guard cursor from, called
        once per scheduler: a pointer into :attr:`compiled`.  The
        differential tests override it with the paper-literal
        :class:`~repro.temporal.compiled.ReferenceCursor`."""
        return partial(GuardCursor, self.compiled)

    def _build_actors(
        self, table: Mapping[Event, Binding | GuardExpr]
    ) -> None:
        """One actor per base of ``table``, in the order its bases first
        appear, built with a role per polarity the table holds.  Each
        actor subscribes once, to the union of its roles' guard bases
        (the role the table lists first, then the other's), so each
        base's announcement reaches it once.  A role hears a map its
        entry already holds: a binding's ``to_slot`` (keyed by its
        bases), a plain guard's cached ``bases()``."""
        actors, fanouts = self.actors, self._fanouts
        for event in table:
            base = event.base
            if base in actors:
                continue
            site = self.site_of(base)
            actor = BaseActor(base, site, self, table)
            actors[base] = actor
            roles = actor.roles
            heard = ()
            for signed in (event, event.complement):
                if signed not in roles:
                    continue
                entry = table[signed]
                bases = roles[signed].subscribed = (
                    entry.to_slot if type(entry) is Binding else entry.bases()
                )
                for heard_base in bases:
                    if heard_base not in heard and heard_base is not base:
                        # join(), inline: a build makes one per subscription
                        at = fanouts[heard_base]
                        held = at.get(site)
                        if held is None:
                            at[site] = actor
                        elif type(held) is Fanout:
                            held.append(actor)
                        else:
                            at[site] = Fanout(site, (held, actor))
                heard = bases

    def add_role(
        self, event: Event, guard: Binding | GuardExpr = TRUE_GUARD
    ) -> Role:
        """``event``'s role, created with ``guard`` -- and its base's
        actor with it -- when there is none; an existing role is
        returned as it is."""
        actor = self.actors.get(event.base)
        if actor is None:
            actor = BaseActor(event.base, self.site_of(event.base), self, {})
            self.actors[event.base] = actor
            self._sorted_actors_cache = None
        role = actor.roles.get(event)
        if role is None:
            role = actor.add_role(event, guard)
            self.subscribe(
                role,
                guard.to_slot if type(guard) is Binding else guard.bases(),
            )
        return role

    def subscribe(self, role: Role, bases) -> None:
        """``role`` hears the announcements of ``bases``; its actor is
        handed each one once, whichever of its roles subscribe."""
        actor = role.actor
        heard = role.subscribed
        other = actor.roles.get(role.event.complement)
        for base in bases:
            if base not in heard and base != actor.base and (
                other is None or base not in other.subscribed
            ):
                join(self._fanouts[base], actor.site, actor)
        role.subscribed = set(heard).union(bases) if heard else bases

    def _build_monitors(self) -> None:
        """One requirement monitor per site of the triggerable bases the
        dependencies mention, over the dependencies mentioning them (in
        list order), told every base of those dependencies."""
        site_of = {
            base: self.site_of(base)
            for base, attributes in self._attributes.items()
            if attributes.triggerable
        }
        triggerable = site_of.keys()
        # one pass over the dependencies: per site, the triggerable
        # bases they mention and the positions of the dependencies
        # mentioning them (positions, not the dependencies themselves,
        # keep the list order and any duplicate entries)
        by_site: defaultdict[str, set[Event]] = defaultdict(set)
        positions: defaultdict[str, set[int]] = defaultdict(set)
        for position, dep in enumerate(self.dependencies):
            for base in dep.bases() & triggerable:
                site = site_of[base]
                by_site[site].add(base)
                positions[site].add(position)
        for site, at in sorted(positions.items()):
            deps = [self.dependencies[position] for position in sorted(at)]
            monitor = self._new_monitor(site, deps, frozenset(by_site[site]))
            self._monitors.append(monitor)
            # once per base, however many of its dependencies mention it
            self._watch(site, _watched(deps), monitor)

    def _watch(self, site: str, bases, monitor) -> None:
        """``monitor`` (None: no monitor) hears ``bases`` at ``site``:
        each of their addressees there is replaced by one that hands the
        announcement to it, so an announcement sent before still
        reaches the monitor it was sent to."""
        for base in bases:
            at = self._fanouts[base]
            held = at.get(site)
            actors = [] if held is None else members(held)
            if monitor is not None:
                at[site] = Fanout(site, actors, monitor)
            elif len(actors) > 1:
                at[site] = Fanout(site, actors)
            elif actors:
                at[site] = actors[0]
            elif held is not None:
                del at[site]

    def _new_monitor(
        self, site: str, deps: list[Expr], bases: frozenset[Event]
    ) -> RequirementMonitor:
        """A monitor in its initial state: at construction, and again
        from the old one's dependencies and bases after its site
        crashed.  The monitor decides; what it decides is reported
        here."""
        return RequirementMonitor(
            deps, bases, self._monitor_trigger,
            partial(self._monitor_doomed, site), site=site,
        )

    def _monitor_trigger(self, event: Event) -> None:
        """A monitor requires ``event``: it runs at the event's site, the
        site of each base it may trigger."""
        site = self.site_of(event.base)
        self.tracer.monitor(self.sim.now, site, "trigger", event=event)
        self.note_triggered(site)
        self.channel.send(
            site, site, TriggerMsg.kind, TriggerMsg(event=event),
            self._on_trigger,
        )

    def _monitor_doomed(self, site: str, dep: Expr, residual: Expr) -> None:
        """The monitor at ``site`` finds ``dep`` with no accepting
        completion left."""
        self.tracer.monitor(
            self.sim.now, site, "doomed", dependency=dep, residual=residual
        )
        self.result.violations.append(
            Violation(
                "doomed",
                f"{dep!r} has no accepting completion ({residual!r})",
            )
        )

    def _on_trigger(self, msg: TriggerMsg) -> None:
        """A monitor's trigger reached its event's site."""
        self.attempt(msg.event)

    def _sorted_actors(self) -> tuple[BaseActor, ...]:
        """The actors in base order; cached like ``_sorted_bases`` and
        dropped where a run-time dependency adds an actor."""
        cached = self._sorted_actors_cache
        if cached is None:
            cached = tuple(
                sorted(self.actors.values(), key=lambda a: a.base.sort_key())
            )
            self._sorted_actors_cache = cached
        return cached

    # ------------------------------------------------------------------
    # actor-facing services

    def role(self, event: Event) -> Role | None:
        """The role of the signed ``event`` on its base's actor, if it
        has one."""
        actor = self.actors.get(event.base)
        return None if actor is None else actor.roles.get(event)

    def roles(self) -> list[Role]:
        """Every role, actor by actor, positive first."""
        actors = self.actors.values()
        return [role for actor in actors for role in actor.roles.values()]

    def send_to_role(self, sender, event: Event, message) -> None:
        role = self.role(event)
        if role is not None:
            self._send(sender, role, message)

    def send_to_actor(self, sender, base: Event, message) -> None:
        actor = self.actors.get(base.base)
        if actor is not None:
            self._send(sender, actor, message)

    def _send(self, sender, target, message) -> None:
        # the addressee is its own handler (it is callable), so the
        # message's simulator entry holds no bound method
        self.channel.send(
            sender.site, target.site, message.kind, message, target
        )

    def next_round_id(self) -> int:
        """A fresh certificate-round id (unique across the run)."""
        self._round_counter += 1
        return self._round_counter

    def note_promise(self) -> None:
        self.metrics.inc("promises_granted")

    def note_round(self, role: Role, targets: list[Event]) -> None:
        """``role`` starts a not-yet round asking about ``targets``."""
        self.metrics.inc("not_yet_rounds")
        self.tracer.round_event(
            self.sim.now, role.site, role.event, "start", role.round_id,
            targets=targets,
        )

    def request_trigger(self, role: Role) -> None:
        """A demanded promise request reached an idle triggerable
        event: its own site causes it."""
        self.note_triggered(role.site)
        self.attempt(role.event)

    def publish(self, actor: BaseActor, event: Event) -> None:
        """``event`` occurred at ``actor``: announce it once to each
        site with a subscriber that may still decide or a requirement
        monitor that watches the base (its :class:`Fanout` hands it on
        there), then open the agent-script gates waiting on the base.

        A site whose every subscribing actor's base some role of
        ``actor`` knows has settled (its mask there holds no not-yet
        world), and which runs no monitor of the base, is skipped: a
        settled base decides nothing more, and that knowledge is a
        durable fact (an announcement, a certificate or sync reply), so
        a crash that wipes it only makes ``actor`` announce more.  The
        receiver enforces the rule: a settled base assimilates
        nothing."""
        fanouts = self._fanouts.get(event.base)
        if fanouts:
            announce = Announce(event=event)
            known = [role.knowledge for role in actor.roles.values()]
            send, src = self.channel.send, actor.site
            for addressee in fanouts.values():
                if type(addressee) is not Fanout:
                    targets = (addressee,)
                elif addressee.monitor is None:
                    targets = addressee
                else:  # a monitor hears every occurrence it watches
                    send(src, addressee.site, "announce", announce, addressee)
                    continue
                for dst in targets:
                    base = dst.base
                    for knowledge in known:
                        if base in knowledge and not (
                            knowledge[base] & NOT_YET_MASK
                        ):
                            break  # dst has settled
                    else:  # dst may still decide: its site hears it
                        send(
                            src, addressee.site, "announce", announce,
                            addressee,
                        )
                        break
        # settlement waiters (agent-script ``after`` gates)
        for callback in self._waiters.pop(event.base, ()):
            callback()

    # ------------------------------------------------------------------
    # run-time workflow modification (Section 1: "declarative
    # primitives ... facilitate run-time modifications of workflows,
    # e.g., in response to exception conditions"; Section 6:
    # "cross-system dependencies can be removed")

    ADMIN_SITE = "admin"

    def _settled_sequence(self) -> list[Event]:
        return [entry.event for entry in self.result.entries]

    def add_dependency_runtime(self, dependency: Expr) -> bool:
        """Add a dependency mid-run.

        The dependency is residuated by the events that already
        occurred; the residual's guards are conjoined onto the
        affected roles via costed reconfiguration messages.  Returns
        False (and records a violation) when history has already
        violated the dependency -- the past cannot be enforced.
        """
        from repro.algebra.expressions import Zero
        from repro.algebra.residuation import residuate_trace
        from repro.temporal.guards import guard as synthesize_guard

        residual = residuate_trace(dependency, self._settled_sequence())
        if isinstance(residual, Zero):
            self.result.violations.append(
                Violation(
                    "retroactive",
                    f"{dependency!r} is already violated by the history; "
                    "not added",
                )
            )
            return False
        self.dependencies.append(dependency)
        self._sorted_bases_cache = None
        self._table = None
        self._crossing.clear()
        for event in sorted(residual.alphabet(), key=Event.sort_key):
            # an event new to the system starts unconstrained
            role = self.add_role(event)
            contribution = synthesize_guard(residual, event)
            self.subscribe(role, contribution.bases())
            # apply synchronously (an administrative operation must
            # not race in-flight attempts) but cost the message
            self.channel.send(
                self.ADMIN_SITE, role.site, "reconfigure",
                contribution, lambda _payload: None,
            )
            role.strengthen_guard(contribution)
        self._rebuild_monitors()
        return True

    def remove_dependency_runtime(self, dependency: Expr) -> bool:
        """Remove a dependency mid-run.

        Affected roles get recomputed guards (over the remaining
        dependencies, residuated by history); parked attempts that the
        removed dependency alone was blocking fire once the
        reconfiguration messages arrive.
        """
        from repro.algebra.expressions import Top
        from repro.algebra.residuation import residuate_trace
        from repro.temporal.guards import guard as synthesize_guard, guard_and

        if dependency not in self.dependencies:
            return False
        self.dependencies.remove(dependency)
        self._sorted_bases_cache = None
        self._table = None
        self._crossing.clear()
        settled = self._settled_sequence()
        residuals = [
            residuate_trace(dep, settled) for dep in self.dependencies
        ]
        for event in sorted(dependency.alphabet(), key=Event.sort_key):
            role = self.role(event)
            if role is None:
                continue
            relevant = [
                r
                for dep, r in zip(self.dependencies, residuals)
                if event.base in dep.bases() and not isinstance(r, Top)
            ]
            new_guard = guard_and(
                synthesize_guard(r, event) for r in relevant
            ) if relevant else TRUE_GUARD  # Zero residuals yield G=0
            self.channel.send(
                self.ADMIN_SITE, role.site, "reconfigure",
                new_guard, lambda _payload: None,
            )
            role.replace_guard(new_guard)
        self._rebuild_monitors()
        return True

    def _rebuild_monitors(self) -> None:
        """Recreate requirement monitors after a modification and
        replay the settled history into them."""
        for monitor in self._monitors:
            self._watch(monitor.site, _watched(monitor.dependencies), None)
        self._monitors = []
        self._build_monitors()
        for monitor in self._monitors:
            for event in self._settled_sequence():
                monitor.observe(event)

    # ------------------------------------------------------------------
    # crash recovery (see repro.sim.faults for the fault model)

    def _site_actors(self, site: str) -> list[BaseActor]:
        return [a for a in self._sorted_actors() if a.site == site]

    def _crash_site(self, site: str) -> None:
        """Crash hook: the site's actors lose their volatile state."""
        for actor in self._site_actors(site):
            actor.crash_reset()

    def _recover_site(self, site: str) -> None:
        """Restart hook: run the recovery protocol for the site.

        Each unsettled role re-learns the durable settlement facts its
        guard depends on (sync round); the roles that may be awaiting a
        certificate from a restarted base abort that round
        (:class:`Recovered` broadcast); the site's requirement monitors
        are rebuilt and resynced from the actors' durable logs.
        Recovery latency is measured from here until the last sync
        reply for the site arrives.
        """
        self._recovering[site] = {"started": self.sim.now, "outstanding": 0}
        self.tracer.sync(self.sim.now, site, "begin")
        with span(self.profiler, "sync_round", site=site):
            self._recover_site_body(site)

    def _recover_site_body(self, site: str) -> None:
        restarted = self._site_actors(site)
        for actor in restarted:
            actor.recover()
        for actor in restarted:
            # settled bases are broadcast too: a peer may be mid-round
            # on this base with its reply lost in the crash.  The
            # settlement announcement may have died with the crashed
            # site's sender state: re-announce it (idempotent at every
            # receiver), in session order before Recovered
            for addressee in self._fanouts.get(actor.base, {}).values():
                for dst in members(addressee):
                    if actor.settled is not None:
                        self._send(actor, dst, Announce(event=actor.settled))
                    self._send(actor, dst, Recovered(base=actor.base))
        self._recover_monitors(site)
        record = self._recovering.get(site)
        if record is not None and record["outstanding"] <= 0:
            # nothing to resync: recovery is instantaneous
            self._finish_recovery(site, record)

    def _finish_recovery(self, site: str, record: dict) -> None:
        latency = self.sim.now - record["started"]
        del self._recovering[site]
        self.metrics.observe("recovery_latency", latency, site=site)
        self.tracer.sync(self.sim.now, site, "complete", latency=latency)

    def send_sync(self, requester: Role, base: Event) -> None:
        """Route a recovery :class:`SyncRequest` to ``base``'s actor."""
        record = self._recovering.get(requester.site)
        if record is not None:
            record["outstanding"] += 1
        self.send_to_actor(
            requester, base,
            SyncRequest(base=base, requester=requester.event),
        )

    def note_sync_reply(self, requester: Event) -> None:
        """A sync reply landed; close out the site's recovery window."""
        site = self.site_of(requester.base)
        self.tracer.sync(self.sim.now, site, "reply", event=requester)
        record = self._recovering.get(site)
        if record is None:
            return
        record["outstanding"] -= 1
        if record["outstanding"] <= 0:
            self._finish_recovery(site, record)

    def _recover_monitors(self, site: str) -> None:
        for index, monitor in enumerate(self._monitors):
            if monitor.site != site:
                continue
            deps = monitor.dependencies
            fresh = self._new_monitor(site, deps, monitor.triggerable)
            self._monitors[index] = fresh
            self._watch(site, _watched(deps), fresh)
            self._resync_monitor(site, fresh, deps)

    def _resync_monitor(
        self, site: str, monitor: RequirementMonitor, deps: list[Expr]
    ) -> None:
        """Replay the settled history into a rebuilt monitor.

        One sync round-trip per base it watches; replies carry the
        occurrence *index* so the replay preserves trace order even
        though replies from different coordinators interleave.
        """
        targets = sorted(
            {b for dep in deps for b in dep.bases()}, key=Event.sort_key
        )
        if not targets:
            monitor.evaluate()
            return
        state: dict = {"waiting": len(targets), "facts": []}

        def finish() -> None:
            with span(self.profiler, "monitor_sync", site=site):
                for _index, event in sorted(
                    state["facts"], key=lambda f: f[0]
                ):
                    monitor.observe(event)
                monitor.evaluate()

        def on_reply(payload) -> None:
            state["waiting"] -= 1
            if payload is not None:
                state["facts"].append(payload)
            if state["waiting"] == 0:
                finish()

        for base in targets:
            coordinator_site = self.site_of(base)

            def serve(_query, b=base, coord=coordinator_site) -> None:
                # runs at the coordinator: consult its durable
                # settlement log for the base
                signed = self._settled.get(b.base)
                payload = None
                if signed is not None:
                    index = next(
                        i
                        for i, entry in enumerate(self.result.entries)
                        if entry.event == signed
                    )
                    payload = (index, signed)
                self.channel.send(coord, site, SyncReply.kind, payload, on_reply)

            self.channel.send(
                site, coordinator_site, SyncRequest.kind, base, serve
            )

    def metrics_report(self) -> dict:
        """:meth:`RunBase.metrics_report` plus what only this scheduler
        has: its own kernel counters, sampled series, fault counts."""
        report = super().metrics_report()
        report["kernel"]["watch"] = self.watch.counts()
        report["kernel"]["compiled"] = self.compiled.counts()
        report["kernel"]["synthesis"] = dict(
            report["kernel"]["synthesis"], **self._shape_lookups
        )
        if self.timeseries is not None:
            report["timeseries"] = self.timeseries.as_dict()
        if self.faults is not None:
            report["faults"] = {
                "crashes": self.faults.crash_count,
                "restarts": self.faults.restart_count,
            }
        return report

    # ------------------------------------------------------------------
    # observability: decision provenance and global snapshots

    def explain(self, event: Event) -> Explanation:
        """Why is ``event`` in the state it is in?

        Classifies every literal of the event's guard against its
        role's current knowledge, names the announcements/promises that
        justified the satisfied literals, and -- for a parked event --
        computes minimal sets of future announcements that would let
        it fire.  Built on demand: an undisturbed run pays nothing.
        """
        role = self.role(event)
        if role is None:
            raise KeyError(
                f"no actor for {event!r}; is it in the workflow alphabet?"
            )
        return explain_actor(self, role)

    def snapshot_sites(self) -> list[str]:
        """Every site a snapshot reads."""
        sites = {a.site for a in self.actors.values()}
        sites.update(monitor.site for monitor in self._monitors)
        return sorted(sites)

    def site_state(self, site: str) -> dict:
        """JSON-ready local state of ``site`` for a snapshot record:
        its actors' roles, which of its bases are settled/frozen, its
        parked attempts, and its requirement monitors."""
        local_actors = self._site_actors(site)
        roles = [r for actor in local_actors for r in actor.roles.values()]
        return {
            "actors": {repr(r.event): r.snapshot_state() for r in roles},
            "parked": sorted(
                repr(r.event) for r in roles if r.event in self._parked_at
            ),
            "frozen": {
                repr(actor.base): sorted(
                    f"{holder!r}#{round_id}"
                    for holder, round_id in actor.frozen
                )
                for actor in local_actors
                if actor.frozen
            },
            "settled": {
                repr(actor.base): repr(actor.settled)
                for actor in local_actors
                if actor.settled is not None
            },
            "monitors": [
                monitor.snapshot_state()
                for monitor in self._monitors
                if monitor.site == site
            ],
        }

    def snapshot(self) -> Snapshot:
        """Read a consistent global snapshot of the run now and keep it
        in :attr:`snapshots`.  Reading runs and sends nothing."""
        return self._cut(self.sim.now)

    def _cut(self, t: float) -> Snapshot:
        snap = Snapshot(self, len(self.snapshots) + 1, t)
        self.snapshots.append(snap)
        return snap

    def schedule_snapshots(self, every: float) -> None:
        """Snapshot at every ``every``-unit boundary of virtual time,
        between simulator steps (:meth:`Simulator.sample_every`),
        skipping a boundary when no event fired since the last cut."""
        last = self.sim.processed

        def cut(t: float) -> None:
            nonlocal last
            if self.sim.processed != last:
                last = self.sim.processed
                self._cut(t)

        self.sim.sample_every(every, cut)

    # ------------------------------------------------------------------
    # observability: sampled time series

    def enable_timeseries(self, every: float) -> TimeSeriesRegistry:
        """Sample telemetry gauges every ``every`` units of sim time.

        Series: parked events, session-layer channel backlog,
        network-level in-flight messages, live simulator entries, and
        per-interval deltas of fires and messages.  Sampling
        piggybacks on the simulator's clock advance
        (:meth:`Simulator.sample_every`): it is read-only, adds no
        simulator entries, and never changes the makespan or message
        streams; :meth:`run` takes one closing sample at quiescence so
        the series end at the final state.
        """
        if self.timeseries is None:
            self.timeseries = TimeSeriesRegistry(interval=every)
            self.sim.sample_every(every, self._sample)
        return self.timeseries

    def _session_backlog(self) -> int:
        """Unacknowledged session-layer payloads (0 on a raw channel)."""
        return self.channel.in_flight() if self.reliable else 0

    def _sample(self, t: float) -> None:
        ts = self.timeseries
        ts.record("parked_events", t, len(self._parked_at))
        ts.record("channel_backlog", t, self._session_backlog())
        ts.record("inflight_messages", t, self.network.inflight)
        ts.record("sim_pending", t, self.sim.pending)
        ts.record_total("fires_per_interval", t, len(self._settled))
        ts.record_total(
            "messages_per_interval", t, self.network.stats.messages
        )

    # ------------------------------------------------------------------
    # driving a run

    def attempt(self, event: Event) -> None:
        role = self.role(event)
        if role is None:
            raise KeyError(f"no actor for {event!r}; is it in the workflow alphabet?")
        if self.faults is not None and self.faults.is_down(role.site):
            restart = self.faults.restart_time(role.site)
            if restart is not None:
                # the task agent retries once its site is back up; a
                # permanently-failed site simply loses the attempt
                self.sim.schedule_at(restart, self.attempt, event)
            return
        role.attempt(self.sim.now)

    def start(self, scripts: Iterable[AgentScript] = ()) -> None:
        """Lifecycle step 1: schedule the scripts, arm the fault plan,
        and give every requirement monitor its initial evaluation.
        Nothing moves until the caller runs the simulator."""
        super().start(scripts)
        if self.faults is not None:
            self.faults.arm()
        for monitor in self._monitors:
            monitor.evaluate()

    def finish(self, verify: bool = True) -> ExecutionResult:
        """Lifecycle step 3: the closing time-series sample, the
        messages the session layer lost and the promises nobody kept,
        then :meth:`RunBase.finish`."""
        if self.timeseries is not None:
            # closing sample so the series end at the final state
            self._sample(self.sim.now)
        if self.reliable:
            for src, dst, kind, seq in self.channel.lost:
                self.result.violations.append(
                    Violation(
                        "transport",
                        f"{kind} #{seq} from {src} to {dst} was given up "
                        "on with its session's backlog, after the oldest "
                        "payload of the session went unanswered through "
                        f"{self.channel.max_retries} retransmissions",
                    )
                )
        for role in self.roles():
            if role.granted_to and role.status is not ActorStatus.OCCURRED:
                self.result.violations.append(
                    Violation(
                        "promise",
                        f"{role.event!r} promised occurrence but never occurred",
                    )
                )
        return super().finish(verify)

    def drain(self) -> None:
        """Lifecycle step 2: settle the quiescent scheduler until a
        round changes nothing -- the trace is maximal, or no base can
        make progress (:meth:`finish` names which).

        Each round sweeps orphan freezes, runs escalation to its
        fixpoint, and settles every eligible base in one batch, so that
        independent workflow instances wind down in parallel; the loop
        stops when a round neither swept nor attempted anything.  It
        needs no round budget, because every other round moves a
        bounded quantity that only grows:

        * a settlement round either settles a new base or adds its
          batch to ``_no_progress_bases``, and that set is cleared only
          on progress; ``_settled`` never shrinks, so with ``n`` bases
          fewer than ``(n + 1) ** 2`` settlement rounds run;
        * a sweep only releases freezes, and a freeze is taken only
          where a delivered certificate request is served, once per
          delivery.  A raw-network drop can orphan a freeze again after
          a sweep (its release is lost), but a run serves finitely many
          requests: an actor starts a round only on new knowledge (its
          masks only tighten) or on a newly escalated cube;
        * each escalation step adds a cube to an actor's
          ``_escalated_cubes``, which only crash and reconfiguration
          reset, and neither can occur after quiescence (a fault plan's
          crashes and restarts all lie behind the first ``sim.run()``),
          so :meth:`_escalation_rounds` reaches its fixpoint.

        The bounds are deterministic given that each ``sim.run()`` in
        between ends: the session layer gives up after ``max_retries``,
        and the raw fabric's copies of one send form a geometric chain
        (each copy is duplicated again with ``duplicate_probability``,
        which is < 1), finite with probability 1.
        """
        while True:
            swept = self._sweep_orphan_freezes()
            if swept:
                self.sim.run()
            self._escalation_rounds()
            batch = self._uncrossed(self._settlement_candidates())
            if not self._settle_round(batch) and not swept:
                return

    def _uncrossed(self, candidates: list[Event]) -> list[Event]:
        """The settlement batch: every candidate except the later ones,
        in base order, of each crossing group.

        A *crossing base* has both polarities in a static promise pair,
        two roles that each want the other's eventuality (the pairs
        :func:`~repro.workflows.compiler.compile_workflow` reports); a
        *crossing group* is a connected component of crossing bases
        under those pairs.  Two bases of one group settled in one batch
        can cross their grants: under ``a + b`` / ``~a + ~b``, with
        ``a`` parked on ``<>~b`` and ``b`` on ``<>~a``, ``~a`` and
        ``~b`` would each serve the other positive role's deferred
        request, and both ``a`` and ``b`` would fire.  One base per
        group per round lets the next round see what it decided."""
        groups = self._crossing
        batch, taken = [], set()
        for base in candidates:
            if base not in groups:
                self._find_crossing_group(base)
            group = groups[base]
            if group is not None:
                if group in taken:
                    continue
                taken.add(group)
            batch.append(base)
        return batch

    def _find_crossing_group(self, base: Event) -> None:
        """Enter ``base`` in ``_crossing``, and with it every base its
        search meets: a crossing group under one of its members, None
        for a base that is not crossing."""
        table = self._table
        if table is None:
            table = self._table = workflow_bindings(self.dependencies)
        wants: dict[Event, list[Event]] = {}

        def wanted(event: Event) -> list[Event]:
            found = wants.get(event)
            if found is None:
                entry = table.get(event)
                found = wants[event] = (
                    [] if entry is None else promise_wants(entry, event)
                )
            return found

        def mates(member: Event) -> list[Event] | None:
            """The bases paired with ``member``, or None unless both of
            its polarities are paired."""
            found = []
            for event in (member, member.complement):
                paired = [t.base for t in wanted(event) if event in wanted(t)]
                if not paired:
                    return None
                found += paired
            return found

        crossing, stack = self._crossing, [base]
        while stack:
            other = stack.pop()
            if other not in crossing:
                found = mates(other)
                crossing[other] = None if found is None else base
                stack += found or ()

    def _sweep_orphan_freezes(self) -> bool:
        """Void freezes that no live round can ever release.

        At quiescence no message is in flight, so a freeze is released
        only by its requester's round concluding -- but the certificate
        (or the release) can be lost for good: the coordinator's reply
        dies with its site's sender session when that site crashes, or
        retransmission gives up.  The requester then never learns it
        holds the freeze, and the base stays locked forever.  A freeze
        is provably orphaned when its requester has no active round
        with the recorded id (while that round is active, it holds or
        awaits the base); sweeping those is safe exactly because
        nothing is in flight that could still release them.  Returns
        True when anything was released.
        """
        released = False
        for actor in self._sorted_actors():
            if not actor.frozen:
                continue

            def orphaned(holder: tuple[Event, int]) -> bool:
                requester, round_id = holder
                role = self.role(requester)
                return not role.round_active or role.round_id != round_id

            victims = {h for h in actor.frozen if orphaned(h)}
            if victims:
                released = True
                self.metrics.inc(
                    "orphan_freezes_released", len(victims), site=actor.site
                )
                actor.release_holds(lambda h: h in victims)
        return released

    def _escalation_rounds(self) -> None:
        """At quiescence, let parked actors demand promises (which may
        trigger idle triggerable events) before anything is settled
        negatively.  One cube of one actor per round, so cheap
        alternatives resolve before anything gets triggered; any
        progress restarts the scan, until no actor issues a demand."""
        while True:
            parked = [
                role
                for actor in self._sorted_actors()
                for role in actor.roles.values()
                if role.status is ActorStatus.PENDING
            ]
            # every parked role demands one further cube; batching
            # keeps independent workflow instances parallel
            issued = False
            for role in parked:
                issued = role.escalate() or issued
            if not issued:
                return
            self.sim.run()

    def _settle(self, base: Event) -> None:
        """Settlement attempts the complement, if it has a role."""
        if self.role(base.complement) is not None:
            self.attempt(base.complement)


def _watched(deps: Iterable[Expr]) -> set[Event]:
    """The bases a monitor of ``deps`` hears."""
    return {base for dep in deps for base in dep.bases()}
