"""Coordinated execution of coupled shards (the cross-shard engine).

:func:`repro.scale.shards.run_sharded` keeps treating *independent*
shards exactly as before: one process each, private simulators, no
communication.  Shards coupled by spanning cross dependencies (the
partition plan's ``groups``) cannot run that way -- a guard on one
shard waits on announcements from another -- so each coupled group
runs here instead: every member shard keeps its own
:class:`DistributedScheduler`, network, metrics, and trace, but all of
them share **one** virtual clock (:class:`~repro.sim.clock.Simulator`)
and exchange traffic through a :class:`ShardGateway`.

The gateway is the only inter-shard path.  It owns a dedicated
network whose sites are the shards themselves, wrapped in the
exactly-once FIFO session layer (:class:`~repro.sim.reliable.
ReliableNetwork`) -- the same machinery intra-shard protocol traffic
uses under ``reliable=True`` -- so drops and duplicates on the
cross-shard channel are retransmitted and deduplicated before
delivery, and receiver-side settlement dedup
(:meth:`DistributedScheduler.observe_remote`) makes even raw-fabric
redelivery idempotent.  Announcements route along the egress tables
derived from the receivers' subscription indexes (which the
partitioner predicted from the same guard tables); certificate-round
traffic (promise/not-yet/release) routes point-to-point to the
owning shard's coordinator actor.

Determinism: the shared simulator orders same-time deliveries by
insertion, schedulers are constructed and drained in shard order, and
the gateway channel draws from its own seeded RNG stream -- so a
group run is a pure function of its task list, independent of worker
count or wall-clock interleaving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, satisfies
from repro.obs.profile import Profiler
from repro.obs.tracer import Tracer
from repro.scale.shards import ShardOutcome, ShardTask, _flatten_outcome
from repro.scheduler.events import Violation
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.clock import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.sim.reliable import ReliableNetwork


class ShardGateway:
    """The inter-shard transport and routing table of one group.

    Shards register with their schedulers; :meth:`finalize` then
    derives the egress tables (who must hear which base settle) from
    the registered subscription indexes.  At run time the scheduler
    hooks call :meth:`announce_from` on every local settlement and
    :meth:`route` / :meth:`route_base` for protocol messages whose
    target actor is not local.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        latency: float | None = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ):
        self.sim = sim
        self.network = Network(
            sim,
            latency=(
                ConstantLatency(latency) if latency is not None else None
            ),
            rng=rng,
            drop_probability=drop_probability,
            duplicate_probability=duplicate_probability,
        )
        # exactly-once FIFO sessions over the (possibly lossy) fabric
        self.channel = ReliableNetwork(self.network)
        self._members: list[tuple[int, DistributedScheduler]] = []
        self._shard_of: dict[int, int] = {}  # id(sched) -> shard
        self._owner: dict[Event, tuple[int, DistributedScheduler]] = {}
        #: base -> [(shard, scheduler)] that must hear it settle
        self._egress: dict[Event, list[tuple[int, DistributedScheduler]]] = {}
        self.routed_announcements = 0

    @staticmethod
    def site(shard: int) -> str:
        return f"shard{shard}"

    def register(self, shard: int, sched: DistributedScheduler) -> None:
        self._members.append((shard, sched))
        self._shard_of[id(sched)] = shard
        for base in sched._owned or ():
            self._owner[base] = (shard, sched)

    def finalize(self) -> None:
        """Derive egress from the receivers' subscription indexes.

        A shard listens to a base when some local guard mentions it
        (``_subscribers``) or a requirement monitor watches it
        (``_monitor_subs``); every listened-to base owned elsewhere
        becomes an egress entry at its owner.  Iteration is in shard
        order, so the tables -- and hence the delivery order of a
        multi-subscriber announcement -- are deterministic.
        """
        for shard, sched in self._members:
            listening = set(sched._subscribers) | set(sched._monitor_subs)
            for base in sorted(listening, key=Event.sort_key):
                if not sched._owns(base):
                    self._egress.setdefault(base.base, []).append(
                        (shard, sched)
                    )

    def egress_table(self) -> dict[Event, tuple[int, ...]]:
        return {
            base: tuple(shard for shard, _sched in subs)
            for base, subs in self._egress.items()
        }

    # -- run-time routing ------------------------------------------------

    def announce_from(self, sched: DistributedScheduler, event: Event) -> None:
        subscribers = self._egress.get(event.base, ())
        if not subscribers:
            return
        src = self.site(self._shard_of[id(sched)])
        for shard, dst in subscribers:
            self.routed_announcements += 1
            self.channel.send(
                src, self.site(shard), "announce", event, dst.observe_remote
            )

    def route(
        self,
        sched: DistributedScheduler,
        src_event: Event,
        dst_event: Event,
        message,
    ) -> None:
        owner = self._owner.get(dst_event.base)
        if owner is None:
            return
        shard, dst = owner
        src = self.site(self._shard_of[id(sched)])

        def deliver(msg, dst=dst, dst_event=dst_event) -> None:
            actor = dst.actors.get(dst_event)
            if actor is not None:
                dst._dispatch(actor, msg)

        self.channel.send(src, self.site(shard), message.kind, message, deliver)

    def route_base(
        self,
        sched: DistributedScheduler,
        src_event: Event,
        base: Event,
        message,
    ) -> None:
        owner = self._owner.get(base.base)
        if owner is None:
            return
        shard, dst = owner
        src = self.site(self._shard_of[id(sched)])

        def deliver(msg, dst=dst, base=base) -> None:
            coordinator = dst.actors.get(base.base)
            if coordinator is None:
                coordinator = dst.actors.get(base.base.complement)
            if coordinator is not None:
                dst._dispatch(coordinator, msg)

        self.channel.send(src, self.site(shard), message.kind, message, deliver)

    def find_actor(self, event: Event):
        """Look an actor up across the whole group (orphan sweeps)."""
        owner = self._owner.get(event.base)
        if owner is None:
            return None
        return owner[1].actors.get(event)


@dataclass
class GroupOutcome:
    """A coupled group's run: per-shard outcomes plus the gateway's
    channel accounting and any cross-dependency violations found on
    the merged timeline."""

    outcomes: list[ShardOutcome]
    cross_stats: dict
    cross_violations: list[tuple[str, str]]


def _build_member(
    task: ShardTask, sim: Simulator, gateway: ShardGateway
) -> tuple[DistributedScheduler, Tracer | None, Profiler | None, object]:
    """One shard's scheduler wired into the group (mirrors
    :func:`repro.scale.shards._run_shard` construction)."""
    profiler = Profiler() if task.profile else None
    template = task.build_template(profiler=profiler)
    merged, guards = template.instantiate_merged(
        [instance.suffix for instance in task.instances]
    )
    tracer = task.build_tracer()
    latency = (
        ConstantLatency(task.latency) if task.latency is not None else None
    )
    owned: set[Event] = set()
    for dep in merged.dependencies:
        owned |= dep.bases()
    owned |= {event.base for event in merged.attributes}
    owned |= {event.base for event in merged.sites}
    cross = [parse(text) for text in task.cross_dependencies]
    scheduler = DistributedScheduler(
        merged.dependencies,
        sites=merged.sites,
        attributes=merged.attributes,
        latency=latency,
        rng=random.Random(task.seed),
        guards=guards,
        reliable=task.reliable,
        batch_announcements=task.batch_announcements,
        tracer=tracer,
        profiler=profiler,
        sample_every=task.sample_every,
        sim=sim,
        owned=owned,
        cross_dependencies=cross,
        gateway=gateway,
    )
    gateway.register(task.shard, scheduler)
    return scheduler, tracer, profiler, template


def _drain_group(
    schedulers: Sequence[DistributedScheduler],
    sim: Simulator,
    max_rounds: int,
) -> bool:
    """The group form of ``DistributedScheduler._drain``.

    Each round sweeps orphan freezes, runs escalation, and attempts
    one settlement batch *per shard*; remote announcements between
    batches clear the peers' no-progress sets, so a base one shard
    could not settle is retried once another shard's settlement
    unblocks it.  Stops when no shard has anything left to try.
    Returns False when the round budget runs out (non-convergence).
    """
    for _ in range(max_rounds):
        swept = False
        for sched in schedulers:
            if sched._sweep_orphan_freezes():
                swept = True
        if swept:
            sim.run()
        for sched in schedulers:
            sched._escalation_rounds(max_rounds)
        attempted = False
        for sched in schedulers:
            if sched._settle_one():
                attempted = True
        if not attempted and not swept:
            return True
    return False


def _spanning_violations(
    tasks: Sequence[ShardTask], outcomes: Sequence[ShardOutcome]
) -> list[tuple[str, str]]:
    """Verify dependencies spanning shards on the merged timeline.

    Per-shard verification skipped them (each shard sees only its own
    entries); here the group's entries are merged in the same
    ``(time, shard, position)`` order ``run_sharded`` uses, so a
    passing check certifies exactly the trace the caller will see.
    """
    spanning: dict[str, object] = {}
    per_task: list[set[str]] = []
    for task in tasks:
        texts = set(task.cross_dependencies)
        per_task.append(texts)
        for text in texts:
            spanning.setdefault(text, parse(text))
    shared = {
        text: dep
        for text, dep in spanning.items()
        if sum(text in texts for texts in per_task) > 1
    }
    if not shared:
        return []
    tagged = []
    for index, outcome in enumerate(outcomes):
        for position, (event, time, _attempted, _op) in enumerate(
            outcome.entries
        ):
            tagged.append((time, index, position, event))
    tagged.sort(key=lambda item: item[:3])
    from repro.scale.shards import _event_from_repr

    timeline = Trace([_event_from_repr(text) for *_key, text in tagged])
    return [
        (
            "dependency",
            f"merged trace {timeline!r} violates spanning {dep!r}",
        )
        for text, dep in sorted(shared.items())
        if not satisfies(timeline, dep)
    ]


def run_group(tasks: Sequence[ShardTask], max_rounds: int = 1000) -> GroupOutcome:
    """Run one coupled group of shards to completion (one process).

    The group shares a single simulator; each member shard keeps its
    own scheduler and observability surfaces.  Cross-channel fault
    rates and latency are taken from the first task (the planner
    stamps them uniformly).
    """
    if not tasks:
        raise ValueError("run_group needs at least one task")
    tasks = sorted(tasks, key=lambda task: task.shard)
    sim = Simulator()
    lead = tasks[0]
    from repro.scale.shards import shard_seed

    gateway = ShardGateway(
        sim,
        # a dedicated stream, disjoint from every shard's own seed
        rng=random.Random(shard_seed(lead.seed, 1 << 20)),
        latency=lead.latency,
        drop_probability=lead.cross_drop,
        duplicate_probability=lead.cross_dup,
    )
    members = [_build_member(task, sim, gateway) for task in tasks]
    gateway.finalize()

    for task, (scheduler, _tracer, _profiler, _template) in zip(tasks, members):
        for instance in task.instances:
            for spec in instance.scripts:
                scheduler.schedule_script(spec.build())
        if scheduler.faults is not None:
            scheduler.faults.arm()
        for _site, monitor in scheduler._monitors:
            monitor.evaluate()
    sim.run()
    schedulers = [scheduler for scheduler, *_rest in members]
    converged = True
    if lead.settle:
        converged = _drain_group(schedulers, sim, max_rounds)
    outcomes = []
    for task, (scheduler, tracer, profiler, template) in zip(tasks, members):
        if scheduler.timeseries is not None:
            scheduler._sample(sim.now)
        scheduler._finalize(verify=True)
        if not converged:
            scheduler.result.violations.append(
                Violation("settlement", "group settlement did not converge")
            )
        outcomes.append(
            _flatten_outcome(task, scheduler, tracer, profiler, template)
        )
    # the spanning check is the group's share of post-run verification;
    # it is charged to the lead shard's profile so merged shard
    # profiles account for it
    lead_profiler = members[0][2]
    if lead_profiler is not None:
        lead_profiler.push("verify")
        try:
            cross_violations = _spanning_violations(tasks, outcomes)
        finally:
            lead_profiler.pop()
        outcomes[0] = replace(outcomes[0], profile=lead_profiler.report())
    else:
        cross_violations = _spanning_violations(tasks, outcomes)
    return GroupOutcome(
        outcomes=outcomes,
        cross_stats=gateway.network.stats.as_dict(),
        cross_violations=cross_violations,
    )
