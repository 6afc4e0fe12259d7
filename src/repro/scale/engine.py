"""The shard runner: one work item of a sharded run, start to finish.

:func:`run_group` executes every work item :func:`repro.scale.shards.
run_sharded` hands out.  Each member shard keeps its own
:class:`DistributedScheduler`, network, metrics, and trace; all members
share **one** virtual clock (:class:`~repro.sim.clock.Simulator`) and
walk the one run lifecycle (``start`` -> ``drain`` -> ``finish``, see
:mod:`repro.scheduler.guard_scheduler`) together.  An independent
shard is simply a group of one.  Shards coupled by spanning cross
dependencies (the partition plan's ``groups``) -- a guard on one shard
waits on announcements from another -- additionally exchange traffic
through a :class:`ShardGateway`.

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
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, unsatisfied
from repro.obs.profile import Profiler
from repro.obs.tracer import Tracer
from repro.scale.shards import (
    ShardOutcome,
    ShardTask,
    _event_from_repr,
    _flatten_outcome,
    shard_seed,
)
from repro.scheduler.guard_scheduler import DistributedScheduler, drain
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
    task: ShardTask, sim: Simulator, gateway: ShardGateway | None
) -> tuple[DistributedScheduler, Tracer | None, Profiler | None, object]:
    """Build one shard's scheduler on ``sim`` -- the only place
    :mod:`repro.scale` constructs one.

    With a ``gateway`` the member owns just its shard's bases and
    registers for routing.  A lone shard gets neither: it owns every
    base it knows, and its cross dependencies (all local, or the
    planner would have grouped it) are enforced and verified exactly
    like workflow dependencies.
    """
    profiler = Profiler() if task.profile else None
    template = task.build_template(profiler=profiler)
    merged, guards = template.instantiate_merged(
        [instance.suffix for instance in task.instances]
    )
    tracer = task.build_tracer()
    owned: set[Event] | None = None
    if gateway is not None:
        owned = set()
        for dep in merged.dependencies:
            owned |= dep.bases()
        owned |= {event.base for event in merged.attributes}
        owned |= {event.base for event in merged.sites}
    scheduler = DistributedScheduler(
        merged.dependencies,
        sites=merged.sites,
        attributes=merged.attributes,
        latency=(
            ConstantLatency(task.latency) if task.latency is not None else None
        ),
        rng=random.Random(task.seed),
        guards=guards,
        reliable=task.reliable,
        batch_announcements=task.batch_announcements,
        tracer=tracer,
        profiler=profiler,
        sample_every=task.sample_every,
        sim=sim,
        owned=owned,
        cross_dependencies=[parse(text) for text in task.cross_dependencies],
        gateway=gateway,
    )
    if gateway is not None:
        gateway.register(task.shard, scheduler)
    return scheduler, tracer, profiler, template


def _spanning_violations(
    tasks: Sequence[ShardTask], outcomes: Sequence[ShardOutcome]
) -> list[tuple[str, str]]:
    """Verify dependencies spanning shards on the merged timeline.

    Per-shard verification skipped them (each shard sees only its own
    entries); here the group's entries are merged in the same
    ``(time, shard, position)`` order ``run_sharded`` uses, so a
    passing check certifies exactly the trace the caller will see.
    """
    carriers = Counter(
        text for task in tasks for text in set(task.cross_dependencies)
    )
    shared = [parse(text) for text in sorted(carriers) if carriers[text] > 1]
    if not shared:
        return []
    tagged = []
    for index, outcome in enumerate(outcomes):
        for position, (event, time, _attempted, _op) in enumerate(
            outcome.entries
        ):
            tagged.append((time, index, position, event))
    tagged.sort(key=lambda item: item[:3])
    timeline = Trace([_event_from_repr(text) for *_key, text in tagged])
    return [
        (
            "dependency",
            f"merged trace {timeline!r} violates spanning {dep!r}",
        )
        for dep in unsatisfied(timeline, shared)
    ]


def run_group(tasks: Sequence[ShardTask], max_rounds: int = 1000) -> GroupOutcome:
    """Run one work item -- a lone shard or a coupled group -- to
    completion in this process: the only shard runner.

    Members share a single simulator; each keeps its own scheduler and
    observability surfaces, and all of them walk the one run lifecycle
    of :mod:`repro.scheduler.guard_scheduler` together (``start`` each,
    run the clock, ``drain`` all, ``finish`` each).  A group of two or
    more gets a :class:`ShardGateway` (its fault rates and latency come
    from the first task -- the planner stamps them uniformly) and the
    spanning check on the merged timeline; a lone shard needs neither.
    """
    if not tasks:
        raise ValueError("run_group needs at least one task")
    tasks = sorted(tasks, key=lambda task: task.shard)
    sim = Simulator()
    lead = tasks[0]
    gateway = None
    if len(tasks) > 1:
        gateway = ShardGateway(
            sim,
            # a dedicated stream, disjoint from every shard's own seed
            rng=random.Random(shard_seed(lead.seed, 1 << 20)),
            latency=lead.latency,
            drop_probability=lead.cross_drop,
            duplicate_probability=lead.cross_dup,
        )
    members = [_build_member(task, sim, gateway) for task in tasks]
    if gateway is not None:
        gateway.finalize()
    schedulers = [scheduler for scheduler, *_rest in members]
    for task, scheduler in zip(tasks, schedulers):
        scheduler.start(
            spec.build()
            for instance in task.instances
            for spec in instance.scripts
        )
    sim.run()
    converged = not lead.settle or drain(schedulers, sim, max_rounds)
    outcomes = []
    for task, member in zip(tasks, members):
        member[0].finish(verify=True, converged=converged)
        outcomes.append(_flatten_outcome(task, *member))
    if gateway is None:
        return GroupOutcome(outcomes, cross_stats={}, cross_violations=[])
    # the spanning check is the group's share of post-run verification;
    # it is charged to the lead shard's profile so merged shard
    # profiles account for it
    lead_profiler = members[0][2]
    if lead_profiler is not None:
        lead_profiler.push("verify")
    cross_violations = _spanning_violations(tasks, outcomes)
    if lead_profiler is not None:
        lead_profiler.pop()
        outcomes[0] = replace(outcomes[0], profile=lead_profiler.report())
    return GroupOutcome(
        outcomes=outcomes,
        cross_stats=gateway.network.stats.as_dict(),
        cross_violations=cross_violations,
    )
