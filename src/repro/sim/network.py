"""Simulated network: sites, latency models, and message accounting.

The fabric carries *site-to-site transmissions*: a message between two
sites incurs a latency drawn from a :class:`LatencyModel`, may be
dropped or duplicated, and is what the message counts and the journal
hold -- the paper's cost measure.  A send from a site to itself is a
*hand-off* (an actor talking to a colocated actor or task agent): one
simulator step at the same instant, FIFO with the site's other
hand-offs, counted only in :attr:`NetworkStats.intra_site`.  A site
may also declare a *service time*: transmissions addressed to it queue
and are handled one at a time, which is how the centralized
schedulers' bottleneck node is modeled (the distributed scheduler
spreads its actors over many sites, so no single queue forms).

All delivery is FIFO per (source, destination) pair -- latencies are
sampled once per message and a per-pair high-water mark, kept by
source and then by destination, enforces ordering, matching TCP-like
channels, which the paper's message protocols implicitly assume.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from math import inf
from typing import Any, Callable

from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import Simulator

#: Every message kind that legitimately crosses the fabric: the
#: scheduler protocol messages (repro.scheduler.messages), the
#: reliable-session acks, runtime reconfiguration, and the generic
#: ``msg`` kind reserved for diagnostics and tests.
KNOWN_KINDS = frozenset({
    "announce",
    "promise_request",
    "promise_grant",
    "not_yet_request",
    "not_yet_reply",
    "release",
    "sync_request",
    "sync_reply",
    "recovered",
    "attempt",
    "decision",
    "trigger",
    "ack",
    "reconfigure",
    "msg",
})


class LatencyModel:
    """Base class: returns a latency sample for a (src, dst) pair."""

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every inter-site message takes exactly ``delay`` time units."""

    def __init__(self, delay: float):
        if not 0 <= delay < inf:
            raise ValueError(
                f"latency must be finite and nonnegative: {delay}"
            )
        self.delay = float(delay)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Latency uniform in ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low > high:
            raise ValueError("low must not exceed high")
        if not 0 <= low <= high < inf:
            raise ValueError(
                f"latency must be finite and nonnegative: [{low}, {high}]"
            )
        self.low, self.high = float(low), float(high)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return rng.uniform(self.low, self.high)


class ExponentialLatency(LatencyModel):
    """Latency exponentially distributed with the given mean."""

    def __init__(self, mean: float):
        if not 0 <= mean < inf:
            raise ValueError(
                f"mean latency must be finite and nonnegative: {mean}"
            )
        self.mean = float(mean)

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return rng.expovariate(1.0 / self.mean) if self.mean > 0 else 0.0


@dataclass
class NetworkStats:
    """Message accounting, exposed to the benchmarks: ``messages``,
    ``by_kind`` and ``per_site_handled`` count site-to-site
    transmissions, ``intra_site`` the hand-offs within a site."""

    messages: int = 0
    intra_site: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    per_site_handled: dict[str, int] = field(default_factory=dict)
    total_latency: float = 0.0
    max_queue_wait: float = 0.0
    dropped: int = 0
    duplicated: int = 0
    # -- reliable session layer (repro.sim.reliable) --
    retransmits: int = 0        # payload re-sends after a timeout
    retransmits_by_kind: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    retransmit_giveups: int = 0  # messages abandoned after max retries
    acks_sent: int = 0
    dedup_discards: int = 0     # receiver-side duplicate suppressions
    # -- fault injection (repro.sim.faults) --
    crash_lost: int = 0         # deliveries into a crashed site
    stale_session: int = 0      # arrivals from a pre-restart session
    session_resets: int = 0     # channel resets performed at restarts

    def fresh_payloads(self) -> int:
        """Application payloads sent for the first time: total traffic
        minus acks and re-sends."""
        return self.messages - self.by_kind.get("ack", 0) - self.retransmits

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of all counters (for metrics reports)."""
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(self).items()
        }


class Network:
    """Message fabric over a :class:`Simulator`.

    One transmission is one flat simulator entry: :meth:`send` draws
    its fate, does its accounting and queues ``(seq, _deliver, src,
    dst, kind, payload, handler, stamp)`` at ``deliver_at``, where
    ``_deliver`` is bound once, at construction; when it fires,
    :meth:`_deliver` runs ``handler(payload)``.  No function object is
    built per message: a protocol handler is the receiving actor or
    role itself (it is callable), so the path from ``send`` to the
    handler is the simulator's run loop, ``_deliver`` and the handler.
    A constant-latency fan-out lands in one instant's FIFO.  A hand-off
    (``src == dst``) is the same entry at the current instant: the step
    it has always been, behind every entry queued at that instant, with
    none of a transmission's fate, accounting, journal row or FIFO
    state (the simulator already fires one instant's entries in send
    order).  A delivered transmission leaves only numbers and strings
    behind (journal atoms, a high-water mark, counts): no GC object.

    Parameters
    ----------
    sim:
        The driving simulator.
    latency:
        Model for inter-site latency (a hand-off takes none).
    rng:
        Seeded source of randomness; determinism flows from here.
    service_times:
        Optional per-site service time: the site processes one
        transmission at a time, each occupying the site for the given
        duration.  This is the knob that makes a centralized scheduler
        node a measurable bottleneck.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        service_times: dict[str, float] | None = None,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        tracer=None,
        profiler=None,
    ):
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError("duplicate_probability must be in [0, 1)")
        for site, service in (service_times or {}).items():
            if service < 0:
                raise ValueError(f"negative service time at {site}: {service}")
        self.sim = sim
        self.latency = latency or ConstantLatency(1.0)
        self.rng = rng or random.Random(0)
        self.service_times = dict(service_times or {})
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        #: where sends, receives, drops and duplicates are recorded
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: span profiler wrapping delivery handlers, if any
        self.profiler = profiler
        self.stats = NetworkStats()
        #: messages sent but not yet delivered, hand-offs included
        #: (drops never count); the time-series sampler reads this as
        #: a point-in-time gauge
        self.inflight = 0
        #: every transmission's send time, delivery time, src, dst and
        #: kind, flat and in send order: :attr:`journal` reads it as rows
        self._journal: list[float | str] = []
        #: src -> dst -> when the channel's latest transmission arrives
        self._fifo_high_water = defaultdict(dict)
        self._site_busy_until: dict[str, float] = {}
        #: bound once: every delivery entry holds this one object
        self._deliver = self._deliver

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        handler: Callable[[Any], None],
    ) -> None:
        """Deliver ``payload`` to ``handler`` after latency + queueing.

        With failure injection enabled, a transmission may be silently
        dropped or duplicated (a hand-off stays reliable: it models an
        in-process call).  A duplicate is sent again through this
        method, so it rolls drop and duplicate afresh: the copies of
        one send form a geometric chain, finite with probability 1
        because ``duplicate_probability`` < 1.  Drops/duplicates are
        counted in the stats so a run can report how much abuse it
        absorbed.
        """
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown message kind {kind!r}; known kinds: "
                f"{sorted(KNOWN_KINDS)}"
            )
        # per message: the fabric's records share this one test, and an
        # untraced, unprofiled send makes no observability call at all
        tracer = self.tracer
        traced = tracer.active
        stats = self.stats
        now = self.sim.now
        if src == dst:
            stats.intra_site += 1
            self.inflight += 1
            stamp = tracer.message_handoff(now, src, kind) if traced else None
            self.sim.schedule(
                0.0, self._deliver, src, dst, kind, payload, handler, stamp
            )
            return
        if self.drop_probability:
            if self.rng.random() < self.drop_probability:
                stats.dropped += 1
                if traced:
                    tracer.message_drop(now, src, dst, kind)
                return
        if self.duplicate_probability:
            if self.rng.random() < self.duplicate_probability:
                stats.duplicated += 1
                if traced:
                    tracer.message_dup(now, src, dst, kind)
                self.send(src, dst, kind, payload, handler)
        arrival = now + self.latency.sample(self.rng, src, dst)
        # FIFO per channel.
        high_water = self._fifo_high_water[src]
        if dst in high_water and high_water[dst] > arrival:
            arrival = high_water[dst]
        high_water[dst] = arrival
        # Service queue at the destination site.
        service = self.service_times.get(dst, 0.0)
        if service > 0.0:
            start = max(arrival, self._site_busy_until.get(dst, 0.0))
            self._site_busy_until[dst] = start + service
            stats.max_queue_wait = max(stats.max_queue_wait, start - arrival)
            deliver_at = start + service
        else:
            deliver_at = arrival
        stats.messages += 1
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        handled = stats.per_site_handled
        handled[dst] = handled.get(dst, 0) + 1
        stats.total_latency += deliver_at - now
        self._journal += (now, deliver_at, src, dst, kind)
        self.inflight += 1
        # the stamp of the physical transmission; the delivery records
        # its receive against the same message id and send stamp
        stamp = tracer.message_send(now, src, dst, kind) if traced else None
        self.sim.schedule_at(
            deliver_at, self._deliver, src, dst, kind, payload, handler, stamp
        )

    def _deliver(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        handler: Callable[[Any], None],
        stamp: tuple | None,
    ) -> None:
        """One message arrives: its receive record, then
        ``handler(payload)`` (in a ``delivery`` span when profiled)."""
        self.inflight -= 1
        if stamp is not None:
            self.tracer.message_recv(self.sim.now, src, dst, kind, *stamp)
        profiler = self.profiler
        if profiler is None:
            handler(payload)
            return
        profiler.push("delivery", site=dst)
        try:
            handler(payload)
        finally:
            profiler.pop()

    @property
    def journal(self) -> list[tuple[float, float, str, str, str]]:
        """Chronological record of every transmission, one ``(send_time,
        deliver_time, src, dst, kind)`` row each, built on each read --
        the raw material for message-sequence rendering and debugging."""
        atoms = iter(self._journal)
        return list(zip(atoms, atoms, atoms, atoms, atoms))

    def undelivered(self) -> list[tuple[str, str, str, Any]]:
        """``(src, dst, kind, payload)`` of every message sent and not
        yet delivered, hand-offs included, in delivery order: the
        :meth:`_deliver` entries of :meth:`Simulator.queued`."""
        deliver = self._deliver
        return [
            entry[3:7] for entry in self.sim.queued() if entry[2] is deliver
        ]

    def site_load(self) -> dict[str, int]:
        """Transmissions handled per site -- the bottleneck metric of
        SC1."""
        return dict(self.stats.per_site_handled)

    def max_site_load(self) -> int:
        handled = self.stats.per_site_handled
        return max(handled.values()) if handled else 0

