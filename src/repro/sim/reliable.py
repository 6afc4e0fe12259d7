"""Reliable exactly-once FIFO sessions over the lossy :class:`Network`.

The paper's message protocols (announcements, promises, not-yet
certificates) assume reliable FIFO channels; ``Network`` can drop and
duplicate messages and :mod:`repro.sim.faults` can crash whole sites.
This layer restores the assumed semantics the way real fabrics do --
with sequence numbers, cumulative acks, and timeout retransmission:

* every (src, dst) pair is a *session*: payloads carry a session epoch
  and a per-session sequence number;
* the receiver delivers strictly in sequence order, buffering
  out-of-order arrivals and discarding duplicates, and acknowledges
  once per session per instant, at its end and cumulatively (the
  highest in-order sequence delivered by then);
* the sender keeps one retransmission timer per session (RFC 6298
  §5), due ``timeout`` after its oldest unacknowledged payload last
  went out:

  - when it fires, that payload alone goes out again: a *probe*,
    whose cumulative ack answers the whole batch behind it;
  - an ack that advances the window re-arms the timer for the new
    oldest payload, and resends at once what went out before the last
    probe and is still unacknowledged: the receiver lacks it;
  - once the oldest payload has been probed ``max_retries`` times the
    whole backlog is given up (a bounded channel -- exhaustion is
    counted, never silent) and the session starts over under the next
    epoch, so later payloads do not queue behind the gap;

* a site restart re-establishes every session touching the site
  (``reset_site``): epochs bump so pre-crash straggler packets are
  discarded as stale, the crashed site's own sender/receiver state is
  wiped (it was volatile memory), and surviving peers re-enter their
  unacknowledged backlog into the fresh sessions, preserving send
  order.  Delivery across a restart is therefore *at-least-once*; the
  scheduler's message handlers are idempotent, and the actor recovery
  protocol and the scheduler's drain at quiescence make up for
  anything that was lost outright.

Within one session lifetime the layer gives exactly-once FIFO
delivery, which is what the actor protocols were written against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.faults import FaultInjector
from repro.sim.network import Network

ACK_KIND = "ack"


@dataclass(slots=True)
class _Pending:
    """Sender-side record of one unacknowledged payload: when it last
    went out, and how many times it went out again."""

    kind: str
    payload: Any
    handler: Callable[[Any], None]
    retries: int = 0
    sent: float = 0.0


class _Session:
    """All state of one ``(src, dst)`` channel, both ends: the sender's
    next sequence number, unacknowledged payloads by it, its
    retransmission timer and when that last probed, the receiver's next
    expected one, its out-of-order arrivals ``seq -> (payload,
    handler)`` and whether it owes an ack this instant."""

    __slots__ = (
        "epoch", "next_seq", "unacked", "timer", "probed", "expected",
        "buffer", "owed",
    )

    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch
        self.next_seq = 1
        self.unacked: dict[int, _Pending] = {}
        self.timer = 0
        self.probed = 0.0
        self.expected = 1
        self.buffer: dict[int, tuple[Any, Callable[[Any], None]]] = {}
        self.owed = False


class ReliableNetwork:
    """Session layer over a :class:`Network`; same ``send`` signature.

    A payload crosses the fabric as one packet, ``(key, epoch, seq,
    kind, payload, handler)``, handed to :meth:`_deliver`; an ack is
    ``(key, epoch, upto)`` to :meth:`_on_ack`, sent by the zero-delay
    simulator entry ``(_flush_ack, key, session)``, and a session's
    retransmission timer is the entry ``(_on_timeout, key)``.  The five
    handlers are bound once, at construction, so no function object is
    built per message or per timer.  Each ``(src, dst)`` channel is one
    :class:`_Session`, made on its first send.

    Parameters
    ----------
    network:
        The (possibly lossy) underlying fabric; its ``stats`` object
        also accounts for this layer's retransmissions and acks.
    faults:
        Optional crash injector: deliveries into a down site are lost
        (and retransmitted until the site returns or retries exhaust).
    """

    #: the retransmission timeout, a small multiple of the round trip:
    #: too small wastes duplicates, too large stretches recovery.  It
    #: does not back off: a lost ack makes a live peer look silent, and
    #: doubling toward it stretched the chaos sweep's makespan by 31 %
    timeout = 4.0
    #: probes of one oldest payload before its session's backlog is
    #: given up, ``(max_retries + 1) * timeout`` = 604 after it first
    #: went out; each give-up is recorded in
    #: ``stats.retransmit_giveups``.  Toward a site that is down for
    #: good that is the expected end (its bases end the run unsettled);
    #: any other give-up is a lost message, kept in :attr:`lost` for the
    #: scheduler to report as a violation.  A test that needs other
    #: values sets them on its own.
    max_retries = 150

    def __init__(self, network: Network, faults: FaultInjector | None = None):
        self.net = network
        self.sim = network.sim
        self.faults = faults
        self.stats = network.stats
        #: the stats' counters by field name, for :meth:`_note`
        self._counts = vars(self.stats)
        #: ``(src, dst, kind, seq)`` of every payload given up on
        #: although its destination was not down for good
        self.lost: list[tuple[str, str, str, int]] = []
        #: one session per (src, dst), replaced on ``reset_site``
        self._sessions: dict[tuple[str, str], _Session] = {}
        # bound once: the fabric's entries and the timers hold these
        self._deliver = self._deliver
        self._deliver_local = self._deliver_local
        self._on_timeout = self._on_timeout
        self._on_ack = self._on_ack
        self._flush_ack = self._flush_ack

    def _note(self, counter: str, site: str, op: str, **fields) -> None:
        """The session layer reports an event here and nowhere else:
        its :class:`NetworkStats` counter and, in a traced run, its
        ``session`` record at ``site``."""
        self._counts[counter] += 1
        tracer = self.net.tracer
        if tracer.active:
            tracer.session(self.sim.now, site, op, **fields)

    def _note_retransmit(
        self, key: tuple[str, str], seq: int, pending: _Pending
    ) -> None:
        src, dst = key
        self.stats.retransmits_by_kind[pending.kind] += 1
        self._note(
            "retransmits", src, "retransmit",
            dst=dst, kind=pending.kind, seq=seq, retry=pending.retries,
        )

    # ------------------------------------------------------------------
    # sending

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        handler: Callable[[Any], None],
    ) -> None:
        """Queue ``payload`` for exactly-once in-order delivery."""
        if self.faults is not None and self.faults.is_down(src):
            # a down site sends nothing; whatever state produced this
            # message is volatile and dies with the crash
            self._note("crash_lost", src, "crash_lost", dst=dst, kind=kind)
            return
        if src == dst:
            # a hand-off within the site, not a session transmission:
            # reliable by definition, but a down site executes nothing --
            # checked again at delivery, since the site may crash in
            # between (both ends die together; recovery rebuilds)
            self.net.send(
                src, dst, kind, (dst, kind, payload, handler),
                self._deliver_local,
            )
            return
        key = (src, dst)
        session = self._sessions.get(key)
        if session is None:
            session = self._sessions[key] = _Session()
        seq = session.next_seq
        session.next_seq = seq + 1
        pending = session.unacked[seq] = _Pending(kind, payload, handler)
        self._transmit(key, session.epoch, seq, pending)
        if len(session.unacked) == 1:
            session.timer = self.sim.schedule(
                self.timeout, self._on_timeout, key
            )

    def _transmit(
        self, key: tuple[str, str], epoch: int, seq: int, pending: _Pending
    ) -> None:
        """Put the payload on the fabric."""
        src, dst = key
        kind = pending.kind
        self.net.send(
            src, dst, kind,
            (key, epoch, seq, kind, pending.payload, pending.handler),
            self._deliver,
        )
        pending.sent = self.sim.now

    def _retransmit(
        self, key: tuple[str, str], session: _Session, seq: int,
        pending: _Pending,
    ) -> None:
        pending.retries += 1
        self._note_retransmit(key, seq, pending)
        profiler = self.net.profiler  # per message: no call unprofiled
        if profiler is not None:
            profiler.push("retransmit", site=key[0])
        try:
            self._transmit(key, session.epoch, seq, pending)
        finally:
            if profiler is not None:
                profiler.pop()

    def _on_timeout(self, key: tuple[str, str]) -> None:
        """The session's oldest payload went unanswered for ``timeout``:
        probe with it, or give the backlog up once its retries are
        spent.  An ack re-arms the timer and a reset cancels it, and a
        give-up arms none, so it fires for a current session's backlog."""
        if self.faults is not None and self.faults.is_down(key[0]):
            return  # our own site is down; restart wipes this state
        session = self._sessions[key]
        seq, pending = next(iter(session.unacked.items()))
        if pending.retries >= self.max_retries:
            # a fresh session: the receiver must not wait on the gap
            self._sessions[key] = _Session(session.epoch + 1)
            for seq, pending in session.unacked.items():
                self._give_up(key, seq, pending)
            return
        self._retransmit(key, session, seq, pending)
        session.probed = pending.sent
        session.timer = self.sim.schedule(self.timeout, self._on_timeout, key)

    def _give_up(self, key: tuple[str, str], seq: int, pending: _Pending) -> None:
        """Abandon ``pending``: counted, and kept in :attr:`lost` unless
        its destination is down for good."""
        src, dst = key
        self._note(
            "retransmit_giveups", src, "giveup",
            dst=dst, kind=pending.kind, seq=seq, retries=pending.retries,
        )
        faults = self.faults  # a site down for good: the expected end
        if faults is None or not faults.is_down(dst) or (
            faults.restart_time(dst) is not None
        ):
            self.lost.append((src, dst, pending.kind, seq))

    # ------------------------------------------------------------------
    # receiving

    def _deliver_local(self, packet: tuple) -> None:
        """A hand-off ``(site, kind, payload, handler)`` lands."""
        site, kind, payload, handler = packet
        if self.faults is not None and self.faults.is_down(site):
            self._note("crash_lost", site, "crash_lost", dst=site)
            return
        handler(payload)

    def _deliver(self, packet: tuple) -> None:
        """A payload packet ``(key, epoch, seq, kind, payload, handler)``
        arrives: dedup, release in sequence order, owe an ack."""
        key, epoch, seq, kind, payload, handler = packet
        src, dst = key
        if self.faults is not None and self.faults.is_down(dst):
            self._note(
                "crash_lost", dst, "crash_lost", src=src, kind=kind, seq=seq
            )
            return  # no ack: the sender keeps retransmitting
        session = self._sessions[key]
        if epoch != session.epoch:
            self._note(
                "stale_session", dst, "stale",
                src=src, kind=kind, seq=seq, epoch=epoch,
            )
            return  # pre-restart straggler
        expected = session.expected
        buffer = session.buffer
        if seq < expected or seq in buffer:
            self._note(
                "dedup_discards", dst, "dedup", src=src, kind=kind, seq=seq
            )
        elif seq > expected:
            buffer[seq] = (payload, handler)  # held until the gap fills
        else:
            session.expected = expected = seq + 1
            handler(payload)
            while expected in buffer:
                payload, handler = buffer.pop(expected)
                session.expected = expected = expected + 1
                handler(payload)
        # a duplicate owes one too: the ack it answers may have been lost
        if not session.owed:
            session.owed = True
            self.sim.schedule(0.0, self._flush_ack, key, session)

    def _flush_ack(self, key: tuple[str, str], session: _Session) -> None:
        """Send the one cumulative ack ``session`` owes this instant."""
        session.owed = False
        src, dst = key
        if self._sessions[key] is not session:
            return  # re-established since: the fresh epoch owes nothing
        if self.faults is not None and self.faults.is_down(dst):
            return  # the receiver crashed since: the sender retransmits
        self.stats.acks_sent += 1
        self.net.send(
            dst, src, ACK_KIND, (key, session.epoch, session.expected - 1),
            self._on_ack,
        )

    def _on_ack(self, packet: tuple) -> None:
        """An ack packet ``(key, epoch, upto)`` arrives at the sender."""
        key, epoch, upto = packet
        src, dst = key
        if self.faults is not None and self.faults.is_down(src):
            self._note(
                "crash_lost", src, "crash_lost",
                src=dst, kind=ACK_KIND, upto=upto,
            )
            return
        session = self._sessions[key]
        if epoch != session.epoch:
            self._note(
                "stale_session", src, "stale",
                src=dst, kind=ACK_KIND, upto=upto, epoch=epoch,
            )
            return
        unacked = session.unacked  # in seq order; a give-up leaves a gap
        first = next(iter(unacked), upto + 1)
        if first > upto:
            return  # it advances nothing
        self.sim.cancel(session.timer)
        for seq in range(first, upto + 1):
            unacked.pop(seq, None)
        if not unacked:
            return
        for seq, pending in unacked.items():
            if pending.sent < session.probed:
                # it went out before the last probe and this ack stops
                # short of it: the receiver lacks it, so it goes out now
                self._retransmit(key, session, seq, pending)
        session.timer = self.sim.schedule_at(
            next(iter(unacked.values())).sent + self.timeout,
            self._on_timeout, key,
        )

    # ------------------------------------------------------------------
    # crash recovery

    def reset_site(self, site: str) -> None:
        """Re-establish every session touching ``site`` after a restart.

        Each such session is replaced by a fresh one under the next
        epoch: the restarted site's own channel state is wiped
        (volatile memory), and surviving peers re-queue their
        unacknowledged backlog toward the site, in order, on the fresh
        session -- at-least-once delivery across the crash.
        """
        sessions = self._sessions
        keys = sorted(key for key in sessions if site in key)
        backlog: list[tuple[tuple[str, str], list[_Pending]]] = []
        for key in keys:
            old = sessions[key]
            sessions[key] = _Session(old.epoch + 1)
            self.sim.cancel(old.timer)
            if key[0] != site and old.unacked:
                # unacked holds its payloads in send (= seq) order
                backlog.append((key, list(old.unacked.values())))
        self._note(
            "session_resets", site, "reset", sessions=len(keys),
            requeued=sum(len(p) for _k, p in backlog),
        )
        for key, pendings in backlog:
            for pending in pendings:
                # re-sent under the seq the fresh session hands out next
                self._note_retransmit(key, sessions[key].next_seq, pending)
                self.send(*key, pending.kind, pending.payload, pending.handler)

    # ------------------------------------------------------------------
    # introspection (the time series and snapshots read these)

    def in_flight(self) -> int:
        """Unacknowledged payloads across all sessions."""
        return sum(len(s.unacked) for s in self._sessions.values())

    def undelivered(self) -> list[tuple[str, str, str, Any]]:
        """``(src, dst, kind, payload)`` of every payload sent and not
        yet handed to its handler, each once however many copies the
        fabric carries: the hand-offs in flight (the fabric's only
        messages from a site to itself), then per session the
        unacknowledged payloads at or above the receiver's next
        expected sequence number."""
        pending = [
            (src, dst, kind, packet[2])
            for src, dst, kind, packet in self.net.undelivered()
            if src == dst
        ]
        for key in sorted(self._sessions):
            session = self._sessions[key]
            pending.extend(
                (*key, p.kind, p.payload)
                for seq, p in session.unacked.items()
                if seq >= session.expected
            )
        return pending
