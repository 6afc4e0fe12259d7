"""The discrete-event simulation core: a virtual clock and a calendar.

Single-threaded and deterministic: callbacks scheduled for the same
instant fire in insertion order, so every experiment is
bit-reproducible for a given seed.  The calendar keeps a heap of the
distinct pending instants and, per instant, its lone entry or a FIFO of
its entries: a fan-out that lands at one instant costs one heap push,
not one per message, and an entry alone at its instant (the common case
on a jittered fabric) costs no FIFO.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable


class Simulator:
    """A virtual clock driving scheduled callbacks.

    An entry is the flat tuple ``(seq, fn, *args)``, queued at its
    instant, and fires as ``fn(*args)``: a caller passes a handler
    bound once and its arguments rather than a closure over them, so
    one message delivery is one tuple and no function object
    (:meth:`repro.sim.network.Network.send`).  Entries fire in
    ``(time, seq)`` order: the instants leave a heap of floats, and an
    instant's entries leave its FIFO in ``seq`` order, which is their
    insertion order.  An instant holding one entry holds the tuple
    itself; its FIFO, a ``deque``, is made when a second entry joins
    it, so a jittered fabric, whose entries rarely share an instant,
    keeps one object per entry.  :meth:`run` drains the head instant
    in one pass, dropping dead entries as it reaches them;
    :meth:`queued` is the read-only view of what is still due.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: the distinct instants holding entries, as a heap; one per
        #: key of ``_queues``
        self._times: list[float] = []
        #: instant -> its lone entry ``(seq, fn, *args)``, or a deque of
        #: its entries, oldest first
        self._queues: dict[float, tuple | deque[tuple]] = {}
        self._sequence = 0
        #: handles still eligible to fire; an entry whose handle left
        #: this set (fired or cancelled) is dead weight awaiting lazy
        #: removal -- one set is the whole cancel bookkeeping
        self._live: set[int] = set()
        self.processed = 0
        #: periodic samplers notified as the clock advances (see
        #: :meth:`sample_every`); empty-list check is the whole cost
        self._samplers: list[PeriodicSampler] = []

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``fn(*args)`` to fire ``delay`` time units from now.

        Returns a handle usable with :meth:`cancel` (the reliable
        session layer cancels retransmission timers when the ack
        arrives; workflow events themselves are never retracted, only
        rejected, which is modeled at the scheduler layer).
        """
        if not 0 <= delay < inf:
            raise ValueError(f"delay must be finite and nonnegative: {delay}")
        seq = self._sequence = self._sequence + 1
        time = self.now + delay
        entry = (seq, fn, *args)
        # the insert is written out here and in ``schedule_at``: a
        # shared helper costs a call, ~60 ns on every entry (and no
        # ``dict.get``, for the same reason)
        queues = self._queues
        if time not in queues:
            queues[time] = entry
            heappush(self._times, time)
        elif (queue := queues[time]).__class__ is tuple:
            queues[time] = deque((queue, entry))
        else:
            queue.append(entry)
        self._live.add(seq)
        return seq

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled callback by its handle.

        Cancellation is lazy: the entry stays queued until its instant
        comes, then is discarded without firing or advancing the
        clock, so a cancelled timer never stretches the makespan.
        Cancelling an already-fired, already-cancelled, or unknown
        handle is a no-op and leaves no residue: cancel simply drops
        the handle from the live set, and :meth:`run` and :meth:`step`
        drop queued entries whose handle is no longer live.
        """
        self._live.discard(handle)

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> int:
        """Schedule ``fn(*args)`` at an absolute virtual time (a past
        time fires now)."""
        if not -inf < time < inf:
            raise ValueError(f"time must be finite: {time}")
        now = self.now
        seq = self._sequence = self._sequence + 1
        time = now + max(0.0, time - now)
        entry = (seq, fn, *args)
        queues = self._queues
        if time not in queues:
            queues[time] = entry
            heappush(self._times, time)
        elif (queue := queues[time]).__class__ is tuple:
            queues[time] = deque((queue, entry))
        else:
            queue.append(entry)
        self._live.add(seq)
        return seq

    @property
    def pending(self) -> int:
        """Callbacks still due to fire: cancelled entries anywhere in
        the calendar, not only at its head, are excluded."""
        return len(self._live)

    def queued(self) -> list[tuple]:
        """Every live entry as ``(time, seq, fn, *args)``, in firing
        order: the one read-only view of the calendar (nothing is
        popped or purged)."""
        queues, live = self._queues, self._live
        return [
            (time, *entry)
            for time in sorted(queues)
            for entry in _entries(queues[time])
            if entry[0] in live
        ]

    def _head(self) -> float | None:
        """The earliest instant holding a live entry, with the dead
        entries ahead of that entry dropped (and instants holding only
        dead ones); ``None`` when nothing is due."""
        times, queues, live = self._times, self._queues, self._live
        while times:
            queue = queues[times[0]]
            if queue.__class__ is tuple:
                if queue[0] in live:
                    return times[0]
            else:
                while queue:
                    if queue[0][0] in live:
                        return times[0]
                    queue.popleft()
            del queues[heappop(times)]
        return None

    def _advance(self, time: float) -> None:
        # before the pop: a sampler reads the due entries as pending
        self.now = time
        for sampler in self._samplers:
            sampler.on_advance(time)

    def step(self) -> bool:
        """Fire the next callback; returns False when nothing is due."""
        time = self._head()
        if time is None:
            return False
        self._advance(time)
        queue = self._queues[time]
        if queue.__class__ is tuple:  # a lone entry takes its instant along
            entry = queue
            del self._queues[heappop(self._times)]
        else:
            entry = queue.popleft()
        self._live.discard(entry[0])
        self.processed += 1
        entry[1](*entry[2:])
        return True

    def sample_every(
        self, every: float, sampler: Callable[[float], None]
    ) -> "PeriodicSampler":
        """Invoke ``sampler(t)`` now and at every ``every``-unit boundary.

        The sampler is *not* a scheduled callback: it piggybacks on
        :meth:`step` and :meth:`run`, firing whenever the clock crosses
        a sampling boundary on its way to the next real instant
        (stamped with the boundary time, while that instant's entries
        are still queued).  It therefore never appears in the
        calendar, never extends a run or its makespan, and keeps
        working across multiple :meth:`run` phases without re-arming.
        Samplers must only read state.  Returns a handle whose
        ``cancel()`` detaches it.
        """
        if not 0 < every < inf:
            raise ValueError(
                f"sampling interval must be positive and finite: {every}"
            )
        handle = PeriodicSampler(self, every, sampler)
        self._samplers.append(handle)
        return handle

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Run until the calendar drains, the horizon passes, or the
        budget is exhausted (the budget guards against livelock bugs).

        The head instant is drained in one pass: an entry a callback
        schedules at the current instant joins its FIFO's tail and
        fires in the same pass (or, behind a lone entry, is the next
        instant the loop takes, at the same time).
        """
        times, queues, live, head = (
            self._times, self._queues, self._live, self._head
        )
        budget = max_events
        while True:
            # purged first: a horizon check must not see a dead entry
            time = head()
            if time is None:
                return
            if until is not None and time > until:
                self.now = until
                return
            if not budget:
                raise _livelock(max_events)
            self._advance(time)
            queue = queues[time]
            if queue.__class__ is tuple:
                # ``head`` found it live; its instant leaves with it
                del queues[heappop(times)]
                budget -= 1
                live.remove(queue[0])
                self.processed += 1
                queue[1](*queue[2:])
                continue
            popleft = queue.popleft
            while queue:
                entry = popleft()
                seq = entry[0]
                if seq not in live:
                    continue
                if not budget:
                    queue.appendleft(entry)
                    raise _livelock(max_events)
                budget -= 1
                live.remove(seq)
                self.processed += 1
                entry[1](*entry[2:])


def _entries(queue: tuple | deque[tuple]) -> tuple | deque[tuple]:
    """An instant's entries, whether it holds one or a FIFO."""
    return (queue,) if queue.__class__ is tuple else queue


def _livelock(max_events: int) -> RuntimeError:
    return RuntimeError(
        f"simulation exceeded {max_events} events; likely livelock"
    )


class PeriodicSampler:
    """Read-only sampling hook created by :meth:`Simulator.sample_every`.

    Takes one sample at creation, then one per ``every``-unit boundary
    the clock crosses (stamped at the boundary, i.e. with the state
    the simulation carried into it -- state only changes at events).
    """

    def __init__(
        self, sim: Simulator, every: float, sampler: Callable[[float], None]
    ):
        self._sim = sim
        self.every = every
        self._sampler = sampler
        sampler(sim.now)
        self._next = sim.now + every

    def on_advance(self, time: float) -> None:
        """The clock reached ``time``; emit any crossed boundaries."""
        while time >= self._next:
            self._sampler(self._next)
            self._next += self.every

    def cancel(self) -> None:
        """Detach from the simulator; no further samples."""
        try:
            self._sim._samplers.remove(self)
        except ValueError:
            pass
