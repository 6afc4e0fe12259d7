"""The discrete-event simulation core: a virtual clock and event heap.

Single-threaded and deterministic: callbacks scheduled for the same
instant fire in insertion order (a monotone sequence number breaks
ties), so every experiment is bit-reproducible for a given seed.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable


class Simulator:
    """A virtual clock driving scheduled callbacks.

    A heap entry is the flat tuple ``(time, seq, fn, *args)`` and fires
    as ``fn(*args)``: a caller passes a handler bound once and its
    arguments rather than a closure over them, so one message delivery
    is one tuple and no function object
    (:meth:`repro.sim.network.Network.send`).  ``(time, seq)`` is
    unique, so ``fn`` and its arguments are never compared.
    :meth:`run` drops dead entries off the head and calls :meth:`step`
    once per live one.

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
        self._heap: list[tuple] = []
        self._sequence = 0
        #: handles still eligible to fire; a heap entry whose handle
        #: left this set (fired or cancelled) is dead weight awaiting
        #: lazy removal -- one set is the whole cancel bookkeeping
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
        heapq.heappush(self._heap, (self.now + delay, seq, fn, *args))
        self._live.add(seq)
        return seq

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled callback by its handle.

        Cancellation is lazy: the heap entry stays until its time
        comes, then is discarded without firing or advancing the
        clock, so a cancelled timer never stretches the makespan.
        Cancelling an already-fired, already-cancelled, or unknown
        handle is a no-op and leaves no residue: cancel simply drops
        the handle from the live set, and :meth:`run` and :meth:`step`
        pop heap entries whose handle is no longer live.
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
        heapq.heappush(
            self._heap, (now + max(0.0, time - now), seq, fn, *args)
        )
        self._live.add(seq)
        return seq

    @property
    def pending(self) -> int:
        """Callbacks still due to fire: cancelled entries anywhere in
        the heap, not only at its head, are excluded."""
        return len(self._live)

    def step(self) -> bool:
        """Fire the next callback; returns False when the heap is empty."""
        heap, live = self._heap, self._live
        while heap and heap[0][1] not in live:
            heapq.heappop(heap)
        if not heap:
            return False
        if self._samplers:
            # before the pop: a sampler reads the due entry as pending
            time = self.now = heap[0][0]
            for sampler in self._samplers:
                sampler.on_advance(time)
        entry = heapq.heappop(heap)
        live.discard(entry[1])
        self.now = entry[0]
        self.processed += 1
        entry[2](*entry[3:])
        return True

    def sample_every(
        self, every: float, sampler: Callable[[float], None]
    ) -> "PeriodicSampler":
        """Invoke ``sampler(t)`` now and at every ``every``-unit boundary.

        The sampler is *not* a scheduled callback: it piggybacks on
        :meth:`step`, firing whenever the clock crosses a sampling
        boundary on its way to the next real event (stamped with the
        boundary time, while that event is still in the heap).  It
        therefore never appears in the heap, never extends a run or
        its makespan, and keeps working across multiple :meth:`run`
        phases without re-arming.  Samplers must only read state.
        Returns a handle whose ``cancel()`` detaches it.
        """
        if not 0 < every < inf:
            raise ValueError(
                f"sampling interval must be positive and finite: {every}"
            )
        handle = PeriodicSampler(self, every, sampler)
        self._samplers.append(handle)
        return handle

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> None:
        """Run until the heap drains, the horizon passes, or the budget
        is exhausted (the budget guards against livelock bugs)."""
        heap, live, step = self._heap, self._live, self.step
        fired = 0
        while True:
            # purged here, so step() finds a live head at once
            while heap and heap[0][1] not in live:
                heapq.heappop(heap)
            if not heap:
                return
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            if fired >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; likely livelock"
                )
            step()
            fired += 1


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
