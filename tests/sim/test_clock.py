"""The discrete-event simulation core."""

import heapq
from collections import deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim.clock import PeriodicSampler, Simulator


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Simulator().schedule(value, lambda: None)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_time_rejected(self, value):
        """A NaN time used to fire at once, as a past time does."""
        with pytest.raises(ValueError, match="finite"):
            Simulator().schedule_at(value, lambda: None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_sampling_interval_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            Simulator().sample_every(value, lambda t: None)

    def test_livelock_guard(self):
        sim = Simulator()

        def respawn():
            sim.schedule(0.0, respawn)

        sim.schedule(0.0, respawn)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: sim.schedule_at(7.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [7.0]

    def test_schedule_at_past_fires_now(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [5.0]

    def test_step_and_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1
        assert sim.step()
        assert sim.pending == 0
        assert not sim.step()


class TestCancellation:
    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["kept"]

    def test_cancelled_timer_does_not_stretch_makespan(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(100.0, lambda: None)
        sim.cancel(handle)
        sim.run()
        assert sim.now == 1.0

    def test_pending_excludes_a_cancelled_entry_below_the_head(self):
        """Regression: ``pending`` purged only the heap head, so a
        cancelled entry behind a live one still counted."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.cancel(sim.schedule(2.0, lambda: None))
        assert sim.pending == 1
        assert sim.step()
        assert sim.pending == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.run()
        sim.cancel(handle)
        assert fired == [1]
        sim.schedule(1.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_cancel_of_fired_handle_leaves_no_residue(self):
        """Regression: cancelling an already-fired handle used to park
        its sequence number in a separate ``_cancelled`` set forever
        (the entry never reappears in the heap, so the head purge
        never discarded it), leaking memory over long chaos runs that
        cancel ack timers after they fired.  With the single ``_live``
        set, a late cancel discards nothing and records nothing."""
        sim = Simulator()
        for _ in range(100):
            handle = sim.schedule(0.0, lambda: None)
            sim.run()
            sim.cancel(handle)  # too late: already fired
        assert not sim._live

    def test_cancel_of_pending_handle_is_purged_on_pop(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        for handle in handles:
            sim.cancel(handle)
        sim.run()
        assert not sim._live
        assert not sim.queued()

    def test_double_cancel_is_a_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
        keeper = sim.schedule(2.0, lambda: fired.append("kept"))
        sim.cancel(handle)
        sim.cancel(handle)  # second cancel: no error, no residue
        sim.run()
        assert fired == ["kept"]
        assert keeper != handle
        assert not sim._live

    def test_cancel_after_fire_then_reuse(self):
        """A handle cancelled after firing must not suppress a later,
        distinct timer (sequence numbers are never reused)."""
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("first"))
        sim.run()
        sim.cancel(first)
        sim.cancel(first)  # double-cancel after fire: still a no-op
        second = sim.schedule(1.0, lambda: fired.append("second"))
        assert second != first
        sim.run()
        assert fired == ["first", "second"]

    def test_a_drained_calendar_holds_nothing(self):
        """Every instant and FIFO is released once its entries fired or
        were dropped: cancelled timers leave no residue behind a run."""
        sim = Simulator()
        sim.cancel(sim.schedule(3.0, lambda: None))
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not sim._times and not sim._queues

    def test_a_lone_entry_is_its_own_instant(self):
        """An instant holding one entry holds the entry tuple and no
        FIFO, so a jittered fabric, whose entries rarely share an
        instant, queues one object per entry; a second entry at the
        instant makes the FIFO."""
        sim = Simulator()
        for delay in (1.0, 1.5, 2.25):
            sim.schedule(delay, print, delay)
        assert all(type(queue) is tuple for queue in sim._queues.values())
        sim.schedule(1.5, print, "again")
        assert [type(queue) for queue in sim._queues.values()] == [
            tuple, deque, tuple,
        ]
        assert [entry[3] for entry in sim.queued()] == [
            1.0, 1.5, "again", 2.25,
        ]

    def test_unknown_handle_is_ignored(self):
        sim = Simulator()
        sim.cancel(12345)
        assert not sim._live
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestArgsEntries:
    """An entry is the flat ``(seq, fn, *args)``, read back through
    :meth:`Simulator.queued` as ``(time, seq, fn, *args)``, and fires
    ``fn(*args)``: the fabric queues a handler and its arguments, not a
    closure."""

    def test_args_are_passed_at_fire_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_at(2.0, lambda *args: fired.append(args), "b", 2)
        sim.run()
        assert fired == ["a", ("b", 2)]

    def test_equal_times_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, fired.append, tag)
        sim.schedule_at(1.0, fired.append, "at")
        sim.schedule(0.5, fired.append, "early")
        sim.run()
        assert fired == ["early", "x", "y", "z", "at"]

    def test_entry_shape(self):
        sim = Simulator()
        handle = sim.schedule(1.5, print, "p", 1)
        assert sim.queued() == [(1.5, handle, print, "p", 1)]

    def test_cancelling_one_leaves_nothing_behind(self):
        sim = Simulator()
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "cancelled"))
        assert sim.pending == 0
        sim.run()
        assert fired == []
        assert not sim._live
        assert not sim.queued()
        assert sim.now == 0.0  # a cancelled entry never moves the clock


class HeapModel:
    """The reference: every entry ``(time, seq, fn, *args)`` in one
    binary heap, fired one ``step`` at a time in ``(time, seq)`` order,
    with the same lazy cancellation."""

    def __init__(self):
        self.now = 0.0
        self.processed = 0
        self._heap = []
        self._sequence = 0
        self._live = set()
        self._samplers = []

    def _push(self, time, fn, args):
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, fn, *args))
        self._live.add(self._sequence)
        return self._sequence

    def schedule(self, delay, fn, *args):
        return self._push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        return self._push(self.now + max(0.0, time - self.now), fn, args)

    def cancel(self, handle):
        self._live.discard(handle)

    @property
    def pending(self):
        return len(self._live)

    def _purge(self):
        while self._heap and self._heap[0][1] not in self._live:
            heapq.heappop(self._heap)

    def step(self):
        self._purge()
        if not self._heap:
            return False
        self.now = self._heap[0][0]
        for sampler in self._samplers:
            sampler.on_advance(self.now)
        time, seq, fn, *args = heapq.heappop(self._heap)
        self._live.discard(seq)
        self.processed += 1
        fn(*args)
        return True

    def sample_every(self, every, sampler):
        handle = PeriodicSampler(self, every, sampler)
        self._samplers.append(handle)
        return handle

    def run(self, until=None, max_events=1_000_000):
        fired = 0
        while True:
            self._purge()
            if not self._heap:
                return
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            if fired >= max_events:
                raise RuntimeError("livelock")
            self.step()
            fired += 1

    def queued(self):
        return [entry for entry in sorted(self._heap) if entry[1] in self._live]


#: a callback's reaction when it fires: nothing, a zero-delay
#: reschedule, a later one, one at an absolute (maybe past) time, or a
#: cancel of the handle at an index (live, fired or out of range)
REACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("zero"), st.none()),
    st.tuples(st.just("later"), st.sampled_from([0.5, 1.0, 2.0])),
    st.tuples(st.just("at"), st.floats(-2.0, 8.0)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)
#: equal times (a constant-latency fan-out) and jittered ones
DELAYS = st.one_of(st.sampled_from([0.0, 1.0, 1.0, 2.0]), st.floats(0.0, 5.0))
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS, REACTIONS),
        st.tuples(st.just("schedule_at"), st.floats(-2.0, 8.0), REACTIONS),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("step")),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), st.floats(0.0, 10.0)),
            st.one_of(st.just(1_000_000), st.integers(0, 6)),
        ),
        st.tuples(st.just("sample_every"), st.sampled_from([0.5, 1.0, 3.0])),
    ),
    max_size=30,
)


def drive(clock, operations):
    """Apply ``operations`` to ``clock``; the log holds every firing
    and sample with the clock's ``now``, ``pending`` and ``processed``
    as the callback saw them, and the state after each operation."""
    log, handles = [], []

    def state():
        return (clock.now, clock.pending, clock.processed)

    def fire(label, reaction):
        log.append(("fire", label, *state()))
        if reaction is None:
            return
        kind, value = reaction
        if kind == "zero":
            handles.append(clock.schedule(0.0, fire, label + "z", None))
        elif kind == "later":
            handles.append(clock.schedule(value, fire, label + "l", None))
        elif kind == "at":
            handles.append(clock.schedule_at(value, fire, label + "a", None))
        else:
            clock.cancel(handles[value] if value < len(handles) else -1)

    for number, (kind, *params) in enumerate(operations):
        label = str(number)
        if kind == "schedule":
            handles.append(clock.schedule(params[0], fire, label, params[1]))
        elif kind == "schedule_at":
            handles.append(
                clock.schedule_at(params[0], fire, label, params[1])
            )
        elif kind == "cancel":
            index = params[0]
            clock.cancel(handles[index] if index < len(handles) else 10**9)
        elif kind == "step":
            log.append(("stepped", clock.step()))
        elif kind == "run":
            try:
                clock.run(until=params[0], max_events=params[1])
            except RuntimeError:
                log.append(("livelock",))
        else:
            clock.sample_every(
                params[0], lambda t: log.append(("sample", t, *state()))
            )
        log.append((kind, *state(), [entry[:2] for entry in clock.queued()]))
    log.append(("handles", handles))
    return log


class TestCalendarOrder:
    """The calendar (one FIFO per instant) fires exactly what one
    ``(time, seq)`` heap fires, in the same order, with the same clock,
    ``pending`` and ``processed`` at every step."""

    @given(OPERATIONS)
    # only a cancelled entry beyond the horizon: the clock stays at
    # the last fired time instead of jumping to ``until``
    @example([
        ("schedule", 1.0, None),
        ("schedule", 5.0, None),
        ("cancel", 1),
        ("run", 3.0, 1_000_000),
    ])
    # the budget runs out inside an instant's FIFO
    @example([
        ("schedule", 1.0, ("zero", None)),
        ("schedule", 1.0, None),
        ("run", None, 2),
        ("run", None, 1_000_000),
    ])
    # a lone entry reschedules at its own instant, a second entry turns
    # an instant's lone entry into a FIFO, and the budget runs out with
    # a lone entry at the head, twice
    @example([
        ("schedule", 1.0, ("zero", None)),
        ("schedule", 2.0, None),
        ("schedule", 2.0, ("at", 0.0)),
        ("schedule", 3.0, None),
        ("run", None, 1),
        ("run", None, 4),
        ("run", None, 1_000_000),
    ])
    def test_same_firing_sequence_as_a_heap(self, operations):
        assert drive(Simulator(), operations) == drive(HeapModel(), operations)
