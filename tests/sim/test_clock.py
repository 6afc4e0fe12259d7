"""The discrete-event simulation core."""

import pytest

from repro.sim.clock import Simulator


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
        assert not sim._heap

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

    def test_unknown_handle_is_ignored(self):
        sim = Simulator()
        sim.cancel(12345)
        assert not sim._live
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0


class TestArgsEntries:
    """A heap entry is the flat ``(time, seq, fn, *args)`` and fires
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
        assert sim._heap == [(1.5, handle, print, "p", 1)]

    def test_cancelling_one_leaves_nothing_behind(self):
        sim = Simulator()
        fired = []
        sim.cancel(sim.schedule(1.0, fired.append, "cancelled"))
        assert sim.pending == 0
        sim.run()
        assert fired == []
        assert not sim._live
        assert not sim._heap
        assert sim.now == 0.0  # a cancelled entry never moves the clock
