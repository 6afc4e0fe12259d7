"""Watched-literal bookkeeping (:mod:`repro.temporal.watch`).

Unit tests for the wake-set computation (``is_reduced`` /
``watch_bases``), the :class:`WatchIndex`, and the schedulers'
re-registration hooks -- including the crash/``Recovered``-replay path
and the index/state consistency invariant at quiescence.
"""

import random

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.sim.network import ConstantLatency
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    TRUE_GUARD,
    FALSE_GUARD,
    literal,
)
from repro.temporal.watch import (
    ALL,
    WatchIndex,
    clear_watch_stats,
    is_reduced,
    watch_bases,
    watch_stats,
)
from repro.workloads.scenarios import make_travel_booking

A, B, C = Event("a"), Event("b"), Event("c")


class TestIsReduced:
    GUARD = literal("box", A) & literal("dia", B)

    def test_empty_knowledge_is_identity(self):
        assert is_reduced(self.GUARD, {})

    def test_true_and_false_guards_are_reduced(self):
        assert is_reduced(TRUE_GUARD, {A: E_OCC})
        assert is_reduced(FALSE_GUARD, {A: E_OCC})

    def test_knowledge_on_foreign_base_keeps_reduced(self):
        assert is_reduced(self.GUARD, {C: E_OCC})

    def test_decided_literal_means_unreduced(self):
        # simplify_under would drop box-a (guard becomes a unit)
        assert not is_reduced(self.GUARD, {A: E_OCC})
        # ... or kill the cube (guard becomes empty)
        assert not is_reduced(self.GUARD, {A: C_OCC})


class TestWatchBases:
    def test_reduced_guard_watches_its_bases(self):
        guard = literal("box", A) & literal("dia", B)
        assert watch_bases(guard, {}) == {A, B}

    def test_unreduced_guard_watches_everything(self):
        guard = literal("box", A) & literal("dia", B)
        assert watch_bases(guard, {A: E_OCC}) is ALL

    def test_residuation_picks_the_replacement_watch(self):
        """Consuming a watched literal re-simplifies the guard; the
        new wake set is the survivor's bases -- "pick a replacement
        watch" is residuation itself."""
        guard = (literal("box", A) & literal("dia", B)) | literal("box", C)
        knowledge = {A: E_OCC}
        assert watch_bases(guard, knowledge) is ALL  # stale: must wake
        reduced = guard.simplify_under(knowledge)
        assert watch_bases(reduced, knowledge) == {B, C}

    def test_guard_reduced_to_unit_then_true(self):
        guard = literal("dia", A)
        knowledge = {A: E_OCC}
        reduced = guard.simplify_under(knowledge)
        assert reduced == TRUE_GUARD
        assert watch_bases(reduced, knowledge) == frozenset()


class TestWatchIndex:
    def test_register_and_reverse_map(self):
        idx = WatchIndex()
        idx.register(A, frozenset({B, C}))
        assert idx.watching(A) == {B, C}
        assert idx.watchers(B) == {A}
        assert idx.watchers(C) == {A}
        assert len(idx) == 1

    def test_reregister_same_set_is_not_a_rewatch(self):
        idx = WatchIndex()
        idx.register(A, frozenset({B}))
        idx.register(A, frozenset({B}))
        assert idx.counts()["rewatches"] == 0

    def test_rewatch_after_watched_literal_consumed(self):
        idx = WatchIndex()
        idx.register(A, frozenset({B, C}))
        idx.register(A, frozenset({C}))  # b decided, watch moved on
        assert idx.counts()["rewatches"] == 1
        assert idx.watchers(B) == frozenset()
        assert idx.watchers(C) == {A}
        assert not idx.should_wake(A, B)
        assert idx.should_wake(A, C)

    def test_all_sentinel_wakes_on_everything(self):
        idx = WatchIndex()
        idx.register(A, ALL)
        assert idx.should_wake(A, B)
        assert idx.should_wake(A, C)
        assert A in idx.watchers(B)

    def test_unknown_watcher_degrades_to_naive(self):
        idx = WatchIndex()
        assert idx.watching(A) is ALL
        assert idx.should_wake(A, B)

    def test_unregister_clears_reverse_map(self):
        idx = WatchIndex()
        idx.register(A, frozenset({B}))
        idx.unregister(A)
        assert idx.watchers(B) == frozenset()
        assert len(idx) == 0
        idx.unregister(A)  # unknown: no-op

    def test_counters_mirror_process_wide_stats(self):
        clear_watch_stats()
        try:
            idx = WatchIndex()
            idx.note_wake()
            idx.note_skip()
            idx.note_skip()
            idx.register(A, frozenset({B}))
            idx.register(A, ALL)
            assert idx.counts() == {
                "wakes": 1,
                "skips": 2,
                "rewatches": 1,
                "registered": 1,
            }
            stats = watch_stats()
            assert stats["wakes"] == 1
            assert stats["skips"] == 2
            assert stats["rewatches"] == 1
        finally:
            clear_watch_stats()

    def test_totals_flow_into_kernel_stats(self, kernel_schema):
        from repro.temporal.guards import kernel_stats

        stats = kernel_stats()
        kernel_schema(stats)
        assert stats["watch"] == watch_stats()


def assert_index_consistent(sched):
    """The scheduler invariant the re-registration hooks maintain: an
    actor's registered wake set is either :data:`ALL` (always sound)
    or exactly what its current guard and knowledge dictate."""
    for event, actor in sched.actors.items():
        entry = sched.watch.watching(event)
        if actor.pending_grant_reqs or actor.solicit_would_act():
            assert entry is ALL, (event, entry)
        else:
            expected = watch_bases(actor.guard, actor.knowledge)
            assert entry is ALL or entry == expected, (event, entry, expected)


class TestSchedulerReWatch:
    def test_index_consistent_at_quiescence(self):
        scenario = make_travel_booking("success")
        sched = DistributedScheduler(
            scenario.workflow.dependencies,
            sites=scenario.workflow.sites,
            attributes=scenario.workflow.attributes,
            latency=ConstantLatency(1.0),
            rng=random.Random(1),
        )
        sched.run(scenario.scripts, verify=False)
        assert_index_consistent(sched)

    def test_recovered_replay_reregisters_watches(self):
        """A crashed site loses actor state; recovery replays settled
        facts and the ``Recovered`` hook must re-register the watch
        entries for the reborn actors."""
        ship, pay = Event("ship"), Event("pay")
        plan = FaultPlan.of([SiteCrash("s1", at=1.0, restart_at=3.0)])
        sched = DistributedScheduler(
            [parse("~ship + pay . ship")],
            sites={ship: "s1", pay: "s2"},
            latency=ConstantLatency(1.0),
            rng=random.Random(2),
            reliable=True,
            fault_plan=plan,
        )
        scripts = [
            AgentScript("s1", [ScriptedAttempt(0.5, ship)]),
            AgentScript("s2", [ScriptedAttempt(6.0, pay)]),
        ]
        result = sched.run(scripts, verify=False)
        occurred = {e.event for e in result.entries}
        assert ship in occurred and pay in occurred
        assert_index_consistent(sched)
        # the ship actor was parked across the crash; its last watch
        # activity is visible in the counters
        assert sched.watch.counts()["registered"] >= 2

    def test_parked_actor_watches_its_guard_bases(self):
        ship, pay = Event("ship"), Event("pay")
        sched = DistributedScheduler(
            [parse("~ship + pay . ship")],
            latency=ConstantLatency(1.0),
            rng=random.Random(3),
        )
        sched.attempt(ship)
        sched.sim.run()
        entry = sched.watch.watching(ship)
        assert entry is ALL or pay in entry
        assert_index_consistent(sched)

    def test_reentry_onto_the_same_shape_rewatches(self):
        """A guard replaced by a renamed copy of itself re-enters the
        very node it left, under another binding: the wake set must
        move to the new names."""
        sched = DistributedScheduler(
            [],
            guards={A: literal("box", B), B: TRUE_GUARD, C: TRUE_GUARD},
            latency=ConstantLatency(1.0),
            rng=random.Random(3),
        )
        sched.attempt(A)
        actor = sched.actors[A]
        node = actor.cursor.node
        assert sched.watch.watching(A) == {B}
        actor.replace_guard(literal("box", C))
        sched._rewatch(actor)
        assert actor.cursor.node is node
        assert sched.watch.watching(A) == {C}
        assert_index_consistent(sched)
