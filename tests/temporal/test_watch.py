"""The wake rule (:mod:`repro.temporal.compiled`).

Unit tests for the wake set (``guard.bases()``: the residual's support),
the wake / skip counters, and the scheduler's wake
decision at delivery -- including the crash/``Recovered``-replay path
and guard re-entry onto a renamed copy of the same shape.
"""

import random

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.scheduler.messages import Announce
from repro.sim import FaultPlan, SiteCrash
from repro.sim.network import ConstantLatency
from repro.temporal.cubes import E_OCC, TRUE_GUARD, literal
from repro.workloads.scenarios import make_travel_booking

A, B, C = Event("a"), Event("b"), Event("c")


class TestWatchBases:
    def test_reduced_guard_watches_its_bases(self):
        guard = literal("box", A) & literal("dia", B)
        assert guard.bases() == {A, B}

    def test_unreduced_guard_watches_its_support(self):
        """Knowledge that decides a literal does not widen the wake
        set: until the next assimilation it is still the support."""
        guard = literal("box", A) & literal("dia", B)
        assert guard.bases() == {A, B}  # whatever is known of A
        assert guard.simplify_under({A: E_OCC}).bases() == {B}

    def test_residuation_picks_the_replacement_watch(self):
        """Consuming a watched literal re-simplifies the guard; the
        new wake set is the survivor's bases -- "pick a replacement
        watch" is residuation itself."""
        guard = (literal("box", A) & literal("dia", B)) | literal("box", C)
        assert guard.bases() == {A, B, C}
        reduced = guard.simplify_under({A: E_OCC})
        assert reduced.bases() == {B, C}

    def test_guard_reduced_to_unit_then_true(self):
        guard = literal("dia", A)
        reduced = guard.simplify_under({A: E_OCC})
        assert reduced == TRUE_GUARD
        assert reduced.bases() == frozenset()


def announce(sched, target, event):
    """Deliver one announcement of ``event`` to ``target``'s role;
    returns ``(woke, skipped)``, the counter deltas."""
    wakes, skips = sched.watch.wakes, sched.watch.skips
    role = sched.role(target)
    sched.subscribe(role, [event.base])
    role.actor(Announce(event=event))
    return sched.watch.wakes - wakes, sched.watch.skips - skips


def assert_wakes_match_the_support(sched):
    """Every bound role's wake decision, read off its node, is the
    wake rule on its real-name residual."""
    bases = sorted(sched.actors, key=Event.sort_key)
    for role in sched.roles():
        if role.cursor.node is None:
            continue  # unbound: wakes on everything
        expected = role.guard.bases()
        for base in bases:
            assert role.cursor.wakes_on(base) == (base in expected), (
                role.event, base, expected
            )


class TestSchedulerReWatch:
    def test_index_consistent_at_quiescence(self):
        """At quiescence the wake decision read off each actor's node
        agrees with the wake rule on the real names."""
        scenario = make_travel_booking("success")
        sched = DistributedScheduler(
            scenario.workflow.dependencies,
            sites=scenario.workflow.sites,
            attributes=scenario.workflow.attributes,
            latency=ConstantLatency(1.0),
            rng=random.Random(1),
        )
        sched.run(scenario.scripts, verify=False)
        assert sched.watch.skips > 0
        assert_wakes_match_the_support(sched)

    def test_recovered_replay_reregisters_watches(self):
        """A crashed site loses actor state; recovery replays settled
        facts, and the reborn actors' wake decisions are read off the
        nodes they re-entered."""
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
        assert sched.role(ship).cursor.node is not None
        assert_wakes_match_the_support(sched)
        # the announcements that reached the actors were decided
        assert sched.watch.wakes > 0

    def test_parked_actor_watches_its_guard_bases(self):
        ship, pay, other = Event("ship"), Event("pay"), Event("other")
        sched = DistributedScheduler(
            [parse("~ship + pay . ship")],
            latency=ConstantLatency(1.0),
            rng=random.Random(3),
        )
        # a cursor that has not bound yet wakes on any base
        assert sched.role(ship).cursor.node is None
        assert announce(sched, ship, other) == (1, 0)
        sched.attempt(ship)
        sched.sim.run()
        # a base the parked guard mentions wakes it; one it does not
        # mention is recorded without re-evaluation
        assert announce(sched, ship, other) == (0, 1)
        assert announce(sched, ship, pay) == (1, 0)
        assert_wakes_match_the_support(sched)

    def test_reentry_onto_the_same_shape_rewatches(self):
        """A guard replaced by a renamed copy of itself re-enters the
        very node it left, under another binding: the wake decision
        follows the new names."""
        sched = DistributedScheduler(
            [],
            guards={A: literal("box", B), B: TRUE_GUARD, C: TRUE_GUARD},
            latency=ConstantLatency(1.0),
            rng=random.Random(3),
        )
        sched.attempt(A)
        role = sched.role(A)
        node = role.cursor.node
        assert role.cursor.wakes_on(B) and not role.cursor.wakes_on(C)
        role.replace_guard(literal("box", C))
        assert role.cursor.node is node
        assert_wakes_match_the_support(sched)
        assert announce(sched, A, B) == (0, 1)
        assert announce(sched, A, C) == (1, 0)
        assert role.status.name == "OCCURRED"
