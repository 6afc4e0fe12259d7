"""Theorem 6 at the protocol level, by schedule exploration.

The explorer (``tests/scheduler/explorer.py``) re-runs a scenario on
the raw fabric along every schedule within a delay bound and checks
soundness, progress and engine agreement on each.  Engine agreement is
the wake rule's regression guard: an actor wakes iff the announced base
is in its residual's support, and on every explored schedule that must
decide exactly what the reference engine, which wakes on everything,
decides.  The bounds here keep the explorer's share of the suite to
about 20 s; the module's ``__main__`` runs Example 13 at delay bound 2.
"""

import random
from unittest import mock

import pytest

from repro.algebra.symbols import Event
from repro.scheduler import DistributedScheduler, actors
from repro.scheduler.actors import Role
from repro.scheduler.messages import Announce, PromiseGrant, SyncReply
from repro.scheduler.oracle import judge
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import Network, UniformLatency
from repro.sim.reliable import ReliableNetwork
from repro.temporal.compiled import GuardCursor
from repro.workloads.scenarios import make_mutex_scenario

from . import mutants
from .explorer import (
    CRASH_AT,
    DOWN_FOR,
    ChoosingSimulator,
    ScheduleFailure,
    as_prefix,
    check_schedule,
    consensus3,
    deviations,
    ex10,
    ex11,
    ex13,
    explore,
    lane_residual,
    observables,
    planned_crash,
    precede,
    rerequest,
    run_schedule,
    settled_lag,
    settled_residual,
    sites,
    travel,
    xor,
)


class TestExplorer:
    """The instrument itself."""

    def test_channel_heads_and_other_callbacks_are_enabled(self):
        """Of two deliveries queued on one channel only the older is a
        choice; another channel's head and a timer are choices too."""
        sim = ChoosingSimulator()
        network = Network(sim)
        got = []
        network.send("a", "b", "msg", 1, got.append)
        network.send("a", "b", "msg", 2, got.append)
        network.send("a", "c", "msg", 3, got.append)
        sim.schedule(5.0, lambda: got.append("timer"))
        assert len(sim.enabled()) == 3
        sim.prefix = (2, 1, 0, 0)  # the timer, then a->c ahead of a->b
        sim.run()
        assert got == ["timer", 3, 1, 2]
        assert sim.widths == [3, 2, 1, 1]
        assert sim.now == 5.0  # the clock never runs backwards

    def test_session_payloads_and_acks_report_their_channels(self):
        """The FIFO-head rule reads each delivery's channel off its heap
        entry: a session payload travels a -> b, its ack b -> a, and
        the retransmission timer and the ack's flush are plain
        callbacks."""
        sim = ChoosingSimulator()
        session = ReliableNetwork(Network(sim))
        got = []
        session.send("a", "b", "msg", 1, got.append)
        session.send("a", "b", "msg", 2, got.append)
        channels = [sim._channels[seq] for _t, seq, *_ in sorted(sim._heap)]
        # two payloads, then their two timers (due later)
        assert channels == [("a", "b"), ("a", "b"), None, None]
        assert len(sim.enabled()) == 3  # the second payload waits

        def acks():
            return [
                (sim._channels[seq], args[3][2])
                for _t, seq, _fn, *args in sorted(sim._heap)
                if seq in sim._live and sim._channels[seq]
                and args[2] == "ack"
            ]

        sim.step()  # the first payload lands; its session owes an ack
        assert got == [1] and acks() == []
        assert len(sim.enabled()) == 4  # the flush is one more choice
        sim.step()  # the second lands in the same instant
        assert got == [1, 2] and acks() == []
        sim.step()  # the flush: one ack answers both
        assert acks() == [(("b", "a"), 2)]

    def test_a_plain_timer_reports_no_channel(self):
        sim = ChoosingSimulator()
        handle = sim.schedule(1.0, lambda: None)
        assert sim._channels[handle] is None
        assert sim._crash is None

    def test_a_planned_crash_timer_is_found(self):
        """The crash is one more enabled choice at every step until it
        fires; its timer is recognised by its method, not its shape."""
        sim = ChoosingSimulator()
        faults = FaultInjector(sim, FaultPlan.of([planned_crash("s")]))
        faults.arm()
        sim.schedule(1.0, lambda: None)
        assert sim._crash is not None
        assert sim._channels[sim._crash] is None
        sim.prefix = (1,)  # pick the crash ahead of the plain timer
        sim.step()
        assert sim.crashes == [1]
        assert faults.is_down("s")
        assert faults.crash_log == [("s", 0.0, DOWN_FOR)]

    def test_the_default_schedule_is_the_plain_simulator(self):
        scenario = travel()
        workflow = scenario.workflow
        plain = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
        ).run(scenario.scripts, verify=False)
        explored = run_schedule(scenario).result
        assert [(e.event, e.time) for e in explored.entries] == [
            (e.event, e.time) for e in plain.entries
        ]
        assert explored.messages_by_kind == plain.messages_by_kind

    def test_a_prefix_replays_its_schedule(self):
        """Stateless: a schedule is its choice prefix."""
        first = run_schedule(ex11(), (1, 0, 1))
        prefix = as_prefix(deviations(first.taken))
        assert prefix == (1, 0, 1)
        assert observables(run_schedule(ex11(), prefix)) == observables(first)


class TestTheorem6:
    """Soundness, progress and engine agreement on every schedule
    within the bound."""

    def test_ex10_every_schedule(self):
        assert explore(ex10()) == 7

    def test_ex11_every_schedule(self):
        assert explore(ex11()) == 20

    def test_consensus_cycle_within_two_delays(self):
        assert explore(consensus3(), bound=2) == 1039

    def test_ex13_within_one_delay(self):
        assert explore(ex13(), bound=1) == 94

    def test_travel_within_two_delays(self):
        assert explore(travel(), bound=2) == 294

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_precede_within_two_delays(self, k):
        assert explore(precede(k), bound=2) > 1

    def test_rerequest_within_one_delay(self):
        """A random spec on which the engines once disagreed."""
        assert explore(rerequest(), bound=1) == 240

    def test_settled_lag_default_schedule(self):
        """A random spec on which the engines once disagreed: a settled
        role went on learning, and its residual followed only in the
        reference engine (821 schedules hold at delay bound 1)."""
        check_schedule(settled_lag(), ())

    def test_settled_residual_within_one_delay(self):
        """A role that fires on a grant it has not assimilated: its
        residual is read under its final knowledge in both engines."""
        check_schedule(settled_residual(), ())
        assert explore(settled_residual(), bound=1) == 164


class TestSettledBaseIsFinal:
    """A base's settlement is the last fact its actor assimilates."""

    def test_a_settled_base_assimilates_nothing(self):
        """Announcements, grants and sync replies that reach a settled
        base after a run move none of its roles, and wake none."""
        run = run_schedule(settled_lag())
        sched = run.sched
        before = observables(run)["actors"], sched.watch.counts()
        for actor in sched.actors.values():
            for base in sched.actors:
                if base is actor.base:
                    continue
                actor(Announce(event=base))
                for role in actor.roles.values():
                    me = role.event
                    role(PromiseGrant(target=base, requester=me))
                    for status in ("occurred", "comp_occurred"):
                        role(
                            SyncReply(base=base, requester=me, status=status)
                        )
        assert (observables(run)["actors"], sched.watch.counts()) == before


class TestOneCrash:
    """One crash at any step: each schedule crashes one site at one
    step of the default schedule and restarts it half a time unit
    later, on the reliable sessions a fault plan brings with it, so
    what is in flight lands after the restart.  The site comes back, so
    progress asks for a maximal run."""

    def test_the_crash_is_a_choice_at_every_step(self):
        """Planned after the fault-free run ends, the crash is offered
        at every step and fires last by default; picked at step 2, it
        fires there, at the current time, and a message in flight to
        the site lands after the restart, on a stale session."""
        default = run_schedule(ex11(), crash=planned_crash("site_e"))
        fired = default.crashes.index(0)
        assert all(default.crashes[:fired]) and default.widths[fired] == 1
        early = run_schedule(
            ex11(), (0, 0, default.crashes[2]), crash=planned_crash("site_e")
        )
        assert early.crashes[3:] == [None] * len(early.crashes[3:])
        ((site, at, restart_at),) = early.sched.faults.crash_log
        assert site == "site_e" and restart_at == at + DOWN_FOR < CRASH_AT
        assert early.sched.network.stats.stale_session > 0
        assert early.result.terminal == "maximal"

    @pytest.mark.parametrize(
        "scenario, schedules",
        [(ex10, 13), (ex11, 21), (ex13, 52), (travel, 44)],
        ids=["ex10", "ex11", "ex13", "travel"],
    )
    def test_one_crash_at_any_step(self, scenario, schedules):
        spec = scenario()
        for site in sites(spec):
            assert explore(spec, bound=0, crash=planned_crash(site)) == (
                schedules
            ), site

    def test_without_the_reannounce_a_crash_loses_a_settlement(self):
        """The car rental's settlement dies unacknowledged with its
        crashed sessions; without the announcement sent again at
        restart the purchase never hears of it."""
        with mutants.no_reannounce():
            with pytest.raises(ScheduleFailure) as failure:
                explore(travel(), bound=0, crash=planned_crash("car_rental"))
        assert failure.value.property == "progress"

    def test_without_the_sync_round_a_crash_loses_progress(self):
        """Task 2's site restarts knowing nothing: both polarities of
        its entry are refused, and the base never settles."""
        with mutants.no_sync_round():
            with pytest.raises(ScheduleFailure) as failure:
                explore(ex13(), bound=0, crash=planned_crash("cs_i1", 5.0))
        assert failure.value.property == "progress"

    @pytest.mark.parametrize("first", ["t1", "t2"])
    def test_both_tasks_enter_after_any_one_crash(self, first):
        """Example 13 with task 1's site crashing at any step: each task
        enters and leaves its critical section.  A crash can wipe the
        certificate request task 1 deferred for task 2's round, so only
        the ``Recovered`` it broadcasts at restart, and the round abort
        it triggers, let task 2 ask again; and an attempt that reaches
        the site while it is down is retried at its restart.  Without
        any of the three the run still ends maximal, but the drain
        settles the stranded entry negatively."""
        scenario = make_mutex_scenario(first)
        for step, run in enumerate(
            one_crash_runs(scenario, planned_crash("task1"))
        ):
            occurred = {entry.event for entry in run.result.entries}
            assert run.result.terminal == "maximal", step
            assert scenario.expect_occur <= occurred, (
                step, sorted(map(repr, scenario.expect_occur - occurred))
            )


def decisions(run, times: bool = True) -> tuple:
    """A run's settled timeline (with times, or the order alone), its
    terminal state and every role's final status."""
    result = run.result
    return (
        tuple(
            (repr(entry.event), entry.time) if times else repr(entry.event)
            for entry in result.entries
        ),
        result.terminal,
        tuple(
            (repr(role.event), role.status.name)
            for role in sorted(
                run.sched.roles(), key=lambda role: role.event.sort_key()
            )
        ),
    )


def one_crash_runs(scenario, crash) -> list:
    """The default schedule with ``crash`` planned, and each schedule
    that crashes the site at one step of it (``explore`` at bound 0)."""
    default = run_schedule(scenario, crash=crash)
    runs = [default]
    for step, index in enumerate(default.crashes):
        if not index:
            break  # the default schedule crashes here
        runs.append(run_schedule(scenario, (0,) * step + (index,), crash=crash))
    return runs


class TestAnnouncePruning:
    """An occurrence is not announced to an actor whose base the
    publisher knows has settled: a settled base decides nothing more.
    Against :func:`mutants.announce_to_settled`, which announces to
    every subscriber, the pruned protocol takes the default schedule to
    the same timeline, and every one-crash schedule to the same
    settlement orders, with fewer messages.  A crash run's settlement
    times may move earlier: its drain starts at quiescence, which a
    pruned delivery no longer holds back.  On the default schedule
    every role ends holding the same knowledge and residual: what a
    settled base holds does not depend on what was pruned."""

    @pytest.mark.parametrize(
        "scenario, fewer",
        [
            (ex10, False), (ex11, False), (ex13, True), (travel, True),
            (consensus3, False), (rerequest, True),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_pruning_moves_no_decision(self, scenario, fewer):
        spec = scenario()
        pruned = run_schedule(spec)
        with mutants.announce_to_settled():
            unpruned = run_schedule(spec)
        assert decisions(pruned) == decisions(unpruned)
        assert observables(pruned)["actors"] == observables(unpruned)["actors"]
        sent, unpruned_sent = pruned.result.messages, unpruned.result.messages
        assert sent < unpruned_sent if fewer else sent == unpruned_sent
        for site in sites(spec):
            crash = planned_crash(site)
            orders = {
                decisions(run, times=False)
                for run in one_crash_runs(spec, crash)
            }
            with mutants.announce_to_settled():
                unpruned_orders = {
                    decisions(run, times=False)
                    for run in one_crash_runs(spec, crash)
                }
            assert orders == unpruned_orders, site

    def test_a_settled_role_holds_the_same_unpruned(self):
        """The spec whose settled role once learned what the pruned
        protocol no longer told it."""
        pruned = run_schedule(settled_lag())
        with mutants.announce_to_settled():
            unpruned = run_schedule(settled_lag())
        assert pruned.result.messages < unpruned.result.messages
        assert observables(pruned)["actors"] == observables(unpruned)["actors"]


class TestMutants:
    """Seeded protocol mutants, each killed by a named property: the
    explorer finding nothing on the real protocol means something.
    The mechanism mutants are :mod:`tests.scheduler.mutants`."""

    def test_skipping_every_announcement_breaks_agreement(self):
        with mock.patch.object(GuardCursor, "wakes_on", lambda self, base: False):
            with pytest.raises(ScheduleFailure) as failure:
                explore(ex10())
        assert failure.value.property == "agreement"

    def test_a_round_firing_without_its_transient_check_is_unsound(self):
        """Task 2 enters while task 1 holds the critical section: its
        round learned that ``b1`` occurred and fired anyway."""
        mutant = mock.patch.object(
            Role, "_subsumed_under_transient", lambda self: True
        )
        with mutant, pytest.raises(ScheduleFailure) as failure:
            explore(make_mutex_scenario("t2"), bound=2, agreement=False)
        assert failure.value.property == "soundness"
        assert len(deviations(failure.value.prefix)) == 2

    def test_a_dropped_promise_grant_loses_progress(self):
        mutant = mock.patch.dict(
            actors.HANDLERS,
            {PromiseGrant: lambda actor, grant: None},
        )
        with mutant, pytest.raises(ScheduleFailure) as failure:
            explore(ex11(), agreement=False)
        assert failure.value.property == "progress"

    @pytest.mark.parametrize(
        "mutant, scenario",
        [
            (mutants.no_certificates, travel),
            (mutants.no_certificates, ex13),
            # not-yet rounds against promise grants for one cube: a
            # literal needing both facts leaves its cube without a plan
            (mutants.no_combined_resolutions, travel),
        ],
        ids=lambda value: value.__name__,
    )
    def test_without_certificates_the_default_schedule_is_stuck(
        self, mutant, scenario
    ):
        with mutant(), pytest.raises(ScheduleFailure) as failure:
            explore(scenario(), bound=0, agreement=False)
        assert failure.value.property == "progress"
        assert failure.value.prefix == ()

    def test_without_chaining_consensus_cycles_still_hold(self):
        """The survivor: optimistic grants settle the 3-cycle on every
        schedule within one delay (fewer schedules: no chained
        requests), so consensus is stronger than this spec needs
        (Section 6); a chain that dead-ends breaks a promise instead
        (``test_policy_and_failures``)."""
        with mutants.no_chaining():
            assert explore(consensus3(), bound=1) == 35
        assert explore(consensus3(), bound=1) == 48


@pytest.mark.xfail(
    strict=True,
    reason="Example 13 with an idle task: one settlement batch attempts "
    "~b2 and ~e2 while b2 is parked; the grants <>~b2 to ~e2 and <>e2 "
    "to b2 cross, both ~e2 and b2 fire, and two promises break",
)
def test_ex13_with_an_idle_task_is_sound():
    """Theorem 6 soundness on Example 13 when task 1 never runs: the
    run ends maximal with <~b1 ~e1 b2 ~e2>, which violates ~b2 + e2
    (206 of seeds 0-1999 fail; none with both tasks scripted)."""
    scenario = make_mutex_scenario("t1")
    workflow = scenario.workflow
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=UniformLatency(0.1, 3.0),
        rng=random.Random(11),
    )
    task2 = [s for s in scenario.scripts if s.site != "task1"]
    result = sched.run(task2, verify=False)
    assert result.terminal == "maximal"
    assert Event("b2") in {e.event for e in result.entries}
    assert judge(result.trace, workflow.dependencies) == []


def test_exclusive_choice_every_schedule():
    """Theorem 6 soundness on ``a + b`` / ``~a + ~b``: every schedule
    settles exactly one of a and b."""
    explore(xor())


@pytest.mark.parametrize("b_at", [0, 1, 5, 50])
def test_exclusive_choice_default_schedule(b_at):
    """However late b is attempted, the default schedule settles
    exactly one of a and b."""
    check_schedule(xor(b_at), ())


@pytest.mark.xfail(
    strict=True,
    raises=ScheduleFailure,
    reason="ROADMAP item 1 step 2 (arbitration within a base): the run "
    "ends maximal on a trace a dependency rejects, and a role broke its "
    "promise",
)
@pytest.mark.parametrize(
    "name", ["unsound450", "unsound32513", "unsound33837"]
)
def test_lane_unsound_spec_default_schedule(name):
    """The random lane's three unsound specs hold soundness, progress
    and engine agreement at the default schedule."""
    check_schedule(lane_residual(name), ())


@pytest.mark.xfail(
    strict=True,
    raises=ScheduleFailure,
    reason="ROADMAP item 1 step 2 and item 2's progress property: the "
    "run ends stuck (37771 with a broken promise, 59839 without) although "
    "a completion occurring only attempted events satisfies the spec",
)
@pytest.mark.parametrize("name", ["stuck37771", "stuck59839"])
def test_lane_stuck_spec_default_schedule(name):
    """The random lane's two stuck specs, shrunk, reach a maximal trace
    at the default schedule."""
    check_schedule(lane_residual(name), ())
