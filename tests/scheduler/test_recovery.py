"""Crash/recovery acceptance: the paper's examples survive real abuse.

The issue's acceptance criterion: with message drop and duplication
probabilities of 0.3 and at least one site crash/restart, the
distributed scheduler still terminates with a maximal valid trace on
the Example 10 (precedence), Example 12 (travel booking), and
Example 13 (mutual exclusion) scenarios.
"""

import random

import pytest

from repro.algebra.expressions import Zero
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate_trace
from repro.algebra.symbols import Event
from repro.algebra.traces import satisfies
from repro.obs.tracer import Tracer
from repro.scheduler import DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_mutex_scenario, make_travel_booking

DROP = 0.3
DUP = 0.3


def run_scenario(scenario, plan, seed=0, drop=DROP, dup=DUP):
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
        reliable=True,
        fault_plan=plan,
    )
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def assert_maximal_valid(workflow, result):
    assert not result.unsettled, result.unsettled
    bases = [en.event.base for en in result.entries]
    assert len(bases) == len(set(bases))
    for dep in workflow.dependencies:
        assert not isinstance(
            residuate_trace(dep, [en.event for en in result.entries]), Zero
        ), (dep, result.trace)


class TestExample10Precedence:
    """e < f under a lossy fabric with the coordinator site crashing."""

    E, F = Event("e"), Event("f")
    D_PREC = parse("~e + ~f + e . f")

    def _run(self, plan, seed):
        sched = DistributedScheduler(
            [self.D_PREC],
            sites={self.E: "site_e", self.F: "site_f"},
            rng=random.Random(seed),
            drop_probability=DROP,
            duplicate_probability=DUP,
            reliable=True,
            fault_plan=plan,
        )
        result = sched.run(
            [
                AgentScript("site_e", [ScriptedAttempt(0.0, self.E)]),
                AgentScript("site_f", [ScriptedAttempt(1.0, self.F)]),
            ],
            verify=False,
        )
        return sched, result

    @pytest.mark.parametrize("seed", range(5))
    def test_order_survives_crash_of_e_site(self, seed):
        plan = FaultPlan.of([SiteCrash("site_e", at=2.0, restart_at=6.0)])
        _, result = self._run(plan, seed)
        assert not result.unsettled
        assert satisfies(result.trace, self.D_PREC)
        occurred = [en.event for en in result.entries if not en.event.negated]
        if occurred == [self.E, self.F]:
            return  # both made it, in order
        # under heavy loss an attempt can be refused, but never reordered
        assert self.F not in occurred or occurred.index(self.F) > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_order_survives_crash_of_f_site(self, seed):
        plan = FaultPlan.of([SiteCrash("site_f", at=1.5, restart_at=5.0)])
        _, result = self._run(plan, seed)
        assert not result.unsettled
        assert satisfies(result.trace, self.D_PREC)


class TestExample12Travel:
    @pytest.mark.parametrize("outcome", ["success", "failure"])
    @pytest.mark.parametrize("seed", range(3))
    def test_booking_settles_after_airline_crash(self, outcome, seed):
        scenario = make_travel_booking(outcome)
        plan = FaultPlan.of([SiteCrash("airline", at=2.0, restart_at=7.0)])
        sched, result = run_scenario(scenario, plan, seed=seed)
        assert_maximal_valid(scenario.workflow, result)
        occurred = {en.event for en in result.entries}
        assert scenario.expect_occur <= occurred, (
            seed,
            scenario.expect_occur - occurred,
        )
        assert not (scenario.expect_absent & occurred)
        assert sched.metrics_report()["faults"]["crashes"] == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_booking_settles_after_double_crash(self, seed):
        scenario = make_travel_booking("success")
        plan = FaultPlan.of(
            [
                SiteCrash("airline", at=1.0, restart_at=4.0),
                SiteCrash("car_rental", at=5.0, restart_at=9.0),
            ]
        )
        _, result = run_scenario(scenario, plan, seed=seed)
        assert_maximal_valid(scenario.workflow, result)
        occurred = {en.event for en in result.entries}
        assert scenario.expect_occur <= occurred


class TestExample13Mutex:
    @pytest.mark.parametrize("first", ["t1", "t2"])
    @pytest.mark.parametrize("seed", range(3))
    def test_mutex_settles_after_crash(self, first, seed):
        scenario = make_mutex_scenario(first)
        plan = FaultPlan.of([SiteCrash("task1", at=2.5, restart_at=6.0)])
        _, result = run_scenario(scenario, plan, seed=seed)
        assert_maximal_valid(scenario.workflow, result)
        occurred = {en.event for en in result.entries}
        assert scenario.expect_occur <= occurred, (
            first,
            seed,
            scenario.expect_occur - occurred,
        )

    def test_permanent_site_loss_reports_honestly(self):
        """A site that never returns may wedge its bases; the run must
        terminate and report them as unsettled or settled validly --
        never hang, never emit an invalid trace."""
        scenario = make_mutex_scenario("t1")
        plan = FaultPlan.of([SiteCrash("task2", at=1.0)])
        _, result = run_scenario(scenario, plan, seed=0)
        bases = [en.event.base for en in result.entries]
        assert len(bases) == len(set(bases))
        for dep in scenario.workflow.dependencies:
            assert not isinstance(
                residuate_trace(dep, [en.event for en in result.entries]),
                Zero,
            )


class TestRecoveryMechanics:
    """The report exposes what the recovery protocol actually did."""

    def test_recovery_latency_measured(self):
        scenario = make_travel_booking("success")
        plan = FaultPlan.of([SiteCrash("airline", at=2.0, restart_at=7.0)])
        sched, _ = run_scenario(scenario, plan, seed=1)
        report = sched.metrics_report()
        assert report["faults"] == {"crashes": 1, "restarts": 1}
        latencies = report["histograms"].get("recovery_latency")
        assert latencies is None or latencies["total"]["count"] <= 1
        assert report["network"]["session_resets"] >= 1

    def test_a_settlement_lost_in_the_crash_is_announced_again(self):
        """``e`` occurs at 3 and its announcement to ``f``'s site is
        due at 4; ``e``'s site is down from 3.25 to 3.75, so the
        announcement lands on a stale session and is discarded, and the
        crashed sender's retransmission state is gone.  Only the
        announcement sent again at restart lets ``f`` occur."""
        e, f = Event("e"), Event("f")
        sched = DistributedScheduler(
            [parse("e . f")],
            fault_plan=FaultPlan.of(
                [SiteCrash("site_e", at=3.25, restart_at=3.75)]
            ),
        )
        result = sched.run(
            [
                AgentScript("site_f", [ScriptedAttempt(0.0, f)]),
                AgentScript("site_e", [ScriptedAttempt(1.0, e)]),
            ],
            verify=False,
        )
        assert sched.network.stats.stale_session > 0
        assert result.terminal == "maximal"
        assert [(en.event, en.time) for en in result.entries][0] == (e, 3.0)
        assert [en.event for en in result.entries] == [e, f]

    def test_no_faults_no_recovery(self):
        scenario = make_travel_booking("success")
        sched, result = run_scenario(
            scenario, FaultPlan.of([]), seed=0, drop=0.0, dup=0.0
        )
        report = sched.metrics_report()
        assert report["faults"]["crashes"] == 0
        assert report["network"]["retransmits"] == 0
        assert "recovery_latency" not in report["histograms"]
        assert not result.unsettled


class TestLostMessagesFailClosed:
    """A payload the session layer gives up on is a violation, unless
    its destination is down for good (whose bases end unsettled)."""

    def _run(self, plan=None, max_retries=0, tracer=None):
        scenario = make_travel_booking("success")
        sched = DistributedScheduler(
            scenario.workflow.dependencies,
            sites=scenario.workflow.sites,
            attributes=scenario.workflow.attributes,
            rng=random.Random(3),
            drop_probability=DROP,
            reliable=True,
            fault_plan=plan,
            tracer=tracer,
        )
        sched.channel.max_retries = max_retries
        return sched, sched.run(scenario.scripts)

    def test_exhausted_retries_are_a_transport_violation(self):
        sched, result = self._run()
        stats = sched.network.stats
        assert stats.dropped and stats.retransmit_giveups
        lost = [v for v in result.violations if v.kind == "transport"]
        assert len(lost) == stats.retransmit_giveups == len(sched.channel.lost)
        src, dst, kind, seq = sched.channel.lost[0]
        for part in (src, dst, kind, f"#{seq}"):
            assert part in lost[0].detail, lost[0].detail
        assert not result.ok

    def test_a_backlog_given_up_behind_its_oldest_payload_says_so(self):
        """A session gives up its whole backlog once its oldest payload
        has spent its retries, so a lost payload need not have gone out
        again itself: the violation says what was spent."""
        tracer = Tracer()
        sched, result = self._run(max_retries=1, tracer=tracer)
        retries = [
            r["retries"] for r in tracer.records
            if r["cat"] == "session" and r["op"] == "giveup"
        ]
        assert 0 in retries and 1 in retries
        lost = [v for v in result.violations if v.kind == "transport"]
        assert len(lost) == len(retries)
        for violation in lost:
            assert violation.detail.endswith(
                "was given up on with its session's backlog, after the "
                "oldest payload of the session went unanswered through 1 "
                "retransmissions"
            ), violation.detail

    def test_a_budget_that_suffices_reports_nothing(self):
        sched, result = self._run(max_retries=20)
        assert sched.network.stats.dropped
        assert sched.network.stats.retransmit_giveups == 0
        assert not [v for v in result.violations if v.kind == "transport"]

    def test_giving_up_on_a_site_that_is_gone_is_not_a_loss(self):
        plan = FaultPlan.of([SiteCrash("airline", at=0.5)])
        sched, result = self._run(plan, max_retries=1)
        gone = [
            lost for lost in sched.channel.lost if lost[1] == "airline"
        ]
        assert sched.network.stats.retransmit_giveups and not gone
        assert result.unsettled  # the honest report of the dead site
