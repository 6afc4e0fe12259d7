"""The one oracle: satisfaction plus the Definition 4 point check."""

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import AttemptOutcome, ExecutionResult, TraceEntry
from repro.scheduler.oracle import judge
from repro.temporal.guards import generates, workflow_guards
from repro.workloads.scenarios import (
    make_mutex_scenario,
    make_order_fulfillment,
    make_travel_booking,
)

E, F = Event("e"), Event("f")
D_PREC = parse("~e + ~f + e . f")
GUARDS = workflow_guards([D_PREC])

SCHEDULERS = [DistributedScheduler, CentralizedScheduler]
SCENARIOS = [
    make_travel_booking("success"),
    make_travel_booking("failure"),
    make_order_fulfillment(True),
    make_order_fulfillment(False),
    make_mutex_scenario("t1"),
]


class TestValidateTrace:
    def test_clean_trace(self):
        assert judge(Trace([E, F]), [D_PREC]) == []

    def test_violation_found(self):
        [violation] = judge(Trace([F, E]), [D_PREC])
        assert violation.kind == "dependency"
        assert violation.detail == f"trace {Trace([F, E])!r} violates {D_PREC!r}"

    def test_maximality_checked(self):
        # maximality is the run's terminal state, not a finding: e alone
        # with settlement skipped leaves f unsettled
        sched = DistributedScheduler([D_PREC])
        result = sched.run(
            [AgentScript("site_e", [ScriptedAttempt(0.0, E)])], settle=False
        )
        assert result.terminal == "stuck"
        assert result.unsettled == [F]

    def test_maximality_optional(self):
        # a non-maximal trace that satisfies every dependency is clean
        assert judge(Trace([E]), [parse("~f + e")]) == []


class TestValidateGeneration:
    def test_valid_order_passes(self):
        assert judge(Trace([E, F]), [D_PREC], GUARDS) == []
        assert judge(Trace([~E, F]), [D_PREC], GUARDS) == []

    def test_guard_violation_located(self):
        # f before e: f's guard ([]e + <>~e) is false at index 0, and
        # e's (!f) at index 1
        trace = Trace([F, E])
        guard = [v for v in judge(trace, [D_PREC], GUARDS) if v.kind == "guard"]
        assert [v.detail for v in guard] == [
            f"f occurred at index 0 while its guard {GUARDS[F]!r} was false",
            f"e occurred at index 1 while its guard {GUARDS[E]!r} was false",
        ]
        assert not generates(GUARDS, trace)

    def test_foreign_events_ignored(self):
        g = Event("g")
        assert judge(Trace([g, E, F]), [D_PREC], GUARDS) == []
        assert generates(GUARDS, Trace([g, E, F]))


class TestAuditSchedulerRuns:
    """Every scheduler's runs on every scenario pass the oracle, guards
    included, and end maximal -- an oracle fully independent of the
    schedulers' own bookkeeping."""

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize(
        "scenario", SCENARIOS, ids=lambda s: s.description[:24]
    )
    def test_runs_pass_audit(self, scheduler_cls, scenario):
        workflow = scenario.workflow
        sched = scheduler_cls(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
        )
        result = sched.run(
            [type(s)(s.site, list(s.attempts)) for s in scenario.scripts]
        )
        deps = workflow.dependencies
        assert judge(result.trace, deps, workflow_guards(deps)) == []
        assert result.terminal == "maximal"

    def test_verify_is_the_oracle_without_guards(self):
        result = ExecutionResult(
            entries=[
                TraceEntry(event, 1.0, 0.0, AttemptOutcome.ACCEPTED)
                for event in (F, E)
            ]
        )
        found = result.verify([D_PREC])
        assert found == judge(Trace([F, E]), [D_PREC]) != []
        assert result.violations == found
        assert result.verify([]) == [] and result.violations == found
