"""End-to-end scenario matrix: every canonical scenario on every scheduler."""

import pytest

from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.workloads.scenarios import (
    make_mutex_scenario,
    make_order_fulfillment,
    make_travel_booking,
)

SCHEDULERS = [DistributedScheduler, CentralizedScheduler]

SCENARIOS = {
    "travel-success": lambda: make_travel_booking("success"),
    "travel-failure": lambda: make_travel_booking("failure"),
    "order-paid": lambda: make_order_fulfillment(True),
    "order-failed": lambda: make_order_fulfillment(False),
    "mutex-t1": lambda: make_mutex_scenario("t1"),
    "mutex-t2": lambda: make_mutex_scenario("t2"),
}


def run_scenario(scenario, scheduler_cls, **kwargs):
    w = scenario.workflow
    sched = scheduler_cls(
        w.dependencies, sites=w.sites, attributes=w.attributes, **kwargs
    )
    return sched.run(scenario.scripts)


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", list(SCENARIOS))
class TestScenarioMatrix:
    def test_run_is_clean(self, name, scheduler_cls):
        scenario = SCENARIOS[name]()
        result = run_scenario(scenario, scheduler_cls)
        assert result.ok, (result.trace, result.violations)

    def test_expected_events_occur(self, name, scheduler_cls):
        scenario = SCENARIOS[name]()
        result = run_scenario(scenario, scheduler_cls)
        occurred = {en.event for en in result.entries}
        assert scenario.expect_occur <= occurred
        assert not (scenario.expect_absent & occurred)

    def test_trace_is_maximal(self, name, scheduler_cls):
        scenario = SCENARIOS[name]()
        result = run_scenario(scenario, scheduler_cls)
        assert result.trace.is_maximal(scenario.workflow.bases())


class TestTravelNarrative:
    """Example 4's story, end to end on the distributed scheduler."""

    def test_success_path_orders_commits(self):
        scenario = make_travel_booking("success")
        result = run_scenario(scenario, DistributedScheduler)
        events = [en.event.name for en in result.entries]
        # dependency (2): buy commits strictly after book commits
        assert events.index("c_book") < events.index("c_buy")

    def test_failure_path_compensates(self):
        scenario = make_travel_booking("failure")
        result = run_scenario(scenario, DistributedScheduler)
        names = {en.event.name for en in result.entries if not en.event.negated}
        assert "s_cancel" in names
        assert "c_buy" not in names

    def test_mutex_critical_sections_disjoint(self):
        for first in ("t1", "t2"):
            scenario = make_mutex_scenario(first)
            for cls in SCHEDULERS:
                result = run_scenario(scenario, cls)
                order = [en.event.name for en in result.entries]
                b1, e1 = order.index("b1"), order.index("e1")
                b2, e2 = order.index("b2"), order.index("e2")
                # intervals [b1,e1] and [b2,e2] must not overlap
                assert e1 < b2 or e2 < b1, order


class TestManyInstances:
    """Several travel instances sharing one scheduler (Example 12's
    point: instances are independent and interleave freely)."""

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
    def test_three_interleaved_instances(self, scheduler_cls):
        scenarios = [
            make_travel_booking("success", suffix="_a"),
            make_travel_booking("failure", suffix="_b"),
            make_travel_booking("success", suffix="_c"),
        ]
        workflow = scenarios[0].workflow
        scripts = list(scenarios[0].scripts)
        for scn in scenarios[1:]:
            workflow = workflow.merged(scn.workflow)
            scripts.extend(scn.scripts)
        sched = scheduler_cls(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
        )
        result = sched.run(scripts)
        assert result.ok, result.violations
        occurred = {en.event for en in result.entries}
        for scn in scenarios:
            assert scn.expect_occur <= occurred
            assert not (scn.expect_absent & occurred)
