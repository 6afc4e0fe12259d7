"""End-to-end observability: the acceptance criteria of the tracing
subsystem on the paper's example workflows.

* traces recorded from Examples 10 / 12 / 13 under heavy chaos
  (drop = dup = 0.3, a site crash mid-run) satisfy every invariant the
  offline checker knows;
* tracing is purely observational: a traced run and an untraced run of
  the same seeded scenario produce identical results;
* ``metrics_report`` reflects what actually happened.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import Tracer, check_records, to_chrome
from repro.scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import (
    make_mutex_scenario,
    make_order_fulfillment,
    make_travel_booking,
)

from ..conftest import assert_run_kernel_schema

SCENARIOS = {
    "ex10_order": make_order_fulfillment,
    "ex12_travel": make_travel_booking,
    "ex13_mutex": make_mutex_scenario,
}


def _run(scenario, *, tracer=None, drop=0.0, dup=0.0, plan=None, seed=7):
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
        reliable=True,
        fault_plan=plan,
        tracer=tracer,
    )
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def _crash_plan(scenario):
    """Crash one of the scenario's sites mid-run, restart it later."""
    victim = sorted(set(scenario.workflow.sites.values()))[0]
    return FaultPlan.of([SiteCrash(victim, at=3.0, restart_at=9.0)])


def _run_counters(sched) -> dict:
    kernel = sched.metrics_report()["kernel"]
    return {"watch": kernel["watch"], "compiled": kernel["compiled"]}


#: the crashed travel run of ``test_kernel_counters_are_the_runs_own``,
#: alone in a fresh process
ALONE = """
import json
from repro.workloads.scenarios import make_travel_booking
from tests.obs.test_integration import _crash_plan, _run, _run_counters

scenario = make_travel_booking("failure")
sched, _ = _run(scenario, plan=_crash_plan(scenario))
print(json.dumps(_run_counters(sched)))
"""


class TestChaosTracesSatisfyInvariants:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_heavy_chaos_trace_is_clean(self, name):
        scenario = SCENARIOS[name]()
        tracer = Tracer()
        _, result = _run(
            scenario, tracer=tracer, drop=0.3, dup=0.3,
            plan=_crash_plan(scenario),
        )
        assert not result.unsettled
        assert tracer.records, "chaos run recorded nothing"
        diags = check_records(tracer.records)
        assert diags == [], "\n".join(str(d) for d in diags)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_chaos_trace_exports_to_chrome(self, name):
        scenario = SCENARIOS[name]()
        tracer = Tracer()
        _run(scenario, tracer=tracer, drop=0.3, dup=0.3,
             plan=_crash_plan(scenario))
        chrome = to_chrome(tracer.records)
        assert len(chrome["traceEvents"]) >= len(tracer.records)

    def test_fault_free_trace_is_clean_too(self):
        tracer = Tracer()
        _, result = _run(make_travel_booking(), tracer=tracer)
        assert not result.unsettled
        assert check_records(tracer.records) == []


class TestTracingIsPurelyObservational:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_traced_and_untraced_runs_are_identical(self, name):
        """Tracing consumes no randomness and changes no decision."""
        plain_sched, plain = _run(SCENARIOS[name](), drop=0.2, dup=0.2,
                                  seed=11)
        traced_sched, traced = _run(SCENARIOS[name](), tracer=Tracer(),
                                    drop=0.2, dup=0.2, seed=11)
        assert [
            (e.event, e.time, e.attempted_at, e.outcome)
            for e in plain.entries
        ] == [
            (e.event, e.time, e.attempted_at, e.outcome)
            for e in traced.entries
        ]
        assert plain.makespan == traced.makespan
        assert plain.messages == traced.messages

    def test_default_scheduler_uses_the_null_tracer(self):
        sched, _ = _run(make_travel_booking())
        assert sched.tracer.active is False
        assert sched.tracer.records == []


class TestMetricsReport:
    def test_counters_reflect_the_run(self):
        sched, result = _run(make_travel_booking())
        report = sched.metrics_report()
        fired = report["counters"]["fired"]["total"]
        assert fired == len(result.entries)
        assert report["counters"]["attempts"]["total"] >= fired
        assert report["network"]["messages"] == result.messages
        assert_run_kernel_schema(report["kernel"])
        assert report["kernel"]["watch"] == sched.watch.counts()

    def test_kernel_counters_are_the_runs_own(self):
        """A run after another in one process reports the ``watch`` and
        ``compiled`` counters it reports alone in a fresh process."""
        _run(make_mutex_scenario())
        scenario = make_travel_booking("failure")
        sched, _ = _run(scenario, plan=_crash_plan(scenario))
        root = Path(__file__).resolve().parents[2]
        done = subprocess.run(
            [sys.executable, "-c", ALONE],
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            ),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert _run_counters(sched) == json.loads(done.stdout)
        assert _run_counters(sched)["compiled"]["recompiles"] > 0

    def test_crash_run_reports_faults_and_recovery(self):
        scenario = make_travel_booking()
        sched, _ = _run(scenario, plan=_crash_plan(scenario))
        report = sched.metrics_report()
        assert report["faults"] == {"crashes": 1, "restarts": 1}
        assert "recovery_latency" in report["histograms"]

    def test_parked_gauge_drains_back_to_zero(self):
        sched, result = _run(make_travel_booking())
        assert not result.unsettled
        report = sched.metrics_report()
        parked = report["gauges"].get("parked_depth")
        if parked is not None:  # something parked during the run
            assert parked["total"]["value"] == 0.0
            assert parked["total"]["peak"] >= 1.0

    def test_report_is_json_ready(self):
        import json

        sched, _ = _run(make_travel_booking())
        json.dumps(sched.metrics_report())
