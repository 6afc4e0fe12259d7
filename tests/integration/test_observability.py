"""End-to-end observability acceptance: profile, series, analytics.

The SC1 workload (N merged travel-booking instances, the scalability
scenario of Section 6) runs once with every observability surface on:
profiler, time-series sampling, causal tracing.  The acceptance bars:

* the phase breakdown covers synthesis, delivery, and guard work, and
  its times are internally consistent (self <= cumulative, children
  inside parents);
* per-event attempt->fire latencies reconstructed from the trace agree
  *exactly* with the scheduler's own ``time_to_allow`` lifecycle
  histogram (sim time is deterministic -- no tolerance needed);
* instrumentation changes no observable: timeline, makespan, messages,
  and metrics counters are bit-identical to an uninstrumented run.
"""

import random

import pytest

from repro.obs.query import (
    attempt_to_fire,
    histogram_cross_check,
    latency_summary,
    percentile,
)
from repro.obs.profile import Profiler
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.network import ConstantLatency
from repro.workloads.scenarios import make_travel_booking


def _sc1_workload(count=6, rng_seed=0):
    rng = random.Random(rng_seed)
    scenarios = [
        make_travel_booking(
            "success" if rng.random() < 0.7 else "failure", suffix=f"_i{i}"
        )
        for i in range(count)
    ]
    workflow = scenarios[0].workflow
    scripts = list(scenarios[0].scripts)
    for scenario in scenarios[1:]:
        workflow = workflow.merged(scenario.workflow)
        scripts.extend(scenario.scripts)
    return workflow, scripts


def _run(workflow, scripts, sample_every=None, **kwargs):
    scheduler = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(42),
        **kwargs,
    )
    if sample_every is not None:
        scheduler.enable_timeseries(sample_every)
    result = scheduler.run(scripts)
    return result, scheduler


@pytest.fixture(scope="module")
def instrumented():
    workflow, scripts = _sc1_workload()
    profiler, tracer = Profiler(), Tracer()
    result, scheduler = _run(
        workflow, scripts,
        profiler=profiler, tracer=tracer, sample_every=1.0,
    )
    return result, scheduler, profiler.report(), tracer.records


class TestPhaseBreakdown:
    def test_expected_phases_present(self, instrumented):
        _, _, profile, _ = instrumented
        phases = profile["phases"]
        assert "synthesis" in phases
        assert "delivery" in phases
        leaves = {path.rsplit("/", 1)[-1] for path in phases}
        assert {"guard_eval", "watch_wake", "cube_ops"} <= leaves

    def test_self_within_cumulative_and_children_nested(self, instrumented):
        _, _, profile, _ = instrumented
        phases = profile["phases"]
        for path, node in phases.items():
            assert 0.0 <= node["self_seconds"] <= node["cum_seconds"]
        # each parent's cumulative covers the sum of its children
        for path, node in phases.items():
            child_cum = sum(
                child["cum_seconds"]
                for child_path, child in phases.items()
                if child_path.startswith(path + "/")
                and "/" not in child_path[len(path) + 1:]
            )
            assert child_cum <= node["cum_seconds"] + 1e-9

    def test_site_attribution_covers_workflow_sites(self, instrumented):
        result, scheduler, profile, _ = instrumented
        sites = {
            site
            for per in profile["by_site"].values()
            for site in per
        }
        assert sites  # delivery spans carry destination sites
        assert sites <= set(scheduler.network.stats.per_site_handled)


class TestLatencyCrossCheck:
    def test_trace_agrees_with_lifecycle_histogram(self, instrumented):
        _, scheduler, _, records = instrumented
        assert histogram_cross_check(records, scheduler.metrics_report()) == []

    def test_per_event_p99_agrees_with_timeline(self, instrumented):
        result, _, _, records = instrumented
        summary = latency_summary(records)
        assert summary
        timeline = {}
        for entry in result.entries:
            if entry.outcome.value == "accepted":
                timeline.setdefault(repr(entry.event), []).append(
                    entry.time - entry.attempted_at
                )
        for event, stats in summary.items():
            lats = timeline[event]
            assert stats["count"] == len(lats)
            assert stats["p99"] == percentile(lats, 99)
            assert stats["max"] == max(lats)

    def test_every_fire_paired(self, instrumented):
        result, _, _, records = instrumented
        paired = sum(
            len(fires) for fires in attempt_to_fire(records).values()
        )
        accepted = sum(
            1 for e in result.entries if e.outcome.value == "accepted"
        )
        assert paired == accepted


class TestZeroObservableDrift:
    def test_instrumented_run_matches_plain_run(self, instrumented):
        result, scheduler, _, _ = instrumented
        workflow, scripts = _sc1_workload()
        plain_result, plain_scheduler = _run(workflow, scripts)
        assert [
            (repr(e.event), e.time, e.attempted_at, e.outcome)
            for e in plain_result.entries
        ] == [
            (repr(e.event), e.time, e.attempted_at, e.outcome)
            for e in result.entries
        ]
        assert plain_result.makespan == result.makespan
        assert plain_result.messages == result.messages
        plain_metrics = plain_scheduler.metrics_report()
        metrics = scheduler.metrics_report()
        assert plain_metrics["counters"] == metrics["counters"]
        assert plain_metrics["network"] == metrics["network"]

    def test_timeseries_track_run_shape(self, instrumented):
        result, scheduler, _, _ = instrumented
        series = scheduler.metrics_report()["timeseries"]["series"]
        fires = series["fires_per_interval"]
        accepted = sum(
            1 for e in result.entries if e.outcome.value == "accepted"
        )
        assert sum(v for _, v in fires) == accepted
        # all queues drain by the end of the run
        assert series["parked_events"][-1][1] == 0.0
        assert series["inflight_messages"][-1][1] == 0.0
        assert series["channel_backlog"][-1][1] == 0.0
