"""Experiment SC1: centralized vs distributed as workflows multiply.

The paper's case for the event-centric scheduler (Sections 1, 4, 6) is
distribution itself: no central node, local decisions, information
flowing as soon as it is available.  This bench runs N independent
travel-booking instances under each scheduler and compares

* the *bottleneck load* (messages handled by the busiest site) --
  the centralized scheduler funnels every decision through one node,
  so its maximum site load grows linearly with N while the distributed
  scheduler's stays flat per instance;
* the end-to-end makespan under non-zero network latency and a small
  per-decision service time at the central node.

Absolute numbers are simulator-scale; the *shape* (who wins, roughly
linear growth of the central bottleneck) is the reproduced claim.
"""

import random

import pytest

from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.sim.network import ConstantLatency

from benchmarks.helpers import merged_travel_instances

LATENCY = 1.0
SERVICE = 0.2


def _run(scheduler_cls, count, **kwargs):
    workflow, scripts = merged_travel_instances(count)
    sched = scheduler_cls(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(LATENCY),
        rng=random.Random(1),
        **kwargs,
    )
    result = sched.run(scripts)
    assert result.ok, result.violations
    return result


@pytest.mark.parametrize("count", [2, 4, 8])
def test_bench_distributed_scaling(benchmark, count):
    result = benchmark.pedantic(
        lambda: _run(DistributedScheduler, count), rounds=3, iterations=1
    )
    # actors are spread across sites: no single site dominates
    assert result.max_site_load <= result.messages // 2
    # instances are independent: the busiest site's load is an
    # instance-local constant, not a function of N
    assert result.max_site_load <= 60


@pytest.mark.parametrize("count", [2, 4, 8])
def test_bench_centralized_scaling(benchmark, count):
    result = benchmark.pedantic(
        lambda: _run(
            CentralizedScheduler, count, decision_service_time=SERVICE
        ),
        rounds=3,
        iterations=1,
    )
    # every attempt funnels through the center
    assert result.max_site_load >= count * 3


@pytest.mark.parametrize("count", [16, 64])
def test_bench_sharded_vs_merged(benchmark, count):
    """SC6: the same N instances, one merged scheduler vs 4 shards.

    The settled event set must agree; the sharded runner's win is
    wall-clock (it dodges the merged scheduler's whole-system
    settlement scan and re-synthesizes guards once per shard via the
    template).  Makespans are not compared: per-shard RNG streams
    legitimately reorder message timings.
    """
    from repro.scale import plan_shards, run_sharded

    from benchmarks.helpers import travel_instance_specs

    template, instances = travel_instance_specs(count)
    tasks = plan_shards(template, instances, 4, seed=1, latency=LATENCY)

    sharded = benchmark.pedantic(
        lambda: run_sharded(tasks, workers=2), rounds=3, iterations=1
    )
    assert sharded.result.ok, sharded.result.violations
    merged = _run(DistributedScheduler, count)
    assert (
        {repr(e.event) for e in sharded.result.entries}
        == {repr(e.event) for e in merged.entries}
    )
    # per-site load stays an instance-local constant under sharding too
    assert sharded.result.max_site_load <= 60


def test_bench_bottleneck_shape(benchmark):
    """The headline comparison: central bottleneck grows ~linearly with
    N; the distributed per-site maximum stays bounded."""

    def sweep():
        rows = []
        for count in (2, 4, 8, 16):
            dist = _run(DistributedScheduler, count)
            cent = _run(
                CentralizedScheduler, count, decision_service_time=SERVICE
            )
            rows.append(
                {
                    "instances": count,
                    "dist_max_site_load": dist.max_site_load,
                    "cent_max_site_load": cent.max_site_load,
                    "dist_makespan": dist.makespan,
                    "cent_makespan": cent.makespan,
                    "dist_messages": dist.messages,
                    "cent_messages": cent.messages,
                    "cent_queue_wait": cent.central_queue_wait,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_count = {row["instances"]: row for row in rows}
    # centralized bottleneck grows with N, roughly linearly...
    assert (
        by_count[16]["cent_max_site_load"]
        > by_count[8]["cent_max_site_load"]
        > by_count[4]["cent_max_site_load"]
        > by_count[2]["cent_max_site_load"]
    )
    assert by_count[16]["cent_max_site_load"] >= 6 * by_count[2]["cent_max_site_load"]
    # ...and so does its queue wait and makespan
    assert by_count[16]["cent_queue_wait"] > by_count[2]["cent_queue_wait"]
    assert by_count[16]["cent_makespan"] > 2 * by_count[2]["cent_makespan"]
    # independent instances keep the distributed per-site load and the
    # distributed makespan flat (instance-local constants)
    assert by_count[16]["dist_max_site_load"] <= by_count[2]["dist_max_site_load"] * 1.5
    assert by_count[16]["dist_makespan"] <= by_count[2]["dist_makespan"] * 1.5
    # the crossover: at high load the distributed scheduler wins both
    # bottleneck load and makespan (the paper's scalability claim)
    assert (
        by_count[16]["dist_max_site_load"]
        < by_count[16]["cent_max_site_load"]
    )
    assert by_count[16]["dist_makespan"] < by_count[16]["cent_makespan"]
    # the honest trade-off: the event-centric protocol sends more
    # messages in total -- they are just spread across sites
    assert by_count[16]["dist_messages"] > by_count[16]["cent_messages"]
