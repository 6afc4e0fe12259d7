"""Experiment: overhead of the reliable session layer and recovery.

Measures the travel-booking scenario on the distributed scheduler at
message-drop probabilities 0.0 / 0.1 / 0.3 (duplication matched to the
drop rate), with and without a mid-run site crash, and records:

* virtual makespan (how much wall time the *workflow* loses),
* message volume incl. acks and retransmissions (the fabric's cost),
* recovery latency after a crash (restart -> solicitation complete).

The assertions pin the qualitative claims recorded in EXPERIMENTS.md:
the session layer is invisible at drop=0 beyond ack traffic (fewer
acks than site-to-site payloads: one per session per instant), and at
drop=0.3 with a crash the scenario still settles every base.
"""

import random

import pytest

from repro.scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_travel_booking

DROPS = [0.0, 0.1, 0.3]


def _run(drop, plan, seed=0, reliable=True):
    scenario = make_travel_booking("success")
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=drop,
        reliable=reliable,
        fault_plan=plan,
    )
    result = sched.run(scenario.scripts, verify=False)
    return sched, scenario, result


@pytest.mark.parametrize("drop", DROPS)
def test_bench_session_layer_overhead(benchmark, drop):
    """Reliable run vs. the drop rate: cost in messages and makespan."""

    def run():
        return _run(drop, plan=None)

    sched, scenario, result = benchmark(run)
    assert not result.unsettled
    occurred = {en.event for en in result.entries}
    assert scenario.expect_occur <= occurred
    network = sched.metrics_report()["network"]
    if drop == 0.0:
        assert network["retransmits"] == 0
    else:
        assert network["dropped"] > 0  # the fabric really was lossy
    print(
        f"\n[chaos drop={drop:.1f}] makespan={result.makespan:.1f} "
        f"messages={network['messages']} acks={network['acks_sent']} "
        f"retransmits={network['retransmits']}"
    )


@pytest.mark.parametrize("drop", DROPS)
def test_bench_crash_recovery(benchmark, drop):
    """Same sweep with the airline site crashing mid-booking."""

    plan = FaultPlan.of([SiteCrash("airline", at=2.0, restart_at=7.0)])

    def run():
        return _run(drop, plan=plan)

    sched, scenario, result = benchmark(run)
    assert not result.unsettled
    occurred = {en.event for en in result.entries}
    assert scenario.expect_occur <= occurred
    metrics = sched.metrics_report()
    assert metrics["faults"] == {"crashes": 1, "restarts": 1}
    network = metrics["network"]
    recovery = metrics["histograms"]["recovery_latency"]["total"]
    print(
        f"\n[chaos drop={drop:.1f} +crash] makespan={result.makespan:.1f} "
        f"messages={network['messages']} acks={network['acks_sent']} "
        f"retransmits={network['retransmits']} "
        f"recovery={recovery['max']:.1f}"
    )


def test_bench_raw_vs_reliable_baseline(benchmark):
    """The layer's fault-free cost relative to the raw fabric."""

    def run():
        _, _, raw = _run(0.0, plan=None, reliable=False)
        sched, _, wrapped = _run(0.0, plan=None, reliable=True)
        return raw, wrapped, sched

    raw, wrapped, sched = benchmark(run)
    assert [en.event for en in raw.entries] == [
        en.event for en in wrapped.entries
    ]
    network = sched.metrics_report()["network"]
    # overhead is pure ack traffic, and a session acks once per instant
    # whatever number of payloads landed on it then: fewer acks than
    # site-to-site payloads
    payloads = network["messages"] - network["acks_sent"]
    assert 0 < network["acks_sent"] < payloads
    assert network["retransmits"] == 0
