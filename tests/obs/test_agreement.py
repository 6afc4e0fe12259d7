"""A run event is reported once: the counter, the ``network`` field and
the ``ExecutionResult`` field of an event say what its trace records
say.  Every lifecycle event has one reporting method
(``repro.scheduler.base.RunBase``) and every transport layer one
note-call, so the recorders cannot drift apart; this table holds them
to it on the paper's examples, on both schedulers, clean and under
chaos.  Every offline reader of the trace finds the same occurrences
the result holds, whichever op (``fired`` or ``accepted``) records
them."""

import random
from collections import Counter

import pytest

from repro.obs import Tracer, critical_path, histogram_cross_check
from repro.obs.check import occurred_events
from repro.obs.provenance import explain_records
from repro.obs.query import attempt_to_fire
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_mutex_scenario, make_travel_booking

#: (name, scenario factory, DistributedScheduler-only chaos kwargs)
RUNS = [
    ("ex12_clean", make_travel_booking, {}),
    (
        "ex12_chaos",
        make_travel_booking,
        dict(
            drop_probability=0.2,
            duplicate_probability=0.2,
            fault_plan=FaultPlan.of(
                [SiteCrash("airline", at=3.0, restart_at=9.0)]
            ),
        ),
    ),
    ("ex13", make_mutex_scenario, {}),
]

#: counter -> the (cat, op) of its trace record
COUNTERS = {
    "attempts": ("actor", "attempted"),
    "parked": ("actor", "parked"),
    "rejected": ("actor", "rejected"),
    "not_yet_rounds": ("round", "start"),
}

#: ``network`` field -> the (cat, op) of its trace record
NETWORK = {
    "messages": ("message", "send"),
    "dropped": ("message", "drop"),
    "duplicated": ("message", "dup"),
    "retransmits": ("session", "retransmit"),
    "retransmit_giveups": ("session", "giveup"),
    "dedup_discards": ("session", "dedup"),
    "crash_lost": ("session", "crash_lost"),
    "stale_session": ("session", "stale"),
    "session_resets": ("session", "reset"),
}


def _counter(report, name):
    return report["counters"].get(name, {"total": 0})["total"]


def _traced_run(make, chaos, scheduler):
    """``(scheduler, result, trace records)`` of one settled run."""
    if chaos and scheduler is CentralizedScheduler:
        pytest.skip("the center runs on the clean fabric only")
    scenario = make()
    tracer = Tracer()
    sched = scheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(7),
        tracer=tracer,
        **chaos,
    )
    result = sched.run(scenario.scripts)
    assert not result.unsettled
    return sched, result, tracer.records


SCHEDULERS = pytest.mark.parametrize(
    "scheduler", [DistributedScheduler, CentralizedScheduler]
)
SCENARIOS = pytest.mark.parametrize(
    "name,make,chaos", RUNS, ids=[run[0] for run in RUNS]
)


@SCHEDULERS
@SCENARIOS
def test_counters_equal_their_trace_records(name, make, chaos, scheduler):
    sched, result, trace = _traced_run(make, chaos, scheduler)
    records = Counter((r["cat"], r["op"]) for r in trace)
    report = sched.metrics_report()

    expected = dict(COUNTERS)
    expected[sched.SETTLED_OP] = ("actor", sched.SETTLED_OP)
    for counter, record in expected.items():
        assert _counter(report, counter) == records[record], counter
    for field, record in NETWORK.items():
        assert report["network"][field] == records[record], field
    evals = _counter(report, "guard_evals") + _counter(
        report, "certificate_evals"
    )
    assert evals == records[("guard", "eval")]
    faults = report.get("faults", {"crashes": 0, "restarts": 0})
    assert faults["crashes"] == records[("fault", "crash")]
    assert faults["restarts"] == records[("fault", "restart")]

    # the result's own fields are the same numbers
    assert _counter(report, "triggered") == result.triggered
    assert _counter(report, "parked") == result.parked_total
    assert _counter(report, "not_yet_rounds") == result.not_yet_rounds
    assert _counter(report, sched.SETTLED_OP) == len(result.entries)
    assert report["network"]["messages"] == result.messages

    if chaos:  # the table must have bitten: the chaos arm saw chaos
        for field in ("dropped", "duplicated", "retransmits",
                      "dedup_discards", "crash_lost", "session_resets"):
            assert report["network"][field] > 0, field
        assert result.triggered > 0


@SCHEDULERS
@SCENARIOS
def test_offline_readers_find_the_entries(name, make, chaos, scheduler):
    sched, result, records = _traced_run(make, chaos, scheduler)
    entries = [repr(entry.event) for entry in result.entries]
    assert entries
    assert occurred_events(records) == entries
    latencies = attempt_to_fire(records)
    assert sorted(latencies) == sorted(entries)
    for entry in result.entries:
        event = repr(entry.event)
        (fire,) = latencies[event]
        assert fire["fired_at"] == entry.time
        assert fire["latency"] == entry.time - entry.attempted_at
        assert critical_path(records, event=event)[-1]["to_t"] == entry.time
        assert explain_records(records, event).status == "occurred"
    assert critical_path(records)[-1]["to_t"] == result.entries[-1].time
    assert histogram_cross_check(records, sched.metrics_report()) == []
