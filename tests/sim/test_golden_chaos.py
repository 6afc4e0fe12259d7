"""The session layer's golden trace.

``examples/golden/travel_chaos.trace.jsonl`` is one travel booking run
over the exactly-once sessions of :mod:`repro.sim.reliable`, under a
lossy fabric (drop 0.3, duplicate 0.2) and a crash of the airline site
from 3 to 9, at seed 0.  The other golden traces run on the raw fabric,
so this one pins sequence numbers, acks, retransmission timers, dedup
and the session reset on restart: a rerun must make the same decisions
in the same order at every site (``repro diff`` exit 0), and write the
same trace to the byte, as CI's ``cmp`` holds the other goldens.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.obs.diff import diff_traces
from repro.obs.tracer import Tracer, read_jsonl, to_jsonl
from repro.scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_travel_booking

GOLDEN = (
    Path(__file__).resolve().parents[2]
    / "examples" / "golden" / "travel_chaos.trace.jsonl"
)


def chaos_trace() -> Tracer:
    """Run the golden scenario and return its tracer."""
    scenario = make_travel_booking("success")
    tracer = Tracer()
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(0),
        drop_probability=0.3,
        duplicate_probability=0.2,
        fault_plan=FaultPlan.of(
            [SiteCrash("airline", at=3.0, restart_at=9.0)]
        ),
        tracer=tracer,
    )
    sched.run(scenario.scripts, verify=False)
    return tracer


def test_chaos_run_matches_the_golden_trace():
    golden = read_jsonl(GOLDEN)
    assert any(r["cat"] == "session" for r in golden)
    records = chaos_trace().records
    diff = diff_traces(golden, records)
    assert diff.identical, diff.summary()
    assert to_jsonl(records) == GOLDEN.read_text()
