"""What an unobserved run leaves for the cycle collector.

A run's per-message and per-site bookkeeping -- the fabric's journal
and FIFO high-water marks, the metrics registry's columns -- holds
numbers and strings, so the objects the collector counts grow with the
protocol state a run builds (its trace entries, the roles' rounds and
grants), not with its messages or metric updates.  Each budget bounds
the net allocations of tracked objects (``gc.get_count()[0]`` with the
collector off) per settled event over the simulator's run, in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: net tracked allocations per settled event over ``sim.run()`` of the
#: case named by argv[1], in a fresh interpreter
RUN = r"""
import gc, random, sys
from repro.algebra.symbols import Event
from repro.scheduler import DistributedScheduler
from repro.sim import ConstantLatency
from repro.workflows import WorkflowTemplate
from repro.workflows.template import rename_script
from repro.workloads.scenarios import make_travel_booking
from tests.scheduler.test_distributed import _fanin_table

def fanin():
    # the fan-in events park, ~kill dissolves the hub cube, the hubs and
    # then each fan-in event's own base settle
    sched = DistributedScheduler(
        [], guards=_fanin_table(), latency=ConstantLatency(1.0),
        rng=random.Random(1),
    )
    pairs = range(98)
    waves = [
        [Event(f"fan{k}") for k in pairs], [~Event("kill")],
        [Event(f"hub{j}") for j in range(3)], [Event(f"fb{k}") for k in pairs],
    ]

    def run():
        for wave in waves:
            for event in wave:
                sched.attempt(event)
            sched.sim.run()
    return sched, run

def travel():
    # 64 stamped bookings, every third one failing
    template = WorkflowTemplate(make_travel_booking().workflow)
    suffixes = [f"_i{k}" for k in range(64)]
    merged, guards = template.instantiate_merged(suffixes)
    scripts = [
        rename_script(script, template.mapping_for(suffix), suffix)
        for k, suffix in enumerate(suffixes)
        for script in make_travel_booking(
            "failure" if k % 3 == 0 else "success"
        ).scripts
    ]
    sched = DistributedScheduler(
        merged.dependencies, sites=merged.sites,
        attributes=merged.attributes, guards=guards,
        latency=ConstantLatency(1.0), rng=random.Random(1),
    )
    sched.start(scripts)
    return sched, sched.sim.run

sched, run = {"fanin": fanin, "travel": travel}[sys.argv[1]]()
gc.collect()
gc.disable()
before = gc.get_count()[0]
run()
net = gc.get_count()[0] - before
print(net / len(sched.result.entries))
"""

#: per case, the reading plus a margin of at least 8 %: 5.74 (fan-in,
#: 200 settled) and 6.91 (travel, 212 settled) on CPython 3.11.7 and
#: 3.12.1; 7.17 and 7.85 on 3.10.13, which gives each kept trace entry
#: and protocol object an instance dict.  Every one of them read
#: 18.2-19.9 while the journal, the FIFO marks and the metrics were
#: keyed by tuples.
if sys.version_info >= (3, 11):
    BUDGETS = {"fanin": 6.5, "travel": 7.5}
else:
    BUDGETS = {"fanin": 8.0, "travel": 8.5}


def net_per_settled(case: str) -> float:
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", RUN, case],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def test_a_fanin_run_allocates_a_fixed_budget_per_settled_event():
    """Parked fan-in events, their announcements and settlements: no
    tracked object per message, per metric update or per channel."""
    allocated = net_per_settled("fanin")
    assert allocated <= BUDGETS["fanin"], allocated


def test_a_stamped_travel_run_allocates_a_fixed_budget_per_settled_event():
    allocated = net_per_settled("travel")
    assert allocated <= BUDGETS["travel"], allocated
