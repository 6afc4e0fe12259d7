"""Nothing observable depends on set iteration order.

Events hash by identity, so the order in which a set of events (or of
cubes, which hold events) iterates varies with the process's address
layout; before that it varied with ``PYTHONHASHSEED``.  Either way the
run must not notice: the same pipeline in two interpreters with
different hash seeds has to produce the same trace *and* make the same
function calls, function by function -- ``benchmarks/e2e`` reports
``py_calls_per_settled`` as an exact count, which only means something
if no loop's trip count depends on which element a set yields first.

The per-function diff in the failure message is the tool for finding a
site that iterates a set where it should iterate a sorted tuple.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: travel template x 4 stamped instances (one booking fails), then the
#: merged mutex family; both traced and profiled.  Prints one JSON
#: object: the trace records and the call count of every function.
PIPELINE = r"""
import cProfile, json, random, re
from repro.obs import Tracer
from repro.scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_family
from tests.conftest import run_stamped_travel

def travel(tracer):
    outcomes = ["success", "failure", "success", "success"]
    return run_stamped_travel(outcomes, tracer=tracer)[0]

def mutex(tracer):
    workflow, scripts = make_mutex_family(8, cluster=2).merged()
    sched = DistributedScheduler(
        workflow.dependencies, sites=workflow.sites,
        attributes=workflow.attributes, rng=random.Random(1), tracer=tracer,
    )
    return sched.run(scripts)

records = []
profile = cProfile.Profile()
profile.enable()
for pipeline in (travel, mutex):
    tracer = Tracer()
    result = pipeline(tracer)
    assert result.ok, (result.violations, result.unsettled)
    records.extend(tracer.records)
profile.disable()
calls = {}
for entry in profile.getstats():
    code = entry.code
    name = re.sub(" at 0x[0-9a-f]+", "", code) if isinstance(code, str) else (
        f"{code.co_filename}:{code.co_firstlineno}:{code.co_name}"
    )
    calls[name] = calls.get(name, 0) + entry.callcount
print(json.dumps({"records": records, "calls": calls}))
"""


def run_under(hashseed: int) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hashseed),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_trace_and_call_counts_do_not_depend_on_the_hash_seed():
    one, two = run_under(1), run_under(2)
    assert one["records"], "the pipeline recorded nothing"
    assert one["records"] == two["records"]
    names = sorted(set(one["calls"]) | set(two["calls"]))
    drift = {
        name: (one["calls"].get(name, 0), two["calls"].get(name, 0))
        for name in names
        if one["calls"].get(name, 0) != two["calls"].get(name, 0)
    }
    # only the travel half builds requirement monitors: they sort each
    # closure state's required events once, in slot space, and that
    # order (hence every later trigger scan) must not follow the seed
    monitors = sorted(name for name in drift if "scheduler/monitors.py" in name)
    assert not drift, "call counts differ between hash seeds:\n" + "\n".join(
        f"  {name}: {a} vs {b}" for name, (a, b) in drift.items()
    ) + (
        "\nrequirement monitors (travel pipeline) among them: "
        + ", ".join(name.rsplit(":", 1)[-1] for name in monitors)
        if monitors else ""
    )
