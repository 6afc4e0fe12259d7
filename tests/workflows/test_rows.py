"""Stamped instances as rows (:mod:`repro.workflows.template`).

A stamped instance costs one row of base events over the template's
shapes: the per-instance cost of stamping plus the scheduler build is
a fixed budget of calls, and the scheduler a stamped table builds is
the one its rendered guards build.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scheduler import DistributedScheduler
from repro.scheduler.actors import members
from repro.sim import ConstantLatency
from repro.temporal.guards import render, workflow_bindings
from repro.workflows import WorkflowTemplate
from repro.workflows.template import rename_script
from repro.workloads.scenarios import make_mutex_family, make_travel_booking

ROOT = Path(__file__).resolve().parents[2]

#: total cProfile calls of stamping ``n`` travel instances and building
#: their scheduler, in a fresh interpreter (argv[1] is ``n``)
STAMP_AND_BUILD = r"""
import cProfile, random, sys
from repro.scheduler import DistributedScheduler
from repro.sim import ConstantLatency
from repro.workflows import WorkflowTemplate
from repro.workloads.scenarios import make_travel_booking

travel = make_travel_booking().workflow
suffixes = [f"_i{k}" for k in range(int(sys.argv[1]))]
profile = cProfile.Profile()
profile.enable()
merged, guards = WorkflowTemplate(travel).instantiate_merged(suffixes)
DistributedScheduler(
    merged.dependencies, sites=merged.sites, attributes=merged.attributes,
    guards=guards, latency=ConstantLatency(1.0), rng=random.Random(1),
)
profile.disable()
print(sum(entry.callcount for entry in profile.getstats()))
"""

#: calls one more stamped travel instance may cost (the template's own
#: five bases, ten guards and three dependencies included)
CALLS_PER_INSTANCE = 300


def stamp_and_build_calls(instances: int) -> int:
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", STAMP_AND_BUILD, str(instances)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_a_stamped_instance_costs_a_fixed_budget_of_calls():
    """Stamping plus building is linear in the instances, at no more
    than :data:`CALLS_PER_INSTANCE` calls each: no per-instance
    workflow, mapping pass or fresh-copy walk."""
    calls = {n: stamp_and_build_calls(n) for n in (64, 128)}
    per_instance = (calls[128] - calls[64]) / 64
    assert per_instance <= CALLS_PER_INSTANCE, per_instance


def build(workflow, guards):
    return DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        guards=guards,
        latency=ConstantLatency(1.0),
        rng=random.Random(1),
    )


def structure(sched) -> dict:
    """What a build decides before the run: who hears which base, the
    monitors and the actor order."""
    return {
        "subscribers": {
            base: [
                (site, [actor.base for actor in members(addressee)])
                for site, addressee in at.items()
            ]
            for base, at in sched._fanouts.items()
        },
        "monitor_specs": sched._monitor_specs,
        "monitor_subs": sched._monitor_subs,
        "actors": [actor.base for actor in sched._sorted_actors()],
    }


def digest(result) -> tuple:
    timeline = [(repr(entry.event), entry.time) for entry in result.entries]
    return timeline, result.messages, result.makespan


def travel_case():
    """12 stamped bookings, so the suffixes include ``_i9`` and
    ``_i10``; every third one fails."""
    template = WorkflowTemplate(make_travel_booking().workflow)
    suffixes = [f"_i{k}" for k in range(12)]
    merged, table = template.instantiate_merged(suffixes)
    outcomes = ["failure" if k % 3 == 0 else "success" for k in range(12)]
    scripts = [
        rename_script(script, template.mapping_for(suffix), suffix)
        for suffix, outcome in zip(suffixes, outcomes)
        for script in make_travel_booking(outcome).scripts
    ]
    return merged, table, scripts


def mutex_case():
    """The coupled mutex family through ``merged_workflow``: its table
    is synthesized, bound the same way."""
    merged, scripts = make_mutex_family(8, cluster=4).merged()
    return merged, workflow_bindings(merged.dependencies), scripts


@pytest.mark.parametrize(
    "case", [travel_case, mutex_case], ids=["travel", "mutex"]
)
def test_stamped_build_equals_rendered_build(case):
    merged, table, scripts = case()
    stamped, rendered = build(merged, table), build(merged, render(table))
    assert structure(stamped) == structure(rendered)
    one, two = stamped.run(scripts), rendered.run(scripts)
    assert one.ok and two.ok, (one.violations, two.violations)
    assert digest(one) == digest(two)
