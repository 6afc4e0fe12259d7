"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's artifacts
(figure, example, theorem, or scalability claim; see the experiment
index in DESIGN.md), asserts the reproduced *shape*, and times the
computation with pytest-benchmark.  Recorded outputs live in
EXPERIMENTS.md.
"""

from __future__ import annotations

import random

from repro.algebra.expressions import clear_intern_tables
from repro.algebra.normal_form import to_normal_form
from repro.algebra.residuation import residuate
from repro.temporal.cubes import clear_literal_cache
from repro.temporal.guards import clear_synthesis_caches


def clear_symbolic_caches() -> None:
    """Clear memoization so benchmarks time the real computation.

    Interned events survive (identity is their equality, so the table
    is never dropped); only the table's counters are reset."""
    residuate.cache_clear()
    to_normal_form.cache_clear()
    clear_synthesis_caches()
    clear_literal_cache()
    clear_intern_tables()


def run_scenario(scenario, scheduler_cls, **kwargs):
    workflow = scenario.workflow
    sched = scheduler_cls(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        **kwargs,
    )
    return sched.run(scenario.scripts)


def merged_travel_instances(count: int, rng_seed: int = 0):
    """``count`` independent travel-booking instances in one system."""
    from repro.workloads.scenarios import make_travel_booking

    rng = random.Random(rng_seed)
    scenarios = [
        make_travel_booking(
            "success" if rng.random() < 0.7 else "failure", suffix=f"_i{i}"
        )
        for i in range(count)
    ]
    workflow = scenarios[0].workflow
    scripts = list(scenarios[0].scripts)
    for scn in scenarios[1:]:
        workflow = workflow.merged(scn.workflow)
        scripts.extend(scn.scripts)
    return workflow, scripts


def travel_instance_specs(count: int, rng_seed: int = 0):
    """The same workload as shard-ready :class:`InstanceSpec` rows.

    Returns ``(template_workflow, instances)`` for
    :func:`repro.scale.plan_shards`; the outcome draw again matches
    :func:`merged_travel_instances`.
    """
    from repro.scale import instance_spec
    from repro.workloads.scenarios import make_travel_booking

    rng = random.Random(rng_seed)
    template = make_travel_booking().workflow
    instances = [
        instance_spec(
            f"_i{i}",
            make_travel_booking(
                "success" if rng.random() < 0.7 else "failure",
                suffix=f"_i{i}",
            ).scripts,
        )
        for i in range(count)
    ]
    return template, instances
