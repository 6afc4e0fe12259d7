"""Experiment SC7: the Example 13 mutex family across shards.

SC6 (bench_scale_schedulers / bench_scale_latency) shards *independent*
instances; here every cluster of critical-section tasks is coupled by
cross-instance mutex dependencies, so the sharded runs exercise
coupled planning end to end: each cluster is a coupled component,
placed whole on one shard.  This bench pins the *shape* at a
CI-friendly size: the sharded run settles exactly the merged
baseline's event set.  The N=64 and N=256 rows' exact counts are pinned by
``tests/integration/test_exact_observables.py``; wall clock is
measured end to end by ``benchmarks/e2e`` (the ``mutex_sharded``
workload).
"""

import random

import pytest

from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_family

N = 16
CLUSTER = 4
SHARDS = 4


def family():
    return make_mutex_family(N, cluster=CLUSTER)


def merged_baseline():
    workflow, scripts = family().merged()
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        rng=random.Random(9),
    )
    result = sched.run(scripts)
    assert result.ok, result.violations
    return result


def sharded_run():
    fam = family()
    instances = [
        instance_spec(suffix, scripts) for suffix, scripts in fam.instances
    ]
    tasks = plan_shards(
        fam.template,
        instances,
        SHARDS,
        seed=1,
        cross_deps=fam.cross_dependencies,
    )
    return tasks, run_sharded(tasks, workers=1)


def settled(result):
    return sorted(repr(entry.event) for entry in result.entries)


@pytest.fixture(scope="module")
def baseline():
    return merged_baseline()


def test_bench_mutex_merged(benchmark):
    result = benchmark.pedantic(merged_baseline, rounds=3, iterations=1)
    assert len(result.entries) == 2 * N


def test_bench_mutex_min_cut(benchmark, baseline):
    tasks, run = benchmark.pedantic(sharded_run, rounds=3, iterations=1)
    # one cluster per shard: nothing crosses between shards
    assert len(tasks) == SHARDS
    assert run.cross_messages == 0
    assert run.result.ok, run.result.violations
    assert settled(run.result) == settled(baseline)
