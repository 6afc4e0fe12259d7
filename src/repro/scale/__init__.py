"""Scale-out execution: shard independent workflow instances across
worker processes.

The paper's Example 12 workload -- ``N`` independent instances of one
workflow template, distinguished only by an identifier suffix -- has
no cross-instance dependencies, so nothing in the scheduling semantics
requires the instances to share a scheduler.  Running them all on one
:class:`~repro.scheduler.guard_scheduler.DistributedScheduler` costs
superlinearly in ``N`` (settlement scans every base each round); this
package partitions the instances into shards, runs one scheduler per
shard in a process pool (workflow, scripts and results cross it as
pickles of the objects themselves), and merges results, metrics and
causal traces into single artifacts (:mod:`repro.obs.merge`).

Example 13-style workloads add *cross-instance* dependencies (mutual
exclusion, resource pools).  A dependency is enforced by the one
scheduler holding all its events, so the unit of placement is the
coupled *component*:

* :mod:`repro.scale.partition` -- a planning pass takes the connected
  components of the instances under "a cross dependency mentions
  them" and places each whole onto the lightest-loaded shard;
* :func:`repro.scale.shards.run_shard` -- the one shard runner: a plain
  scheduler whose dependencies are the stamped instances' plus the
  cross dependencies its shard carries.

Determinism contract: for a fixed ``(seed, shard count)`` the merged
outcome is identical regardless of worker count -- the partition is a
pure function of the plan inputs, each shard's RNG seed is derived
from the run seed and the shard index alone, and nothing travels
between shards.  Changing the *shard count* regroups instances and
therefore legitimately changes message interleavings within each
scheduler (settled outcomes stay the same; timings may not).
"""

from repro.scale.partition import PartitionPlan, plan_partition
from repro.scale.shards import (
    InstanceSpec,
    ShardOutcome,
    ShardPlan,
    ShardTask,
    ShardedResult,
    instance_spec,
    plan_shards,
    run_sharded,
    shard_seed,
    shutdown_pool,
)

__all__ = [
    "InstanceSpec",
    "PartitionPlan",
    "ShardOutcome",
    "ShardPlan",
    "ShardTask",
    "ShardedResult",
    "instance_spec",
    "plan_partition",
    "plan_shards",
    "run_sharded",
    "shard_seed",
    "shutdown_pool",
]
