"""Sharded runs: plan, dispatch, and merge per-shard schedulers.

A :class:`ShardTask` carries the objects themselves across the process
boundary: the template :class:`~repro.workflows.spec.Workflow`, the
instances' :class:`~repro.scheduler.agents.AgentScript` s and the cross
dependencies, pickled as they are.  Events and expression nodes reduce
to a call of their interning constructor, so what a worker unpickles
*is* its own interned node and nothing is re-parsed.

The worker (:func:`run_shard`) stamps its shard's instances out of the
template through :class:`~repro.workflows.template.WorkflowTemplate`
(guard synthesis runs once per worker, composed bindings do the
rest), runs one :class:`DistributedScheduler` over the merged
instances plus the cross dependencies the shard carries -- ordinary
dependencies of that scheduler -- and returns a :class:`ShardOutcome`
holding the scheduler's own
:class:`~repro.scheduler.events.ExecutionResult`.  The parent merges
those into one result plus merged metrics/trace artifacts
(:mod:`repro.obs.merge`).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.algebra.expressions import Expr
from repro.algebra.parser import parse
from repro.obs.merge import merge_metrics, merge_traces
from repro.obs.profile import merge_profiles
from repro.obs.profile import Profiler
from repro.obs.recorder import FlightRecorder
from repro.obs.tracer import Tracer
from repro.scale.partition import SuffixIndex, plan_partition
from repro.scheduler.agents import AgentScript
from repro.scheduler.events import ExecutionResult, TraceEntry
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.network import ConstantLatency
from repro.workflows.spec import Workflow
from repro.workflows.template import WorkflowTemplate

logger = logging.getLogger(__name__)


def shard_seed(seed: int, shard: int) -> int:
    """The RNG seed for shard ``shard`` of a run seeded ``seed``.

    A splitmix-style integer mix: shards of one run get well-separated
    streams, and the same ``(seed, shard)`` always yields the same
    stream regardless of how many workers execute the plan.
    """
    mixed = (
        seed * 6364136223846793005 + shard * 1442695040888963407 + 1
    ) & ((1 << 63) - 1)
    mixed ^= mixed >> 31
    return mixed


# ----------------------------------------------------------------------
# what crosses the process boundary


@dataclass(frozen=True)
class InstanceSpec:
    """One workflow instance: its suffix plus its (suffixed) scripts."""

    suffix: str
    scripts: tuple[AgentScript, ...]


def instance_spec(
    suffix: str, scripts: Iterable[AgentScript]
) -> InstanceSpec:
    """Package an instance's already-suffixed scripts."""
    return InstanceSpec(suffix=suffix, scripts=tuple(scripts))


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run its shard.

    ``workflow`` is the un-suffixed *template*; the worker synthesizes
    its guard table once and stamps out this shard's instances as
    bindings of its shapes.
    """

    shard: int
    seed: int
    workflow: Workflow
    instances: tuple[InstanceSpec, ...]
    trace: bool = False
    settle: bool = True
    latency: float | None = None  # constant per-hop latency, None = default
    profile: bool = False
    sample_every: float | None = None
    #: flight-recorder mode: bound the shard's tracer to a ring of this
    #: many records (implies tracing); the merged trace carries one
    #: window header per shard
    flight_record: int | None = None
    #: cross-instance dependencies this shard carries: the planner
    #: gives each one to the single shard owning all its instances
    cross_dependencies: tuple[Expr, ...] = ()

    def build_tracer(self) -> Tracer | None:
        """The shard's tracer: a flight recorder when flight recording."""
        if self.flight_record:
            return FlightRecorder(self.flight_record)
        return Tracer() if self.trace else None


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's run: the scheduler's result and its reports."""

    shard: int
    result: ExecutionResult
    metrics: dict
    trace_records: tuple[dict, ...] | None
    fast_instantiations: int
    fallback_instantiations: int
    profile: dict | None = None


@dataclass
class ShardedResult:
    """The merged view of a sharded run."""

    result: ExecutionResult
    metrics: dict
    trace_records: list[dict] | None
    outcomes: list[ShardOutcome]
    workers: int
    profile: dict | None = None

    @property
    def shards(self) -> int:
        return len(self.outcomes)

    @property
    def cross_messages(self) -> int:
        """Always 0: nothing travels between shards.  Kept only
        because ``benchmarks/e2e`` reads it (see ROADMAP)."""
        return 0


# ----------------------------------------------------------------------
# planning


class ShardPlan(list):
    """A ``list[ShardTask]`` plus the planning pass's metadata: how
    the partitioner placed the instances (benchmarks and the CLI
    report it)."""

    placement: str = "round_robin"
    cut_weight: int = 0
    total_weight: int = 0
    #: per shard, the instance indices it owns
    assignment: tuple[tuple[int, ...], ...] = ()


def plan_shards(
    workflow: Workflow,
    instances: Sequence[InstanceSpec],
    shards: int,
    *,
    seed: int = 0,
    trace: bool = False,
    settle: bool = True,
    latency: float | None = None,
    profile: bool = False,
    sample_every: float | None = None,
    placement: str = "round_robin",
    cross_deps: Sequence = (),
    flight_record: int | None = None,
) -> ShardPlan:
    """Partition ``instances`` into ``shards`` tasks.

    ``workflow`` is the un-suffixed template.  ``cross_deps`` are
    dependencies (expressions or their texts) coupling *different*
    instances; each is carried by the one shard owning all its
    instances -- shards a dependency would span are fused
    (:func:`~repro.scale.partition.plan_partition`), so a placement
    that splits coupled instances yields fewer tasks than ``shards``.
    ``placement`` chooses the partitioner: ``"round_robin"`` (the
    baseline) or ``"min_cut"`` (the constraint-aware greedy
    partitioner over the shared-event graph).  Raises
    :class:`ValueError` for instances that share a base (a suffix
    given twice) and for a cross dependency naming an event of no
    planned instance.

    The partition and the per-shard seeds depend only on
    ``(instances, shards, seed, placement, cross_deps)`` -- never on
    worker count -- which is what makes sharded runs reproducible
    across machines and pool sizes.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if not instances:
        raise ValueError("plan_shards needs at least one instance")
    if placement not in ("round_robin", "min_cut"):
        raise ValueError(
            f"unknown placement {placement!r}; "
            "expected 'round_robin' or 'min_cut'"
        )
    # instances in different shards never meet in one
    # ``instantiate_merged``: a shared base would settle once per shard
    WorkflowTemplate(workflow).check_disjoint(
        instance.suffix for instance in instances
    )
    if shards > len(instances):
        logger.warning(
            "plan_shards: clamping %d shards to %d instance(s) -- "
            "a shard cannot own less than one instance",
            shards, len(instances),
        )
        shards = len(instances)
    suffixes = SuffixIndex([instance.suffix for instance in instances])
    cross = [
        parse(dep) if isinstance(dep, str) else dep for dep in cross_deps
    ]
    assignment = None
    if placement == "round_robin":
        # the legacy layout, expressed as an explicit assignment so the
        # same planning pass derives the cut and the fusing for it
        assignment = [
            list(range(len(instances)))[shard::shards]
            for shard in range(shards)
        ]
    partition = plan_partition(
        len(instances), shards, cross, suffixes, assignment=assignment
    )
    per_shard_cross: dict[int, list[Expr]] = {}
    for dep, carrier in zip(cross, partition.carriers):
        per_shard_cross.setdefault(carrier, []).append(dep)
    plan = ShardPlan(
        ShardTask(
            shard=shard,
            seed=shard_seed(seed, shard),
            workflow=workflow,
            instances=tuple(instances[index] for index in part),
            trace=trace,
            settle=settle,
            latency=latency,
            profile=profile,
            sample_every=sample_every,
            cross_dependencies=tuple(per_shard_cross.get(shard, ())),
            flight_record=flight_record,
        )
        for shard, part in enumerate(partition.assignment)
        if part
    )
    plan.placement = placement
    plan.cut_weight = partition.cut_weight
    plan.total_weight = partition.total_weight
    plan.assignment = partition.assignment
    return plan


# ----------------------------------------------------------------------
# execution + merge


def run_shard(task: ShardTask) -> ShardOutcome:
    """Run one shard to completion in this process -- the only shard
    runner, and the only place :mod:`repro.scale` builds a scheduler.

    The shard's cross dependencies are ordinary dependencies of its
    scheduler: synthesized (through the shape table), enforced,
    monitored and verified by the same code as the workflow's own.  A
    stamped table covers only the template, so it is stamped and handed
    over only when the shard carries none; otherwise the scheduler
    synthesizes the whole table and none is stamped.
    """
    profiler = Profiler() if task.profile else None
    template = WorkflowTemplate(task.workflow, profiler=profiler)
    suffixes = [instance.suffix for instance in task.instances]
    if task.cross_dependencies:
        merged, stamped = template.merged_workflow(suffixes), None
    else:
        merged, stamped = template.instantiate_merged(suffixes)
    tracer = task.build_tracer()
    scheduler = DistributedScheduler(
        merged.dependencies + list(task.cross_dependencies),
        sites=merged.sites,
        attributes=merged.attributes,
        latency=(
            ConstantLatency(task.latency) if task.latency is not None else None
        ),
        rng=random.Random(task.seed),
        guards=stamped,
        tracer=tracer,
        profiler=profiler,
    )
    if task.sample_every is not None:
        scheduler.enable_timeseries(task.sample_every)
    result = scheduler.run(
        (
            script
            for instance in task.instances
            for script in instance.scripts
        ),
        settle=task.settle,
    )
    return ShardOutcome(
        shard=task.shard,
        result=result,
        metrics=scheduler.metrics_report(),
        # a flight recorder prepends the shard's window header so the
        # merged trace stays checkable
        trace_records=(
            None if tracer is None else tuple(
                tracer.window_records() if task.flight_record
                else tracer.records
            )
        ),
        fast_instantiations=template.fast_instantiations,
        fallback_instantiations=template.fallback_instantiations,
        profile=profiler.report() if profiler is not None else None,
    )


#: wall-clock budget of one pooled run; shards still out then are hung
SHARD_TIMEOUT_S = 600.0

#: the process pool is hoisted to module level so repeated
#: ``run_sharded`` calls (benchmark loops, long-lived services) reuse
#: warm workers instead of forking a fresh pool per call
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        shutdown_pool()
        context = multiprocessing.get_context("fork")
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear the persistent worker pool down (idempotent)."""
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(shutdown_pool)


def _outcome(task: ShardTask, produce) -> ShardOutcome:
    """``produce()``, a shard's own exception chained under one naming
    the shard (a dead pool is not the shard's: it passes through)."""
    try:
        return produce()
    except BrokenProcessPool:
        raise
    except Exception as exc:
        raise RuntimeError(
            f"shard {task.shard} failed: {type(exc).__name__}: {exc}"
        ) from exc


def _run_here(
    work: Sequence[ShardTask], pool_error: Exception | None = None
) -> list[ShardOutcome]:
    """Every shard in this process: asked for, or because there is no
    usable process pool (platform without fork, a sandbox that denies
    semaphores -- PermissionError is an OSError -- or a broken pool).
    Same plan and independent shards, so the merged outcome is
    identical."""
    if pool_error is not None:
        logger.warning(
            "run_sharded: process pool unusable (%s: %s); rerunning all "
            "%d shard(s) in-process",
            type(pool_error).__name__, pool_error, len(work),
        )
        shutdown_pool()
    return [_outcome(task, lambda: run_shard(task)) for task in work]


def _execute(work: Sequence[ShardTask], workers: int) -> list[ShardOutcome]:
    """Run every shard through :func:`run_shard`, in-process or pooled
    (the pool's call queue hands the next shard to an idle worker)."""
    global _POOL, _POOL_WORKERS
    if workers <= 1 or len(work) <= 1:
        return _run_here(work)
    try:
        pool = _get_pool(min(workers, len(work)))
        futures = [pool.submit(run_shard, task) for task in work]
    except (OSError, ImportError, ValueError, RuntimeError) as exc:
        return _run_here(work, exc)
    hung = wait(futures, timeout=SHARD_TIMEOUT_S).not_done
    if hung:
        # terminate the workers -- no public way before Python 3.14 --
        # and drop the pool without waiting on them
        _POOL, _POOL_WORKERS = None, 0
        for process in list(pool._processes.values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        late = [task.shard for task, f in zip(work, futures) if f in hung]
        raise TimeoutError(
            f"shard(s) {late} did not finish within {SHARD_TIMEOUT_S:g} s; "
            "worker processes terminated"
        )
    try:
        return [
            _outcome(task, future.result)
            for task, future in zip(work, futures)
        ]
    except BrokenProcessPool as exc:
        return _run_here(work, exc)


def run_sharded(
    tasks: Sequence[ShardTask], workers: int | None = None
) -> ShardedResult:
    """Run a shard plan and merge the outcomes.

    ``workers`` defaults to one per shard (capped by CPU count); any
    value <= 1 runs in-process.  Shards are independent of each other
    by construction (the planner fused what a dependency spanned).
    The merged :class:`ExecutionResult` pools entries across shards in
    virtual-time order, sums the additive counters, maxes the
    per-scheduler aggregates (makespan, peak site load), and ends
    ``down`` if any shard did, else ``stuck`` if any shard did, else
    ``maximal``.  Raises
    :class:`TimeoutError` naming the shards the pool did not finish
    within :data:`SHARD_TIMEOUT_S`.
    """
    if not tasks:
        raise ValueError("run_sharded needs at least one task")
    if workers is None:
        workers = _default_workers(len(tasks))
    outcomes = sorted(
        _execute(tasks, workers), key=lambda outcome: outcome.shard
    )
    prefixes = [f"s{outcome.shard}/" for outcome in outcomes]

    result = ExecutionResult()
    tagged: list[tuple[float, int, int, TraceEntry]] = []
    for index, outcome in enumerate(outcomes):
        shard = outcome.result
        tagged.extend(
            (entry.time, index, position, entry)
            for position, entry in enumerate(shard.entries)
        )
        result.violations.extend(shard.violations)
        result.unsettled.extend(shard.unsettled)
        for kind, count in shard.messages_by_kind.items():
            result.messages_by_kind[kind] = (
                result.messages_by_kind.get(kind, 0) + count
            )
        result.messages += shard.messages
        result.central_queue_wait += shard.central_queue_wait
        result.parked_total += shard.parked_total
        result.promises_granted += shard.promises_granted
        result.not_yet_rounds += shard.not_yet_rounds
        result.triggered += shard.triggered
        result.makespan = max(result.makespan, shard.makespan)
        result.max_site_load = max(result.max_site_load, shard.max_site_load)
    tagged.sort(key=lambda item: item[:3])
    result.entries = [entry for _, _, _, entry in tagged]
    terminals = {outcome.result.terminal for outcome in outcomes}
    result.terminal = next(
        state for state in ("down", "stuck", "maximal") if state in terminals
    )
    result.messages_by_kind = dict(sorted(result.messages_by_kind.items()))

    metrics = merge_metrics(
        [outcome.metrics for outcome in outcomes], prefixes=prefixes
    )
    trace_records = None
    if all(outcome.trace_records is not None for outcome in outcomes):
        trace_records = merge_traces(
            [outcome.trace_records for outcome in outcomes],
            prefixes=prefixes,
        )
    profile = None
    if all(outcome.profile is not None for outcome in outcomes):
        profile = merge_profiles([outcome.profile for outcome in outcomes])
    return ShardedResult(
        result=result,
        metrics=metrics,
        trace_records=trace_records,
        outcomes=outcomes,
        workers=workers,
        profile=profile,
    )


def _default_workers(work_items: int) -> int:
    return min(work_items, os.cpu_count() or 1)
