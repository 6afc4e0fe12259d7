"""Sharded runs: plan, dispatch, and merge per-shard schedulers.

Everything that crosses a process boundary here is plain picklable
data -- strings, numbers, tuples.  :class:`~repro.algebra.symbols.
Event` and the expression nodes are hash-consed (interned via
``__new__``, attribute-immutable), which breaks default pickling *by
design*: two processes must not smuggle un-interned duplicates past
the identity-based fast paths.  So the wire format ships events and
dependencies as their ``repr`` strings and every worker re-parses them
into its own intern tables (``repr`` round-trips through the parser --
a property the algebra test suite pins down).

The worker (:func:`repro.scale.engine.run_group`) rebuilds the workflow
*template*, instantiates its shard's instances through
:class:`~repro.workflows.template.WorkflowTemplate` (guard synthesis
runs once per worker, renames do the rest), runs one
:class:`DistributedScheduler` over the merged instances, and returns a
:class:`ShardOutcome` of plain data.  The parent merges outcomes into
one :class:`~repro.scheduler.events.ExecutionResult` plus merged
metrics/trace artifacts (:mod:`repro.obs.merge`).
"""

from __future__ import annotations

import atexit
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.obs.merge import merge_metrics, merge_profiles, merge_traces
from repro.obs.tracer import Tracer
from repro.scale.partition import (
    connected_components,
    dependency_instances,
    plan_partition,
)
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.events import (
    AttemptOutcome,
    EventAttributes,
    ExecutionResult,
    TraceEntry,
    Violation,
)
from repro.workflows.spec import Workflow
from repro.workflows.template import WorkflowTemplate

logger = logging.getLogger(__name__)


def _event_repr(event: Event) -> str:
    return repr(event)


def _event_from_repr(text: str) -> Event:
    if text.startswith("~"):
        return Event(text[1:]).complement
    return Event(text)


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
# wire format (plain picklable data)


@dataclass(frozen=True)
class ScriptSpec:
    """One agent script as plain data: ``(time, event, after)`` rows."""

    site: str
    attempts: tuple[tuple[float, str, str | None], ...]

    @classmethod
    def of(cls, script: AgentScript) -> "ScriptSpec":
        return cls(
            site=script.site,
            attempts=tuple(
                (
                    attempt.time,
                    _event_repr(attempt.event),
                    None if attempt.after is None
                    else _event_repr(attempt.after),
                )
                for attempt in script.attempts
            ),
        )

    def build(self) -> AgentScript:
        return AgentScript(
            self.site,
            [
                ScriptedAttempt(
                    time,
                    _event_from_repr(event),
                    None if after is None else _event_from_repr(after),
                )
                for time, event, after in self.attempts
            ],
        )


@dataclass(frozen=True)
class InstanceSpec:
    """One workflow instance: its suffix plus its (suffixed) scripts."""

    suffix: str
    scripts: tuple[ScriptSpec, ...]


def instance_spec(
    suffix: str, scripts: Iterable[AgentScript]
) -> InstanceSpec:
    """Package an instance's already-suffixed scripts for the wire."""
    return InstanceSpec(
        suffix=suffix, scripts=tuple(ScriptSpec.of(s) for s in scripts)
    )


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run its shard, as plain data.

    The *template* workflow travels un-suffixed (dependency reprs,
    attribute tuples, site names); the worker re-synthesizes its guard
    table once and stamps out this shard's instances by rename.
    """

    shard: int
    seed: int
    workflow_name: str
    dependencies: tuple[str, ...]
    attributes: tuple[tuple[str, tuple[bool, bool, bool, bool, bool]], ...]
    sites: tuple[tuple[str, str], ...]
    instances: tuple[InstanceSpec, ...]
    reliable: bool = False
    batch_announcements: bool = False
    trace: bool = False
    settle: bool = True
    latency: float | None = None  # constant per-hop latency, None = default
    profile: bool = False
    sample_every: float | None = None
    #: flight-recorder mode: bound the shard's tracer to a ring of this
    #: many records (implies tracing); the merged trace carries one
    #: window header per shard
    flight_record: int | None = None
    #: cross-instance dependency reprs this shard participates in; a
    #: dependency whose instances span several shards appears on every
    #: one of them (and couples them into one execution group)
    cross_dependencies: tuple[str, ...] = ()
    #: drop/duplicate probabilities of the cross-shard channel
    cross_drop: float = 0.0
    cross_dup: float = 0.0
    #: work-stealing sub-unit of the shard (0 when the shard runs whole)
    chunk: int = 0

    def build_tracer(self) -> Tracer | None:
        """The shard's tracer: ring-bounded when flight recording."""
        if self.flight_record:
            return Tracer(ring=self.flight_record)
        return Tracer() if self.trace else None

    def build_template(self, profiler=None) -> WorkflowTemplate:
        workflow = Workflow(
            self.workflow_name,
            dependencies=[parse(text) for text in self.dependencies],
            attributes={
                _event_from_repr(event): EventAttributes(*flags)
                for event, flags in self.attributes
            },
            sites={
                _event_from_repr(event): site for event, site in self.sites
            },
        )
        return WorkflowTemplate(workflow, profiler=profiler)


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's run, flattened to plain data for the trip home."""

    shard: int
    entries: tuple[tuple[str, float, float, str], ...]
    violations: tuple[tuple[str, str], ...]
    unsettled: tuple[str, ...]
    makespan: float
    messages: int
    messages_by_kind: tuple[tuple[str, int], ...]
    max_site_load: int
    central_queue_wait: float
    parked_total: int
    promises_granted: int
    not_yet_rounds: int
    triggered: int
    metrics: dict
    trace_records: tuple[dict, ...] | None
    fast_instantiations: int
    fallback_instantiations: int
    profile: dict | None = None
    chunk: int = 0


@dataclass
class ShardedResult:
    """The merged view of a sharded run."""

    result: ExecutionResult
    metrics: dict
    trace_records: list[dict] | None
    outcomes: list[ShardOutcome]
    workers: int
    profile: dict | None = None
    #: announcements + protocol traffic routed between shards
    cross_messages: int = 0
    #: instances reassigned off their home shard by work stealing
    steals: int = 0

    @property
    def shards(self) -> int:
        return len({outcome.shard for outcome in self.outcomes})


# ----------------------------------------------------------------------
# planning


class ShardPlan(list):
    """A shard task list plus the planning pass's metadata.

    Behaves exactly like the plain ``list[ShardTask]`` earlier
    releases returned; the extra attributes record how the
    constraint-aware partitioner placed the instances (benchmarks and
    the CLI report them).
    """

    placement: str = "round_robin"
    cut_weight: int = 0
    total_weight: int = 0
    #: per shard, the instance indices it owns
    assignment: tuple[tuple[int, ...], ...] = ()
    #: shard ids coupled by spanning dependencies, as components
    groups: tuple[tuple[int, ...], ...] = ()


def plan_shards(
    workflow: Workflow,
    instances: Sequence[InstanceSpec],
    shards: int,
    *,
    seed: int = 0,
    reliable: bool = False,
    batch_announcements: bool = False,
    trace: bool = False,
    settle: bool = True,
    latency: float | None = None,
    profile: bool = False,
    sample_every: float | None = None,
    placement: str = "round_robin",
    cross_deps: Sequence = (),
    assignment: Sequence[Sequence[int]] | None = None,
    cross_drop_probability: float = 0.0,
    cross_duplicate_probability: float = 0.0,
    flight_record: int | None = None,
) -> ShardPlan:
    """Partition ``instances`` into ``shards`` tasks.

    ``workflow`` is the un-suffixed template.  ``cross_deps`` are
    dependencies (expressions or their texts) coupling *different*
    instances; every shard owning one of a dependency's instances
    carries it, and shards sharing a spanning dependency form one
    execution group (run co-simulated by :mod:`repro.scale.engine`).
    ``placement`` chooses the partitioner: ``"round_robin"`` (the
    baseline) or ``"min_cut"`` (the constraint-aware greedy
    partitioner over the shared-event graph); an explicit
    ``assignment`` (instance-index lists per shard) overrides both.

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
    if shards > len(instances):
        logger.warning(
            "plan_shards: clamping %d shards to %d instance(s) -- "
            "a shard cannot own less than one instance",
            shards, len(instances),
        )
        shards = len(instances)
    dependencies = tuple(repr(dep) for dep in workflow.dependencies)
    attributes = tuple(
        sorted(
            (
                _event_repr(event),
                (
                    attrs.triggerable,
                    attrs.rejectable,
                    attrs.auto_complement,
                    attrs.guaranteed,
                    attrs.delayable,
                ),
            )
            for event, attrs in workflow.attributes.items()
        )
    )
    sites = tuple(
        sorted(
            (_event_repr(event), site)
            for event, site in workflow.sites.items()
        )
    )
    suffixes = [instance.suffix for instance in instances]
    cross = [
        parse(dep) if isinstance(dep, str) else dep for dep in cross_deps
    ]
    if assignment is None and placement == "round_robin":
        # the legacy layout, expressed as an explicit assignment so the
        # same planning pass derives cut/spanning/groups for it
        assignment = [
            list(range(len(instances)))[shard::shards]
            for shard in range(shards)
        ]
    partition = plan_partition(
        len(instances), shards, cross, suffixes, assignment=assignment
    )
    shard_of = {
        index: shard
        for shard, part in enumerate(partition.assignment)
        for index in part
    }
    # each cross dependency travels to every shard owning one of its
    # instances; shards sharing one are coupled into a group
    per_shard_cross: list[list[str]] = [[] for _ in range(shards)]
    for dep in cross:
        owners = sorted(
            {shard_of[i] for i in dependency_instances(dep, suffixes)}
        )
        for owner in owners:
            per_shard_cross[owner].append(repr(dep))
    # an explicit assignment may leave a shard with no instances; such
    # a shard has nothing to run (and nothing to own), so it is
    # dropped from the task list -- the shard ids of the others stay
    empty = [
        shard
        for shard in range(shards)
        if not partition.assignment[shard]
    ]
    if empty:
        logger.warning(
            "plan_shards: dropping %d empty shard(s) %s from the "
            "explicit assignment",
            len(empty), empty,
        )
    plan = ShardPlan(
        ShardTask(
            shard=shard,
            seed=shard_seed(seed, shard),
            workflow_name=workflow.name,
            dependencies=dependencies,
            attributes=attributes,
            sites=sites,
            instances=tuple(
                instances[index] for index in partition.assignment[shard]
            ),
            reliable=reliable,
            batch_announcements=batch_announcements,
            trace=trace,
            settle=settle,
            latency=latency,
            profile=profile,
            sample_every=sample_every,
            cross_dependencies=tuple(per_shard_cross[shard]),
            cross_drop=cross_drop_probability,
            cross_dup=cross_duplicate_probability,
            flight_record=flight_record,
        )
        for shard in range(shards)
        if partition.assignment[shard]
    )
    plan.placement = placement
    plan.cut_weight = partition.cut_weight
    plan.total_weight = partition.total_weight
    plan.assignment = partition.assignment
    plan.groups = partition.groups
    return plan


# ----------------------------------------------------------------------
# execution + merge


def _flatten_outcome(
    task: ShardTask, scheduler, tracer, profiler, template
) -> ShardOutcome:
    """Flatten a finished shard scheduler to wire-format plain data."""
    result = scheduler.result
    return ShardOutcome(
        shard=task.shard,
        chunk=task.chunk,
        entries=tuple(
            (
                _event_repr(entry.event),
                entry.time,
                entry.attempted_at,
                entry.outcome.value,
            )
            for entry in result.entries
        ),
        violations=tuple(
            (violation.kind, violation.detail)
            for violation in result.violations
        ),
        unsettled=tuple(_event_repr(e) for e in result.unsettled),
        makespan=result.makespan,
        messages=result.messages,
        messages_by_kind=tuple(sorted(result.messages_by_kind.items())),
        max_site_load=result.max_site_load,
        central_queue_wait=result.central_queue_wait,
        parked_total=result.parked_total,
        promises_granted=result.promises_granted,
        not_yet_rounds=result.not_yet_rounds,
        triggered=result.triggered,
        metrics=scheduler.metrics_report(),
        # window_records == records for an unbounded tracer; in flight-
        # recorder mode it prepends the shard's window header so the
        # merged trace stays checkable
        trace_records=(
            tuple(tracer.window_records()) if tracer is not None else None
        ),
        fast_instantiations=template.fast_instantiations,
        fallback_instantiations=template.fallback_instantiations,
        profile=profiler.report() if profiler is not None else None,
    )


#: the process pool is hoisted to module level so repeated
#: ``run_sharded`` calls (benchmark loops, long-lived services) reuse
#: warm workers instead of forking a fresh pool per call
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        import multiprocessing

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


def _execute(
    work: Sequence[tuple[ShardTask, ...]], workers: int
) -> list:
    """Run every work item -- a lone shard or a coupled group, both
    through the one shard runner -- in-process or on the pool."""
    from repro.scale.engine import run_group

    if workers <= 1 or len(work) <= 1:
        return [run_group(group) for group in work]
    try:
        pool = _get_pool(min(workers, len(work)))
        return list(pool.map(run_group, work))
    except (OSError, ImportError, PermissionError, ValueError, RuntimeError):
        # no usable process pool (platform without fork, a sandbox that
        # denies semaphores, or a broken pool): same plan, one process
        # -- work items are independent, so the merged outcome is
        # identical
        shutdown_pool()
        return [run_group(group) for group in work]


def _task_groups(
    tasks: Sequence[ShardTask],
) -> list[tuple[ShardTask, ...]]:
    """Partition tasks into execution groups.

    Two shards carrying the same cross-dependency text share that
    dependency's instances across the cut, so they must co-simulate;
    the groups are the connected components of that relation.  Tasks
    with no shared dependencies stay singleton -- the fully
    independent fast path.
    """
    by_text: dict[str, list[int]] = {}
    for index, task in enumerate(tasks):
        for text in task.cross_dependencies:
            by_text.setdefault(text, []).append(index)
    return [
        tuple(tasks[index] for index in component)
        for component in connected_components(len(tasks), by_text.values())
    ]


def _chunk_task(task: ShardTask) -> list[ShardTask]:
    """Split a lone shard into stealable chunks.

    A chunk is a connected component of the shard's instances under
    its (local) cross dependencies -- the smallest unit that can move
    to another worker without breaking a dependency apart.  Chunk
    contents and seeds are fixed here, before any execution, so the
    merged outcome is independent of which worker ultimately runs
    which chunk.
    """
    if len(task.instances) <= 1:
        return [task]
    suffixes = [instance.suffix for instance in task.instances]
    deps = [parse(text) for text in task.cross_dependencies]
    members_of = [dependency_instances(dep, suffixes) for dep in deps]
    components = connected_components(len(suffixes), members_of)
    if len(components) <= 1:
        return [task]
    chunks = []
    for chunk, indices in enumerate(components):
        owned = set(indices)
        chunks.append(
            replace(
                task,
                chunk=chunk,
                seed=shard_seed(task.seed, chunk),
                instances=tuple(task.instances[i] for i in indices),
                cross_dependencies=tuple(
                    repr(dep)
                    for dep, touched in zip(deps, members_of)
                    if touched and touched <= owned
                ),
            )
        )
    return chunks


def _steal_schedule(
    chunked: dict[int, list[ShardTask]], workers: int
):
    """Deterministic work-stealing schedule over per-shard queues.

    Queue depth is measured in scripted attempts (the work a chunk
    will inject).  Workers are home-assigned to shards round-robin; a
    worker whose home queue is empty steals from the *tail* of the
    queue with the largest remaining backlog (ties toward the lowest
    shard id).  Everything -- victim choice, chunk order, the gauges
    -- is a pure function of the plan and ``workers``, so a sharded
    run with stealing stays reproducible.

    Returns ``(order, steals, stolen_instances, timeseries)``.
    """
    from repro.obs.timeseries import TimeSeriesRegistry

    def weight(task: ShardTask) -> int:
        return sum(
            len(spec.attempts)
            for instance in task.instances
            for spec in instance.scripts
        ) or 1

    shard_ids = sorted(chunked)
    queues = {shard: list(chunked[shard]) for shard in shard_ids}
    backlog = {
        shard: sum(weight(task) for task in queues[shard])
        for shard in shard_ids
    }
    homes = [shard_ids[w % len(shard_ids)] for w in range(workers)]
    busy = [0.0] * workers
    series = TimeSeriesRegistry(interval=1.0)
    order: list[ShardTask] = []
    steals = 0
    stolen_instances = 0
    while any(queues.values()):
        worker = min(range(workers), key=lambda w: (busy[w], w))
        home = homes[worker]
        if queues[home]:
            task = queues[home].pop(0)
        else:
            victim = max(
                (shard for shard in shard_ids if queues[shard]),
                key=lambda shard: (backlog[shard], -shard),
            )
            task = queues[victim].pop()  # thief takes the tail
            steals += 1
            stolen_instances += len(task.instances)
        backlog[task.shard] -= weight(task)
        for shard in shard_ids:
            series.record(
                f"queue_depth_s{shard}", busy[worker], len(queues[shard])
            )
            series.record(
                f"queue_backlog_s{shard}", busy[worker], backlog[shard]
            )
        order.append(task)
        busy[worker] += weight(task)
    return order, steals, stolen_instances, series


def run_sharded(
    tasks: Sequence[ShardTask],
    workers: int | None = None,
    steal: bool = False,
) -> ShardedResult:
    """Run a shard plan and merge the outcomes.

    ``workers`` defaults to one per work item (capped by CPU count);
    any value <= 1 runs in-process.  Shards coupled by spanning cross
    dependencies run co-simulated as one work item
    (:mod:`repro.scale.engine`); independent shards run exactly as
    before.  With ``steal=True``, independent shards are split into
    stealable chunks (dependency-closed instance sets) and scheduled
    by deterministic work stealing, recovering balance under skewed
    placements.  The merged :class:`ExecutionResult` pools entries
    across shards in virtual-time order, sums the additive counters,
    and maxes the per-scheduler aggregates (makespan, peak site load).
    """
    if not tasks:
        raise ValueError("run_sharded needs at least one task")
    groups = _task_groups(tasks)
    steals = 0
    stolen_instances = 0
    steal_series = None
    if steal:
        chunked: dict[int, list[ShardTask]] = {}
        coupled: list[tuple[ShardTask, ...]] = []
        for group in groups:
            if len(group) == 1:
                task = group[0]
                chunked[task.shard] = _chunk_task(task)
            else:
                # a coupled group co-simulates as one unit; it cannot
                # be split without migrating scheduler state
                coupled.append(group)
        order, steals, stolen_instances, steal_series = _steal_schedule(
            chunked, workers or _default_workers(len(chunked) or 1)
        ) if chunked else ([], 0, 0, None)
        work = [(task,) for task in order] + coupled
    else:
        work = groups
    if workers is None:
        workers = _default_workers(len(work))
    group_outcomes = _execute(work, workers)

    outcomes: list[ShardOutcome] = []
    cross_reports: list[dict] = []
    cross_violations: list[tuple[str, str]] = []
    cross_messages = 0
    cross_by_kind: dict[str, int] = {}
    for group_outcome in group_outcomes:
        outcomes.extend(group_outcome.outcomes)
        if group_outcome.cross_stats:
            stats = group_outcome.cross_stats
            cross_reports.append({"network": stats})
            cross_messages += stats.get("messages", 0)
            for kind, count in stats.get("by_kind", {}).items():
                cross_by_kind[kind] = cross_by_kind.get(kind, 0) + count
        cross_violations.extend(group_outcome.cross_violations)
    outcomes.sort(key=lambda outcome: (outcome.shard, outcome.chunk))
    chunk_counts: dict[int, int] = {}
    for outcome in outcomes:
        chunk_counts[outcome.shard] = chunk_counts.get(outcome.shard, 0) + 1
    prefixes = [
        f"s{outcome.shard}/"
        if chunk_counts[outcome.shard] == 1
        else f"s{outcome.shard}c{outcome.chunk}/"
        for outcome in outcomes
    ]

    result = ExecutionResult()
    tagged: list[tuple[float, int, int, TraceEntry]] = []
    by_kind: dict[str, int] = {}
    for index, outcome in enumerate(outcomes):
        for position, (event, time, attempted_at, op) in enumerate(
            outcome.entries
        ):
            tagged.append((
                time, index, position,
                TraceEntry(
                    _event_from_repr(event), time, attempted_at,
                    AttemptOutcome(op),
                ),
            ))
        result.violations.extend(
            Violation(kind, detail) for kind, detail in outcome.violations
        )
        result.unsettled.extend(
            _event_from_repr(e) for e in outcome.unsettled
        )
        for kind, count in outcome.messages_by_kind:
            by_kind[kind] = by_kind.get(kind, 0) + count
        result.messages += outcome.messages
        result.central_queue_wait += outcome.central_queue_wait
        result.parked_total += outcome.parked_total
        result.promises_granted += outcome.promises_granted
        result.not_yet_rounds += outcome.not_yet_rounds
        result.triggered += outcome.triggered
        result.makespan = max(result.makespan, outcome.makespan)
        result.max_site_load = max(
            result.max_site_load, outcome.max_site_load
        )
    tagged.sort(key=lambda item: item[:3])
    result.entries = [entry for _, _, _, entry in tagged]
    # the cross-shard channel's traffic is part of the run's cost
    result.messages += cross_messages
    for kind, count in cross_by_kind.items():
        by_kind[kind] = by_kind.get(kind, 0) + count
    result.messages_by_kind = dict(sorted(by_kind.items()))
    result.violations.extend(
        Violation(kind, detail) for kind, detail in cross_violations
    )

    reports = [outcome.metrics for outcome in outcomes]
    report_prefixes = list(prefixes)
    # the gateway channels ride along as network-only pseudo-reports,
    # so the merged metrics (and the Prometheus export) account for
    # routed cross-shard traffic
    for index, report in enumerate(cross_reports):
        reports.append(report)
        report_prefixes.append(f"x{index}/")
    if steal:
        steal_report: dict = {
            "counters": {
                "chunks_stolen": {"total": steals},
                "instances_stolen": {"total": stolen_instances},
            }
        }
        if steal_series is not None:
            steal_report["timeseries"] = steal_series.as_dict()
        reports.append(steal_report)
        report_prefixes.append("steal/")
    metrics = merge_metrics(reports, prefixes=report_prefixes)
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
        cross_messages=cross_messages,
        steals=steals,
    )


def _default_workers(work_items: int) -> int:
    import os

    return min(work_items, os.cpu_count() or 1)
