"""The five workloads: inputs, pipeline stages and output checks.

A workload is a set of stages the shared :func:`run_pipeline` drives
in order -- generate, prepare (spec -> scheduler or shard plan ready
to accept attempts), schedule, verify -- plus an *independent* output
check that never goes through ``satisfies``.  Stages call only the
program's public entry points, with default engine options, so that a
later change of defaults shows up as a gain or a loss.

The program only ever sees generated inputs: the seed picks which
bookings fail, which sites crash, the network's random stream and the
attempt order; it is never passed to the program as a workload name.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import json
import random
import re
from dataclasses import dataclass, field

from repro.algebra.symbols import Event
from repro.scale import instance_spec, plan_shards, run_sharded, shutdown_pool
from repro.scheduler import DistributedScheduler, ExecutionResult
from repro.sim import ConstantLatency, FaultPlan, SiteCrash
from repro.temporal import workflow_guards
from repro.temporal.cubes import TRUE_GUARD, literal
from repro.workflows import WorkflowTemplate
from repro.workflows.template import rename_expr, rename_script
from repro.workloads.scenarios import make_mutex_family, make_travel_booking

from benchmarks.e2e.harness import calibrate, clock

_INSTANCE = re.compile(r"_i(\d+)\b")


def instances_named(text: str) -> set[int]:
    """Instance ids (the ``_i<k>`` suffixes) an event or message names."""
    return {int(match) for match in _INSTANCE.findall(text)}


def occurred(result: ExecutionResult) -> dict[str, int]:
    """Settled event text (``e`` or ``~e``) -> position in the timeline."""
    return {repr(entry.event): at for at, entry in enumerate(result.entries)}


def stamped_dependencies(workflow, suffixes) -> list:
    """Every instance's dependencies, renamed without touching guards
    (the cold input of the standalone synthesis probe)."""
    template = WorkflowTemplate(workflow)
    return [
        rename_expr(dep, mapping)
        for mapping in map(template.mapping_for, suffixes)
        for dep in workflow.dependencies
    ]


class Workload:
    """Stage interface; see the module docstring."""

    name: str
    why: str
    #: N, the stated input size
    size: int
    #: K, the timed iterations of one run
    iterations: int
    sharded = False
    #: the standalone probes of the traced run that apply (``probes``)
    probes: tuple[str, ...] = ()

    def __init__(self, name: str, why: str, size: int, iterations: int):
        self.name, self.why = name, why
        self.size, self.iterations = size, iterations

    def instances(self, size: int) -> int:
        """Instances one iteration attempts (the failure denominator)."""
        return size

    def generate(self, size: int, seed: int):
        raise NotImplementedError

    def dependencies(self, spec) -> list:
        """The workload's dependency list, built without synthesis."""
        raise NotImplementedError

    def guard_table(self, spec) -> dict:
        """The guard table the run enforces, synthesized standalone."""
        return workflow_guards(self.dependencies(spec))

    def prepare(self, spec, spans, workers: int):
        raise NotImplementedError

    def schedule(self, spec, ready, spans) -> ExecutionResult:
        raise NotImplementedError

    def verify(self, ready, result: ExecutionResult, spans) -> None:
        """Post-run dependency check; not every workload has one."""

    def check(self, spec, result: ExecutionResult) -> set[int]:
        """Failed instance ids by the workload's own expected outputs."""
        raise NotImplementedError

    def counters(self, ready, result: ExecutionResult) -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# travel bookings (Examples 4 / 12): independent instances, stamped


@dataclass
class TravelSpec:
    seed: int
    outcomes: list[str]
    scenarios: dict
    fault_plan: FaultPlan | None


@dataclass
class Scheduled:
    """A scheduler ready to accept attempts, with what drives it."""

    sched: DistributedScheduler
    scripts: list = field(default_factory=list)
    dependencies: list = field(default_factory=list)
    stamped: int = 0


class SingleScheduler(Workload):
    """Stages shared by the workloads that run one scheduler."""

    probes = ("delivery_floor",)

    def schedule(self, spec, ready, spans):
        with spans("scheduler.run"):
            return ready.sched.run(ready.scripts, verify=False)

    def verify(self, ready, result, spans):
        if ready.dependencies:
            with spans("algebra.verify"):
                result.verify(ready.dependencies)

    def counters(self, ready, result):
        stats = ready.sched.network.stats
        return {
            "announce": stats.by_kind.get("announce", 0),
            "retransmits": stats.retransmits,
            "dropped": stats.dropped,
            "duplicated": stats.duplicated,
            "watch_wakes": ready.sched.watch.wakes,
            "watch_skips": ready.sched.watch.skips,
            "stamped": ready.stamped,
            "deps": len(ready.dependencies),
        }


#: hand-written expected outputs of one booking, per outcome
_TRAVEL_EXPECT = {
    "success": (("s_buy", "s_book", "c_book", "c_buy"), ("s_cancel",)),
    "failure": (("s_buy", "s_book", "c_book", "s_cancel"), ("c_buy",)),
}


class Travel(SingleScheduler):
    def __init__(self, name, why, size, iterations, chaos):
        super().__init__(name, why, size, iterations)
        self.chaos = chaos
        if not chaos:  # run() may be called twice only without faults
            self.probes = ("delivery_floor", "phase_split", "observability")

    def generate(self, size, seed):
        rng = random.Random(seed)
        failures = round(0.3 * size)
        outcomes = ["failure"] * failures + ["success"] * (size - failures)
        rng.shuffle(outcomes)
        plan = None
        if self.chaos:
            down = rng.sample(range(size), round(0.25 * size))
            plan = FaultPlan.of(
                SiteCrash(f"airline_i{k}", at=2.0, restart_at=10.0)
                for k in down
            )
        scenarios = {
            outcome: make_travel_booking(outcome) for outcome in _TRAVEL_EXPECT
        }
        return TravelSpec(seed, outcomes, scenarios, plan)

    def dependencies(self, spec):
        suffixes = [f"_i{k}" for k in range(len(spec.outcomes))]
        return stamped_dependencies(
            spec.scenarios["success"].workflow, suffixes
        )

    def prepare(self, spec, spans, workers, **observe):
        # ``observe`` reaches the scheduler constructor; only the
        # observability probe passes any (``profiler=`` / ``tracer=``)
        with spans("workflows.stamp"):
            template = WorkflowTemplate(spec.scenarios["success"].workflow)
            suffixes = [f"_i{k}" for k in range(len(spec.outcomes))]
            merged, guards = template.instantiate_merged(suffixes)
            scripts = [
                rename_script(script, template.mapping_for(suffix), suffix)
                for suffix, outcome in zip(suffixes, spec.outcomes)
                for script in spec.scenarios[outcome].scripts
            ]
        faults = {}
        if self.chaos:
            faults = dict(
                reliable=True,
                drop_probability=0.2,
                duplicate_probability=0.2,
                fault_plan=spec.fault_plan,
            )
        with spans("scheduler.build"):
            sched = DistributedScheduler(
                merged.dependencies,
                sites=merged.sites,
                attributes=merged.attributes,
                guards=guards,
                latency=ConstantLatency(1.0),
                rng=random.Random(spec.seed),
                **faults,
                **observe,
            )
        return Scheduled(
            sched, scripts, list(merged.dependencies), len(suffixes)
        )

    def check(self, spec, result):
        seen = occurred(result)
        failed = set()
        for k, outcome in enumerate(spec.outcomes):
            if self.chaos:
                # crashes may reorder a booking, never leave it half done
                good = f"c_book_i{k}" not in seen or (
                    f"c_buy_i{k}" in seen or f"s_cancel_i{k}" in seen
                )
            else:
                present, absent = _TRAVEL_EXPECT[outcome]
                good = all(f"{e}_i{k}" in seen for e in present) and not any(
                    f"{e}_i{k}" in seen for e in absent
                )
            if not good:
                failed.add(k)
        return failed

# ----------------------------------------------------------------------
# mutual exclusion (Example 13): instances coupled across the family


@dataclass
class MutexSpec:
    seed: int
    family: object
    instances: list  # wire-format instance specs (sharded only)


def check_mutex(family, result: ExecutionResult) -> set[int]:
    """No two adjacent cluster members' ``[b, e]`` intervals overlap in
    the settled timeline, and every ``b`` has its ``e``."""
    seen = occurred(result)
    failed = set()
    for k in range(len(family.instances)):
        if f"b_i{k}" in seen and f"e_i{k}" not in seen:
            failed.add(k)
    for members in family.clusters:
        for j, k in zip(members, members[1:]):
            bj, ej = seen.get(f"b_i{j}"), seen.get(f"e_i{j}")
            bk, ek = seen.get(f"b_i{k}"), seen.get(f"e_i{k}")
            if None in (bj, ej, bk, ek):
                continue  # a task that never entered excludes trivially
            if not (ej < bk or ek < bj):
                failed.update((j, k))
    return failed


class MutexMerged(SingleScheduler):
    probes = ("delivery_floor", "phase_split")

    def generate(self, size, seed):
        return MutexSpec(seed, make_mutex_family(size, cluster=4), [])

    def dependencies(self, spec):
        family = spec.family
        return (
            stamped_dependencies(family.template, family.suffixes())
            + list(family.cross_dependencies)
        )

    def prepare(self, spec, spans, workers):
        with spans("workflows.stamp"):
            workflow, scripts = spec.family.merged()
            random.Random(spec.seed).shuffle(scripts)
        # no guards= : the constructor synthesizes the whole table
        with spans("temporal.synthesis"):
            sched = DistributedScheduler(
                workflow.dependencies,
                sites=workflow.sites,
                attributes=workflow.attributes,
                rng=random.Random(spec.seed),
            )
        return Scheduled(
            sched, scripts, list(workflow.dependencies),
            len(spec.family.instances),
        )

    def check(self, spec, result):
        return check_mutex(spec.family, result)


@dataclass
class Planned:
    tasks: object
    workers: int
    sharded: object = None


class MutexSharded(Workload):
    sharded = True
    shards = 4
    probes = ("in_process_shards",)

    def generate(self, size, seed):
        family = make_mutex_family(size, cluster=4)
        instances = [
            instance_spec(suffix, scripts)
            for suffix, scripts in family.instances
        ]
        return MutexSpec(seed, family, instances)

    dependencies = MutexMerged.dependencies

    def prepare(self, spec, spans, workers):
        with spans("scale.plan"):
            tasks = plan_shards(
                spec.family.template,
                spec.instances,
                self.shards,
                seed=spec.seed,
                placement="min_cut",
                cross_deps=spec.family.cross_dependencies,
            )
        return Planned(tasks, workers)

    def schedule(self, spec, ready, spans):
        with spans("scale.run"):
            ready.sharded = run_sharded(ready.tasks, workers=ready.workers)
        return ready.sharded.result

    def check(self, spec, result):
        return check_mutex(spec.family, result)

    def counters(self, ready, result):
        sharded, tasks = ready.sharded, ready.tasks
        network = sharded.metrics["network"]
        watch = sharded.metrics["kernel"]["watch"]
        return {
            "announce": network["by_kind"].get("announce", 0),
            "retransmits": network["retransmits"],
            "dropped": network["dropped"],
            "duplicated": network["duplicated"],
            "watch_wakes": watch["wakes"],
            "watch_skips": watch["skips"],
            "stamped": sum(
                outcome.fast_instantiations + outcome.fallback_instantiations
                for outcome in sharded.outcomes
            ),
            "deps": 0,
            "shards": sharded.shards,
            "workers": sharded.workers,
            "cut_weight": tasks.cut_weight,
            "cross_messages": sharded.cross_messages,
        }


# ----------------------------------------------------------------------
# fan-in on parked actors (PF4 shape): a hand-built guard table


@dataclass
class FaninSpec:
    seed: int
    guards: dict
    waiting: list
    private: list
    hubs: list
    kill: Event
    expected: frozenset


class FaninParked(SingleScheduler):
    hubs = 8

    def instances(self, size):
        return 2 * size + size // 2  # one per fan-in event

    def generate(self, size, seed):
        kill = Event("kill")
        hubs = [Event(f"h{j}") for j in range(self.hubs)]
        dead_cube = literal("box", kill)
        hub_cube = TRUE_GUARD
        for hub in hubs:
            dead_cube = dead_cube & literal("box", hub)
            hub_cube = hub_cube & literal("box", hub)
        guards = {~kill: TRUE_GUARD}
        guards.update((hub, TRUE_GUARD) for hub in hubs)
        waiting, private = [], []
        for k in range(self.instances(size)):
            base = Event(f"g_i{k}")
            if k < 2 * size:
                # parked: ~kill dissolves the hub cube for good
                fan_in = Event(f"f_i{k}")
                guards[fan_in] = dead_cube | literal("box", base)
            else:
                # coupled: every hub stays relevant until the last one
                fan_in = Event(f"c_i{k}")
                guards[fan_in] = hub_cube & literal("box", base)
            guards[base] = TRUE_GUARD
            waiting.append(fan_in)
            private.append(base)
        random.Random(seed).shuffle(private)
        expected = frozenset(repr(event) for event in guards)
        return FaninSpec(seed, guards, waiting, private, hubs, kill, expected)

    def dependencies(self, spec):
        return []

    def guard_table(self, spec):
        return spec.guards

    def prepare(self, spec, spans, workers):
        with spans("scheduler.build"):
            sched = DistributedScheduler(
                [],
                guards=spec.guards,
                latency=ConstantLatency(1.0),
                rng=random.Random(spec.seed),
            )
        return Scheduled(sched)

    def schedule(self, spec, ready, spans):
        sched = ready.sched
        with spans("scheduler.run"):
            with spans("scheduler.run.park"):
                for event in spec.waiting:
                    sched.attempt(event)
                sched.sim.run()
            with spans("scheduler.run.kill"):
                sched.attempt(~spec.kill)
                sched.sim.run()
            with spans("scheduler.run.hubs"):
                for hub in spec.hubs:
                    sched.attempt(hub)
                sched.sim.run()
            with spans("scheduler.run.bases"):
                for base in spec.private:
                    sched.attempt(base)
                sched.sim.run()
            with spans("scheduler.run.close"):
                return sched.run([], verify=False)

    def check(self, spec, result):
        seen = set(occurred(result))
        wrong = seen ^ spec.expected
        failed = set()
        for text in wrong:
            named = instances_named(text)
            if not named:  # a hub or the kill switch: everyone depends on it
                return set(range(len(spec.waiting)))
            failed |= named
        return failed


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Travel(
            "travel_clean",
            "independent stamped bookings, raw network: isolates the sim "
            "loop, fan-out, settlement scan and verifier; bypasses synthesis "
            "and the reliable layer",
            size=128, iterations=8, chaos=False,
        ),
        Travel(
            "travel_chaos",
            "same template under drop/dup 0.2 and site crashes: sessions, "
            "retransmits, dedup and recovery carry the run, so a raw-path "
            "gain that costs the reliable path shows",
            size=32, iterations=35, chaos=True,
        ),
        MutexMerged(
            "mutex_merged",
            "cross-instance mutex coupling with direct synthesis: guard "
            "synthesis and promise/not-yet traffic are the work; the stamped "
            "path is bypassed",
            size=96, iterations=6,
        ),
        MutexSharded(
            "mutex_sharded",
            "the only workload through repro.scale: min-cut planning, pool "
            "spawn, pickling, shard runs and merge, with cold workers every "
            "iteration",
            size=192, iterations=4,
        ),
        FaninParked(
            "fanin_parked",
            "hand-built guard table, no dependencies: guard evaluation, "
            "watch index and announcement fan-out do all the work; synthesis "
            "and the verifier do none",
            size=400, iterations=17,
        ),
    )
}


# ----------------------------------------------------------------------
# the shared pipeline


class CallCounts(dict):
    """Exact function-call counts of ``with`` blocks (``cProfile``'s
    ``total_calls``), net of the calls the counter itself makes.  The
    counts repeat exactly for a fixed seed; counted code runs several
    times slower, so a counted block is never timed."""

    def __init__(self) -> None:
        self._own = 0
        with self.block("own"):
            pass
        self._own = self.pop("own")

    @contextlib.contextmanager
    def block(self, key: str, wanted: bool = True):
        if not wanted:
            yield
            return
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            total = sum(entry.callcount for entry in profile.getstats())
            self[key] = total - self._own


def blamed(result: ExecutionResult, instances: int) -> set[int]:
    """Instances with a violation or an unsettled base.  A violation
    that names no instance is held against all of them."""
    failed = set()
    for base in result.unsettled:
        failed |= instances_named(repr(base)) or set(range(instances))
    for violation in result.violations:
        failed |= instances_named(violation.detail) or set(range(instances))
    return failed


def digest(result: ExecutionResult) -> str:
    """The run's observables, for the determinism check."""
    timeline = [(repr(entry.event), entry.time) for entry in result.entries]
    text = json.dumps([timeline, result.messages, result.makespan])
    return hashlib.sha256(text.encode()).hexdigest()


def run_pipeline(
    workload: Workload,
    size: int,
    seed: int,
    spans,
    workers: int = 1,
    count: str | None = None,
) -> dict:
    """One cold pipeline; returns its observation as plain data.

    A calibration (see :func:`harness.calibrated`) brackets each of
    the three phases; it is not part of any phase's time.
    ``count="all"`` counts the function calls of the whole pipeline,
    ``count="phases"`` those of the scheduling and verify phases
    separately; counted runs are slow and are never timed.
    """
    calls = CallCounts()
    spins: list[list[float]] = []

    def boundary() -> float:
        if count is None:
            with spans("host.calibrate"):
                spins.append(calibrate())
        return clock()

    try:
        with calls.block("all", count == "all"), spans("iteration"):
            start = boundary()
            with spans("workloads.generate"):
                spec = workload.generate(size, seed)
            ready = workload.prepare(spec, spans, workers)
            ready_s = clock() - start
            start = boundary()
            with calls.block("run", count == "phases"):
                result = workload.schedule(spec, ready, spans)
            run_s = clock() - start
            start = boundary()
            with calls.block("verify", count == "phases"):
                workload.verify(ready, result, spans)
            verify_s = clock() - start
            boundary()
    finally:
        # the pool lives and dies with the iteration (no-op when unused)
        shutdown_pool()
    instances = workload.instances(size)
    failed = blamed(result, instances) | workload.check(spec, result)
    observation = {
        "ready_s": ready_s,
        "run_s": run_s,
        "verify_s": verify_s,
        "spins": spins,
        "instances": instances,
        "failed": len(failed),
        "digest": digest(result),
        "settled": len(result.entries),
        "messages": result.messages,
        "makespan": result.makespan,
        "decision_latency": result.mean_decision_latency(),
        "parked_total": result.parked_total,
        "promises_granted": result.promises_granted,
        "not_yet_rounds": result.not_yet_rounds,
        "triggered": result.triggered,
        "max_site_load": result.max_site_load,
        "calls": calls,
        "spans": spans.rows,
    }
    observation.update(workload.counters(ready, result))
    return observation
