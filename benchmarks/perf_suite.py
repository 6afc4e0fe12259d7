"""PF1: the perf-regression harness for the symbolic kernel.

Runs three workload families and emits a machine-readable
``BENCH_PERF.json``:

* **synthesis** -- cold-cache guard synthesis on SC3's widening
  staircase (``~e + a0 . a1 ... a(k-1)``, k in {2, 4, 6}) and the
  whole-workflow guard table of a merged travel workload;
* **guard evaluation** -- ``holds_at`` / ``simplify_under`` /
  ``region_subsumes`` throughput on a compiled guard (the actor loop's
  hot operations);
* **end-to-end** -- SC1's N=16 merged travel instances on the
  distributed scheduler (raw fabric) and an SC5-style chaos run
  (reliable sessions, drop/dup, one crash/restart);
* **scale-out** (PF2/SC6, when :mod:`repro.scale` is available) --
  template-instantiated guard synthesis vs per-instance synthesis at
  N=64 (required: identical tables; ``speedup`` is reported, not
  required: per-instance ``workflow_guards`` is itself one synthesis
  plus 63 renames since synthesis works modulo renaming), and the N=64
  workload sharded 4 ways on the process-pool runner vs one merged
  scheduler (``speedup_vs_merged`` is reported, not required:
  re-measured with the linear trace oracle, sharded lost one of twenty
  alternating repetitions to a host stall, and only comparisons that
  win every repetition are asserted);
* **coupled instances** (SC7, when ``plan_shards`` takes
  ``cross_deps``) -- the Example 13 mutex family at N in {64, 256},
  merged vs min-cut sharded (``speedup_vs_merged`` is reported, not
  required: it has fallen either way as synthesis got cheaper, see
  EXPERIMENTS.md);
* **guard engine** (PF3/PF4, when the scheduler has a
  ``cursor_factory`` to override) -- the one production engine (wake rule +
  compiled cursors) against the paper-literal reference engine the
  differential tests use: the announce phase over n in {10, 100, 1000}
  parked guards (PF3; required: identical timelines, zero production
  re-evaluations, production wins at n=1000) and over a mixed
  parked+coupled population at n in {10, 100} (PF4; required:
  identical observables).  The PF4 kernel micro rows need no
  scheduler: per-announcement guard-eval cost of ``simplify_under``
  (with its ``O(|K| log |K|)`` memo-key build) vs the compiled
  automaton cursor (one interned edge hop) at fan-in n in {10, 100}
  (required: compiled >= 3x cheaper per announcement at fan-in 100).

Timings are reported both raw and *normalized* by a pure-Python
calibration spin.  ``--baseline FILE`` fails (exit 1) when a workload
of the baseline is missing or any deterministic observable (virtual
makespan, message counts, cube counts) changed at all -- the
optimizations this harness guards are required to be
semantics-preserving -- and prints the normalized-time changes without
gating them (performance claims are made on ``benchmarks/e2e``).

Usage::

    PYTHONPATH=src python benchmarks/perf_suite.py              # full
    PYTHONPATH=src python benchmarks/perf_suite.py --quick      # CI
    PYTHONPATH=src python benchmarks/perf_suite.py \
        --baseline BENCH_PERF.json                              # gate
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (_ROOT, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.algebra.expressions import Atom, Choice, Seq  # noqa: E402
from repro.algebra.symbols import Event  # noqa: E402
from repro.algebra.traces import Trace  # noqa: E402
from repro.scheduler.guard_scheduler import DistributedScheduler  # noqa: E402
from repro.sim.faults import FaultPlan, SiteCrash  # noqa: E402
from repro.sim.network import ConstantLatency  # noqa: E402
from repro.temporal.compiled import ReferenceCursor  # noqa: E402
from repro.temporal.guards import guard, workflow_guards  # noqa: E402

from benchmarks.helpers import (  # noqa: E402
    clear_symbolic_caches,
    merged_travel_instances,
)

SCHEMA = 1

#: Deterministic observables: compared exactly against the baseline.
#: A mismatch means the "optimization" changed semantics, not speed.
EXACT_FIELDS = (
    "cubes",
    "literals",
    "makespan",
    "messages",
    "announce_messages",
    "settled",
    "table_size",
    "wakes",
    "skips",
    "cut_weight",
    "hops",
)


def _best_of(fn, rounds: int) -> tuple[float, object]:
    """Minimum wall time over ``rounds`` calls (noise-robust)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def calibrate(rounds: int) -> float:
    """A fixed pure-Python spin; the unit for normalized timings."""

    def spin():
        acc = 0
        for i in range(400_000):
            acc += i * i
        return acc

    seconds, _ = _best_of(spin, rounds)
    return seconds


def wide_dependency(k: int):
    """SC3's staircase: ``~e + a0 . a1 . ... . a(k-1)``."""
    e = Event("e")
    atoms = [Atom(Event(f"a{i}")) for i in range(k)]
    return Choice.of([Atom(~e), Seq.of(atoms)]), e


def bench_synthesis(rounds: int) -> dict:
    out: dict[str, dict] = {}
    for k in (2, 4, 6):
        dep, e = wide_dependency(k)

        def cold():
            clear_symbolic_caches()
            return guard(dep, e)

        seconds, g = _best_of(cold, rounds)
        out[f"synthesis_cold_k{k}"] = {
            "seconds": seconds,
            "cubes": g.cube_count(),
            "literals": g.literal_count(),
        }
    workflow, _scripts = merged_travel_instances(4)

    def table():
        clear_symbolic_caches()
        return workflow_guards(workflow.dependencies)

    seconds, guards = _best_of(table, rounds)
    out["synthesis_table_travel4"] = {
        "seconds": seconds,
        "table_size": len(guards),
        "cubes": sum(g.cube_count() for g in guards.values()),
    }
    return out


def bench_guard_eval(evals: int, rounds: int) -> dict:
    from repro.temporal.cubes import C_OCC, E_OCC

    dep, e = wide_dependency(6)
    g = guard(dep, e)
    events = [Event(f"a{i}") for i in range(6)]
    trace = Trace(events + [e])
    indices = list(range(len(trace) + 1))

    def eval_loop():
        hits = 0
        for i in range(evals):
            hits += g.holds_at(trace, indices[i % len(indices)])
        return hits

    seconds, _ = _best_of(eval_loop, rounds)
    result = {
        "holds_at": {
            "seconds": seconds,
            "evals": evals,
            "evals_per_second": evals / seconds if seconds else 0.0,
        }
    }

    # the actor loop's per-announcement work: one fact arrives, the
    # residual guard is recomputed, then fire/park/never is decided
    knowledge_steps = [
        {events[j]: E_OCC for j in range(i)} for i in range(len(events))
    ]
    knowledge_steps += [
        {**step, Event("e"): C_OCC} for step in knowledge_steps
    ]

    def simplify_loop():
        count = 0
        for i in range(evals):
            step = knowledge_steps[i % len(knowledge_steps)]
            residual = g.simplify_under(step)
            count += residual.cube_count()
            residual.region_subsumes(step)
            residual.possible_under(step)
        return count

    seconds, _ = _best_of(simplify_loop, rounds)
    result["simplify_under"] = {
        "seconds": seconds,
        "evals": evals,
        "evals_per_second": evals / seconds if seconds else 0.0,
    }
    return result


def _run_sc1(count: int) -> tuple[float, object, object]:
    workflow, scripts = merged_travel_instances(count)
    start = time.perf_counter()
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(1),
    )
    result = sched.run(scripts)
    elapsed = time.perf_counter() - start
    assert result.ok, result.violations
    return elapsed, result, sched


def bench_end_to_end(rounds: int) -> dict:
    out: dict[str, dict] = {}
    best = float("inf")
    result = None
    for _ in range(rounds):
        elapsed, result, _sched = _run_sc1(16)
        best = min(best, elapsed)
    out["sc1_n16"] = {
        "seconds": best,
        "makespan": result.makespan,
        "messages": result.messages,
        "announce_messages": result.messages_by_kind.get("announce", 0),
        "settled": len(result.entries),
    }
    return out


def _supports_reference_engine() -> bool:
    return hasattr(DistributedScheduler, "cursor_factory")


class ReferenceScheduler(DistributedScheduler):
    """The paper-literal reference engine the differential tests use:
    every guard re-evaluated on every announcement with the cube
    calls."""

    def cursor_factory(self):
        return ReferenceCursor


def _supports_sharding() -> bool:
    try:
        import repro.scale  # noqa: F401

        return True
    except ImportError:
        return False


def bench_template_synthesis(rounds: int) -> dict:
    """PF2: per-instance guard synthesis vs template instantiation."""
    from repro.workloads.scenarios import make_travel_booking
    from repro.workflows.template import WorkflowTemplate

    suffixes = [f"_i{i}" for i in range(64)]

    def per_instance():
        clear_symbolic_caches()
        size = cubes = 0
        for suffix in suffixes:
            workflow = make_travel_booking(suffix=suffix).workflow
            table = workflow_guards(workflow.dependencies)
            size += len(table)
            cubes += sum(g.cube_count() for g in table.values())
        return size, cubes

    seconds, (size, cubes) = _best_of(per_instance, rounds)
    out = {
        "pf2_synthesis_per_instance_n64": {
            "seconds": seconds, "table_size": size, "cubes": cubes,
        }
    }

    def templated():
        clear_symbolic_caches()
        template = WorkflowTemplate(make_travel_booking().workflow)
        size = cubes = 0
        for suffix in suffixes:
            # bindings: each copy's cubes are its shape's
            table = template.instantiate(suffix).guards
            size += len(table)
            cubes += sum(b.shape.cube_count() for b in table.values())
        return size, cubes

    tseconds, (tsize, tcubes) = _best_of(templated, rounds)
    speedup = seconds / tseconds if tseconds else 0.0
    out["pf2_synthesis_template_n64"] = {
        "seconds": tseconds, "table_size": tsize, "cubes": tcubes,
        "speedup": speedup,
    }
    # the template path must produce the same tables; no wall-clock
    # assert: both arms synthesize each shape once (the per-instance
    # arm renders the other 63 copies, the template composes their
    # bindings), so ``speedup`` is only reported
    assert (tsize, tcubes) == (size, cubes), (
        f"template tables differ: {(tsize, tcubes)} vs {(size, cubes)}"
    )
    return out


def bench_scale_out(rounds: int) -> dict:
    """SC6: the N=64 travel workload, merged vs sharded 4 ways."""
    from benchmarks.helpers import travel_instance_specs
    from repro.scale import plan_shards, run_sharded

    out: dict[str, dict] = {}
    merged_best = float("inf")
    merged_result = None
    for _ in range(rounds):
        elapsed, merged_result, _sched = _run_sc1(64)
        merged_best = min(merged_best, elapsed)
    out["sc1_n64"] = {
        "seconds": merged_best,
        "makespan": merged_result.makespan,
        "messages": merged_result.messages,
        "announce_messages": merged_result.messages_by_kind.get(
            "announce", 0
        ),
        "settled": len(merged_result.entries),
    }

    template, instances = travel_instance_specs(64)

    def sharded():
        tasks = plan_shards(
            template, instances, 4, seed=1, latency=1.0
        )
        return run_sharded(tasks, workers=2)

    sharded_best, sharded_run = _best_of(sharded, rounds)
    result = sharded_run.result
    assert result.ok, result.violations
    out["sc1_n64_sharded"] = {
        "seconds": sharded_best,
        "makespan": result.makespan,
        "messages": result.messages,
        "announce_messages": result.messages_by_kind.get("announce", 0),
        "settled": len(result.entries),
        "shards": sharded_run.shards,
        "workers": sharded_run.workers,
        "speedup_vs_merged": (
            merged_best / sharded_best if sharded_best else 0.0
        ),
    }
    # independent instances: sharding must not change what settles
    assert (
        {repr(e.event) for e in result.entries}
        == {repr(e.event) for e in merged_result.entries}
    ), "sharded run settled a different event set than the merged run"
    # no wall-clock assert: sharded lost one of twenty alternating
    # repetitions against merged at N=64 (EXPERIMENTS.md, SC6), so
    # ``speedup_vs_merged`` is only reported
    return out


def _supports_cross_shard() -> bool:
    try:
        import inspect

        from repro.scale import plan_shards
        from repro.workloads.scenarios import make_mutex_family  # noqa: F401

        return "cross_deps" in inspect.signature(plan_shards).parameters
    except ImportError:
        return False


def bench_scale_mutex(rounds: int) -> dict:
    """SC7: the Example 13 mutex family, merged vs sharded.

    Unlike SC6's independent travel instances, every cluster of four
    critical-section tasks here is *coupled* by cross-instance mutex
    dependencies, so a cluster must stay on one scheduler: min-cut
    placement colocates each cluster (cut 0, nothing fused).  (A layout
    that splits clusters is fused back by the planner, i.e. it *is* a
    merged run; there is no row for it.)
    """
    from repro.scale import instance_spec, plan_shards, run_sharded
    from repro.workloads.scenarios import make_mutex_family

    out: dict[str, dict] = {}
    # N=256 runs take seconds each; cap repetitions in full mode
    heavy_rounds = min(rounds, 3)

    def merged(n):
        family = make_mutex_family(n, cluster=4)
        workflow, scripts = family.merged()
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            rng=random.Random(9),
        )
        result = sched.run(scripts)
        assert result.ok, result.violations
        return result

    def sharded(n, reps):
        family = make_mutex_family(n, cluster=4)
        instances = [
            instance_spec(suffix, scripts)
            for suffix, scripts in family.instances
        ]

        def run():
            tasks = plan_shards(
                family.template,
                instances,
                4,
                seed=1,
                placement="min_cut",
                cross_deps=family.cross_dependencies,
            )
            return tasks, run_sharded(tasks, workers=4)

        seconds, (tasks, sharded_run) = _best_of(run, reps)
        assert sharded_run.result.ok, sharded_run.result.violations
        return seconds, tasks, sharded_run

    def record(seconds, result, **extra):
        row = {
            "seconds": seconds,
            "makespan": result.makespan,
            "messages": result.messages,
            "settled": len(result.entries),
        }
        row.update(extra)
        return row

    for n, reps in ((64, rounds), (256, heavy_rounds)):
        merged_best, merged_result = _best_of(lambda n=n: merged(n), reps)
        out[f"sc7_mutex_n{n}_merged"] = record(merged_best, merged_result)

        cut_best, tasks, cut_run = sharded(n, reps)
        out[f"sc7_mutex_n{n}_min_cut"] = record(
            cut_best,
            cut_run.result,
            cut_weight=tasks.cut_weight,
            speedup_vs_merged=merged_best / cut_best if cut_best else 0.0,
        )
        assert tasks.cut_weight == 0, (
            "min-cut placement must colocate the mutex clusters "
            f"(cut {tasks.cut_weight})"
        )
        assert (
            {repr(e.event) for e in cut_run.result.entries}
            == {repr(e.event) for e in merged_result.entries}
        ), "sharded mutex run settled a different event set than merged"

        # no wall-clock assert against merged: the comparison has
        # fallen both ways as synthesis got cheaper (EXPERIMENTS.md,
        # SC7), so ``speedup_vs_merged`` is only reported
    return out


def _pf3_run(n: int, hubs: int, reference: bool):
    """The PF3 workload: ``n`` parked guards that have already stopped
    caring about the ``hubs`` shared bases.

    Every actor's guard is ``(kill . h_1 . ... . h_m) + g_i``: all
    actors subscribe to the hub bases, but once ``~kill`` settles the
    first cube is dead and each residual only mentions the private
    ``g_i`` (which never settles, so everyone stays parked).  The
    measured phase then announces the hubs one by one: the reference
    engine re-evaluates all ``n`` parked guards per announcement, the
    production engine skips them all.  Returns the announce-phase wall
    time and the deterministic observables.
    """
    from repro.temporal.cubes import TRUE_GUARD, literal

    kill = Event("pf3_kill")
    hub_events = [Event(f"pf3_h{j}") for j in range(hubs)]
    dead_cube = literal("box", kill)
    for h in hub_events:
        dead_cube = dead_cube & literal("box", h)
    guards = {~kill: TRUE_GUARD}
    parked = []
    for i in range(n):
        f_i = Event(f"pf3_f{i}")
        g_i = Event(f"pf3_g{i}")
        guards[f_i] = dead_cube | literal("box", g_i)
        parked.append(f_i)
    for h in hub_events:
        guards[h] = TRUE_GUARD  # fires on attempt
    sched = (ReferenceScheduler if reference else DistributedScheduler)(
        [],
        guards=guards,
        latency=ConstantLatency(1.0),
        rng=random.Random(3),
    )
    for f_i in parked:
        sched.attempt(f_i)
    sched.sim.run()
    sched.attempt(~kill)  # kills the shared cube in every residual
    sched.sim.run()
    wakes_before = sched.watch.wakes
    skips_before = sched.watch.skips
    # the timeit convention: a full collection landing in the window
    # would time the collector, not the engine
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for h in hub_events:
            sched.attempt(h)
        sched.sim.run()
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    assert len(sched.result.entries) == hubs + 1, sched.result.entries
    return {
        "seconds": elapsed,
        "settled": len(sched.result.entries),
        "messages": sched.network.stats.messages,
        "wakes": sched.watch.wakes - wakes_before,
        "skips": sched.watch.skips - skips_before,
        "timeline": [(repr(e.event), e.time) for e in sched.result.entries],
    }


def bench_watch_scaling(rounds: int) -> dict:
    """PF3: per-announcement assimilation cost vs parked-event count.

    The ROADMAP item the wake rule closes is "assimilation cost
    grows linearly with the number of parked events": the reference
    engine re-evaluates every parked guard per announcement (``evals
    == n``/announcement), the production engine re-evaluates none
    (flat 0 -- every residual dropped the hub bases), which the
    deterministic wake/skip counters witness exactly.  Wall-clock
    shows the same win as a constant-factor speedup per delivery; the
    announcement *fan-out* is deliberately identical in both engines
    (same messages, same rng stream -- that is what lets the
    differential harness fuzz drop/dup/crash schedules), so pure wall
    time still contains the linear per-message fabric cost in both
    columns.
    Also asserts the two engines settle the identical timeline (the
    cheap always-on shadow of tests/properties/
    test_watch_equivalence.py).
    """
    hubs = 8
    out: dict[str, dict] = {}
    speedup_at: dict[int, float] = {}
    for n in (10, 100, 1000):
        production_best = reference_best = float("inf")
        production = reference = None
        for _ in range(rounds):
            record = _pf3_run(n, hubs, reference=False)
            if record["seconds"] < production_best:
                production_best, production = record["seconds"], record
            record = _pf3_run(n, hubs, reference=True)
            if record["seconds"] < reference_best:
                reference_best, reference = record["seconds"], record
        assert production["timeline"] == reference["timeline"], (
            f"production/reference timelines diverge at n={n}"
        )
        assert production["messages"] == reference["messages"]
        # the flat-cost witness: the production announce phase
        # re-evaluates no guard at any n, the reference one re-evaluates
        # all n per announcement
        assert production["wakes"] == 0, production
        assert production["skips"] == n * hubs, production
        assert reference["wakes"] == n * hubs, reference
        speedup_at[n] = reference["seconds"] / production["seconds"]
        for name, record in (
            ("production", production), ("reference", reference)
        ):
            record = dict(record)
            del record["timeline"]
            record["per_announcement"] = record["seconds"] / hubs
            record["evals_per_announcement"] = record["wakes"] // hubs
            out[f"pf3_{name}_n{n}"] = record
    # the speedup must be real where it matters: at 100x the parked
    # population the production engine wins clearly on wall clock too
    assert speedup_at[1000] > 1.5, (
        "production announce phase must beat the reference at n=1000: "
        f"speedups {speedup_at}"
    )
    return out


def bench_compiled_eval(evals: int, rounds: int) -> dict:
    """PF4 micro: per-announcement guard-eval cost, cube vs compiled.

    A single-cube guard over ``n`` bases is settled one base per
    announcement.  The cube engine pays ``simplify_under`` per
    announcement -- even memo-warm, its key build sorts the whole
    knowledge map (``O(|K| log |K|)``, |K| growing to n).  The
    compiled cursor follows one interned edge per announcement plus
    cached assimilate/verdict pointer reads -- flat O(1) dict probes
    regardless of fan-in.  Both loops are timed warm (the second
    ``_best_of`` round onward reuses memo entries / interned edges),
    which is the steady state the scheduler actually runs in.
    """
    from repro.temporal.compiled import CompiledGuardEngine
    from repro.temporal.cubes import E_OCC, TRUE_GUARD, literal

    out: dict[str, dict] = {}
    speedup_at: dict[int, float] = {}
    for n in (10, 100):
        bases = [Event(f"pf4_b{i}") for i in range(n)]
        g = TRUE_GUARD
        for b in bases:
            g = g & literal("box", b)
        reps = max(1, evals // n)
        announcements = reps * n

        def cube_loop():
            fired = 0
            for _ in range(reps):
                knowledge = {}
                residual = g
                for base in bases:
                    knowledge[base] = E_OCC
                    residual = residual.simplify_under(knowledge)
                    if residual.is_true:
                        fired += 1
            return fired

        seconds, fired = _best_of(cube_loop, rounds)
        out[f"pf4_eval_cube_n{n}"] = {
            "seconds": seconds,
            "announcements": announcements,
            "per_announcement": seconds / announcements,
            "evals_per_second": announcements / seconds if seconds else 0.0,
            "literals": n,
        }

        engine = CompiledGuardEngine()

        def compiled_loop():
            fired = 0
            for _ in range(reps):
                knowledge = {}
                cursor = engine.cursor(g, knowledge)
                for base in bases:
                    knowledge[base] = E_OCC
                    cursor.learn(base, E_OCC)
                    cursor.assimilate()
                    if cursor.verdict() == "fire":
                        fired += 1
            return fired

        cseconds, cfired = _best_of(compiled_loop, rounds)
        # both engines fire exactly once per rep, on the last base
        assert fired == cfired == reps, (fired, cfired, reps)
        speedup = (
            (seconds / announcements) / (cseconds / announcements)
            if cseconds
            else 0.0
        )
        speedup_at[n] = speedup
        out[f"pf4_eval_compiled_n{n}"] = {
            "seconds": cseconds,
            "announcements": announcements,
            "per_announcement": cseconds / announcements,
            "evals_per_second": announcements / cseconds if cseconds else 0.0,
            "literals": n,
            "speedup_vs_cube": speedup,
        }
    assert speedup_at[100] >= 3.0, (
        "compiled guard evaluation is required to be >= 3x cheaper per "
        "announcement than cube simplify_under at fan-in 100; measured "
        f"{speedup_at[100]:.1f}x (speedups {speedup_at})"
    )
    return out


def _pf4_run(n: int, hubs: int, reference: bool) -> dict:
    """The PF4 workload: ``2n`` parked actors that dropped the hub
    bases (the wake rule's win -- their wake sets are stable, so
    skipping them is churn-free) plus a hot frontier of ``n // 2``
    coupled actors whose guards keep every hub relevant (the compiled
    automaton's win -- their residuals shrink on every announcement,
    which is exactly where ``simplify_under`` is expensive and where
    watching alone cannot help).

    Per hub announcement the reference engine re-evaluates every
    unsettled guard with ``simplify_under``; the production engine
    skips the parked population and walks automaton edges for the
    rest.  The announcement fan-out is identical in both (same
    messages, same rng stream), so both settle the same timeline.
    """
    from repro.temporal.cubes import TRUE_GUARD, literal

    kill = Event("pf4_kill")
    hub_events = [Event(f"pf4_h{j}") for j in range(hubs)]
    dead_cube = literal("box", kill)
    hub_cube = TRUE_GUARD
    for h in hub_events:
        dead_cube = dead_cube & literal("box", h)
        hub_cube = hub_cube & literal("box", h)
    guards = {~kill: TRUE_GUARD}
    waiting = []
    for i in range(2 * n):
        f_i = Event(f"pf4_f{i}")  # parked: ~kill dissolves its hub cube
        guards[f_i] = dead_cube | literal("box", Event(f"pf4_g{i}"))
        waiting.append(f_i)
    for i in range(max(1, n // 2)):
        c_i = Event(f"pf4_c{i}")  # coupled: every hub stays relevant
        guards[c_i] = hub_cube & literal("box", Event(f"pf4_p{i}"))
        waiting.append(c_i)
    for h in hub_events:
        guards[h] = TRUE_GUARD  # fires on attempt
    sched = (ReferenceScheduler if reference else DistributedScheduler)(
        [],
        guards=guards,
        latency=ConstantLatency(1.0),
        rng=random.Random(3),
    )
    for ev in waiting:
        sched.attempt(ev)
    sched.sim.run()
    sched.attempt(~kill)  # parks the f_i residuals on their private base
    sched.sim.run()
    wakes_before = sched.watch.wakes
    skips_before = sched.watch.skips
    before = sched.compiled.counts()
    # the measured phase is a few ms; a collection triggered by an
    # earlier workload's garbage landing inside it would swamp the
    # arm-to-arm margin
    gc.collect()
    start = time.perf_counter()
    for h in hub_events:
        sched.attempt(h)
    sched.sim.run()
    elapsed = time.perf_counter() - start
    assert len(sched.result.entries) == hubs + 1, sched.result.entries
    after = sched.compiled.counts()
    return {
        "seconds": elapsed,
        "settled": len(sched.result.entries),
        "messages": sched.network.stats.messages,
        "wakes": sched.watch.wakes - wakes_before,
        "skips": sched.watch.skips - skips_before,
        # every scheduler owns a private engine, so each run walks a
        # cold automaton: first traversals (edges) plus cached reads
        "hops": after["hops"] - before["hops"],
        "edges": after["edges"] - before["edges"],
        "timeline": [(repr(e.event), e.time) for e in sched.result.entries],
    }


def bench_engine_reference(rounds: int) -> dict:
    """PF4: the production engine against the reference engine on the
    mixed parked+coupled workload of :func:`_pf4_run`.

    The deterministic witnesses: both settle the identical timeline
    with identical message counts (receiver-side design -- that is
    what lets the differential harness fuzz fault schedules across
    them), production re-evaluates strictly fewer guards and reports
    automaton transitions, the reference reports none.  Wall clock is
    reported, not asserted: the measured phase is a few milliseconds.
    """
    hubs = 8
    out: dict[str, dict] = {}
    for n in (10, 100):
        best: dict[str, dict] = {}
        for name, reference in (("reference", True), ("production", False)):
            for _ in range(rounds):
                record = _pf4_run(n, hubs, reference)
                if (
                    name not in best
                    or record["seconds"] < best[name]["seconds"]
                ):
                    best[name] = record
        reference, production = best["reference"], best["production"]
        assert production["timeline"] == reference["timeline"], (
            f"pf4 production settled a different timeline at n={n}"
        )
        assert production["messages"] == reference["messages"], (
            f"pf4 production changed the message count at n={n}"
        )
        # watching must skip the parked population
        assert production["wakes"] < reference["wakes"], n
        assert production["skips"] > 0, n
        assert production["hops"] + production["edges"] > 0, production
        assert reference["hops"] + reference["edges"] == 0, reference
        for name, record in best.items():
            record = dict(record)
            del record["timeline"]
            record["per_announcement"] = record["seconds"] / hubs
            record["evals_per_announcement"] = record["wakes"] // hubs
            out[f"pf4_{name}_n{n}"] = record
    return out


def bench_chaos(rounds: int) -> dict:
    from repro.workloads.scenarios import make_travel_booking

    scenario = make_travel_booking("failure")
    plan = FaultPlan.of([SiteCrash("airline", at=2.0, restart_at=10.0)])

    def run():
        sched = DistributedScheduler(
            scenario.workflow.dependencies,
            sites=scenario.workflow.sites,
            attributes=scenario.workflow.attributes,
            rng=random.Random(7),
            drop_probability=0.3,
            duplicate_probability=0.3,
            reliable=True,
            fault_plan=plan,
        )
        result = sched.run(scenario.scripts, verify=False)
        return result, sched

    seconds, (result, sched) = _best_of(run, rounds)
    return {
        "sc5_chaos": {
            "seconds": seconds,
            "makespan": result.makespan,
            "messages": result.messages,
            "settled": len(result.entries),
            "retransmits": sched.network.stats.retransmits,
        }
    }


def collect(quick: bool) -> dict:
    rounds = 2 if quick else 5
    evals = 2_000 if quick else 20_000
    calibration = calibrate(rounds=3)
    workloads: dict[str, dict] = {}
    workloads.update(bench_synthesis(rounds))
    workloads.update(bench_guard_eval(evals, rounds))
    workloads.update(bench_end_to_end(rounds))
    if _supports_sharding():
        workloads.update(bench_template_synthesis(rounds))
        workloads.update(bench_scale_out(rounds))
    if _supports_cross_shard():
        workloads.update(bench_scale_mutex(rounds))
    workloads.update(bench_compiled_eval(evals, rounds))
    if _supports_reference_engine():
        workloads.update(bench_watch_scaling(rounds))
        workloads.update(bench_engine_reference(rounds))
    workloads.update(bench_chaos(rounds))
    for record in workloads.values():
        if "seconds" in record:
            record["normalized"] = record["seconds"] / calibration
    features = {
        "sharding": _supports_sharding(),
        "cross_shard": _supports_cross_shard(),
        "reference_engine": _supports_reference_engine(),
    }
    try:
        from repro.algebra.expressions import intern_stats  # noqa: F401

        features["interning"] = True
    except ImportError:
        features["interning"] = False
    return {
        "schema": SCHEMA,
        "quick": quick,
        "calibration_seconds": calibration,
        "workloads": workloads,
        "features": features,
    }


def check_regression(current: dict, baseline: dict) -> list[str]:
    """Exact-observable comparison; returns failures.

    Wall-clock is not gated -- on a shared host the normalized times
    move more between two runs of one tree than between commits -- so
    normalized-time changes are printed as information only.
    """
    failures: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, base in sorted(base_workloads.items()):
        now = current["workloads"].get(name)
        if now is None:
            failures.append(f"{name}: workload missing from current run")
            continue
        base_norm = base.get("normalized")
        now_norm = now.get("normalized")
        if base_norm and now_norm:
            print(f"  {name}: normalized {base_norm:.3f} -> {now_norm:.3f} "
                  f"({now_norm / base_norm - 1.0:+.0%}, not gated)")
        for field in EXACT_FIELDS:
            if field in base and field in now and base[field] != now[field]:
                failures.append(
                    f"{name}.{field}: {now[field]!r} != baseline "
                    f"{base[field]!r} (semantics drift)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions/evaluations (CI smoke); workload sizes "
        "are unchanged so deterministic observables stay comparable",
    )
    parser.add_argument("--output", default="BENCH_PERF.json")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="fail (exit 1) on a missing workload or any deterministic-"
        "observable drift against this JSON; timing changes are printed",
    )
    args = parser.parse_args(argv)

    report = collect(quick=args.quick)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    for name, record in sorted(report["workloads"].items()):
        if "seconds" in record:
            print(f"  {name}: {record['seconds']:.6f}s "
                  f"(normalized {record['normalized']:.3f})")

    status = 0
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        print(f"\nvs {args.baseline}:")
        failures = check_regression(report, baseline)
        if failures:
            print(f"\nDRIFT vs {args.baseline}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"\nno drift vs {args.baseline}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
