"""Experiment OB1: cost of the observability layer.

Runs Example 13 (mutual exclusion) on the distributed scheduler two
ways -- tracing off (the ``NULL_TRACER`` default) and tracing on, which
also records each guard evaluation's structured cubes and knowledge
(what ``repro explain`` replays) -- and pins two claims:

* **tracing is purely observational**: the traced run's virtual
  results (timeline, makespan, message count) are identical to the
  untraced run's, because tracing consumes no randomness and changes
  no decision;
* **tracing off is free**: the instrumentation behind the disabled
  tracer is one attribute read and a branch per hot hook, so the untraced
  wall time stays within noise of the pre-instrumentation baseline
  (asserted loosely here -- wall-clock ratios on shared CI boxes are
  fuzzy -- and recorded precisely in EXPERIMENTS.md).
"""

import random
import time

import pytest

from repro.obs import Tracer
from repro.scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_scenario


def _run(tracer=None, seed=5):
    scenario = make_mutex_scenario()
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        tracer=tracer,
    )
    result = sched.run(scenario.scripts, verify=False)
    assert not result.unsettled
    return sched, result


def _timeline(result):
    return [
        (entry.event, entry.time, entry.attempted_at, entry.outcome)
        for entry in result.entries
    ]


def test_bench_tracing_off_is_default(benchmark):
    sched, result = benchmark(_run)
    assert sched.tracer.active is False
    assert sched.tracer.records == []


def test_bench_tracing_on(benchmark):
    def run():
        return _run(tracer=Tracer())

    sched, result = benchmark(run)
    assert sched.tracer.records
    evals = sum(
        1 for record in sched.tracer.records if record["cat"] == "guard"
    )
    assert evals > 0
    print(
        f"\n[obs] traced mutex run: {len(sched.tracer.records)} records, "
        f"{evals} guard evaluations"
    )


def test_bench_traced_run_is_bit_identical():
    _, plain = _run()
    traced_sched, traced = _run(tracer=Tracer())
    assert _timeline(plain) == _timeline(traced)
    assert plain.makespan == traced.makespan
    assert plain.messages == traced.messages


def test_bench_overhead_ratio():
    """Wall-clock ratio of traced / untraced, measured directly.

    The generous bound (4x) exists to catch accidental O(n^2) record
    handling or tracing work leaking into the disabled path, not to
    measure the true cost -- that is the benchmark fixtures' job.
    """
    rounds = 5
    _run()  # warm-up: imports, guard compilation caches

    def clock(**kwargs):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            _run(**kwargs)
            best = min(best, time.perf_counter() - start)
        return best

    off = clock()
    on = clock(tracer=Tracer())
    print(
        f"\n[obs] mutex wall: off={off * 1e3:.2f}ms on={on * 1e3:.2f}ms "
        f"ratio={on / off:.2f}"
    )
    assert on < off * 4.0, (off, on)


# ----------------------------------------------------------------------
# Experiment SN1: snapshots under faults.
#
# A periodic snapshot reads the whole run between two simulator steps
# and sends nothing.  The claims: the workload is untouched (identical
# settlement timeline, makespan and message counts, by kind) on the
# clean run and under drops plus a crash, and every snapshot passes
# the consistency checker even when cut mid-chaos.


def _run_snapshots(every=None, drop=0.0, plan=None, seed=5, tracer=None):
    scenario = make_mutex_scenario()
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        reliable=drop > 0 or plan is not None,
        fault_plan=plan,
        tracer=tracer,
    )
    if every is not None:
        sched.schedule_snapshots(every)
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def _sent(sched, result):
    return result.makespan, result.messages, sched.network.stats.by_kind


def _chaos_plan():
    from repro.sim import FaultPlan, SiteCrash

    return FaultPlan.of([SiteCrash("task1", at=2.0, restart_at=7.0)])


def test_bench_snapshots_leave_workload_untouched():
    plain = _run_snapshots()
    snapped = _run_snapshots(every=2.0)
    assert snapped[0].snapshots
    assert _timeline(plain[1]) == _timeline(snapped[1])
    assert _sent(*plain) == _sent(*snapped)


def test_bench_snapshots_under_faults(benchmark):
    from repro.obs import check_snapshot

    def run():
        return _run_snapshots(
            every=3.0, drop=0.2, plan=_chaos_plan(), tracer=Tracer()
        )

    sched, result = benchmark(run)
    plain_sched, plain = _run_snapshots(drop=0.2, plan=_chaos_plan())
    assert _timeline(plain) == _timeline(result)
    assert _sent(plain_sched, plain) == _sent(sched, result)
    snaps = sched.snapshots
    assert snaps, "no snapshot taken"
    for snap in snaps:
        assert check_snapshot(snap, sched.tracer.records) == []
    down = sum(1 for snap in snaps if snap.down)
    in_channel = sum(
        len(messages) for snap in snaps for messages in snap.channels.values()
    )
    print(
        f"\n[obs] SN1: {len(snaps)} snapshots ({down} with task1 down), "
        f"{in_channel} payloads in channels, "
        f"{result.messages} messages as without snapshots"
    )


# ----------------------------------------------------------------------
# Experiment OB3: cost of the span profiler on SC1.
#
# The profiler wraps the hot scheduler phases (synthesis, delivery,
# guard evaluation, watch wake-ups, cube ops) in explicit spans.  Off
# -- no profiler, the default -- each hot site costs one attribute
# read and a branch; on, each span costs two perf_counter calls.  Both
# claims are pinned on SC1 (merged travel instances, the scalability
# workload of Section 6): the profiled run stays bit-identical, and the
# enabled profiler sits well under the loose wall bound (measured <5%;
# EXPERIMENTS.md records the ratio).


def _run_profiled(profiler=None, sample_every=None, count=6, seed=42):
    from benchmarks.helpers import merged_travel_instances
    from repro.sim.network import ConstantLatency

    workflow, scripts = merged_travel_instances(count)
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(seed),
        profiler=profiler,
    )
    if sample_every is not None:
        sched.enable_timeseries(sample_every)
    result = sched.run(scripts, verify=False)
    assert not result.unsettled
    return sched, result


def test_bench_profiler_on(benchmark):
    from repro.obs.profile import Profiler

    def run():
        return _run_profiled(profiler=Profiler(), sample_every=1.0)

    sched, _result = benchmark(run)
    report = sched.profiler.report()
    assert "synthesis" in report["phases"]
    assert "delivery" in report["phases"]
    spans = sum(node["calls"] for node in report["phases"].values())
    print(
        f"\n[obs] profiled SC1 run: {spans} spans, "
        f"{len(report['phases'])} distinct phase paths"
    )


def test_bench_profiled_run_is_bit_identical():
    from repro.obs.profile import Profiler

    _, plain = _run_profiled()
    _, profiled = _run_profiled(profiler=Profiler(), sample_every=1.0)
    assert _timeline(plain) == _timeline(profiled)
    assert plain.makespan == profiled.makespan
    assert plain.messages == profiled.messages


def test_bench_profiler_overhead_ratio():
    """OB3's loose CI guard; EXPERIMENTS.md records the precise ratio."""
    from repro.obs.profile import Profiler

    rounds = 5
    _run_profiled()  # warm-up: imports, guard compilation caches

    def clock(**kwargs):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            _run_profiled(**kwargs)
            best = min(best, time.perf_counter() - start)
        return best

    off = clock()
    on = clock(profiler=Profiler())
    sampled = clock(profiler=Profiler(), sample_every=1.0)
    print(
        f"\n[obs] SC1 wall: off={off * 1e3:.2f}ms on={on * 1e3:.2f}ms "
        f"sampled={sampled * 1e3:.2f}ms ratio={on / off:.2f}"
    )
    assert on < off * 4.0, (off, on)
    assert sampled < off * 5.0, (off, sampled)


# ----------------------------------------------------------------------
# Experiment OB4: flight-recorder tracing and differ throughput on SC1.
#
# The flight recorder keeps a bounded ring of trace records instead of
# the full stream, so its memory is constant in run length; its CPU
# cost sits between tracing-off and full tracing (every record is
# still built, but eviction replaces unbounded list growth).  The
# second half times the causal differ on a same-seed pair of full SC1
# traces -- the common "is this run identical to the baseline?" query
# of the regression registry.


def _run_sc1(tracer=None, count=6, seed=42):
    from benchmarks.helpers import merged_travel_instances
    from repro.sim.network import ConstantLatency

    workflow, scripts = merged_travel_instances(count)
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(seed),
        tracer=tracer,
    )
    result = sched.run(scripts, verify=False)
    assert not result.unsettled
    return sched, result


def test_bench_flight_recorder_on_sc1(benchmark):
    from repro.obs.recorder import FlightRecorder

    def run():
        return _run_sc1(tracer=FlightRecorder(ring=256))

    sched, _result = benchmark(run)
    stats = sched.tracer.recorder_stats()
    assert stats["retained"] == 256
    assert stats["dropped_total"] > 0
    print(
        f"\n[obs] OB4 flight-recorded SC1 run: ring=256 retained "
        f"{stats['retained']}, dropped {stats['dropped_total']}"
    )


def test_bench_flight_recorded_run_is_bit_identical():
    from repro.obs.recorder import FlightRecorder

    _, plain = _run_sc1()
    _, recorded = _run_sc1(tracer=FlightRecorder(ring=128))
    assert _timeline(plain) == _timeline(recorded)
    assert plain.makespan == recorded.makespan
    assert plain.messages == recorded.messages


def test_bench_flight_recorder_memory_is_constant():
    from repro.obs.recorder import FlightRecorder

    small = FlightRecorder(ring=64)
    _run_sc1(tracer=small, count=4)
    grown = FlightRecorder(ring=64)
    _run_sc1(tracer=grown, count=8)
    # doubling the workload doubles the drops, not the footprint
    assert len(small.records) <= 64 + len(
        [r for r in small.records if r["cat"] == "fault"]
    )
    assert len(grown.records) <= 64 + len(
        [r for r in grown.records if r["cat"] == "fault"]
    )
    assert (
        grown.recorder_stats()["dropped_total"]
        > small.recorder_stats()["dropped_total"]
    )


def test_bench_differ_on_sc1_pair(benchmark):
    from repro.obs.diff import diff_traces

    tracer_a, tracer_b = Tracer(), Tracer()
    _run_sc1(tracer=tracer_a)
    _run_sc1(tracer=tracer_b)
    records_a = list(tracer_a.records)
    records_b = list(tracer_b.records)

    diff = benchmark(lambda: diff_traces(records_a, records_b))
    assert records_a == records_b  # same seed: the same records
    assert diff.identical
    print(
        f"\n[obs] OB4 differ: {diff.records_a}+{diff.records_b} records "
        f"compared, identical={diff.identical}"
    )


def test_bench_flight_recorder_overhead_ratio():
    """OB4's loose CI guard; EXPERIMENTS.md records the precise ratio."""
    from repro.obs.recorder import FlightRecorder

    rounds = 5
    _run_sc1()  # warm-up: imports, guard compilation caches

    def clock(**kwargs):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            _run_sc1(**kwargs)
            best = min(best, time.perf_counter() - start)
        return best

    off = clock()
    ring = clock(tracer=FlightRecorder(ring=256))
    full = clock(tracer=Tracer())
    print(
        f"\n[obs] OB4 SC1 wall: off={off * 1e3:.2f}ms "
        f"ring={ring * 1e3:.2f}ms full={full * 1e3:.2f}ms "
        f"ratio={ring / off:.2f}"
    )
    assert ring < off * 4.0, (off, ring)
