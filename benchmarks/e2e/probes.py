"""Standalone probes of the traced run: one layer at a time.

Each probe runs in its own forked child (cold caches, like every
iteration) and measures a layer from outside, around calls into its
public functions.  None of them feeds an end-to-end metric.
"""

from __future__ import annotations

import functools
import pickle
import random

from repro.obs import Profiler, Tracer
from repro.scale import run_sharded
from repro.sim import Network, ReliableNetwork, Simulator
from repro.temporal.guards import kernel_stats

from benchmarks.e2e.harness import NoSpans, Stopwatch
from benchmarks.e2e.workloads import CallCounts, digest


def _hit_counts(stats: dict) -> tuple[int, int]:
    """Total (hits, misses) over every memo table in ``kernel_stats()``."""
    hits = misses = 0
    for key, value in stats.items():
        if isinstance(value, dict):
            inner_hits, inner_misses = _hit_counts(value)
            hits += inner_hits
            misses += inner_misses
        elif key.endswith("hits"):
            hits += value
            misses += stats[key[: -len("hits")] + "misses"]
    return hits, misses


def synthesis(workload, size: int, seed: int, count: bool) -> dict:
    """Cold guard synthesis of the workload's whole dependency list."""
    spec = workload.generate(size, seed)
    hits_before, misses_before = _hit_counts(kernel_stats())
    calls = CallCounts()
    with Stopwatch() as watch, calls.block("synthesis", count):
        table = workload.guard_table(spec)
    hits, misses = _hit_counts(kernel_stats())
    lookups = (hits - hits_before) + (misses - misses_before)
    return {
        "seconds": watch.seconds,  # meaningless while counting
        "calls": calls.get("synthesis", 0),
        "cubes": sum(len(guard.cubes) for guard in table.values()),
        "literals": sum(
            len(cube) for guard in table.values() for cube in guard.cubes
        ),
        "hit_ratio": (hits - hits_before) / lookups if lookups else 0.0,
    }


def _noop(_payload) -> None:
    pass


def delivery_floor(workload, size: int, seed: int) -> dict:
    """Replay the run's message journal through a fresh simulator and
    channel stack with no-op handlers: the floor under the scheduling
    phase.  On the reliable path the journal also holds retransmits
    and duplicates, so its non-ack sends are thinned evenly to the
    run's count of first-time payloads and the replay draws its own
    drops and duplicates at the same rates.
    """
    spec = workload.generate(size, seed)
    ready = workload.prepare(spec, NoSpans(), 1)
    workload.schedule(spec, ready, NoSpans())
    ran = ready.sched.network
    sends = ran.journal
    if ready.sched.reliable:
        sends = [send for send in sends if send[4] != "ack"]
        keep = min(len(sends), ran.stats.fresh_payloads())
        sends = [sends[i * len(sends) // keep] for i in range(keep)]
    sim = Simulator()
    channel = network = Network(
        sim,
        latency=ran.latency,
        rng=random.Random(seed),
        drop_probability=ran.drop_probability,
        duplicate_probability=ran.duplicate_probability,
    )
    if ready.sched.reliable:
        channel = ReliableNetwork(network)
    for sent_at, _delivered_at, src, dst, kind in sends:
        sim.schedule_at(
            sent_at,
            functools.partial(channel.send, src, dst, kind, None, _noop),
        )
    with Stopwatch() as watch:
        sim.run()
    return {"seconds": watch.seconds, "messages": network.stats.messages}


def phase_split(workload, size: int, seed: int) -> dict:
    """Message-driven phase and settlement phase, run as two calls."""
    spec = workload.generate(size, seed)
    ready = workload.prepare(spec, NoSpans(), 1)
    with Stopwatch() as messages:
        ready.sched.run(ready.scripts, settle=False, verify=False)
    with Stopwatch() as settle:
        result = ready.sched.run([], verify=False)
    return {
        "message_phase_s": messages.seconds,
        "settle_phase_s": settle.seconds,
        "digest": digest(result),
    }


def observability(workload, size: int, seed: int) -> dict:
    """The scheduling phase with the program's profiler, then its
    tracer, switched on, against the plain run (same child, after one
    discarded run so all three start equally warm)."""
    spec = workload.generate(size, seed)
    timings = {}
    tracer = Tracer()
    for name, observe in (
        ("warm", {}),
        ("plain", {}),
        ("profiled", {"profiler": Profiler()}),
        ("traced", {"tracer": tracer}),
    ):
        ready = workload.prepare(spec, NoSpans(), 1, **observe)
        with Stopwatch() as watch:
            workload.schedule(spec, ready, NoSpans())
        timings[name] = watch.seconds
    return {
        "profiled_ratio": timings["profiled"] / timings["plain"],
        "traced_ratio": timings["traced"] / timings["plain"],
        "trace_records": len(tracer.records),
    }


def in_process_shards(workload, size: int, seed: int) -> dict:
    """The shard plan run in this process, and its wire sizes."""
    spec = workload.generate(size, seed)
    ready = workload.prepare(spec, NoSpans(), 1)
    with Stopwatch() as watch:
        sharded = run_sharded(ready.tasks, workers=1)
    return {
        "seconds": watch.seconds,
        "task_bytes": len(pickle.dumps(list(ready.tasks))),
        "outcome_bytes": len(pickle.dumps(sharded.outcomes)),
    }
