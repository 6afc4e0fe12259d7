"""Run one workload of the end-to-end benchmark and print its metrics.

    python -m benchmarks.e2e.run --workload NAME --seed S [--trace] [--out DIR]

A run is: set-up, K timed iterations, one counted iteration.  Each
iteration is one cold pipeline in a forked child (see ``harness``);
iteration ``i`` uses seed ``1000*S+i``.  Closed loop, one client: the
next iteration starts when the previous child has been reaped.  The
untraced run gives the end-to-end metrics; ``--trace`` records the
benchmark's own spans, adds the standalone layer probes and gives the
per-layer metrics.  Every metric is printed by name with its unit, the
outputs are checked, and the exit code is non-zero on a failed check.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import fmean as mean, median
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import probes  # noqa: E402
from benchmarks.e2e.harness import (  # noqa: E402
    ChildFailure,
    NoSpans,
    Spans,
    attributed_share,
    calibrated,
    fit_exponent,
    high_percentile,
    run_child,
    self_times,
)
from benchmarks.e2e.workloads import WORKLOADS, run_pipeline  # noqa: E402

#: set-ups measured per run, each in a fresh interpreter
SETUP_SAMPLES = 7
#: iterations always run, whatever ``--seconds`` says
MIN_ITERATIONS = 3
#: traced iterations of a ``--trace`` run (and as many untraced ones,
#: alternating, for the span overhead)
TRACED_ITERATIONS = 3
#: leaf spans must cover this share of every traced iteration
MIN_ATTRIBUTED = 0.95


def declared() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds this
    runner reports against (the one place they are written down)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


def setup_samples() -> list[float]:
    """Calibrated set-up seconds of fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
            capture_output=True, text=True, check=True, timeout=120,
        )
        measured = json.loads(probe.stdout.splitlines()[-1])
        samples.append(calibrated(measured["wall_s"], measured["spins"]))
    return samples


class Tally:
    """Instances attempted and failed over every iteration of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, label: str, instances: int, fn) -> dict | None:
        """Run one pipeline child; a child that raises, dies or times
        out fails every instance it was to attempt."""
        self.attempted += instances
        try:
            observation = run_child(fn)
        except ChildFailure as failure:
            self.failed += instances
            self.problems.append(f"{label}: {failure}")
            return None
        self.failed += observation["failed"]
        if observation["failed"]:
            self.problems.append(
                f"{label}: {observation['failed']} instance(s) failed"
            )
        return observation

    def probe(self, label: str, fn) -> dict | None:
        try:
            return run_child(fn)
        except ChildFailure as failure:
            self.problems.append(f"{label}: {failure}")
            return None

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


def phase_seconds(run: dict, *phases: str) -> float:
    """Calibrated seconds of consecutive phases of one iteration, by
    the calibrations that bracket them (``spins[i]`` precedes phase
    ``i`` of ready / run / verify, ``spins[3]`` follows the last)."""
    order = ("ready_s", "run_s", "verify_s")
    first, last = order.index(phases[0]), order.index(phases[-1])
    spins = [s for boundary in run["spins"][first:last + 2] for s in boundary]
    return calibrated(sum(run[phase] for phase in phases), spins)


def iter_seconds(run: dict) -> float:
    return phase_seconds(run, "ready_s", "run_s", "verify_s")


def all_spins(runs: list[dict]) -> list[float]:
    return [s for run in runs for boundary in run["spins"] for s in boundary]


def timed_run(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """The untraced run: K timed iterations and the counted one."""
    size, workers = workload.size, pool_workers()
    instances = workload.instances(size)
    entered = time.perf_counter()
    setups = setup_samples()
    runs = []
    began = time.perf_counter()
    for i in range(workload.iterations):
        if i >= MIN_ITERATIONS and time.perf_counter() - began >= seconds:
            break
        observation = tally.child(
            f"iteration {i}", instances,
            lambda i=i: run_pipeline(
                workload, size, 1000 * seed + i, NoSpans(), workers
            ),
        )
        if observation is not None:
            runs.append(observation)
    timed_until = time.perf_counter()
    counted = tally.child(
        "counted iteration", instances,
        lambda: run_pipeline(
            workload, size, 1000 * seed, NoSpans(), workers=1, count="all"
        ),
    )
    print(f"# wall: set-up probes {began - entered:.1f} s, "
          f"{len(runs)} timed iterations {timed_until - began:.1f} s, "
          f"counted iteration {time.perf_counter() - timed_until:.1f} s")
    if not runs or counted is None:
        return {}
    tally.expect(
        counted["digest"] == runs[0]["digest"],
        "determinism: the counted iteration and iteration 0 (same seed) "
        "settled different timelines",
    )
    iter_s = [iter_seconds(run) for run in runs]
    percentile, iter_hi = high_percentile(iter_s)
    settled = sum(run["settled"] for run in runs)
    return {
        "setup_s": median(setups),
        "iter_s_p50": median(iter_s),
        "ready_s_p50": median(phase_seconds(run, "ready_s") for run in runs),
        "settled_per_s": median(
            run["settled"] / phase_seconds(run, "run_s") for run in runs
        ),
        "py_calls_per_settled": counted["calls"]["all"] / counted["settled"],
        "msgs_per_settled": sum(run["messages"] for run in runs) / settled,
        "sim_makespan": mean(run["makespan"] for run in runs),
        "sim_decision_latency": mean(
            run["decision_latency"] for run in runs
        ),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        # printed, not gated
        "failed_share": tally.failed / tally.attempted,
        "iterations": len(runs),
        f"iter_s_hi(p{percentile})": iter_hi,
        "iter_wall_s_p50": median(
            run["ready_s"] + run["run_s"] + run["verify_s"] for run in runs
        ),
        "host.spin_s": median(all_spins(runs)),
        **result_counters(runs),
    }


def result_counters(runs: list[dict]) -> dict:
    """The ``ExecutionResult`` / ``NetworkStats`` counters every run
    prints, averaged over its iterations."""
    def avg(key):
        return mean(run.get(key, 0) for run in runs)

    messages = avg("messages")
    watched = avg("watch_wakes") + avg("watch_skips")
    return {
        "scheduler.settled": avg("settled"),
        "scheduler.parked_total": avg("parked_total"),
        "scheduler.promises_granted": avg("promises_granted"),
        "scheduler.not_yet_rounds": avg("not_yet_rounds"),
        "scheduler.triggered": avg("triggered"),
        "sim.messages": messages,
        "sim.announce_messages": avg("announce"),
        "sim.retransmits": avg("retransmits"),
        "sim.dropped": avg("dropped"),
        "sim.duplicated": avg("duplicated"),
        "sim.retransmit_ratio": avg("retransmits") / messages,
        "sim.max_site_load": avg("max_site_load"),
        "temporal.watch_wakes": avg("watch_wakes"),
        "temporal.watch_skips": avg("watch_skips"),
        "temporal.watch_skip_ratio": (
            avg("watch_skips") / watched if watched else 0.0
        ),
    }


def layer_seconds(run: dict) -> dict[str, float]:
    """One traced iteration's self time per span name, in seconds
    calibrated by all of the iteration's spins."""
    spins = all_spins([run])
    return {
        name: calibrated(seconds, spins)
        for name, seconds in self_times(run["spans"]).items()
    }


def span_seconds(runs: list[dict], name: str) -> float:
    """Median over the traced iterations of one span's self time."""
    return median(run["layers"].get(name, 0.0) for run in runs)


def traced_run(
    workload, seed: int, out: Path, names: list[str], tally: Tally
) -> dict:
    """The ``--trace`` run: spans, layer probes, per-layer metrics
    (``names``; one that does not apply to the workload reads 0)."""
    size, workers = workload.size, pool_workers()
    instances = workload.instances(size)
    traced, plain = [], []
    for i in range(TRACED_ITERATIONS):
        for runs, spans in ((traced, Spans), (plain, NoSpans)):
            observation = tally.child(
                f"iteration {i}", instances,
                lambda i=i, spans=spans: run_pipeline(
                    workload, size, 1000 * seed + i, spans(), workers
                ),
            )
            if observation is not None:
                runs.append(observation)
    if len(traced) < TRACED_ITERATIONS or len(plain) < TRACED_ITERATIONS:
        return {}
    write_spans(out, workload.name, seed, traced)
    for run in traced:
        run["layers"] = layer_seconds(run)
    layer = dict.fromkeys(names, 0.0)
    layer.update(result_counters(traced))
    shares = [attributed_share(run["spans"]) for run in traced]
    tally.expect(
        min(shares) >= MIN_ATTRIBUTED,
        f"attribution: leaf spans cover only {min(shares):.3f} of an "
        f"iteration (need {MIN_ATTRIBUTED})",
    )
    settled, messages = layer["scheduler.settled"], layer["sim.messages"]
    stamped = mean(run["stamped"] for run in traced)
    deps = mean(run["deps"] for run in traced)
    run_s = median(phase_seconds(run, "run_s") for run in traced)
    if "scheduler.run.close" in traced[0]["layers"]:
        # phases driven by hand, each with its own span
        layer["scheduler.message_phase_s"] = sum(
            span_seconds(traced, f"scheduler.run.{phase}")
            for phase in ("park", "kill", "hubs", "bases")
        )
        layer["scheduler.settle_phase_s"] = span_seconds(
            traced, "scheduler.run.close"
        )
    layer.update({
        "workloads.generate_s": span_seconds(traced, "workloads.generate"),
        "workflows.stamp_s": span_seconds(traced, "workflows.stamp"),
        "workflows.instances_stamped": stamped,
        "scheduler.build_s": span_seconds(traced, "scheduler.build"),
        "scheduler.run_s": run_s,
        "scheduler.us_per_settled": 1e6 * run_s / settled,
        "scheduler.us_per_message": 1e6 * run_s / messages,
        "algebra.verify_s": span_seconds(traced, "algebra.verify"),
        "scale.plan_s": span_seconds(traced, "scale.plan"),
        "bench.attributed_share": min(shares),
        # traced and untraced iteration i share a seed: pair them
        "bench.span_overhead_ratio": median(
            iter_seconds(with_spans) / iter_seconds(without)
            for with_spans, without in zip(traced, plain)
        ),
        "host.spin_s": median(all_spins(traced + plain)),
        "host.nproc": os.cpu_count() or 1,
    })
    if stamped and layer["workflows.stamp_s"]:
        layer["workflows.stamp_us_per_instance"] = (
            1e6 * layer["workflows.stamp_s"] / stamped
        )
    if deps:
        layer["algebra.verify_us_per_dep"] = (
            1e6 * layer["algebra.verify_s"] / deps
        )
    layer.update(probe_layers(workload, seed, traced, tally))
    print_self_times(traced)
    return layer


def probe_layers(workload, seed: int, traced: list[dict], tally: Tally) -> dict:
    """Per-layer metrics that come from the standalone probes."""
    size, first = workload.size, 1000 * seed
    layer: dict[str, float] = {}

    cold = tally.probe(
        "synthesis probe",
        lambda: probes.synthesis(workload, size, first, count=False),
    )
    if cold is not None:
        layer.update({
            "temporal.synthesis_s": cold["seconds"],
            "temporal.guard_cubes": cold["cubes"],
            "temporal.guard_literals": cold["literals"],
            "temporal.kernel_hit_ratio": cold["hit_ratio"],
        })

    # exact call counts at N/4, N/2, N: the scaling exponents
    sizes = [size // 4, size // 2, size]
    counts: dict[str, list[int]] = {"synthesis": [], "run": [], "verify": []}
    for n in sizes:
        synthesized = tally.probe(
            f"synthesis count at {n}",
            lambda n=n: probes.synthesis(workload, n, first, count=True),
        )
        piped = tally.probe(
            f"phase counts at {n}",
            lambda n=n: run_pipeline(
                workload, n, first, NoSpans(), workers=1, count="phases"
            ),
        )
        if synthesized is None or piped is None:
            return layer
        counts["synthesis"].append(synthesized["calls"])
        counts["run"].append(piped["calls"]["run"])
        counts["verify"].append(piped["calls"]["verify"])
    for key, prefix in (
        ("synthesis", "temporal.synthesis"),
        ("run", "scheduler.run"),
        ("verify", "algebra.verify"),
    ):
        layer[f"{prefix}_calls"] = counts[key][-1]
        layer[f"{prefix}_exponent"] = fit_exponent(sizes, counts[key])

    if "in_process_shards" in workload.probes:
        inproc = tally.probe(
            "in-process shards",
            lambda: probes.in_process_shards(workload, size, first),
        )
        if inproc is not None:
            pooled = span_seconds(traced, "scale.run")
            layer.update({
                "scale.run_s": pooled,
                "scale.inproc_run_s": inproc["seconds"],
                "scale.parallel_speedup": inproc["seconds"] / pooled,
                "scale.task_pickle_bytes": inproc["task_bytes"],
                "scale.outcome_pickle_bytes": inproc["outcome_bytes"],
            })
        for key in ("cut_weight", "cross_messages", "shards", "workers"):
            layer[f"scale.{key}"] = traced[0][key]
    if "delivery_floor" in workload.probes:
        floor = tally.probe(
            "delivery floor",
            lambda: probes.delivery_floor(workload, size, first),
        )
        if floor is not None:
            layer["sim.delivery_floor_s"] = floor["seconds"]
            layer["sim.delivery_us_per_message"] = (
                1e6 * floor["seconds"] / floor["messages"]
            )
    if "phase_split" in workload.probes:
        split = tally.probe(
            "phase split",
            lambda: probes.phase_split(workload, size, first),
        )
        if split is not None:
            tally.expect(
                split["digest"] == traced[0]["digest"],
                "phase split: run(settle=False) + run([]) settled a "
                "different timeline than the one-call run",
            )
            layer["scheduler.message_phase_s"] = split["message_phase_s"]
            layer["scheduler.settle_phase_s"] = split["settle_phase_s"]
    if "observability" in workload.probes:
        observed = tally.probe(
            "observability",
            lambda: probes.observability(workload, size, first),
        )
        if observed is not None:
            layer.update({
                "obs.profiled_run_ratio": observed["profiled_ratio"],
                "obs.traced_run_ratio": observed["traced_ratio"],
                "obs.trace_records": observed["trace_records"],
            })
    return layer


def write_spans(out: Path, workload: str, seed: int, traced: list[dict]) -> None:
    """Write the traced iterations' spans, each relative to its root."""
    rows = []
    for iteration, run in enumerate(traced):
        origin = run["spans"][0][1]
        rows.extend(
            {
                "iteration": iteration,
                "span": index,
                "parent": parent,
                "name": name,
                "start": start - origin,
                "end": end - origin,
            }
            for index, (name, start, end, parent) in enumerate(run["spans"])
        )
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "spans": rows}, indent=1
    ))
    print(f"# spans written to {path}")


def print_self_times(traced: list[dict]) -> None:
    names = list(dict.fromkeys(
        name for run in traced for name, *_rest in run["spans"]
    ))
    wall = median(iter_seconds(run) for run in traced)
    print("# per-layer self time (span minus children) in calibrated "
          f"seconds, median of {len(traced)} traced iterations")
    for name in names:
        seconds = span_seconds(traced, name)
        print(f"#   {name:<28} {seconds:10.6f} s  {seconds / wall:6.1%}")


def print_metrics(values: dict, units: dict) -> None:
    for name, value in values.items():
        unit = units.get(name, "")
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<34} {text:>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=12.0,
        help="stop starting timed iterations after this long "
        "(the workload's K is the usual limit)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans, run the layer probes, print per-layer metrics",
    )
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).parent / "out",
        help="directory for the span file of a traced run",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    contract = declared()
    tally = Tally()
    print(f"# {workload.name}: N={workload.size} K={workload.iterations} "
          f"seed={args.seed} -- {workload.why}")
    if args.trace:
        reported = contract["per_layer"]
        values = traced_run(
            workload, args.seed, args.out,
            [metric["name"] for metric in reported], tally,
        )
    else:
        reported = contract["end_to_end"]
        values = timed_run(workload, args.seed, args.seconds, tally)
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["end_to_end"] + contract["per_layer"]
    }
    print_metrics(values, units)
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    correct = bool(values) and not tally.problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"]
            }
            for metric in reported if metric["name"] in values
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # hash order must not vary between runs: exact counts depend on it
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
