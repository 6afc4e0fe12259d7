"""Do two sets of runs of the same code agree within the bounds?

    python -m benchmarks.e2e.repeat --sets 2 --runs 5

Runs every workload ``--runs`` times per set, workloads interleaved
(A B C D E A B ...) so that a slow spell of the host lands on all of
them, run ``r`` of every set with seed ``r + 1``.  Prints, per
workload and end-to-end metric, each set's median, the widest spread
of a set (distance between its quartiles over its median), the
relative gap between the first and last set's medians, and the bound.
Exits non-zero when a gap or a spread exceeds its bound, when a run
fails, or when a count that must repeat exactly for a seed does not
(between runs of equal length: ``--seconds`` may cut a slow run short).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
#: the declared contract: workload names, metrics and their bounds
DECLARED = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: bit-identical between two runs of one seed (timing plays no part)
EXACT = (
    "py_calls_per_settled",
    "msgs_per_settled",
    "sim_makespan",
    "sim_decision_latency",
)
#: its spread is reported but not gated (one process start dominates)
SPREAD_EXEMPT = ("setup_s",)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def exact_repeats(results: list[dict], name: str, metric: str) -> bool:
    """Did every seed read the same in every set?  Only runs that
    attempted the same number of instances are compared: a run cut
    short by ``--seconds`` sums over fewer iterations."""
    for first, *others in zip(*(runs[name] for runs in results)):
        for other in others:
            if other["attempted"] == first["attempted"] and (
                other["metrics"][metric] != first["metrics"][metric]
            ):
                return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=12.0)
    contract = json.loads(DECLARED.read_text())
    declared = [workload["name"] for workload in contract["workloads"]]
    parser.add_argument(
        "--workload", action="append", choices=declared,
        help="restrict to this workload (repeatable); default: all",
    )
    args = parser.parse_args(argv)
    names = args.workload or declared
    # results[set][workload][run] -> the run's JSON result
    results = [
        {name: [] for name in names} for _ in range(args.sets)
    ]
    for index in range(args.sets):
        for run in range(args.runs):
            for name in names:
                results[index][name].append(
                    one_run(name, run + 1, args.seconds)
                )
                print(f"# set {index + 1} run {run + 1} {name} done",
                      file=sys.stderr, flush=True)

    disagreements = 0
    header = "  ".join(f"set{index + 1:<10}" for index in range(args.sets))
    print(f"{'workload':<14} {'metric':<22} {header}  "
          f"{'spread':>7} {'gap':>8} {'bound':>6}")
    for name in names:
        for row in contract["end_to_end"]:
            metric, bound = row["name"], row["bound"]
            per_set = [
                [run["metrics"][metric]["value"] for run in runs[name]]
                for runs in results
            ]
            medians = [statistics.median(values) for values in per_set]
            gap = (medians[-1] - medians[0]) / medians[0]
            wide = max(spread(values) for values in per_set)
            bad = abs(gap) > bound or (
                wide > bound and metric not in SPREAD_EXEMPT
            )
            if metric in EXACT and not exact_repeats(results, name, metric):
                bad = True
                print(f"# {name} {metric}: not identical between sets")
            disagreements += bad
            cells = "  ".join(f"{value:<13.6g}" for value in medians)
            print(f"{name:<14} {metric:<22} {cells}  {wide:7.2%} "
                  f"{gap:+8.2%} {bound:6.0%}{'  DISAGREE' if bad else ''}")
        failed = sum(
            run["failed"] for runs in results for run in runs[name]
        )
        if failed:
            disagreements += 1
            print(f"# {name}: {failed} instance(s) failed")
    print(f"# {disagreements} disagreement(s) over {args.sets} sets of "
          f"{args.runs} runs per workload")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
