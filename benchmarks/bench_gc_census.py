"""Collector census of the end-to-end workloads: where the cyclic
garbage collector runs during an iteration, and what the run phase
leaves for it to scan.

    python -m benchmarks.bench_gc_census [WORKLOAD ...]

Each workload runs one cold pipeline at its benchmark size and seed
1000, in a forked child, the way ``benchmarks/e2e/run.py`` runs an iteration
(one worker, so a sharded run stays in-process), with the collector
on at its default thresholds.  A ``gc.callbacks`` hook charges every
pass to the innermost benchmark span open when the pass began, and
the net allocations of tracked objects (``gc.get_count()[0]``, carried
across the passes that reset it; a free made while the count is zero
goes uncounted, as it does for the collector) to the innermost span
open while they were made.  Printed per span: passes by generation, net
allocations and objects collected; per workload, the net allocations
per settled event over the run phase and ``gc.get_count()`` at the
end of the iteration.

Under ``pytest benchmarks`` each single-scheduler workload asserts
that every pass inside ``scheduler.run`` collects 0 objects: a
reference cycle made per message or per settlement would leave garbage
that only a pass can free.  A sharded run has no such span, and is left
to the command line: its in-process shards each leave a finished
scheduler, a graph of reference cycles, to the collector.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e.harness import Spans, run_child  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, run_pipeline  # noqa: E402

#: the spans of the run phase: a single scheduler's run and its
#: phases, and a sharded run
RUN_SPANS = ("scheduler.run", "scale.run")
#: one census row: passes of generation 0, 1 and 2, net allocations,
#: objects collected
GEN0, GEN1, GEN2, NET, COLLECTED = range(5)


def in_run_phase(span: str) -> bool:
    return any(
        span == name or span.startswith(name + ".") for name in RUN_SPANS
    )


class CensusSpans(Spans):
    """Benchmark spans that also keep the collector census, per span
    name: ``[gen-0, gen-1, gen-2, net allocations, collected]``."""

    def __init__(self) -> None:
        super().__init__()
        self.census: defaultdict[str, list[int]] = defaultdict(
            lambda: [0] * 5
        )
        #: ``gc.get_count()[0]`` at the last charge, and what the passes
        #: since then reset to zero
        self._mark = gc.get_count()[0]
        self._carried = 0

    def _innermost(self) -> list[int]:
        name = self.rows[self._stack[-1]][0] if self._stack else "(outside)"
        return self.census[name]

    def _charge(self) -> None:
        count = gc.get_count()[0]
        self._innermost()[NET] += self._carried + count - self._mark
        self._mark, self._carried = count, 0

    def on_gc(self, phase: str, info: dict) -> None:
        row = self._innermost()
        if phase == "start":
            row[info["generation"]] += 1
            self._carried += gc.get_count()[0] - self._mark
            self._mark = 0
        else:
            row[COLLECTED] += info["collected"]

    @contextlib.contextmanager
    def __call__(self, name: str):
        self._charge()
        with super().__call__(name):
            try:
                yield
            finally:
                self._charge()


def census(name: str) -> dict:
    """One iteration of workload ``name`` at seed 1000, in a forked
    child: its census rows by span, in the order the spans
    first opened, its settled count and the closing ``gc.get_count()``."""
    workload = WORKLOADS[name]

    def iteration() -> dict:
        spans = CensusSpans()
        gc.callbacks.append(spans.on_gc)
        try:
            observation = run_pipeline(
                workload, workload.size, 1000, spans, workers=1
            )
        finally:
            gc.callbacks.remove(spans.on_gc)
        return {
            "spans": dict(spans.census),
            "settled": observation["settled"],
            "failed": observation["failed"],
            "count": gc.get_count(),
        }

    return run_child(iteration)


def run_net_per_settled(observed: dict) -> float:
    net = sum(
        row[NET] for span, row in observed["spans"].items()
        if in_run_phase(span)
    )
    return net / observed["settled"]


def report(name: str, observed: dict) -> str:
    lines = [
        f"## {name}: {observed['settled']} settled, "
        f"{run_net_per_settled(observed):.1f} net allocations per settled "
        f"event in the run phase, gc.get_count() {tuple(observed['count'])} "
        "at the end",
        f"{'span':<28} {'gen-0':>6} {'gen-1':>6} {'gen-2':>6} "
        f"{'net':>8} {'collected':>9}",
    ]
    for span, row in observed["spans"].items():
        if any(row):
            lines.append(
                f"{span:<28} {row[GEN0]:>6} {row[GEN1]:>6} {row[GEN2]:>6} "
                f"{row[NET]:>8} {row[COLLECTED]:>9}"
            )
    return "\n".join(lines)


@pytest.mark.parametrize(
    "name", [name for name, work in WORKLOADS.items() if not work.sharded]
)
def test_run_phase_passes_collect_nothing(name):
    # the child inherits this process's heap: garbage that earlier tests
    # left would be freed by the child's passes and charged to its spans
    gc.collect()
    observed = census(name)
    assert observed["failed"] == 0
    print(report(name, observed))
    leaked = {
        span: row[COLLECTED] for span, row in observed["spans"].items()
        if span.startswith("scheduler.run") and row[COLLECTED]
    }
    assert not leaked, f"run-phase passes freed cyclic garbage: {leaked}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workloads:
        print(report(name, census(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
