"""Iteration mechanics: cold forked children, spans, small statistics.

Every iteration of the benchmark runs in a freshly ``os.fork()``ed
child of a parent that has only *imported* ``repro``.  The child runs
one cold pipeline, writes its observation to a pipe as JSON and
``os._exit``s; the parent ``wait4``s it.  That gives each iteration
cold symbolic caches (whatever caches the program has -- there is no
hand-kept ``clear_*`` list to go stale), cold pool workers, its own
``ru_maxrss`` and no heap growth from one iteration to the next.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import select
import signal
import statistics
import sys
import time
import traceback
from typing import Callable

#: a child that runs longer than this is killed and counted failed
CHILD_TIMEOUT_S = 120.0
#: steps of the calibration spin (`host.spin_s`)
SPIN_STEPS = 300_000
#: what the spin takes on an undisturbed core of the host this
#: benchmark was written on; calibrated seconds are seconds on it
SPIN_REFERENCE_S = 0.008
#: spins per calibration (one calibration brackets each phase)
SPINS_PER_CALIBRATION = 2

clock = time.perf_counter


class Spans:
    """The benchmark's own span recorder.

    One row per span: ``[name, start, end, parent]`` where ``parent``
    is the index of the enclosing span (``None`` for the iteration
    root).  Rows stay in memory; the parent process writes them out
    when the run ends.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append([name, clock(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index][2] = clock()


class NoSpans:
    """Recorder of the untraced run: every span is a shared no-op."""

    rows: tuple = ()
    _null = contextlib.nullcontext()

    def __call__(self, name: str):
        return self._null


def self_times(rows: list[list]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover."""
    own = [end - start for _name, start, end, _parent in rows]
    for _name, start, end, parent in rows:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_rest), seconds in zip(rows, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def attributed_share(rows: list[list]) -> float:
    """Leaf-span time as a share of the root span's wall time."""
    parents = {parent for *_row, parent in rows if parent is not None}
    root = next(row for row in rows if row[3] is None)
    leaves = sum(
        end - start
        for index, (_name, start, end, parent) in enumerate(rows)
        if parent is not None and index not in parents
    )
    return leaves / (root[2] - root[1])


class ChildFailure(Exception):
    """A forked child raised, died or exceeded its time limit."""


def run_child(fn: Callable[[], dict], timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``fn`` in a forked child; return its JSON-able result.

    The child leads its own process group so that a timeout can kill
    it together with any pool workers it started.  The returned dict
    gains ``rss_mb``: the child's peak resident set, plus that of the
    largest pool worker it waited for.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            os.close(read_fd)
            payload = fn()
            payload["rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            ) / 1024.0
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
            code = 0
        except BaseException:  # reported below; the child must not unwind
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with contextlib.suppress(OSError):  # the child may have done it already
        os.setpgid(pid, pid)
    chunks: list[bytes] = []
    deadline = clock() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - clock()
            if remaining <= 0 or not select.select([pipe], [], [], remaining)[0]:
                timed_out = True
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pid, signal.SIGKILL)
                break
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _pid, status, _usage = os.wait4(pid, 0)
    if timed_out:
        raise ChildFailure(f"child exceeded {timeout:.0f} s and was killed")
    if status != 0:
        raise ChildFailure(f"child exited with status {status}")
    return json.loads(b"".join(chunks))


def spin() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    start = clock()
    total = 0
    for step in range(SPIN_STEPS):
        total += step & 3
    return clock() - start


def calibrate() -> list[float]:
    return [spin() for _ in range(SPINS_PER_CALIBRATION)]


def calibrated(seconds: float, spins: list[float]) -> float:
    """Wall seconds rescaled by how slow the host ran next to them.

    The shared host this benchmark runs on slows a core down by up to
    half for a second or so at a time, which moves the median wall
    time of whole runs by 10-30 %.  A fixed spin loop timed right
    before and after the measured code sees the same slow-down, so
    dividing it out leaves the program's share.  The result reads as
    seconds on a core where the spin takes ``SPIN_REFERENCE_S``.
    """
    return seconds * SPIN_REFERENCE_S / (sum(spins) / len(spins))


class Stopwatch:
    """Times a ``with`` block in calibrated seconds."""

    def __enter__(self) -> "Stopwatch":
        self.spins = calibrate()
        self._start = clock()
        return self

    def __exit__(self, *exc) -> None:
        wall = clock() - self._start
        self.spins += calibrate()
        self.seconds = calibrated(wall, self.spins)


def high_percentile(values: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than twenty samples no
    percentile above the median qualifies, so the median is returned.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return 50, statistics.median(ordered)
    percentile = math.floor(100.0 * (count - 10) / count)
    # nearest-rank: the smallest value with `percentile` % at or below
    rank = max(1, math.ceil(percentile / 100.0 * count))
    return percentile, ordered[rank - 1]


def fit_exponent(sizes: list[int], counts: list[float]) -> float:
    """Least-squares slope of log(count) against log(size)."""
    points = [
        (math.log(size), math.log(count))
        for size, count in zip(sizes, counts)
        if size > 0 and count > 0
    ]
    if len(points) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope
