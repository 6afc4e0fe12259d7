"""Span-based continuous profiling with hierarchical phase attribution.

"Where does the time go?" is unanswerable from counters alone: the
scheduler's wall-clock cost is split across guard synthesis, template
stamping, per-announcement guard evaluation, cube algebra, watch
wakes, simulated network delivery, session retransmits, and monitor
sync rounds -- and the same cube operation costs differently depending
on *which* phase called it.  The :class:`Profiler` here records spans
on an explicit stack: a span has a phase name and optional site/event
labels, its *cumulative* time is wall-clock from push to pop, and its
*self* time is cumulative minus the time spent in child spans.  Phases
aggregate by full stack path (``delivery/watch_wake/guard_eval``), so
the report is a flame graph, not a flat table.

A run without profiling holds no profiler (``None``).  Sites that run
a few times per run wrap their work in :func:`span`; the per-message
and per-evaluation sites (``delivery``, ``retransmit``, ``watch_wake``,
``cube_ops``, ``guard_eval``) test ``profiler is not None`` around
``push`` and ``pop`` themselves, so an unprofiled run makes no call
there (``bench_obs_overhead.py`` pins bit-identical timelines).

Exports:

* :meth:`Profiler.report` -- JSON-ready phase tree with calls /
  cumulative / self seconds, plus per-site and per-event self-time
  aggregation.
* :func:`to_collapsed` -- collapsed-stack text (``a;b;c <usec>``) that
  ``flamegraph.pl`` and speedscope both ingest directly.
* :func:`to_chrome` -- Chrome ``chrome://tracing`` / Perfetto complete
  events laid out on a synthetic timeline, so a profile sits next to
  the causal-trace export from :mod:`repro.obs.export`.
* :func:`merge_profiles` -- sum per-shard reports from the scale-out
  runner (self/cumulative times and call counts are additive).
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import IO, Mapping

#: separator between phase names in an aggregated stack path
PATH_SEP = "/"


class Profiler:
    """Recording profiler: span stack + path-keyed aggregation.

    The simulation is single-threaded, so one stack suffices.  Spans
    nest by runtime call structure: a ``cube_ops`` span pushed while a
    ``delivery`` span is open aggregates under ``delivery/cube_ops``.

    >>> prof = Profiler()
    >>> prof.push("delivery", site="S1")
    >>> prof.push("guard_eval", site="S1", event="c_buy")
    >>> prof.pop()
    >>> prof.pop()
    >>> sorted(prof.report()["phases"])
    ['delivery', 'delivery/guard_eval']
    """

    def __init__(self, clock=perf_counter):
        self._clock = clock
        # stack frames: [path, phase, start, child_time, site, event]
        self._stack: list[list] = []
        # path -> [calls, cumulative, self]
        self._nodes: dict[str, list] = {}
        # (leaf phase, site, event) -> self seconds; split into the
        # by_site / by_event tables lazily in report() -- one dict hit
        # per pop instead of two table updates on the hot path
        self._labels: dict[tuple, float] = {}

    def push(self, phase: str, site: str | None = None,
             event: str | None = None) -> None:
        """Open a span; pair with :meth:`pop`."""
        stack = self._stack
        path = stack[-1][0] + PATH_SEP + phase if stack else phase
        stack.append([path, phase, self._clock(), 0.0, site, event])

    def pop(self) -> None:
        """Close the innermost open span."""
        path, phase, start, child, site, event = self._stack.pop()
        elapsed = self._clock() - start
        self_time = elapsed - child
        node = self._nodes.get(path)
        if node is None:
            self._nodes[path] = [1, elapsed, self_time]
        else:
            node[0] += 1
            node[1] += elapsed
            node[2] += self_time
        if self._stack:
            self._stack[-1][3] += elapsed
        if site is not None or event is not None:
            key = (phase, site, event)
            labels = self._labels
            if key in labels:
                labels[key] += self_time
            else:
                labels[key] = self_time

    def report(self) -> dict:
        """Aggregate the recorded spans into a JSON-ready tree.

        ``phases`` maps each stack path to ``calls`` /
        ``cum_seconds`` / ``self_seconds``; ``by_site`` and
        ``by_event`` attribute *self* time of leaf phases to the
        labels the instrumentation sites provided.
        """
        if self._stack:
            raise RuntimeError(
                f"profiler report with {len(self._stack)} open span(s): "
                f"{self._stack[-1][0]}"
            )
        by_site: dict[str, dict[str, float]] = {}
        by_event: dict[str, dict[str, float]] = {}
        for (phase, site, event), self_time in self._labels.items():
            if site is not None:
                per = by_site.setdefault(phase, {})
                per[site] = per.get(site, 0.0) + self_time
            if event is not None:
                per = by_event.setdefault(phase, {})
                per[event] = per.get(event, 0.0) + self_time
        return {
            "phases": {
                path: {
                    "calls": calls,
                    "cum_seconds": cum,
                    "self_seconds": self_t,
                }
                for path, (calls, cum, self_t) in sorted(self._nodes.items())
            },
            "by_site": {
                phase: dict(sorted(per.items()))
                for phase, per in sorted(by_site.items())
            },
            "by_event": {
                phase: dict(sorted(per.items()))
                for phase, per in sorted(by_event.items())
            },
        }


class span:
    """``with span(profiler, "verify"):`` records the body as one span
    of ``profiler``; with ``None`` for a profiler it only runs it."""

    __slots__ = ("profiler", "labels")

    def __init__(self, profiler: Profiler | None, phase: str,
                 site: str | None = None, event: str | None = None):
        self.profiler = profiler
        self.labels = (phase, site, event)

    def __enter__(self) -> None:
        if self.profiler is not None:
            self.profiler.push(*self.labels)

    def __exit__(self, *exc_info) -> None:
        if self.profiler is not None:
            self.profiler.pop()


def to_collapsed(report: Mapping) -> str:
    """Collapsed-stack text from a profile report.

    One line per stack path, ``a;b;c <count>`` where the count is the
    path's *self* time in integer microseconds -- the input format of
    Brendan Gregg's ``flamegraph.pl`` and of speedscope's collapsed
    importer.  Paths with zero rounded self time are kept at 0 so the
    stack structure stays visible.
    """
    lines = []
    for path, node in sorted(report.get("phases", {}).items()):
        stack = path.replace(PATH_SEP, ";")
        usec = int(round(node["self_seconds"] * 1e6))
        lines.append(f"{stack} {usec}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_chrome(report: Mapping) -> dict:
    """Chrome trace-event JSON from a profile report.

    Profiles are aggregates, not timelines, so spans are laid out on a
    synthetic microsecond axis: children sit inside their parent's
    extent in path order, each sized by cumulative time.  The result
    loads in ``chrome://tracing`` / Perfetto next to the causal-trace
    export and reads as a flame chart of the aggregate run.
    """
    phases = report.get("phases", {})
    events = []
    cursors: dict[str, float] = {}  # parent path -> next child start
    for path in sorted(phases):
        node = phases[path]
        parent, _, _leaf = path.rpartition(PATH_SEP)
        start = cursors.get(parent, 0.0)
        dur = node["cum_seconds"] * 1e6
        events.append({
            "name": path.rsplit(PATH_SEP, 1)[-1],
            "ph": "X",
            "ts": start,
            "dur": dur,
            "pid": "profile",
            "tid": "phases",
            "args": {
                "calls": node["calls"],
                "self_seconds": node["self_seconds"],
            },
        })
        cursors[parent] = start + dur
        cursors[path] = start  # children start at the parent's origin
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_profiles(reports: list[Mapping]) -> dict:
    """Sum per-shard profile reports into one.

    Calls, cumulative, and self seconds are additive across shards
    (each shard is an independent process doing real work), as are the
    per-site and per-event self-time tables -- shard runners prefix
    site names before merging, so keys never collide unless they truly
    name the same site.
    """
    phases: dict[str, dict] = {}
    by_site: dict[str, dict[str, float]] = {}
    by_event: dict[str, dict[str, float]] = {}
    for report in reports:
        for path, node in report.get("phases", {}).items():
            agg = phases.setdefault(
                path, {"calls": 0, "cum_seconds": 0.0, "self_seconds": 0.0}
            )
            agg["calls"] += node["calls"]
            agg["cum_seconds"] += node["cum_seconds"]
            agg["self_seconds"] += node["self_seconds"]
        for table, merged in (
            ("by_site", by_site), ("by_event", by_event),
        ):
            for phase, per in report.get(table, {}).items():
                agg_per = merged.setdefault(phase, {})
                for label, seconds in per.items():
                    agg_per[label] = agg_per.get(label, 0.0) + seconds
    return {
        "phases": dict(sorted(phases.items())),
        "by_site": {k: dict(sorted(v.items())) for k, v in sorted(by_site.items())},
        "by_event": {k: dict(sorted(v.items())) for k, v in sorted(by_event.items())},
    }


def format_report(report: Mapping, limit: int = 0) -> str:
    """Human-readable phase table (sorted by self time, descending)."""
    phases = report.get("phases", {})
    if not phases:
        return "profile: no spans recorded\n"
    rows = sorted(
        phases.items(), key=lambda kv: kv[1]["self_seconds"], reverse=True
    )
    if limit:
        rows = rows[:limit]
    width = max(len(path) for path, _ in rows)
    out = [
        f"{'phase':<{width}}  {'calls':>8}  {'self_ms':>10}  {'cum_ms':>10}"
    ]
    for path, node in rows:
        out.append(
            f"{path:<{width}}  {node['calls']:>8}  "
            f"{node['self_seconds'] * 1e3:>10.3f}  "
            f"{node['cum_seconds'] * 1e3:>10.3f}"
        )
    return "\n".join(out) + "\n"


def dump(report: Mapping, fp: IO[str], fmt: str = "collapsed") -> None:
    """Write a profile report in one of the export formats."""
    if fmt == "collapsed":
        fp.write(to_collapsed(report))
    elif fmt == "chrome":
        json.dump(to_chrome(report), fp, indent=1)
        fp.write("\n")
    elif fmt == "json":
        json.dump(report, fp, indent=1, sort_keys=True)
        fp.write("\n")
    elif fmt == "text":
        fp.write(format_report(report))
    else:
        raise ValueError(f"unknown profile format: {fmt!r}")
