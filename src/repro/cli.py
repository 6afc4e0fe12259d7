"""Command-line interface: compile, analyze, render, and run workflows.

Usage (also via ``python -m repro``):

.. code-block:: text

    repro compile  SPEC.wf            # per-event guard table
    repro analyze  SPEC.wf            # compile-time analysis report
    repro automaton "~e + ~f + e.f"   # Figure-2 DOT for one dependency
    repro graph    SPEC.wf            # workflow structure as DOT
    repro run      SPEC.wf [options]  # simulate a run, print timeline
    repro guard    "DEP" EVENT        # one guard (Example-9 style)
    repro trace check  TRACE.jsonl [--spec SPEC.wf]  # verify a trace offline
    repro trace export TRACE.jsonl    # convert to chrome://tracing JSON
    repro trace query  TRACE.jsonl    # filter, latencies, critical path
    repro explain  TRACE.jsonl EVENT  # why did/didn't EVENT fire?
    repro prom lint METRICS.prom      # validate Prometheus text output
    repro profile  SPEC.wf            # phase-attributed wall-time profile
    repro slo check REPORT.json SLO.json  # gate a run on thresholds
    repro diff     A.jsonl B.jsonl    # causally diff two traces
    repro runs     {list,show,gc,compare,regress}  # run registry

Trace files ending in ``.gz`` are written and read gzip-compressed
everywhere (``run --trace``, ``trace check/export/query``, ``explain``,
``diff``).

``run`` options: ``--scheduler {distributed,centralized}``,
``--attempt EVENT=TIME`` (repeatable), ``--latency L``, ``--seed N``,
``--jitter J`` (uniform random delivery jitter around the base
latency, seeded by ``--seed`` -- makes the seed observable in traces),
``--json`` (machine-readable result + metrics + trace on stdout),
``--trace FILE`` (write the causal event trace as JSONL),
``--flight-record N`` (ring-buffered flight-recorder tracing: keep
only the newest N records in memory; ``--flight-dump FILE`` dumps the
retained window when the run misbehaves), ``--slo FILE`` (gate the
run on an SLO document; failures arm the flight recorder and flip the
exit code), ``--record`` (store the finished run in the regression
registry; ``--runs-dir DIR`` overrides ``.repro/runs``),
``--no-settle`` (leave unattempted bases unsettled -- parked events
stay parked for ``explain`` to dissect), and, on the distributed
scheduler only: ``--snapshot-every N`` (consistent global snapshots on
a virtual-time cadence, read without sending), ``--snapshot-out FILE``
(write them as JSON; needs ``--snapshot-every``),
``--prom FILE`` (write metrics in Prometheus text format),
``--profile [--profile-out FILE --profile-format F]`` (phase-attributed
wall-time profile: text table, flamegraph collapsed stacks, or
chrome://tracing JSON), ``--sample-every T`` (gauge time series on a
virtual-time cadence, merged per shard in scale-out mode), and
``--shards N [--instances K] [--workers M] [--cross-dep EXPR]``
(scale-out mode: the spec becomes a template, K suffixed instances are
stamped out by renaming its compiled guards, and N schedulers run them
in a process pool -- instances coupled by a ``--cross-dep`` run
together on one; timeline, trace, and metrics come back merged; the
three bracketed flags need ``--shards``).
An ``--attempt`` names an event of the spec (of the template under
``--shards``) at a time >= 0.

Exit codes: ``run`` (single or ``--shards``) exits 1 on any
violation or (with ``--slo``) failed SLO rule; otherwise 0 when the
run ended *maximal* (every base settled) and 3 when it ended *stuck*
or *down* (unsettled bases; ``down`` when one lives on a site lost for
good) -- ``--json`` reports which as ``"terminal"``; 2 on usage errors
and on a spec no trace satisfies (it is not run).  Every command that
loads a spec (``compile``, ``analyze``, ``graph``, ``run``,
``profile``, ``trace check --spec``) exits 2 with a one-line message
when the file is missing or malformed.  ``trace
check`` exits 1 when the trace violates an invariant (an empty or
truncated trace is reported, not a traceback) and, with ``--spec``,
when its occurred timeline fails the spec's dependencies or guards
(:func:`repro.scheduler.oracle.judge`); 2 on an unreadable spec or a
flight-recorder window that evicted actor records; ``trace query`` exits 1
when the trace is empty, no record matches, or the requested analysis
has no data; ``slo check`` exits 1 when any rule fails (a rule with no
data fails closed); ``explain`` exits 1 when the event never appears
in the trace; ``diff`` exits 0 when the traces are causally identical
(with ``--decisions``: when every site decided the same),
1 when they diverge (the first divergent event and its root-cause
chain are printed), 2 when either trace is empty or unusable; ``runs
compare`` follows ``diff``; ``runs regress`` exits 0 when the newest
stored run holds the line, 1 when an indicator (or SLO) regressed, 2
with fewer than two stored runs; file errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from math import inf

from repro.algebra.parser import parse
from repro.obs import Tracer, check_file, open_trace, read_jsonl, to_chrome
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.sim.network import ConstantLatency, UniformLatency
from repro.temporal.guards import guard as synthesize_guard
from repro.viz import (
    dependency_to_dot,
    guards_to_text,
    result_to_text,
    workflow_to_dot,
)
from repro.workflows.analysis import analyze, satisfiable
from repro.workflows.compiler import compile_workflow
from repro.workflows.loader import load

SCHEDULERS = {
    "distributed": DistributedScheduler,
    "centralized": CentralizedScheduler,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workflow dependency compiler and scheduler "
        "(Singh, ICDE 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="print the guard table")
    p_compile.add_argument("spec", help="workflow spec file (.wf)")
    p_compile.add_argument(
        "--minimize",
        action="store_true",
        help="apply prime-cube minimization to the printed guards",
    )

    p_analyze = sub.add_parser("analyze", help="compile-time analysis")
    p_analyze.add_argument("spec")
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (satisfiability, conflicts, "
        "compiled guard-table stats) instead of text; the exit code "
        "contract is unchanged: 0 analysis clean, 1 findings "
        "(unsatisfiable, conflicting, or unsupported-mandatory "
        "dependencies), 2 usage/parse errors",
    )

    p_auto = sub.add_parser(
        "automaton", help="residuation automaton of a dependency, as DOT"
    )
    p_auto.add_argument("dependency", help='e.g. "~e + ~f + e . f"')

    p_graph = sub.add_parser("graph", help="workflow structure as DOT")
    p_graph.add_argument("spec")

    p_guard = sub.add_parser("guard", help="synthesize one guard")
    p_guard.add_argument("dependency")
    p_guard.add_argument("event", help='e.g. "e" or "~e"')

    p_run = sub.add_parser("run", help="simulate a run")
    p_run.add_argument("spec")
    p_run.add_argument(
        "--scheduler",
        choices=sorted(SCHEDULERS),
        default="distributed",
    )
    p_run.add_argument(
        "--attempt",
        action="append",
        default=[],
        metavar="EVENT=TIME",
        help="scripted attempt, e.g. --attempt s_buy=0 --attempt c_buy=5",
    )
    p_run.add_argument("--latency", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        metavar="J",
        help="deliver each message after latency +/- J (uniform, seeded "
        "by --seed); default 0 = constant latency",
    )
    p_run.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable JSON report "
        "(timeline, metrics, causal trace) instead of text",
    )
    p_run.add_argument(
        "--trace",
        metavar="FILE",
        help="record the run's causal event trace as JSONL to FILE "
        "(gzip when FILE ends in .gz)",
    )
    p_run.add_argument(
        "--flight-record",
        type=int,
        metavar="N",
        help="flight-recorder tracing: keep only the newest N trace "
        "records in a ring (fault records are pinned); --trace and "
        "--json then carry the retained window with a self-describing "
        "header the checker understands",
    )
    p_run.add_argument(
        "--flight-dump",
        metavar="FILE",
        help="with --flight-record: dump the retained window to FILE "
        "when the run misbehaves (violations, unsettled bases, failed "
        "SLO rules, checker diagnostics, crashes)",
    )
    p_run.add_argument(
        "--slo",
        metavar="FILE",
        help="gate the run on an SLO document (as in ``repro slo "
        "check``); failures print, arm the flight recorder, and make "
        "the run exit 1",
    )
    p_run.add_argument(
        "--record",
        action="store_true",
        help="store the finished run (report, trace, profile, config) "
        "in the content-addressed run registry for ``repro runs``",
    )
    p_run.add_argument(
        "--runs-dir",
        metavar="DIR",
        help="with --record: registry directory (default: .repro/runs)",
    )
    p_run.add_argument(
        "--no-settle",
        action="store_true",
        help="skip the settlement phase: unattempted bases stay "
        "unsettled and parked events stay parked (useful with "
        "``repro explain``)",
    )
    p_run.add_argument(
        "--snapshot-every",
        type=float,
        metavar="N",
        help="read a consistent global snapshot every N virtual time "
        "units; it sends nothing, so the run is unchanged "
        "(distributed scheduler only)",
    )
    p_run.add_argument(
        "--snapshot-out",
        metavar="FILE",
        help="write the snapshots as a JSON document to FILE",
    )
    p_run.add_argument(
        "--prom",
        metavar="FILE",
        help="write the run's metrics in Prometheus text format to FILE",
    )
    p_run.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="scale-out mode: treat the spec as a workflow template, "
        "stamp out independent suffixed instances, and run them on N "
        "schedulers in a process pool (distributed scheduler only); "
        "traces and metrics are merged",
    )
    p_run.add_argument(
        "--instances",
        type=int,
        metavar="K",
        help="with --shards: how many template instances to stamp out "
        "(suffix _i0 ... _i{K-1}; default: one per shard)",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        metavar="M",
        help="with --shards: worker processes for the pool (default: "
        "one per shard, capped by CPU count; 1 = run in-process)",
    )
    p_run.add_argument(
        "--cross-dep",
        action="append",
        default=[],
        metavar="EXPR",
        help="with --shards: a dependency over events of *different* "
        "instances (suffixed names, e.g. \"~b_i1 + e_i0 . b_i1\"); "
        "repeatable.  One shard enforces each: the instances it couples "
        "run together on one shard",
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="attribute wall time to scheduler phases (synthesis, guard "
        "evaluation, delivery, ...) and report the breakdown "
        "(distributed scheduler only)",
    )
    p_run.add_argument(
        "--profile-out",
        metavar="FILE",
        help="with --profile: write the profile to FILE instead of "
        "embedding/printing it",
    )
    p_run.add_argument(
        "--profile-format",
        choices=("text", "collapsed", "chrome", "json"),
        help="format for --profile-out: flamegraph collapsed stacks "
        "(default), chrome://tracing JSON, raw JSON, or the text table",
    )
    p_run.add_argument(
        "--sample-every",
        type=float,
        metavar="T",
        help="sample gauge time series (parked events, channel backlog, "
        "in-flight messages, fire and message rates) every T virtual time "
        "units; series ride in metrics under \"timeseries\" "
        "(distributed scheduler only)",
    )

    p_explain = sub.add_parser(
        "explain",
        help="decision provenance for one event, from a recorded trace",
    )
    p_explain.add_argument("trace_file", help="JSONL trace (from run --trace)")
    p_explain.add_argument("event", help='e.g. "c_buy" or "~c_buy"')
    p_explain.add_argument(
        "--json", action="store_true",
        help="machine-readable explanation instead of text",
    )

    p_prom = sub.add_parser(
        "prom", help="work with Prometheus text-format metric files"
    )
    prom_sub = p_prom.add_subparsers(dest="prom_command", required=True)
    p_prom_lint = prom_sub.add_parser(
        "lint", help="validate a Prometheus text exposition file"
    )
    p_prom_lint.add_argument("prom_file")

    p_trace = sub.add_parser(
        "trace", help="inspect recorded JSONL event traces"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_check = trace_sub.add_parser(
        "check", help="verify a trace's causal and safety invariants"
    )
    p_check.add_argument("trace_file", help="JSONL trace (from run --trace)")
    p_check.add_argument(
        "--spec", metavar="FILE",
        help="also judge the occurred timeline against this workflow "
        "spec: every dependency satisfied, every guard held",
    )
    p_export = trace_sub.add_parser(
        "export", help="convert a trace to chrome://tracing JSON"
    )
    p_export.add_argument("trace_file")
    p_export.add_argument(
        "-o", "--output", help="write here instead of stdout"
    )
    p_query = trace_sub.add_parser(
        "query", help="filter and analyze a recorded trace offline"
    )
    p_query.add_argument("trace_file", help="JSONL trace (from run --trace)")
    p_query.add_argument(
        "--event", help="only records about this event (base name matches "
        "both e and ~e)"
    )
    p_query.add_argument(
        "--site", help="only records at/from/to this site"
    )
    p_query.add_argument(
        "--cat",
        choices=(
            "actor", "message", "guard", "session",
            "round", "fault", "sync", "monitor",
        ),
        help="only records of this category",
    )
    p_query.add_argument("--op", help="only records with this op")
    p_query.add_argument("--kind", help="only messages of this kind")
    p_query.add_argument(
        "--since", type=float, metavar="T", help="only records with t >= T"
    )
    p_query.add_argument(
        "--until", type=float, metavar="T", help="only records with t <= T"
    )
    p_query.add_argument(
        "--latencies",
        action="store_true",
        help="per-event attempt->fire latency summary (count, mean, "
        "p50/p90/p99, max) over the matching records",
    )
    p_query.add_argument(
        "--critical-path",
        action="store_true",
        help="the causal chain ending at the last firing (of --event, "
        "if given), compressed into per-site segments",
    )
    p_query.add_argument(
        "--json", action="store_true",
        help="machine-readable output instead of text/JSONL",
    )
    p_query.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="print at most N matching records (0 = all)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="run a spec under the phase profiler; print the breakdown",
    )
    p_profile.add_argument("spec")
    p_profile.add_argument(
        "--attempt",
        action="append",
        default=[],
        metavar="EVENT=TIME",
        help="scripted attempt, e.g. --attempt s_buy=0",
    )
    p_profile.add_argument("--latency", type=float, default=1.0)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument(
        "--format",
        choices=("text", "collapsed", "chrome", "json"),
        default="text",
        help="text table (default), flamegraph collapsed stacks, "
        "chrome://tracing JSON, or raw JSON",
    )
    p_profile.add_argument(
        "-o", "--output", help="write here instead of stdout"
    )
    p_profile.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="text format: show only the top N phases by self time",
    )

    p_slo = sub.add_parser(
        "slo", help="service-level objectives over run reports"
    )
    slo_sub = p_slo.add_subparsers(dest="slo_command", required=True)
    p_slo_check = slo_sub.add_parser(
        "check",
        help="evaluate declarative thresholds against a run --json report",
    )
    p_slo_check.add_argument(
        "report_file", help="JSON report from ``repro run --json``"
    )
    p_slo_check.add_argument(
        "slo_file",
        help='SLO document: {"slos": [{"indicator"|"path", "min"/"max"}]}',
    )
    p_slo_check.add_argument(
        "--json", action="store_true",
        help="machine-readable per-rule results instead of text",
    )

    p_diff = sub.add_parser(
        "diff",
        help="causally diff two recorded traces and localize where "
        "they first diverge",
    )
    p_diff.add_argument("trace_a", help="JSONL trace (gzip transparent)")
    p_diff.add_argument("trace_b")
    p_diff.add_argument(
        "--json", action="store_true",
        help="machine-readable divergence report instead of text",
    )
    p_diff.add_argument(
        "--decisions", action="store_true",
        help="compare only each site's decision records (attempted, "
        "parked, fired, rejected and the other settlements), so a "
        "change that moves traffic but no decision diffs clean",
    )

    p_runs = sub.add_parser(
        "runs",
        help="the cross-run regression registry (.repro/runs)",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    runs_common = argparse.ArgumentParser(add_help=False)
    runs_common.add_argument(
        "--dir", metavar="DIR",
        help="registry directory (default: .repro/runs)",
    )
    p_runs_list = runs_sub.add_parser(
        "list", parents=[runs_common], help="stored runs, oldest first"
    )
    p_runs_list.add_argument("--json", action="store_true")
    p_runs_show = runs_sub.add_parser(
        "show", parents=[runs_common],
        help="one stored run's meta, indicators, and files",
    )
    p_runs_show.add_argument(
        "run", help="run id, unique id prefix, or name"
    )
    p_runs_gc = runs_sub.add_parser(
        "gc", parents=[runs_common], help="drop the oldest stored runs"
    )
    p_runs_gc.add_argument(
        "--keep", type=int, default=20, metavar="N",
        help="how many newest runs to keep (default 20)",
    )
    p_runs_compare = runs_sub.add_parser(
        "compare", parents=[runs_common],
        help="trace-diff two stored runs (exit contract of ``diff``)",
    )
    p_runs_compare.add_argument("run_a")
    p_runs_compare.add_argument("run_b")
    p_runs_compare.add_argument("--json", action="store_true")
    p_runs_regress = runs_sub.add_parser(
        "regress", parents=[runs_common],
        help="trend indicators: newest stored run vs the best earlier "
        "value of each (lower is better)",
    )
    p_runs_regress.add_argument(
        "--indicator", action="append", default=[], metavar="NAME",
        help="indicator to trend (repeatable; default: the standard "
        "latency/message/guard set)",
    )
    p_runs_regress.add_argument(
        "--tolerance", type=float, default=0.10, metavar="R",
        help="relative slack over the best stored value (default 0.10)",
    )
    p_runs_regress.add_argument(
        "--slo", metavar="FILE",
        help="additionally gate the newest run's report on an SLO "
        "document",
    )
    p_runs_regress.add_argument("--json", action="store_true")
    return parser


def _cmd_compile(args) -> int:
    workflow = _load_spec(args.spec)
    if workflow is None:
        return 2
    compiled = compile_workflow(workflow)
    print(f"workflow {workflow.name}: {len(workflow.dependencies)} dependencies")
    guards = compiled.guards
    if args.minimize:
        from repro.temporal.simplify import minimize

        guards = {event: minimize(g) for event, g in guards.items()}
    print(guards_to_text(guards))
    if compiled.promise_pairs:
        for pair in sorted(compiled.promise_pairs, key=repr):
            a, b = sorted(pair, key=lambda e: e.sort_key())
            print(f"consensus pair: {a!r} <-> {b!r}")
    return 0


def _cmd_analyze(args) -> int:
    workflow = _load_spec(args.spec)
    if workflow is None:
        return 2
    report = analyze(workflow)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_automaton(args) -> int:
    dependency = _parse_expr(args.dependency)
    if dependency is None:
        return 2
    print(dependency_to_dot(dependency))
    return 0


def _cmd_graph(args) -> int:
    workflow = _load_spec(args.spec)
    if workflow is None:
        return 2
    print(workflow_to_dot(workflow))
    return 0


def _cmd_guard(args) -> int:
    dependency = _parse_expr(args.dependency)
    if dependency is None:
        return 2
    event_expr = _parse_expr(args.event)
    if event_expr is None:
        return 2
    from repro.algebra.expressions import Atom

    if not isinstance(event_expr, Atom):
        print(f"not a single event: {args.event!r}", file=sys.stderr)
        return 2
    result = synthesize_guard(dependency, event_expr.event)
    print(f"G({dependency!r}, {event_expr.event!r}) = {result!r}")
    return 0


def _parse_expr(text: str):
    """The expression ``text``; ``None``, after a one-line message,
    when it does not parse."""
    try:
        return parse(text)
    except ValueError as exc:
        print(f"{text!r}: unparsable expression: {exc}", file=sys.stderr)
        return None


def _load_spec(path: str):
    """The workflow of the spec file ``path``; ``None``, after a
    one-line message, when it cannot be read or parsed."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable spec: {exc}", file=sys.stderr)
        return None


def _parse_attempts(specs, workflow) -> list[ScriptedAttempt] | None:
    """Parse ``--attempt EVENT=TIME`` flags: an event of ``workflow``'s
    alphabet (either polarity) at a finite time >= 0.  None (after a
    message) on error."""
    from repro.algebra.expressions import Atom

    bases = {event.base for event in workflow.alphabet()}
    attempts = []
    for spec in specs:
        name, _, time_text = spec.partition("=")
        if not time_text:
            print(f"bad --attempt (want EVENT=TIME): {spec!r}", file=sys.stderr)
            return None
        try:
            event_expr = parse(name.strip())
        except ValueError:
            event_expr = None
        if not isinstance(event_expr, Atom):
            print(f"bad --attempt event: {name!r}", file=sys.stderr)
            return None
        if event_expr.event.base not in bases:
            print(
                f"bad --attempt event: {name!r} is not in the spec",
                file=sys.stderr,
            )
            return None
        try:
            time = float(time_text)
        except ValueError:
            time = None
        if time is None or not 0 <= time < float("inf"):
            print(
                f"bad --attempt time (want a number >= 0): {time_text!r}",
                file=sys.stderr,
            )
            return None
        attempts.append(ScriptedAttempt(time, event_expr.event))
    return attempts


def _cmd_run(args) -> int:
    workflow = _load_spec(args.spec)
    if workflow is None:
        return 2
    attempts = _parse_attempts(args.attempt, workflow)
    if attempts is None:
        return 2
    scheduler_cls = SCHEDULERS[args.scheduler]
    if args.shards is None:
        for flag, given in (
            ("--instances", args.instances is not None),
            ("--workers", args.workers is not None),
            ("--cross-dep", bool(args.cross_dep)),
        ):
            if given:
                print(f"{flag} needs --shards", file=sys.stderr)
                return 2
    if args.snapshot_out and args.snapshot_every is None:
        print("--snapshot-out needs --snapshot-every", file=sys.stderr)
        return 2
    snapshotting = args.snapshot_every is not None
    if snapshotting and args.scheduler != "distributed":
        print(
            "--snapshot-every/--snapshot-out need --scheduler distributed",
            file=sys.stderr,
        )
        return 2
    if snapshotting and not 0 < args.snapshot_every < inf:
        print("--snapshot-every must be positive", file=sys.stderr)
        return 2
    if (args.profile or args.sample_every is not None) and (
        args.scheduler != "distributed"
    ):
        print(
            "--profile/--sample-every need --scheduler distributed",
            file=sys.stderr,
        )
        return 2
    if args.sample_every is not None and not 0 < args.sample_every < inf:
        print("--sample-every must be positive", file=sys.stderr)
        return 2
    if args.profile_out and not args.profile:
        print("--profile-out needs --profile", file=sys.stderr)
        return 2
    if args.profile_format and not args.profile_out:
        print("--profile-format needs --profile-out", file=sys.stderr)
        return 2
    if not 0 <= args.latency < inf:
        print("--latency must be non-negative", file=sys.stderr)
        return 2
    if not 0 <= args.jitter < inf:
        print("--jitter must be non-negative", file=sys.stderr)
        return 2
    if args.flight_record is not None and args.flight_record < 1:
        print("--flight-record must be at least 1", file=sys.stderr)
        return 2
    if args.flight_dump and args.flight_record is None:
        print("--flight-dump needs --flight-record", file=sys.stderr)
        return 2
    if args.runs_dir and not args.record:
        print("--runs-dir needs --record", file=sys.stderr)
        return 2
    slo_doc = None
    if args.slo:
        slo_doc = _load_json_object(args.slo)
        if slo_doc is None:
            return 2
    if not satisfiable(workflow.dependencies):
        # fail closed: running would only end in violations
        print(
            f"{args.spec}: no trace satisfies every dependency "
            "(see `repro analyze`)",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None:
        if args.scheduler != "distributed":
            print("--shards needs --scheduler distributed", file=sys.stderr)
            return 2
        if snapshotting:
            print(
                "--shards does not support --snapshot-every/--snapshot-out "
                "(snapshots cut one scheduler's channels; shards share none)",
                file=sys.stderr,
            )
            return 2
        if args.jitter:
            print(
                "--jitter is not supported with --shards (shard latency "
                "models are planned per shard)",
                file=sys.stderr,
            )
            return 2
        if args.flight_dump:
            print(
                "--flight-dump is not supported with --shards (each shard "
                "keeps its own ring; the merged window rides in --trace)",
                file=sys.stderr,
            )
            return 2
        return _cmd_run_sharded(args, workflow, attempts, slo_doc)
    if args.flight_record is not None:
        from repro.obs.recorder import FlightRecorder

        tracer = FlightRecorder(args.flight_record, dump_path=args.flight_dump)
    elif args.json or args.trace or snapshotting or args.record:
        tracer = Tracer()
    else:
        tracer = None
    extra = {}
    if args.profile:
        from repro.obs.profile import Profiler

        extra["profiler"] = Profiler()
    sched = scheduler_cls(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=_latency_model(args),
        rng=random.Random(args.seed),
        tracer=tracer,
        **extra,
    )
    if args.sample_every is not None:
        sched.enable_timeseries(args.sample_every)
    if snapshotting:
        sched.schedule_snapshots(args.snapshot_every)
    scripts = []
    if attempts:
        scripts.append(AgentScript("cli", attempts))
    result = sched.run(scripts, settle=not args.no_settle)
    json_extra: dict = {}
    text_extra: list[str] = []
    if snapshotting:
        snapshots = [s.as_dict() for s in sched.snapshots]
        if args.snapshot_out:
            with open(args.snapshot_out, "w", encoding="utf-8") as handle:
                json.dump(snapshots, handle, indent=2)
        json_extra["snapshots"] = {
            "taken": len(snapshots),
            "file": args.snapshot_out,
        }
        text_extra.append(f"snapshots: {len(snapshots)} taken")
    return _finish_run(
        args, slo_doc, result, sched.metrics_report(),
        tracer.records if tracer is not None else None,
        extra["profiler"].report() if args.profile else None,
        json_extra, text_extra,
        recorder=tracer if args.flight_record is not None else None,
    )


def _finish_run(
    args, slo_doc, result, metrics, records, profile,
    json_extra, text_extra, recorder=None, shard_rows=None,
) -> int:
    """The tail every ``repro run`` ends in, single or sharded:
    report -> SLO gate -> trace/prom/profile/record -> print -> exit.

    ``recorder`` is the single run's flight recorder (shards keep
    their own rings and dump nothing); ``json_extra`` / ``text_extra``
    carry what only one command reports (snapshots, sharding).
    """
    report = None
    if args.json or args.slo or args.record:
        report = _run_report(result, metrics, records, args.trace)
    slo_failures = []
    if slo_doc is not None:
        slo_results = _evaluate_slo_gate(report, slo_doc, args.slo)
        if slo_results is None:
            return 2
        slo_failures = [r for r in slo_results if not r["ok"]]
        report["slo"] = {"ok": not slo_failures, "results": slo_results}
    if recorder is not None:
        from repro.obs.check import check_records

        diags = check_records(recorder.window_records())
        if diags:
            recorder.note_anomaly(
                f"{len(diags)} checker diagnostic(s) on the retained window"
            )
        if result.violations:
            kinds = Counter(v.kind for v in result.violations)
            recorder.note_anomaly(
                "violation(s): " + ", ".join(
                    f"{count} {kind}" for kind, count in sorted(kinds.items())
                )
            )
        if result.terminal != "maximal":
            recorder.note_anomaly(
                f"run ended {result.terminal}: "
                f"{len(result.unsettled)} unsettled base(s)"
            )
        for failure in slo_failures:
            recorder.note_anomaly(f"SLO failed: {failure['name']}")
        dumped = recorder.flush()
        if dumped:
            print(
                f"flight recorder: retained window dumped to {dumped}",
                file=sys.stderr,
            )
        # refresh post-flush so dumps/anomalies counters are final
        # (``report["metrics"]`` is this same dict)
        metrics["recorder"] = recorder.recorder_stats()
        records = recorder.window_records()
    if args.trace and records is not None:
        with open_trace(args.trace, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    if args.prom:
        from repro.obs.prom import write_prometheus

        write_prometheus(metrics, args.prom)
    if profile is not None and args.profile_out:
        _write_profile(
            profile, args.profile_out, args.profile_format or "collapsed"
        )
    if args.record:
        _store_run(args, report, records, profile, shards=shard_rows)
    if args.json:
        if profile is not None:
            report["profile"] = profile
        report.update(json_extra)
        print(json.dumps(report, indent=2))
    else:
        print(result_to_text(result))
        for line in text_extra:
            print(line)
        if profile is not None and not args.profile_out:
            from repro.obs.profile import format_report

            print(format_report(profile))
        for violation in result.violations:
            print(f"violation[{violation.kind}]: {violation.detail}")
        if result.terminal != "maximal":
            unsettled = ", ".join(repr(base) for base in result.unsettled)
            print(f"run ended {result.terminal}; unsettled: {unsettled}")
    # the exit contract: 1 for a violation or a failed --slo rule, else
    # 3 for a run that ended stuck or down, else 0
    if result.violations or slo_failures:
        return 1
    return 0 if result.terminal == "maximal" else 3


def _latency_model(args):
    """The run's delivery-latency model.

    ``--jitter J`` spreads each delivery uniformly over
    ``[latency - J, latency + J]`` (clamped at 0), drawn from the
    run's seeded rng -- without it the rng is never consulted and
    every ``--seed`` produces the same trace.
    """
    if args.jitter:
        return UniformLatency(
            max(0.0, args.latency - args.jitter), args.latency + args.jitter
        )
    return ConstantLatency(args.latency)


def _load_json_object(path: str) -> dict | None:
    """Read a JSON object from ``path``; None (after a message) on error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(document, dict):
        print(f"{path}: expected a JSON object", file=sys.stderr)
        return None
    return document


def _evaluate_slo_gate(report, slo_doc, slo_path) -> list[dict] | None:
    """``run --slo``: evaluate the document against the run's report.

    Prints each failing rule to stderr; returns the per-rule results,
    or None (exit 2) for a malformed document.
    """
    from repro.obs.query import evaluate_slos

    try:
        results = evaluate_slos(report, slo_doc)
    except ValueError as exc:
        print(f"{slo_path}: {exc}", file=sys.stderr)
        return None
    for rule in results:
        if not rule["ok"]:
            print(
                f"SLO FAIL  {rule['name']}: {rule['detail']}",
                file=sys.stderr,
            )
    return results


def _store_run(args, report, records, profile_report, shards=None) -> None:
    """``run --record``: persist the finished run in the registry."""
    from repro.obs.registry import RunRegistry

    config = {
        "spec": args.spec,
        "scheduler": args.scheduler,
        "seed": args.seed,
        "latency": args.latency,
        "jitter": args.jitter,
        "attempts": list(args.attempt),
        "settle": not args.no_settle,
        "flight_record": args.flight_record,
        "shards": args.shards,
        "instances": args.instances,
    }
    registry = RunRegistry(args.runs_dir) if args.runs_dir else RunRegistry()
    meta = registry.store(
        report,
        records=records,
        profile=profile_report,
        config=config,
        shards=shards,
    )
    dedup = " (deduplicated)" if meta.get("deduplicated") else ""
    print(
        f"recorded run {meta['id']}{dedup} in {registry.root}",
        file=sys.stderr,
    )


def _write_profile(profile_report: dict, path: str, fmt: str) -> None:
    """Write a profiler report to ``path`` in the chosen format."""
    from repro.obs.profile import dump

    with open(path, "w", encoding="utf-8") as handle:
        dump(profile_report, handle, fmt)
    print(f"wrote profile ({fmt}) to {path}", file=sys.stderr)


def _run_report(result, metrics, trace_records, trace_path) -> dict:
    """The ``run --json`` payload: timeline + metrics + causal trace."""
    report = {
        "ok": result.ok,
        "makespan": result.makespan,
        "messages": result.messages,
        "timeline": [
            {
                "event": repr(entry.event),
                "time": entry.time,
                "attempted_at": entry.attempted_at,
                "outcome": entry.outcome.value,
            }
            for entry in result.entries
        ],
        "violations": [
            {"kind": v.kind, "detail": v.detail} for v in result.violations
        ],
        "unsettled": [repr(b) for b in result.unsettled],
        "terminal": result.terminal,
        "metrics": metrics,
    }
    if trace_path:
        report["trace_file"] = str(trace_path)
    elif trace_records is not None:
        report["trace"] = trace_records
    return report


def _cmd_run_sharded(args, workflow, attempts, slo_doc=None) -> int:
    """``repro run --shards N``: template-instantiate and shard out.

    The spec is the *template*; ``--attempt`` scripts are template-
    level and are renamed into every instance.  The merged timeline,
    trace, and metrics honor the same contracts as a single run.
    """
    from repro.scale import instance_spec, plan_shards, run_sharded
    from repro.workflows.template import WorkflowTemplate, rename_script

    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2
    count = args.instances if args.instances is not None else args.shards
    if count < 1:
        print("--instances must be at least 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("--workers must be at least 1", file=sys.stderr)
        return 2
    template = WorkflowTemplate(workflow)
    template_script = AgentScript("cli", attempts) if attempts else None
    instances = []
    for k in range(count):
        suffix = f"_i{k}"
        scripts = []
        if template_script is not None:
            scripts.append(
                rename_script(
                    template_script, template.mapping_for(suffix), suffix
                )
            )
        instances.append(instance_spec(suffix, scripts))
    tracing = bool(
        args.json or args.trace or args.record
        or args.flight_record is not None
    )
    try:
        tasks = plan_shards(
            workflow,
            instances,
            args.shards,
            seed=args.seed,
            trace=tracing,
            settle=not args.no_settle,
            latency=args.latency,
            profile=args.profile,
            sample_every=args.sample_every,
            cross_deps=args.cross_dep,
            flight_record=args.flight_record,
        )
    except ValueError as exc:
        print(f"cannot plan shards: {exc}", file=sys.stderr)
        return 2
    try:
        sharded = run_sharded(tasks, workers=args.workers)
    except TimeoutError as exc:
        print(f"sharded run aborted: {exc}", file=sys.stderr)
        return 1
    shard_rows = [
        {
            "shard": outcome.shard,
            "makespan": outcome.result.makespan,
            "messages": outcome.result.messages,
            "violations": len(outcome.result.violations),
            "unsettled": len(outcome.result.unsettled),
            "trace_records": (
                len(outcome.trace_records)
                if outcome.trace_records is not None else None
            ),
            "recorder": outcome.metrics.get("recorder"),
        }
        for outcome in sharded.outcomes
    ]
    summary = (
        f"sharded: {count} instances over {sharded.shards} shard(s), "
        f"{sharded.workers} worker(s)"
    )
    sharding = {
        "shards": sharded.shards,
        "instances": count,
        "workers": sharded.workers,
    }
    return _finish_run(
        args, slo_doc, sharded.result, sharded.metrics,
        sharded.trace_records, sharded.profile,
        {"sharding": sharding}, [summary], shard_rows=shard_rows,
    )


def _cmd_trace(args) -> int:
    if args.trace_command == "query":
        return _cmd_trace_query(args)
    if args.trace_command == "check":
        workflow = None
        if args.spec:
            workflow = _load_spec(args.spec)
            if workflow is None:
                return 2
        try:
            count, diagnostics = check_file(args.trace_file)
        except OSError as exc:
            print(f"{args.trace_file}: cannot read: {exc}", file=sys.stderr)
            return 2
        if count == 0 and not diagnostics:
            print(
                f"{args.trace_file}: empty trace (no records); nothing "
                "to verify -- was the run traced?",
                file=sys.stderr,
            )
            return 1
        status = 0
        if not diagnostics:
            print(f"{args.trace_file}: {count} records, all invariants hold")
        else:
            print(
                f"{args.trace_file}: {len(diagnostics)} violation(s) "
                f"in {count} records",
                file=sys.stderr,
            )
            for diagnostic in diagnostics:
                print(str(diagnostic), file=sys.stderr)
            status = 1
        if workflow is not None:
            status = max(status, _judge_timeline(args.trace_file, workflow))
        return status
    # export
    records = _read_trace(args.trace_file, "export", unusable=1)
    if isinstance(records, int):
        return records
    chrome = to_chrome(records)
    text = json.dumps(chrome)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(chrome['traceEvents'])} events to {args.output}")
    else:
        print(text)
    return 0


def _read_trace(path: str, verb: str, unusable: int) -> list[dict] | int:
    """The records of trace ``path`` for a command that will ``verb``
    them, or its exit code once it has said why there are none: 2 for
    an unreadable file, ``unusable`` for a damaged or empty trace."""
    try:
        records = read_jsonl(path)
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return unusable
    if not records:
        print(
            f"{path}: empty trace (no records); nothing to {verb} -- was "
            "the run traced (run --trace FILE)?",
            file=sys.stderr,
        )
        return unusable
    return records


def _judge_timeline(trace_file: str, workflow) -> int:
    """``trace check --spec``: the occurred timeline judged by the one
    oracle against the spec's dependencies and its guard table.  0 when
    it passes, 1 on a violation (or a timeline that is no trace), 2 when
    the trace cannot carry a whole timeline."""
    from repro.algebra.traces import Trace
    from repro.obs.check import occurred_events
    from repro.scheduler.oracle import judge
    from repro.temporal.guards import workflow_guards

    try:
        records = read_jsonl(trace_file)
    except ValueError as exc:
        print(
            f"{trace_file}: cannot judge against the spec: {exc}",
            file=sys.stderr,
        )
        return 1
    if any(
        isinstance(r, dict) and r.get("cat") == "recorder"
        and (r.get("dropped") or {}).get("actor")
        for r in records
    ):
        print(
            f"{trace_file}: a flight-recorder window that evicted actor "
            "records holds part of the timeline; it cannot be judged",
            file=sys.stderr,
        )
        return 2
    deps = workflow.dependencies
    # events foreign to every dependency cannot fail the judge
    known = {repr(e): e for dep in deps for e in dep.alphabet()}
    try:
        trace = Trace(
            [known[name] for name in occurred_events(records) if name in known]
        )
    except ValueError as exc:
        print(
            f"{trace_file}: the timeline is no trace: {exc}", file=sys.stderr
        )
        return 1
    violations = judge(trace, deps, guards=workflow_guards(deps))
    if not violations:
        print(
            f"{trace_file}: the timeline satisfies all {len(deps)} "
            "dependencies and every guard held"
        )
        return 0
    print(
        f"{trace_file}: {len(violations)} spec violation(s)", file=sys.stderr
    )
    for violation in violations:
        print(f"[{violation.kind}] {violation.detail}", file=sys.stderr)
    return 1


def _cmd_trace_query(args) -> int:
    """``repro trace query``: filter + offline analytics over a trace.

    Exit contract (satellite of ``trace check``): 0 with results; 1
    when the trace is empty, nothing matches the filter, or the
    requested analysis has no data (so scripts notice silence instead
    of blessing it); 2 on unreadable files.
    """
    from repro.obs.query import critical_path, filter_records, latency_summary

    if args.limit < 0:
        print("--limit must be non-negative", file=sys.stderr)
        return 2
    records = _read_trace(args.trace_file, "query", unusable=1)
    if isinstance(records, int):
        return records
    matched = filter_records(
        records,
        event=args.event,
        site=args.site,
        cat=args.cat,
        op=args.op,
        kind=args.kind,
        since=args.since,
        until=args.until,
    )
    if not matched:
        print(
            f"{args.trace_file}: 0 of {len(records)} records match the "
            "filter",
            file=sys.stderr,
        )
        return 1
    analytics = args.latencies or args.critical_path
    out: dict = {"records": len(records), "matched": len(matched)}
    if args.latencies:
        summary = latency_summary(matched)
        if not summary:
            print(
                "no attempt->fire pairs among the matching records",
                file=sys.stderr,
            )
            return 1
        out["latencies"] = summary
    if args.critical_path:
        # causality needs the *whole* trace: a filtered-out send on
        # another site may still carry the chain
        try:
            segments = critical_path(records, event=args.event)
        except ValueError as exc:
            print(f"{args.trace_file}: {exc}", file=sys.stderr)
            return 1
        if not segments:
            print("nothing fired; no critical path", file=sys.stderr)
            return 1
        out["critical_path"] = segments
    shown = matched if args.limit <= 0 else matched[: args.limit]
    if args.json:
        if not analytics:
            out["events"] = shown
        print(json.dumps(out, indent=2))
        return 0
    if args.latencies:
        header = f"{'event':<24} {'count':>5} {'mean':>8} "
        header += f"{'p50':>8} {'p90':>8} {'p99':>8} {'max':>8}"
        print(header)
        for event, stats in out["latencies"].items():
            print(
                f"{event:<24} {stats['count']:>5} {stats['mean']:>8.3f} "
                f"{stats['p50']:>8.3f} {stats['p90']:>8.3f} "
                f"{stats['p99']:>8.3f} {stats['max']:>8.3f}"
            )
    if args.critical_path:
        print("critical path (earliest segment first):")
        for seg in out["critical_path"]:
            via = (
                f" <- {seg['via_kind']} #{seg['via_mid']}"
                if seg["via_kind"] else ""
            )
            print(
                f"  {seg['site']}: t={seg['from_t']:g}..{seg['to_t']:g} "
                f"({seg['records']} records){via}"
            )
    if not analytics:
        for record in shown:
            print(json.dumps(record, sort_keys=True))
        print(
            f"{len(matched)} of {len(records)} records match",
            file=sys.stderr,
        )
    return 0


def _cmd_profile(args) -> int:
    """``repro profile``: one profiled distributed run of a spec."""
    from repro.obs.profile import Profiler, dump, format_report

    workflow = _load_spec(args.spec)
    if workflow is None:
        return 2
    attempts = _parse_attempts(args.attempt, workflow)
    if attempts is None:
        return 2
    if not 0 <= args.latency < inf:
        print("--latency must be non-negative", file=sys.stderr)
        return 2
    if args.limit < 0:
        print("--limit must be non-negative", file=sys.stderr)
        return 2
    profiler = Profiler()
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        latency=ConstantLatency(args.latency),
        rng=random.Random(args.seed),
        profiler=profiler,
    )
    scripts = [AgentScript("cli", attempts)] if attempts else []
    sched.run(scripts)
    report = profiler.report()
    if args.output:
        _write_profile(report, args.output, args.format)
        return 0
    if args.format == "text":
        print(format_report(report, limit=args.limit))
    else:
        dump(report, sys.stdout, args.format)
    return 0


def _cmd_slo(args) -> int:
    """``repro slo check``: gate a ``run --json`` report on thresholds.

    Exit contract: 0 when every rule passes; 1 when any rule fails
    (including "no data" -- an empty report must not pass a latency
    gate); 2 on unreadable files or a malformed SLO document.
    """
    from repro.obs.query import evaluate_slos

    report = _load_json_object(args.report_file)
    if report is None:
        return 2
    slo_doc = _load_json_object(args.slo_file)
    if slo_doc is None:
        return 2
    try:
        results = evaluate_slos(report, slo_doc)
    except ValueError as exc:
        print(f"{args.slo_file}: {exc}", file=sys.stderr)
        return 2
    failures = [r for r in results if not r["ok"]]
    if args.json:
        print(json.dumps(
            {"ok": not failures, "results": results}, indent=2
        ))
        return 0 if not failures else 1
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"{status}  {r['name']}: {r['detail']}")
    if failures:
        print(
            f"{len(failures)} of {len(results)} SLO rule(s) failed",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(results)} SLO rule(s) hold")
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.provenance import explain_records

    records = _read_trace(args.trace_file, "explain", unusable=2)
    if isinstance(records, int):
        return records
    try:
        explanation = explain_records(records, args.event)
    except ValueError as exc:
        print(f"{args.trace_file}: {exc}", file=sys.stderr)
        return 2
    except KeyError:
        print(
            f"{args.event!r} never appears in {args.trace_file} "
            "(no actor or guard records); check the event name",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2))
    else:
        print(explanation.render())
    return 0


def _cmd_prom(args) -> int:
    from repro.obs.prom import lint_prometheus

    try:
        with open(args.prom_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"{args.prom_file}: cannot read: {exc}", file=sys.stderr)
        return 2
    problems = lint_prometheus(text)
    if not problems:
        samples = sum(
            1
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        )
        print(f"{args.prom_file}: {samples} samples, format OK")
        return 0
    print(f"{args.prom_file}: {len(problems)} problem(s)", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1


def _cmd_diff(args) -> int:
    """``repro diff A B``: causally align two traces, localize divergence.

    Exit contract: 0 when causally identical (volatile fields --
    Lamport counters and message ids, plus the wall-clock guard timing
    ``elapsed`` that only traces recorded before traces held no
    wall-clock time carry -- are ignored, so a same-seed re-run diffs
    clean); 1 when divergent,
    naming the first divergent event per site, classifying the
    divergence, and printing the root-cause chain back through the
    causal machinery; 2 when either trace is empty, unreadable, or
    structurally unusable.  ``--decisions`` compares only the decision
    records (:func:`repro.obs.diff.decisions`) under the same contract.
    """
    from repro.obs.diff import diff_files

    try:
        diff = diff_files(args.trace_a, args.trace_b, args.decisions)
    except OSError as exc:
        print(f"cannot read: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"unusable trace: {exc}", file=sys.stderr)
        return 2
    if diff.records_a == 0 or diff.records_b == 0:
        for path, count in (
            (args.trace_a, diff.records_a), (args.trace_b, diff.records_b)
        ):
            if count == 0:
                what = "decision records" if args.decisions else "records"
                print(
                    f"{path}: empty trace (no {what}); nothing to diff "
                    "-- was the run traced?",
                    file=sys.stderr,
                )
        return 2
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2))
    else:
        print(diff.summary())
    return 0 if diff.identical else 1


def _cmd_runs(args) -> int:
    """``repro runs ...``: the cross-run regression registry.

    ``list``/``show``/``gc`` manage the store; ``compare`` trace-diffs
    two stored runs (exit contract of ``repro diff``); ``regress``
    trends the standard indicators, newest stored run against the best
    earlier value of each (0 holds, 1 regressed, 2 too little history).
    """
    import datetime

    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.dir) if args.dir else RunRegistry()

    def stamp(created) -> str:
        if not created:
            return "-"
        return datetime.datetime.fromtimestamp(created).strftime(
            "%Y-%m-%d %H:%M:%S"
        )

    if args.runs_command == "list":
        metas = registry.list_runs()
        if args.json:
            print(json.dumps(metas, indent=2))
            return 0
        if not metas:
            print(f"no stored runs in {registry.root}")
            return 0
        print(
            f"{'id':<12} {'created':<19} {'ok':<3} {'makespan':>8} "
            f"{'msgs':>6} {'viol':>4} {'uns':>4}  name"
        )
        for meta in metas:
            summary = meta.get("summary", {})
            print(
                f"{meta['id']:<12} {stamp(meta.get('created')):<19} "
                f"{'yes' if summary.get('ok') else 'no':<3} "
                f"{summary.get('makespan', 0):>8g} "
                f"{summary.get('messages', 0):>6} "
                f"{summary.get('violations', 0):>4} "
                f"{summary.get('unsettled', 0):>4}  "
                f"{meta.get('name') or '-'}"
            )
        return 0

    if args.runs_command == "show":
        try:
            shown = registry.show(args.run)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        print(json.dumps(shown, indent=2))
        return 0

    if args.runs_command == "gc":
        if args.keep < 0:
            print("--keep must be non-negative", file=sys.stderr)
            return 2
        removed = registry.gc(args.keep)
        print(
            f"removed {len(removed)} run(s), kept "
            f"{len(registry.list_runs())} in {registry.root}"
        )
        for run_id in removed:
            print(f"  {run_id}")
        return 0

    if args.runs_command == "compare":
        try:
            diff = registry.compare(args.run_a, args.run_b)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"cannot compare: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(diff.as_dict(), indent=2))
        else:
            print(diff.summary())
        return 0 if diff.identical else 1

    # regress
    slo_doc = None
    if args.slo:
        slo_doc = _load_json_object(args.slo)
        if slo_doc is None:
            return 2
    try:
        outcome = registry.regress(
            indicators=args.indicator or None,
            tolerance=args.tolerance,
            slo_doc=slo_doc,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(outcome, indent=2))
        return 1 if outcome["regressed"] else 0
    latest = outcome["latest"]
    print(
        f"latest run {latest['id']} vs best of "
        f"{outcome['baseline_runs']} earlier run(s):"
    )
    for row in outcome["indicators"]:
        status = "PASS" if row["ok"] else "FAIL"
        print(f"{status}  {row['indicator']}: {row['detail']}")
    for rule in outcome.get("slo", []):
        status = "PASS" if rule["ok"] else "FAIL"
        print(f"{status}  slo:{rule['name']}: {rule['detail']}")
    if outcome["regressed"]:
        print("regression detected", file=sys.stderr)
        return 1
    print("no regression")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "compile": _cmd_compile,
        "analyze": _cmd_analyze,
        "automaton": _cmd_automaton,
        "graph": _cmd_graph,
        "guard": _cmd_guard,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "prom": _cmd_prom,
        "profile": _cmd_profile,
        "slo": _cmd_slo,
        "diff": _cmd_diff,
        "runs": _cmd_runs,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # piped into head & co.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
