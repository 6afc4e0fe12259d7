"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.obs.tracer import read_jsonl, to_jsonl

SPEC = """
workflow demo
dep ~e + ~f + e . f
dep ~e + f
attr f triggerable
site left  e
site right f
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "demo.wf"
    path.write_text(SPEC)
    return str(path)


class TestCompile:
    def test_prints_guard_table(self, spec_file, capsys):
        assert main(["compile", spec_file]) == 0
        out = capsys.readouterr().out
        assert "workflow demo: 2 dependencies" in out
        assert "G(" in out and "!f" in out


class TestAnalyze:
    def test_clean_spec_exits_zero(self, spec_file, capsys):
        assert main(["analyze", spec_file]) == 0
        assert "satisfiable: True" in capsys.readouterr().out

    def test_conflicting_spec_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.wf"
        path.write_text("dep e . f\ndep f . e\n")
        assert main(["analyze", str(path)]) == 1
        assert "CONFLICT" in capsys.readouterr().out

    def test_reports_compiled_guard_table(self, spec_file, capsys):
        assert main(["analyze", spec_file]) == 0
        out = capsys.readouterr().out
        assert "compiled guard table:" in out
        assert "guard synthesis:" in out

    def test_json_report(self, spec_file, capsys):
        assert main(["analyze", spec_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["workflow"] == "demo"
        assert report["compiled"]["guards"] > 0
        assert report["compiled"]["constant_false"] == []
        # one shape-table lookup per guard, synthesized or renamed
        lookups = report["synthesis"]
        assert (
            lookups["shape_hits"] + lookups["shape_misses"]
            == report["compiled"]["guards"]
        )

    def test_json_report_keeps_exit_contract_on_findings(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.wf"
        path.write_text("dep e . f\ndep f . e\n")
        assert main(["analyze", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["conflicts"]


class TestAutomatonAndGraph:
    def test_automaton_dot(self, capsys):
        assert main(["automaton", "~e + ~f + e . f"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_graph_dot(self, spec_file, capsys):
        assert main(["graph", spec_file]) == 0
        out = capsys.readouterr().out
        assert "digraph workflow" in out
        assert "cluster_" in out


class TestGuard:
    def test_example_9(self, capsys):
        assert main(["guard", "~e + ~f + e . f", "e"]) == 0
        assert "= !f" in capsys.readouterr().out

    def test_complement_event(self, capsys):
        assert main(["guard", "~e + ~f + e . f", "~e"]) == 0
        assert "= T" in capsys.readouterr().out

    def test_rejects_non_event(self, capsys):
        assert main(["guard", "~e + f", "e + f"]) == 2


class TestRun:
    def test_ordered_run(self, spec_file, capsys):
        code = main(
            [
                "run", spec_file,
                "--attempt", "e=0",
                "--scheduler", "distributed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok=True" in out
        assert "*" in out

    def test_centralized_run(self, spec_file, capsys):
        code = main(
            ["run", spec_file, "--attempt", "e=0", "--scheduler", "centralized"]
        )
        assert code == 0
        assert "ok=True" in capsys.readouterr().out

    def test_centralized_trace_passes_the_spec_check(
        self, travel_spec, tmp_path, capsys
    ):
        """CI's centralized smoke: Example 12 on the baseline, its trace
        checked offline against the spec."""
        trace = str(tmp_path / "central.jsonl")
        assert main([
            "run", travel_spec, "--scheduler", "centralized",
            "--attempt", "s_buy=0", "--attempt", "c_buy=5", "--trace", trace,
        ]) == 0
        assert main(["trace", "check", trace, "--spec", travel_spec]) == 0

    def test_automata_is_no_scheduler_choice(self, spec_file, capsys):
        # the automata baseline runs the centralized procedure
        with pytest.raises(SystemExit) as excinfo:
            main(["run", spec_file, "--scheduler", "automata"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'automata'" in capsys.readouterr().err

    def test_compiled_guards_run(self, spec_file, capsys):
        """A default distributed run evaluates on the compiled cursors
        and ``--json`` carries *this run's* counters (a second run
        reports the same numbers, not process-wide totals)."""
        argv = [
            "run", spec_file,
            "--attempt", "e=0",
            "--scheduler", "distributed",
            "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["ok"] is True
        compiled = first["metrics"]["kernel"]["compiled"]
        assert compiled["hops"] > 0
        assert compiled["cursors"] > 0
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["metrics"]["kernel"]["compiled"] == compiled

    def test_compiled_guards_flag_is_gone(self, spec_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", spec_file, "--attempt", "e=0", "--compiled-guards"])
        assert excinfo.value.code == 2
        assert "--compiled-guards" in capsys.readouterr().err

    def test_bad_attempt_syntax(self, spec_file, capsys):
        assert main(["run", spec_file, "--attempt", "e"]) == 2
        assert "bad --attempt" in capsys.readouterr().err

    def test_no_attempts_settles_negative(self, spec_file, capsys):
        assert main(["run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "~e" in out


# a spec that cannot settle on its own: both events are manual, so a
# run with no attempts ends with unsatisfied dependencies -> exit 1
UNSAT_SPEC = """
workflow unsat
dep e . f
attr e manual
attr f manual
"""


class TestRunJson:
    def test_json_report_shape(self, spec_file, capsys):
        assert main(["run", spec_file, "--attempt", "e=0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["violations"] == []
        assert report["unsettled"] == []
        assert report["terminal"] == "maximal"
        events = {entry["event"] for entry in report["timeline"]}
        assert {"e", "f"} <= events
        for entry in report["timeline"]:
            assert set(entry) == {"event", "time", "attempted_at", "outcome"}
        assert report["metrics"]["counters"]["fired"]["total"] == len(
            report["timeline"]
        )
        assert report["metrics"]["network"]["messages"] == report["messages"]
        # no --trace: the causal trace is inlined
        assert report["trace"], "expected an inline trace"
        assert {"lc", "t", "site", "cat", "op"} <= set(report["trace"][0])

    def test_unsettled_run_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "unsat.wf"
        path.write_text(UNSAT_SPEC)
        assert main(["run", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert set(report["unsettled"]) == {"e", "f"}
        assert report["terminal"] == "stuck"

    @pytest.mark.parametrize("extra", [[], ["--shards", "1"]])
    def test_stuck_run_without_violation_exits_three(
        self, tmp_path, capsys, extra
    ):
        # e alone discharges e + f; skipping settlement leaves f open
        path = tmp_path / "either.wf"
        path.write_text("dep e + f\n")
        run = ["run", str(path), "--attempt", "e=0", "--no-settle", *extra]
        assert main([*run, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []
        assert report["terminal"] == "stuck"
        f = "f_i0" if extra else "f"
        assert report["unsettled"] == [f]
        assert main(run) == 3
        assert f"run ended stuck; unsettled: {f}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "deps", [["e . f", "f . e"], ["e", "~e + f", "~f"]]
    )
    @pytest.mark.parametrize("extra", [[], ["--shards", "1"]])
    def test_unsatisfiable_spec_is_not_run(self, tmp_path, capsys, deps, extra):
        """No trace satisfies every dependency: the run fails closed
        with a diagnostic before any scheduler is built."""
        path = tmp_path / "conflict.wf"
        path.write_text("".join(f"dep {dep}\n" for dep in deps))
        assert main(["run", str(path), "--json", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no trace satisfies every dependency" in captured.err

    def test_trace_flag_writes_jsonl(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        code = main([
            "run", spec_file, "--attempt", "e=0",
            "--json", "--trace", str(trace),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # with --trace the report points at the file instead of inlining
        assert report["trace_file"] == str(trace)
        assert "trace" not in report
        lines = trace.read_text().strip().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    def test_trace_without_json_still_writes(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", spec_file, "--attempt", "e=0", "--trace", str(trace)]
        ) == 0
        assert "ok=True" in capsys.readouterr().out
        assert trace.exists()


class TestTrace:
    @pytest.fixture
    def trace_file(self, spec_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(
            ["run", spec_file, "--attempt", "e=0", "--trace", str(path)]
        ) == 0
        capsys.readouterr()  # swallow the run's own output
        return path

    def test_check_clean_trace(self, trace_file, capsys):
        assert main(["trace", "check", str(trace_file)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_check_corrupted_trace(self, trace_file, capsys):
        records = [
            json.loads(line)
            for line in trace_file.read_text().splitlines() if line
        ]
        # delete every guard evaluation: firings lose their justification
        kept = [r for r in records if r["cat"] != "guard"]
        assert len(kept) < len(records)
        trace_file.write_text(
            "\n".join(json.dumps(r) for r in kept) + "\n"
        )
        assert main(["trace", "check", str(trace_file)]) == 1
        err = capsys.readouterr().err
        assert "[unjustified-fire]" in err
        assert "record " in err

    def test_export_to_stdout(self, trace_file, capsys):
        assert main(["trace", "export", str(trace_file)]) == 0
        chrome = json.loads(capsys.readouterr().out)
        assert chrome["traceEvents"]
        phases = {event["ph"] for event in chrome["traceEvents"]}
        assert "M" in phases and "i" in phases

    def test_export_to_file(self, trace_file, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["trace", "export", str(trace_file), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]


MUTEX = """
workflow mx
dep b2 . b1 + ~e1 + ~b2 + e1 . b2
dep b1 . b2 + ~e2 + ~b1 + e2 . b1
dep ~b1 + e1
dep ~b2 + e2
site t1 b1 e1
site t2 b2 e2
"""


class TestTraceCheckSpec:
    """``trace check --spec`` judges the occurred timeline with the one
    oracle, on top of the structural checks."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        spec = tmp_path / "mx.wf"
        spec.write_text(MUTEX)
        trace = tmp_path / "mx.jsonl"
        attempts = ["b1=0", "e1=3", "b2=0.5", "e2=4"]
        assert main(
            ["run", str(spec), "--trace", str(trace)]
            + [flag for a in attempts for flag in ("--attempt", a)]
        ) == 0
        capsys.readouterr()
        return str(spec), trace

    def test_clean_run_passes(self, run, capsys):
        spec, trace = run
        assert main(["trace", "check", str(trace), "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "satisfies all 4 dependencies" in out

    def test_reordered_mutex_entries_fail(self, run, capsys):
        spec, trace = run
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        slots = [
            i for i, r in enumerate(records)
            if r["cat"] == "actor" and r["op"] == "fired"
        ]
        fired = {records[i]["event"]: records[i] for i in slots}
        assert set(fired) == {"b1", "e1", "b2", "e2"}
        # both tasks inside their critical sections at once
        for i, event in zip(slots, ["b1", "b2", "e1", "e2"]):
            records[i] = fired[event]
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["trace", "check", str(trace), "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert "[dependency] trace <b1 b2 e1 e2> violates" in err
        assert "[guard] b2 occurred at index 1" in err

    def test_repeated_occurrence_is_no_trace(self, run, capsys):
        spec, trace = run
        lines = trace.read_text().splitlines(keepends=True)
        fired = [line for line in lines if '"op": "fired"' in line]
        trace.write_text("".join(lines + fired[:1]))
        assert main(["trace", "check", str(trace), "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert "[double-fire]" in err and "the timeline is no trace" in err

    def test_window_that_evicted_actor_records_exits_two(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "mx.wf"
        spec.write_text(MUTEX)
        window = tmp_path / "window.jsonl"
        assert main(
            ["run", str(spec), "--attempt", "b1=0", "--attempt", "b2=1",
             "--flight-record", "8", "--trace", str(window)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "check", str(window), "--spec", str(spec)]) == 2
        assert "cannot be judged" in capsys.readouterr().err

    def test_unreadable_spec_exits_two(self, run, tmp_path, capsys):
        _spec, trace = run
        bad = tmp_path / "bad.wf"
        bad.write_text("workflow bad\ndep ~e +\n")
        for path in (bad, tmp_path / "nope.wf"):
            argv = ["trace", "check", str(trace), "--spec", str(path)]
            assert main(argv) == 2
            assert "unreadable spec" in capsys.readouterr().err


TRAVEL = """
workflow travel
dep ~s_buy + s_book
dep ~c_buy + c_book . c_buy
dep ~c_book + c_buy + s_cancel
attr s_book   triggerable
attr s_cancel triggerable
site airline     s_buy c_buy
site car_rental  s_book c_book s_cancel
"""


@pytest.fixture
def travel_spec(tmp_path):
    path = tmp_path / "travel.wf"
    path.write_text(TRAVEL)
    return str(path)


class TestTraceRobustness:
    """Empty, truncated, or missing traces are diagnosed, not dumped
    as tracebacks."""

    def test_check_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "empty trace" in err
        assert "Traceback" not in err

    def test_export_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "export", str(path)]) == 1
        assert "empty trace" in capsys.readouterr().err

    def test_export_truncated_trace(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"cat": "actor", "op": "fired"}\n{"cat": "ac')
        assert main(["trace", "export", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_check_missing_file(self, tmp_path, capsys):
        assert main(["trace", "check", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_export_missing_file(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestExplainCommand:
    @pytest.fixture
    def parked_trace(self, travel_spec, tmp_path, capsys):
        path = tmp_path / "parked.jsonl"
        code = main([
            "run", travel_spec, "--scheduler", "distributed",
            "--attempt", "c_buy=0", "--no-settle", "--trace", str(path),
        ])
        assert code == 1  # c_buy stays parked; the short trace violates
        capsys.readouterr()
        return str(path)

    def test_explains_parked_event(self, parked_trace, capsys):
        assert main(["explain", parked_trace, "c_buy"]) == 0
        out = capsys.readouterr().out
        assert "parked" in out
        assert "[]c_book" in out
        assert "to enable" in out

    def test_json_output(self, parked_trace, capsys):
        assert main(["explain", parked_trace, "c_buy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["event"] == "c_buy"
        assert payload["verdict"] == "park"

    def test_unknown_event_exits_one(self, parked_trace, capsys):
        assert main(["explain", parked_trace, "nonesuch"]) == 1
        assert "never appears" in capsys.readouterr().err

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "no.jsonl"), "e"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["explain", str(path), "e"]) == 2
        assert "empty trace" in capsys.readouterr().err


class TestSnapshotFlags:
    def test_snapshot_run_writes_snapshots_and_prom(
        self, travel_spec, tmp_path, capsys
    ):
        snap_out = tmp_path / "snaps.json"
        prom_out = tmp_path / "metrics.prom"
        code = main([
            "run", travel_spec, "--scheduler", "distributed",
            "--snapshot-every", "2", "--snapshot-out", str(snap_out),
            "--prom", str(prom_out), "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["snapshots"]) == {"taken", "file"}
        assert report["snapshots"]["taken"] >= 1
        snaps = json.loads(snap_out.read_text())
        assert len(snaps) == report["snapshots"]["taken"]
        assert set(snaps[0]) == {
            "id", "time", "sites", "down", "cut", "channels",
        }
        assert main(["prom", "lint", str(prom_out)]) == 0

    def test_snapshot_requires_distributed(self, travel_spec, capsys):
        code = main([
            "run", travel_spec, "--scheduler", "centralized",
            "--snapshot-every", "2",
        ])
        assert code == 2
        assert "distributed" in capsys.readouterr().err

    def test_bad_interval_exits_two(self, travel_spec, capsys):
        code = main([
            "run", travel_spec, "--scheduler", "distributed",
            "--snapshot-every", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "--snapshot-every must be positive\n"
        )

    def test_no_settle_leaves_attempts_parked(self, travel_spec, capsys):
        code = main([
            "run", travel_spec, "--scheduler", "distributed",
            "--attempt", "c_buy=0", "--no-settle", "--json",
        ])
        assert code == 1  # the unsettled trace violates its dependencies
        report = json.loads(capsys.readouterr().out)
        assert report["terminal"] == "stuck"
        assert "c_buy" in report["unsettled"]
        assert report["metrics"]["counters"]["parked"]["total"] == 1


class TestPromLint:
    def test_lint_rejects_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("# TYPE a counter\na one\n")
        assert main(["prom", "lint", str(path)]) == 1
        assert "problem" in capsys.readouterr().err

    def test_lint_missing_file(self, tmp_path, capsys):
        assert main(["prom", "lint", str(tmp_path / "no.prom")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestShardedRun:
    ATTEMPTS = ["--attempt", "s_buy=0", "--attempt", "c_buy=5"]

    def test_sharded_run_writes_merged_artifacts(
        self, travel_spec, tmp_path, capsys
    ):
        trace = tmp_path / "merged.jsonl"
        prom = tmp_path / "merged.prom"
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS,
                "--shards", "2", "--instances", "4", "--workers", "1",
                "--trace", str(trace), "--prom", str(prom),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "sharded: 4 instances over 2 shard(s)" in out
        # the merged trace passes the CLI's own checker...
        assert main(["trace", "check", str(trace)]) == 0
        # ...and sites carry their shard prefix
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        sites = {r.get("site") for r in records}
        assert any(s and s.startswith("s0/") for s in sites)
        assert any(s and s.startswith("s1/") for s in sites)
        # the merged metrics render as clean Prometheus text
        assert main(["prom", "lint", str(prom)]) == 0

    def test_json_report_carries_sharding_block(self, travel_spec, capsys):
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS, "--json",
                "--shards", "2", "--instances", "6", "--workers", "1",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sharding"] == {
            "shards": 2, "instances": 6, "workers": 1,
        }
        assert report["ok"] is True

    def test_shards_default_one_instance_each(self, travel_spec, capsys):
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS, "--json", "--shards", "3",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sharding"]["instances"] == 3

    MUTEX = (
        "workflow mutex_cs\n"
        "dep ~b + ~e + b . e\n"
        "dep ~b + e\n"
        "attr e guaranteed\n"
        "site cs b e\n"
    )
    MUTEX_CROSS = [
        "--cross-dep", "b_i1 . b_i0 + ~e_i0 + ~b_i1 + e_i0 . b_i1",
        "--cross-dep", "b_i0 . b_i1 + ~e_i1 + ~b_i0 + e_i1 . b_i0",
    ]

    @pytest.fixture
    def mutex_spec(self, tmp_path):
        path = tmp_path / "mutex.wf"
        path.write_text(self.MUTEX)
        return str(path)

    def test_cross_deps_route_between_shards(self, mutex_spec, capsys):
        code = main(
            [
                "run", mutex_spec, "--scheduler", "distributed",
                "--attempt", "b=0", "--attempt", "e=3",
                "--shards", "2", "--instances", "2", "--workers", "1",
                *self.MUTEX_CROSS, "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        # the coupled pair is one component: of the two requested
        # shards the plan holds one, so one scheduler enforces the mutex
        assert report["sharding"]["shards"] == 1
        assert "cross_messages" not in report["sharding"]
        assert sorted(entry["event"] for entry in report["timeline"]) == [
            "b_i0", "b_i1", "e_i0", "e_i1",
        ]

    def test_min_cut_placement_colocates(self, mutex_spec, capsys):
        code = main(
            [
                "run", mutex_spec, "--scheduler", "distributed",
                "--attempt", "b=0", "--attempt", "e=3",
                "--shards", "2", "--instances", "4", "--workers", "1",
                *self.MUTEX_CROSS,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        # the coupled pair i0, i1 on shard 0; i2 and i3 on shard 1
        assert "over 2 shard(s)" in out
        assert "cut" not in out and "routed" not in out

    def test_placement_flag_is_gone(self, travel_spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "run", travel_spec, *self.ATTEMPTS,
                    "--shards", "2", "--placement", "min-cut",
                ]
            )
        assert exit_info.value.code == 2
        assert "--placement" in capsys.readouterr().err

    def test_steal_flag_is_gone(self, travel_spec, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "run", travel_spec, "--scheduler", "distributed",
                    *self.ATTEMPTS, "--shards", "2", "--steal",
                ]
            )
        assert exit_info.value.code == 2
        assert "--steal" in capsys.readouterr().err

    def test_hung_shard_is_reported_and_exits_nonzero(
        self, travel_spec, capsys, monkeypatch
    ):
        def hung(tasks, workers=None):
            raise TimeoutError("shard(s) [1] did not finish within 600 s")

        monkeypatch.setattr("repro.scale.run_sharded", hung)
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS, "--shards", "2",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "shard(s) [1] did not finish" in captured.err
        assert "ok=" not in captured.out

    @pytest.mark.parametrize(
        "cross_dep", ["~b_i7 + e_i9 . b_i7", "~b_i0 + e_i9 . b_i0"]
    )
    def test_cross_dep_on_unknown_instance_exits_two(
        self, mutex_spec, capsys, cross_dep
    ):
        # used to print ok=True and exit 0: no shard owned the
        # dependency, so it was never enforced or verified
        code = main(
            [
                "run", mutex_spec, "--scheduler", "distributed",
                "--attempt", "b=0", "--attempt", "e=3",
                "--shards", "2", "--instances", "2", "--workers", "1",
                "--cross-dep", cross_dep,
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot plan shards" in captured.err
        assert "e_i9" in captured.err
        assert "ok=" not in captured.out

    def test_unplannable_cross_dep_exits_two(self, mutex_spec, capsys):
        code = main(
            [
                "run", mutex_spec, "--scheduler", "distributed",
                "--attempt", "b=0", "--shards", "2", "--instances", "2",
                "--cross-dep", "b_i0 . (",
            ]
        )
        assert code == 2
        assert "cannot plan shards" in capsys.readouterr().err

    def test_shards_require_distributed_scheduler(self, travel_spec, capsys):
        code = main(
            [
                "run", travel_spec, "--scheduler", "centralized",
                *self.ATTEMPTS, "--shards", "2",
            ]
        )
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_shards_conflict_with_snapshots(self, travel_spec, capsys):
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS, "--shards", "2", "--snapshot-every", "5",
            ]
        )
        assert code == 2
        assert "snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--shards", "0"],
            ["--shards", "2", "--instances", "0"],
            ["--shards", "2", "--workers", "0"],
        ],
        ids=["shards", "instances", "workers"],
    )
    def test_non_positive_counts_exit_two(self, travel_spec, capsys, flags):
        code = main(
            [
                "run", travel_spec, "--scheduler", "distributed",
                *self.ATTEMPTS, *flags,
            ]
        )
        assert code == 2


class TestRunProfileAndSampling:
    def test_profile_json_embeds_report(self, spec_file, capsys):
        code = main([
            "run", spec_file, "--attempt", "e=0", "--profile", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        phases = report["profile"]["phases"]
        assert "synthesis" in phases
        assert any(path.endswith("guard_eval") for path in phases)
        for node in phases.values():
            assert node["cum_seconds"] >= node["self_seconds"] >= 0.0

    def test_profile_text_prints_table(self, spec_file, capsys):
        assert main(["run", spec_file, "--attempt", "e=0", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "self_ms" in out

    def test_profile_out_writes_collapsed(self, spec_file, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        code = main([
            "run", spec_file, "--attempt", "e=0",
            "--profile", "--profile-out", str(flame),
        ])
        assert code == 0
        lines = flame.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, usec = line.rpartition(" ")
            assert stack
            int(usec)

    def test_profile_out_honours_the_format(
        self, spec_file, tmp_path, capsys
    ):
        out = tmp_path / "profile.json"
        code = main([
            "run", spec_file, "--attempt", "e=0", "--profile",
            "--profile-out", str(out), "--profile-format", "json",
        ])
        assert code == 0
        assert "synthesis" in json.loads(out.read_text())["phases"]

    def test_sample_every_json_carries_series(self, spec_file, capsys):
        code = main([
            "run", spec_file, "--attempt", "e=0",
            "--sample-every", "1", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        series = report["metrics"]["timeseries"]["series"]
        assert "parked_events" in series
        assert "inflight_messages" in series
        for points in series.values():
            times = [t for t, _ in points]
            assert times == sorted(times)

    def test_profile_needs_distributed(self, spec_file, capsys):
        code = main([
            "run", spec_file, "--scheduler", "centralized", "--profile",
        ])
        assert code == 2
        assert "distributed" in capsys.readouterr().err

    def test_bad_sample_interval(self, spec_file, capsys):
        assert main(["run", spec_file, "--sample-every", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_profile_out_needs_profile(self, spec_file, capsys):
        code = main(["run", spec_file, "--profile-out", "x.txt"])
        assert code == 2
        assert "--profile" in capsys.readouterr().err

    def test_sharded_profile_and_series(self, spec_file, capsys):
        code = main([
            "run", spec_file, "--attempt", "e=0",
            "--shards", "2", "--instances", "2", "--workers", "1",
            "--profile", "--sample-every", "1", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "template_stamp" in report["profile"]["phases"]
        assert "parked_events" in report["metrics"]["timeseries"]["series"]


class TestProfileCommand:
    def test_text_table(self, spec_file, capsys):
        assert main(["profile", spec_file, "--attempt", "e=0"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "synthesis" in out

    def test_collapsed_to_file(self, spec_file, tmp_path, capsys):
        out_file = tmp_path / "p.collapsed"
        code = main([
            "profile", spec_file, "--attempt", "e=0",
            "--format", "collapsed", "-o", str(out_file),
        ])
        assert code == 0
        assert "synthesis" in out_file.read_text()

    def test_chrome_to_stdout(self, spec_file, capsys):
        assert main(["profile", spec_file, "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]


@pytest.fixture
def traced_run(spec_file, tmp_path, capsys):
    """A traced run: (report dict, trace path)."""
    trace = tmp_path / "t.jsonl"
    report_path = tmp_path / "report.json"
    code = main([
        "run", spec_file, "--attempt", "e=0",
        "--json", "--trace", str(trace),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    report_path.write_text(json.dumps(report))
    return report, str(trace), str(report_path)


class TestTraceQuery:
    def test_filtered_records_jsonl(self, traced_run, capsys):
        _, trace, _ = traced_run
        code = main(["trace", "query", trace, "--cat", "message",
                     "--op", "send", "--limit", "2"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["cat"] == "message" and record["op"] == "send"
        assert "records match" in captured.err

    def test_latencies_agree_with_timeline_p99(self, traced_run, capsys):
        from repro.obs.query import percentile

        report, trace, _ = traced_run
        code = main(["trace", "query", trace, "--latencies", "--json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        # cross-check: pooled p99 from the trace equals the timeline's
        all_trace = []
        for event, stats in out["latencies"].items():
            matching = [
                e["time"] - e["attempted_at"]
                for e in report["timeline"]
                if e["event"] == event and e["outcome"] == "accepted"
            ]
            assert stats["count"] == len(matching)
            assert stats["max"] == pytest.approx(max(matching))
            all_trace.extend(matching)
        timeline_lats = [
            e["time"] - e["attempted_at"]
            for e in report["timeline"] if e["outcome"] == "accepted"
        ]
        assert percentile(sorted(all_trace), 99) == percentile(
            sorted(timeline_lats), 99
        )

    def test_critical_path_text(self, traced_run, capsys):
        _, trace, _ = traced_run
        assert main(["trace", "query", trace, "--critical-path"]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_centralized_trace_answers_both_queries(
        self, travel_spec, tmp_path, capsys
    ):
        """The center records ``accepted`` where an actor records
        ``fired``; both are occurrences to every query."""
        trace = str(tmp_path / "central.jsonl")
        assert main([
            "run", travel_spec, "--scheduler", "centralized",
            "--attempt", "s_book=0", "--trace", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "query", trace, "--latencies", "--json"]) == 0
        latencies = json.loads(capsys.readouterr().out)["latencies"]
        assert sorted(latencies) == [
            "s_book", "~c_book", "~c_buy", "~s_buy", "~s_cancel",
        ]
        assert main(["trace", "query", trace, "--critical-path"]) == 0
        assert "center" in capsys.readouterr().out

    def test_empty_trace_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "query", str(empty)]) == 1
        assert "empty trace" in capsys.readouterr().err

    def test_no_match_exits_one(self, traced_run, capsys):
        _, trace, _ = traced_run
        assert main(["trace", "query", trace, "--event", "zz_missing"]) == 1
        assert "0 of" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["trace", "query", "/nonexistent/t.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestSloCheck:
    def _slo(self, tmp_path, doc):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_passing_gate(self, traced_run, tmp_path, capsys):
        _, _, report_path = traced_run
        slo = self._slo(tmp_path, {"slos": [
            {"indicator": "p99_attempt_to_fire", "max": 100.0},
            {"indicator": "violations", "max": 0},
            {"indicator": "fired", "min": 1},
        ]})
        assert main(["slo", "check", report_path, slo]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "hold" in out

    def test_tightened_threshold_fails_nonzero(
        self, traced_run, tmp_path, capsys
    ):
        _, _, report_path = traced_run
        slo = self._slo(tmp_path, {"slos": [
            {"indicator": "p99_attempt_to_fire", "max": 0.0},
        ]})
        assert main(["slo", "check", report_path, slo]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failed" in captured.err

    def test_empty_report_fails_closed(self, tmp_path, capsys):
        report = tmp_path / "empty.json"
        report.write_text("{}")
        slo = self._slo(tmp_path, {"slos": [
            {"indicator": "p99_attempt_to_fire", "max": 100.0},
        ]})
        assert main(["slo", "check", str(report), slo]) == 1
        assert "no data" in capsys.readouterr().out

    def test_json_output(self, traced_run, tmp_path, capsys):
        _, _, report_path = traced_run
        slo = self._slo(tmp_path, {"slos": [
            {"indicator": "makespan", "max": 1000.0},
        ]})
        assert main(["slo", "check", report_path, slo, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["results"][0]["name"] == "makespan"

    def test_malformed_slo_exits_two(self, traced_run, tmp_path, capsys):
        _, _, report_path = traced_run
        slo = self._slo(tmp_path, {"slos": [{"indicator": "bogus",
                                             "max": 1}]})
        assert main(["slo", "check", report_path, slo]) == 2
        assert "unknown SLO indicator" in capsys.readouterr().err

    def test_missing_and_invalid_files_exit_two(self, tmp_path, capsys):
        good = self._slo(tmp_path, {"slos": [{"indicator": "fired",
                                              "min": 0}]})
        assert main(["slo", "check", "/nonexistent.json", good]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["slo", "check", str(bad), good]) == 2
        array = tmp_path / "array.json"
        array.write_text("[]")
        assert main(["slo", "check", str(array), good]) == 2
        capsys.readouterr()

    def test_committed_example_slo_passes(self, traced_run, capsys):
        _, _, report_path = traced_run
        import pathlib

        example = pathlib.Path(__file__).parent.parent / "examples/slo.json"
        assert main(["slo", "check", report_path, str(example)]) == 0
        capsys.readouterr()


GZ_RUN = ["--attempt", "s_buy=0", "--attempt", "c_buy=2"]
LONE_SHARD = ["--shards", "1", "--instances", "1"]


class TestGzipTraces:
    """.gz traces are written compressed and read back transparently
    by every consumer (check, export, query, explain, diff)."""

    @pytest.fixture
    def gz_trace(self, travel_spec, tmp_path, capsys):
        path = tmp_path / "run.jsonl.gz"
        assert main(["run", travel_spec, *GZ_RUN, "--trace", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_trace_file_is_actually_gzip(self, gz_trace):
        with open(gz_trace, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"

    def test_check_reads_gz(self, gz_trace, capsys):
        assert main(["trace", "check", gz_trace]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_export_and_query_read_gz(self, gz_trace, capsys):
        assert main(["trace", "export", gz_trace]) == 0
        assert json.loads(capsys.readouterr().out)["traceEvents"]
        assert main(["trace", "query", gz_trace, "--latencies"]) == 0
        capsys.readouterr()

    def test_explain_reads_gz(self, gz_trace, capsys):
        assert main(["explain", gz_trace, "s_buy"]) == 0
        capsys.readouterr()


class TestTruncatedTraces:
    """A run cut down mid-write leaves a partial last line; ingestion
    flags it instead of silently dropping the tail."""

    def _truncated(self, travel_spec, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        assert main(["run", travel_spec, *GZ_RUN, "--trace", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # cut into the last record
        return str(path)

    def test_check_reports_truncation(self, travel_spec, tmp_path, capsys):
        path = self._truncated(travel_spec, tmp_path, capsys)
        assert main(["trace", "check", path]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_complete_records_still_checked(
        self, travel_spec, tmp_path, capsys
    ):
        path = self._truncated(travel_spec, tmp_path, capsys)
        main(["trace", "check", path])
        err = capsys.readouterr().err
        # only the truncation is reported -- the surviving prefix is
        # a valid trace, not collateral damage
        assert err.count("truncated") == 1

    @pytest.mark.parametrize("argv, code", [
        (["diff", "{whole}", "{cut}"], 2),
        (["trace", "query", "{cut}"], 1),
        (["explain", "{cut}", "s_buy"], 2),
        (["trace", "export", "{cut}"], 1),
    ], ids=["diff", "query", "explain", "export"])
    def test_half_cut_gzip_fails_closed(
        self, travel_spec, tmp_path, capsys, argv, code
    ):
        # the exit code each command gives a plain trace cut mid-line
        whole, cut = tmp_path / "run.jsonl.gz", tmp_path / "cut.jsonl.gz"
        assert main(["run", travel_spec, *GZ_RUN, "--trace", str(whole)]) == 0
        data = whole.read_bytes()
        cut.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        paths = {"whole": str(whole), "cut": str(cut)}
        assert main([arg.format(**paths) for arg in argv]) == code
        err = capsys.readouterr().err
        assert "compressed stream ends early" in err
        assert err.count("\n") == 1


class TestDiffCommand:
    """repro diff: 0 identical, 1 divergent (localized), 2 unusable."""

    def _trace(self, travel_spec, tmp_path, name, seed, capsys):
        path = tmp_path / name
        assert main([
            "run", travel_spec, *GZ_RUN, "--seed", str(seed),
            "--jitter", "0.5", "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        return str(path)

    def test_same_seed_is_identical(self, travel_spec, tmp_path, capsys):
        a = self._trace(travel_spec, tmp_path, "a.jsonl.gz", 3, capsys)
        b = self._trace(travel_spec, tmp_path, "b.jsonl.gz", 3, capsys)
        assert main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_seed_diverges_localized(
        self, travel_spec, tmp_path, capsys
    ):
        a = self._trace(travel_spec, tmp_path, "a.jsonl.gz", 0, capsys)
        b = self._trace(travel_spec, tmp_path, "b.jsonl.gz", 7, capsys)
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "first divergence:" in out
        assert "site " in out and "[" in out  # site + classification
        assert "root-cause chain" in out

    def test_json_shape(self, travel_spec, tmp_path, capsys):
        a = self._trace(travel_spec, tmp_path, "a.jsonl.gz", 0, capsys)
        b = self._trace(travel_spec, tmp_path, "b.jsonl.gz", 7, capsys)
        assert main(["diff", a, b, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is False
        assert doc["first"]["site"]
        assert doc["first"]["kind"]

    def test_missing_file_exits_two(self, travel_spec, tmp_path, capsys):
        a = self._trace(travel_spec, tmp_path, "a.jsonl.gz", 0, capsys)
        assert main(["diff", a, str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_empty_trace_exits_two(self, travel_spec, tmp_path, capsys):
        a = self._trace(travel_spec, tmp_path, "a.jsonl.gz", 0, capsys)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["diff", a, str(empty)]) == 2
        assert "empty trace" in capsys.readouterr().err


class TestDiffDecisions:
    """repro diff --decisions compares what each site decided, not the
    traffic that led there."""

    def _variant(self, travel_spec, tmp_path, capsys, edit):
        """A traced run, and a copy of its trace with ``edit`` applied
        to the record list."""
        a = tmp_path / "a.jsonl"
        assert main([
            "run", travel_spec, *GZ_RUN, "--seed", "3", "--jitter", "0.5",
            "--trace", str(a),
        ]) == 0
        capsys.readouterr()
        records = read_jsonl(a)
        b = tmp_path / "b.jsonl"
        b.write_text(to_jsonl(edit(records)))
        return str(a), str(b)

    def test_messages_alone_differ(self, travel_spec, tmp_path, capsys):
        def fewer_announcements(records):
            return [
                r for r in records
                if not (r["cat"] == "message" and r.get("kind") == "announce")
            ]

        a, b = self._variant(
            travel_spec, tmp_path, capsys, fewer_announcements
        )
        assert main(["diff", a, b]) == 1
        capsys.readouterr()
        assert main(["diff", "--decisions", a, b]) == 0
        assert "identical" in capsys.readouterr().out

    def test_one_firing_differs(self, travel_spec, tmp_path, capsys):
        def later_firing(records):
            fired = next(
                r for r in records
                if r["cat"] == "actor" and r["op"] == "fired"
            )
            fired["t"] += 1.0
            return records

        a, b = self._variant(travel_spec, tmp_path, capsys, later_firing)
        assert main(["diff", "--decisions", a, b]) == 1
        out = capsys.readouterr().out
        assert "actor/fired" in out


class TestJitterFlag:
    def test_negative_jitter_exits_two(self, travel_spec, capsys):
        assert main(["run", travel_spec, "--jitter", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_jitter_with_shards_exits_two(self, travel_spec, capsys):
        assert main([
            "run", travel_spec, "--shards", "2", "--jitter", "0.5"
        ]) == 2
        assert "--jitter" in capsys.readouterr().err


class TestLatencyFlag:
    """A negative latency fails closed, as a negative jitter does:
    delivery used to be clamped to zero silently."""

    def test_negative_latency_exits_two(self, travel_spec, capsys):
        assert main([
            "run", travel_spec, "--attempt", "s_buy=0",
            "--attempt", "c_buy=5", "--latency", "-3",
        ]) == 2
        assert "--latency must be non-negative" in capsys.readouterr().err

    def test_negative_latency_with_shards_exits_two(self, travel_spec, capsys):
        assert main([
            "run", travel_spec, "--shards", "2", "--latency", "-1"
        ]) == 2
        assert "--latency" in capsys.readouterr().err

    def test_profile_rejects_a_negative_latency(self, travel_spec, capsys):
        assert main([
            "profile", travel_spec, "--attempt", "s_buy=0", "--latency", "-1"
        ]) == 2
        assert "--latency must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_latency_exits_two(self, travel_spec, capsys, value):
        """A NaN latency used to move every settlement to time 0 and an
        infinite one to crash the text report."""
        assert main([
            "run", travel_spec, "--attempt", "s_buy=0",
            "--attempt", "c_buy=5", "--latency", value,
        ]) == 2
        assert "--latency must be non-negative" in capsys.readouterr().err

    def test_profile_rejects_a_non_finite_latency(self, travel_spec, capsys):
        assert main([
            "profile", travel_spec, "--attempt", "s_buy=0",
            "--latency", "nan",
        ]) == 2
        assert "--latency must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_jitter_exits_two(self, travel_spec, capsys, value):
        assert main([
            "run", travel_spec, "--attempt", "s_buy=0", "--jitter", value,
        ]) == 2
        assert "--jitter must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--sample-every", "--sample-every must be positive"),
            ("--snapshot-every", "--snapshot-every must be positive"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_interval_exits_two(
        self, travel_spec, capsys, flag, message, value
    ):
        """A NaN snapshot interval used to be taken and give 0
        snapshots."""
        assert main([
            "run", travel_spec, "--attempt", "s_buy=0", flag, value,
        ]) == 2
        assert message in capsys.readouterr().err

    def test_zero_latency_runs(self, travel_spec, capsys):
        assert main([
            "run", travel_spec, "--attempt", "s_buy=0",
            "--attempt", "c_buy=5", "--latency", "0",
        ]) == 0
        capsys.readouterr()


class TestFlightRecordFlag:
    def test_window_trace_is_bounded_and_checkable(
        self, travel_spec, tmp_path, capsys
    ):
        path = tmp_path / "window.jsonl.gz"
        assert main([
            "run", travel_spec, *GZ_RUN,
            "--flight-record", "20", "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        from repro.obs.tracer import read_jsonl

        records = read_jsonl(str(path))
        assert len(records) == 21  # ring + window header
        assert records[0]["cat"] == "recorder"
        assert main(["trace", "check", str(path)]) == 0
        capsys.readouterr()

    def test_dropped_counters_reach_prometheus(
        self, travel_spec, tmp_path, capsys
    ):
        prom = tmp_path / "m.prom"
        assert main([
            "run", travel_spec, *GZ_RUN,
            "--flight-record", "10", "--prom", str(prom),
        ]) == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "repro_recorder_dropped_records_total" in text
        assert "repro_recorder_ring 10" in text
        assert main(["prom", "lint", str(prom)]) == 0
        capsys.readouterr()

    def test_unclean_run_dumps_the_window(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.recorder import FlightRecorder

        anomalies = []
        note_anomaly = FlightRecorder.note_anomaly

        def noted(recorder, reason):
            anomalies.append(reason)
            note_anomaly(recorder, reason)

        monkeypatch.setattr(FlightRecorder, "note_anomaly", noted)
        spec = tmp_path / "unsat.wf"
        spec.write_text(UNSAT_SPEC)
        dump = tmp_path / "dump.jsonl.gz"
        code = main([
            "run", str(spec), "--flight-record", "16",
            "--flight-dump", str(dump),
        ])
        err = capsys.readouterr().err
        assert code == 1                     # e . f is violated
        # the anomalies name the violation kinds and the terminal state
        assert anomalies == [
            "violation(s): 1 dependency",
            "run ended stuck: 2 unsettled base(s)",
        ]
        assert dump.exists()
        assert "flight recorder" in err
        assert main(["trace", "check", str(dump)]) == 0
        capsys.readouterr()

    def test_clean_run_never_dumps(self, travel_spec, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl.gz"
        assert main([
            "run", travel_spec, *GZ_RUN,
            "--flight-record", "16", "--flight-dump", str(dump),
        ]) == 0
        capsys.readouterr()
        assert not dump.exists()

    def test_flag_validations(self, travel_spec, capsys):
        assert main(["run", travel_spec, "--flight-record", "0"]) == 2
        assert main(["run", travel_spec, "--flight-dump", "x.jsonl"]) == 2
        assert main([
            "run", travel_spec, "--shards", "2",
            "--flight-record", "8", "--flight-dump", "x.jsonl",
        ]) == 2
        capsys.readouterr()

    def test_sharded_flight_record_window_merges(
        self, travel_spec, tmp_path, capsys
    ):
        path = tmp_path / "sharded.jsonl.gz"
        assert main([
            "run", travel_spec, *GZ_RUN, "--shards", "2", "--workers", "1",
            "--flight-record", "15", "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        from repro.obs.tracer import read_jsonl

        records = read_jsonl(str(path))
        headers = [r for r in records if r.get("cat") == "recorder"]
        assert len(headers) == 2             # one window header per shard
        assert main(["trace", "check", str(path)]) == 0
        capsys.readouterr()

    def test_sharded_flight_record_counts_the_triggers(
        self, travel_spec, capsys
    ):
        # each shard runs a flight recorder, so the merged recorder
        # section sums their anomaly and dump counts too
        assert main([
            "run", travel_spec, *GZ_RUN, "--shards", "2", "--workers", "1",
            "--flight-record", "15", "--json",
        ]) == 0
        recorder = json.loads(capsys.readouterr().out)["metrics"]["recorder"]
        assert recorder["ring"] == 30
        assert recorder["anomalies"] == recorder["dumps"] == 0


class TestRunSloGate:
    def _slo(self, tmp_path, doc):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_failing_slo_flips_exit_code(self, travel_spec, tmp_path, capsys):
        slo = self._slo(tmp_path, {"slos": [
            {"name": "impossible", "indicator": "makespan", "max": 0.001}
        ]})
        assert main(["run", travel_spec, *GZ_RUN, "--slo", slo]) == 1
        assert "SLO FAIL" in capsys.readouterr().err

    def test_passing_slo_keeps_zero(self, travel_spec, tmp_path, capsys):
        slo = self._slo(tmp_path, {"slos": [
            {"name": "sane", "indicator": "violations", "max": 0}
        ]})
        assert main(["run", travel_spec, *GZ_RUN, "--slo", slo]) == 0
        capsys.readouterr()

    def test_json_report_embeds_slo_results(
        self, travel_spec, tmp_path, capsys
    ):
        slo = self._slo(tmp_path, {"slos": [
            {"name": "sane", "indicator": "violations", "max": 0}
        ]})
        assert main([
            "run", travel_spec, *GZ_RUN, "--slo", slo, "--json"
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slo"]["ok"] is True
        assert doc["slo"]["results"][0]["name"] == "sane"

    def test_bad_slo_file_exits_two(self, travel_spec, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["run", travel_spec, "--slo", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "mode", [[], LONE_SHARD], ids=["single", "lone-shard"]
    )
    def test_exit_contract_single_and_lone_shard(
        self, mode, travel_spec, tmp_path, capsys
    ):
        """Both ``repro run`` commands end in one tail: 0 clean, 1 on a
        violation or a failing rule, 2 on an unusable rule file."""
        sane = self._slo(tmp_path, {"slos": [
            {"name": "sane", "indicator": "violations", "max": 0}
        ]})
        run = ["run", travel_spec, *mode]
        assert main([*run, *GZ_RUN, "--slo", sane]) == 0
        # left unsettled, the trace fails the dependencies it never
        # discharged: a violation outranks the stuck state
        assert main([*run, "--attempt", "c_buy=0", "--no-settle"]) == 1
        impossible = self._slo(tmp_path, {"slos": [
            {"name": "impossible", "indicator": "makespan", "max": 0.001}
        ]})
        assert main([*run, *GZ_RUN, "--slo", impossible]) == 1
        malformed = self._slo(tmp_path, {"slos": [{"name": "no indicator"}]})
        assert main([*run, *GZ_RUN, "--slo", malformed]) == 2
        capsys.readouterr()

    def test_single_and_lone_shard_reports_have_the_same_keys(
        self, travel_spec, capsys
    ):
        assert main(["run", travel_spec, *GZ_RUN, "--json"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert main(["run", travel_spec, *GZ_RUN, *LONE_SHARD, "--json"]) == 0
        lone = json.loads(capsys.readouterr().out)
        assert set(lone) - set(single) == {"sharding"}
        assert set(single) <= set(lone)


class TestRunsCommands:
    """The cross-run regression registry CLI."""

    def _record(self, travel_spec, runs_dir, seed, capsys, extra=()):
        code = main([
            "run", travel_spec, *GZ_RUN, "--seed", str(seed),
            "--jitter", "0.4", "--record", "--runs-dir", runs_dir, *extra,
        ])
        err = capsys.readouterr().err
        assert "recorded run" in err
        return code, err.split("recorded run ")[1].split()[0]

    def test_record_then_list_and_show(self, travel_spec, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        _, run_id = self._record(travel_spec, runs, 0, capsys)
        assert main(["runs", "list", "--dir", runs]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert main(["runs", "show", "--dir", runs, run_id[:6]]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == run_id
        assert "trace.jsonl.gz" in doc["files"]

    def test_identical_runs_deduplicate(self, travel_spec, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        _, id_a = self._record(travel_spec, runs, 5, capsys)
        _, id_b = self._record(travel_spec, runs, 5, capsys)
        assert id_a == id_b
        assert main(["runs", "list", "--dir", runs, "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_compare_stored_runs(self, travel_spec, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        _, id_a = self._record(travel_spec, runs, 0, capsys)
        _, id_b = self._record(travel_spec, runs, 7, capsys)
        assert main(["runs", "compare", "--dir", runs, id_a, id_b]) == 1
        assert "first divergence" in capsys.readouterr().out
        assert main(["runs", "compare", "--dir", runs, id_a, id_a]) == 0
        capsys.readouterr()

    def test_regress_exit_contract(self, travel_spec, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        self._record(travel_spec, runs, 0, capsys)
        # one run is not a trend
        assert main(["runs", "regress", "--dir", runs]) == 2
        assert "at least 2" in capsys.readouterr().err
        self._record(travel_spec, runs, 7, capsys)
        code = main([
            "runs", "regress", "--dir", runs, "--tolerance", "5.0"
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out

    def test_regress_json_and_indicator_subset(
        self, travel_spec, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        self._record(travel_spec, runs, 0, capsys)
        self._record(travel_spec, runs, 7, capsys)
        code = main([
            "runs", "regress", "--dir", runs, "--json",
            "--indicator", "messages", "--tolerance", "5.0",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert [r["indicator"] for r in doc["indicators"]] == ["messages"]

    def test_gc_keeps_newest(self, travel_spec, tmp_path, capsys):
        runs = str(tmp_path / "runs")
        for seed in (0, 1, 2):
            self._record(travel_spec, runs, seed, capsys)
        assert main(["runs", "gc", "--dir", runs, "--keep", "1"]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_show_unknown_exits_one(self, tmp_path, capsys):
        assert main([
            "runs", "show", "--dir", str(tmp_path / "none"), "cafecafe"
        ]) == 1
        capsys.readouterr()

    def test_sharded_record_carries_shard_rows(
        self, travel_spec, tmp_path, capsys
    ):
        runs = str(tmp_path / "runs")
        assert main([
            "run", travel_spec, *GZ_RUN, "--shards", "2", "--workers", "1",
            "--record", "--runs-dir", runs,
        ]) in (0, 1)
        err = capsys.readouterr().err
        run_id = err.split("recorded run ")[1].split()[0]
        assert main(["runs", "show", "--dir", runs, run_id]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["shards"]) == 2
        assert {row["shard"] for row in doc["shards"]} == {0, 1}


class TestFailsClosed:
    """Every command that loads a spec, and ``run``'s flag checks,
    exit 2 with one line on stderr, never a traceback (exit 1 is
    ``run``'s code for a violation)."""

    BAD_SPECS = {
        "malformed": "workflow bad\ndep a +\n",
        "unknown_flag": "workflow bad\ndep ~a + b\nattr a triggerable=maybe\n",
        "missing": None,
    }

    @pytest.mark.parametrize(
        "command", ["compile", "analyze", "graph", "run", "profile"]
    )
    @pytest.mark.parametrize("bad", sorted(BAD_SPECS))
    def test_bad_spec_exits_two(self, tmp_path, capsys, command, bad):
        path = tmp_path / "bad.wf"
        if self.BAD_SPECS[bad] is not None:
            path.write_text(self.BAD_SPECS[bad])
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{path}: unreadable spec: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize(
        "attempt", ["e=x", "e=-1", "e=nan", "zz=0", "~zz=0", "e .=0"]
    )
    def test_bad_attempt_exits_two(self, spec_file, capsys, command, attempt):
        assert main([command, spec_file, "--attempt", attempt]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad --attempt")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["guard", "a +", "e"], ["guard", "~a + e", "e +"],
        ["automaton", "a +"],
    ])
    def test_unparsable_expression_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "unparsable expression" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_expression_that_ends_early_says_so(self, capsys):
        assert main(["guard", "a +", "e"]) == 2
        assert capsys.readouterr().err == (
            "'a +': unparsable expression: unexpected end of input\n"
        )

    @pytest.mark.parametrize("command", ["profile", "query"])
    def test_negative_limit_exits_two(
        self, traced_run, spec_file, capsys, command
    ):
        # profile used to drop the last phase, query to show every record
        _, trace, _ = traced_run
        argv = (["profile", spec_file] if command == "profile"
                else ["trace", "query", trace])
        assert main([*argv, "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "--limit must be non-negative\n"
        assert captured.out == ""

    def test_profile_format_without_profile_out_exits_two(
        self, spec_file, capsys
    ):
        # used to exit 0 with the format silently ignored
        argv = ["run", spec_file, "--profile", "--profile-format", "json"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "--profile-format needs --profile-out\n"
        )

    def test_complement_attempt_is_in_the_spec(self, spec_file, capsys):
        assert main(["run", spec_file, "--attempt", "~e=0"]) == 0

    def test_sharded_attempt_names_a_template_event(
        self, travel_spec, capsys
    ):
        """Under ``--shards`` an attempt is template-level: a suffixed
        instance event is not in the template's alphabet."""
        for attempt in ("zz=0", "s_buy_i0=0"):
            code = main(
                ["run", travel_spec, "--shards", "1", "--attempt", attempt]
            )
            assert code == 2
            assert "is not in the spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--cross-dep", "~s_book_i0 + s_buy_i1"],
            ["--instances", "2"],
            ["--workers", "1"],
        ],
        ids=["cross-dep", "instances", "workers"],
    )
    def test_shard_flag_without_shards_exits_two(
        self, travel_spec, capsys, flags
    ):
        # used to exit 0 with the flag silently ignored
        assert main(["run", travel_spec, "--attempt", "s_buy=0", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{flags[0]} needs --shards\n"
        assert captured.out == ""

    def test_snapshot_out_without_cadence_exits_two(
        self, travel_spec, tmp_path, capsys
    ):
        # used to write [] and exit 0
        out = tmp_path / "snaps.json"
        argv = ["run", travel_spec, "--snapshot-out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "--snapshot-out needs --snapshot-every\n"
        )
        assert not out.exists()
