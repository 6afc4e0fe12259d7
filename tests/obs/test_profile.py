"""The span-based phase profiler (repro.obs.profile)."""

import io
import json
import random

import pytest

from repro.obs.profile import (
    Profiler,
    dump,
    format_report,
    merge_profiles,
    span,
    to_chrome,
    to_collapsed,
)
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.workloads.scenarios import make_mutex_family, make_travel_booking


class TestSpan:
    def test_without_a_profiler_it_only_runs_the_body(self):
        ran = []
        with span(None, "anything", site="s", event="e"):
            ran.append(1)
        assert ran == [1]

    def test_with_a_profiler_the_body_is_one_span(self):
        prof = Profiler()
        with span(prof, "outer", site="s"):
            with span(prof, "inner"):
                pass
        phases = prof.report()["phases"]
        assert sorted(phases) == ["outer", "outer/inner"]
        assert phases["outer"]["calls"] == 1

    def test_the_span_closes_when_the_body_raises(self):
        prof = Profiler()
        with pytest.raises(KeyError):
            with span(prof, "failing"):
                raise KeyError("boom")
        assert prof.report()["phases"]["failing"]["calls"] == 1


class TestProfiler:
    def test_nesting_builds_paths(self):
        prof = Profiler()
        prof.push("delivery")
        prof.push("watch_wake")
        prof.push("cube_ops")
        prof.pop()
        prof.pop()
        prof.pop()
        report = prof.report()
        assert set(report["phases"]) == {
            "delivery",
            "delivery/watch_wake",
            "delivery/watch_wake/cube_ops",
        }

    def test_self_plus_children_equals_cumulative(self):
        prof = Profiler()
        prof.push("outer")
        prof.push("inner")
        prof.pop()
        prof.push("inner")
        prof.pop()
        prof.pop()
        report = prof.report()
        outer = report["phases"]["outer"]
        inner = report["phases"]["outer/inner"]
        assert inner["calls"] == 2
        assert outer["calls"] == 1
        assert outer["cum_seconds"] >= outer["self_seconds"]
        assert outer["self_seconds"] == pytest.approx(
            outer["cum_seconds"] - inner["cum_seconds"]
        )

    def test_by_site_and_event_use_leaf_phase(self):
        prof = Profiler()
        prof.push("delivery", site="s1")
        prof.push("guard_eval", site="s1", event="e")
        prof.pop()
        prof.pop()
        report = prof.report()
        # tables key phase -> label, attributing SELF time
        assert set(report["by_site"]) == {"delivery", "guard_eval"}
        assert set(report["by_site"]["guard_eval"]) == {"s1"}
        assert set(report["by_event"]) == {"guard_eval"}
        assert set(report["by_event"]["guard_eval"]) == {"e"}

    def test_report_with_open_span_raises(self):
        prof = Profiler()
        prof.push("open")
        with pytest.raises(RuntimeError, match="open"):
            prof.report()
        prof.pop()
        assert "open" in prof.report()["phases"]

    def test_pop_without_push_raises(self):
        with pytest.raises(IndexError):
            Profiler().pop()


def _sample_report():
    prof = Profiler()
    prof.push("a", site="s0")
    prof.push("b", site="s0", event="e")
    prof.pop()
    prof.pop()
    prof.push("a", site="s1")
    prof.pop()
    return prof.report()


class TestExporters:
    def test_collapsed_lines(self):
        lines = to_collapsed(_sample_report()).splitlines()
        assert len(lines) == 2
        stacks = {line.rsplit(" ", 1)[0] for line in lines}
        assert stacks == {"a", "a;b"}
        for line in lines:
            int(line.rsplit(" ", 1)[1])  # self time in integer usec

    def test_chrome_events_nest(self):
        chrome = to_chrome(_sample_report())
        events = chrome["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        by_name = {e["name"]: e for e in events}
        parent, child = by_name["a"], by_name["b"]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_format_report_sorted_and_limited(self):
        text = format_report(_sample_report())
        assert "phase" in text.splitlines()[0]
        assert "a/b" in text
        limited = format_report(_sample_report(), limit=1)
        assert "a/b" not in limited

    @pytest.mark.parametrize("fmt", ["collapsed", "chrome", "json", "text"])
    def test_dump_formats(self, fmt):
        buffer = io.StringIO()
        dump(_sample_report(), buffer, fmt)
        text = buffer.getvalue()
        assert text
        if fmt in ("chrome", "json"):
            json.loads(text)

    def test_dump_unknown_format_raises(self):
        with pytest.raises(ValueError):
            dump(_sample_report(), io.StringIO(), "svg")


class TestMergeProfiles:
    def test_sums_calls_and_times(self):
        a, b = _sample_report(), _sample_report()
        merged = merge_profiles([a, b])
        for path, node in merged["phases"].items():
            assert node["calls"] == (
                a["phases"][path]["calls"] + b["phases"][path]["calls"]
            )
            assert node["self_seconds"] == pytest.approx(
                a["phases"][path]["self_seconds"]
                + b["phases"][path]["self_seconds"]
            )

    def test_sums_site_and_event_tables(self):
        a, b = _sample_report(), _sample_report()
        merged = merge_profiles([a, b])
        assert merged["by_site"]["b"]["s0"] == pytest.approx(
            a["by_site"]["b"]["s0"] + b["by_site"]["b"]["s0"]
        )
        assert merged["by_event"]["b"]["e"] == pytest.approx(
            a["by_event"]["b"]["e"] + b["by_event"]["b"]["e"]
        )

    def test_empty_and_single(self):
        assert merge_profiles([])["phases"] == {}
        one = _sample_report()
        assert merge_profiles([one])["phases"] == one["phases"]


class TestVerifySpan:
    """Post-run dependency checking is an attributed phase."""

    @pytest.mark.parametrize(
        "scheduler_cls",
        [DistributedScheduler, CentralizedScheduler],
    )
    def test_profiled_run_attributes_verify_and_default_does_not(
        self, scheduler_cls
    ):
        scenario = make_travel_booking("success")

        def build(**observe):
            return scheduler_cls(
                scenario.workflow.dependencies,
                sites=scenario.workflow.sites,
                attributes=scenario.workflow.attributes,
                rng=random.Random(3),
                **observe,
            )

        profiler = Profiler()
        profiled = build(profiler=profiler).run(scenario.scripts)
        node = profiler.report()["phases"]["verify"]
        assert node["calls"] == 1 and node["cum_seconds"] >= 0.0

        unverified = Profiler()
        build(profiler=unverified).run(scenario.scripts, verify=False)
        assert "verify" not in unverified.report()["phases"]

        plain_sched = build()
        plain = plain_sched.run(scenario.scripts)
        assert plain_sched.profiler is None
        assert repr(plain.trace) == repr(profiled.trace)

    def test_group_spanning_check_lands_in_the_merged_shard_profile(self):
        family = make_mutex_family(4, cluster=2)
        instances = [
            instance_spec(suffix, scripts)
            for suffix, scripts in family.instances
        ]
        tasks = plan_shards(
            family.template, instances, 2, seed=7, profile=True,
            cross_deps=family.cross_dependencies,  # a cluster per shard
        )
        assert len(tasks) == 2
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        per_shard = [
            outcome.profile["phases"]["verify"]["calls"]
            for outcome in sharded.outcomes
        ]
        # cross dependencies are verified with the shard's own: one
        # verify span per shard, no separate group check
        assert per_shard == [1] * len(tasks)
        assert sharded.profile["phases"]["verify"]["calls"] == len(tasks)
        # a shard carrying cross dependencies synthesizes its table in
        # the scheduler, under the profiler like any other synthesis
        assert "synthesis" in sharded.profile["phases"]
