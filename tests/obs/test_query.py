"""Offline trace analytics and SLO evaluation (repro.obs.query)."""

import random

import pytest

from repro.obs.query import (
    KNOWN_INDICATORS,
    attempt_to_fire,
    critical_path,
    evaluate_slos,
    filter_records,
    histogram_cross_check,
    latency_summary,
    percentile,
)
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workloads.scenarios import make_travel_booking


def _traced_run():
    scenario = make_travel_booking()
    tracer = Tracer()
    scheduler = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(11),
        tracer=tracer,
    )
    result = scheduler.run(scenario.scripts)
    return result, tracer.records, scheduler.metrics_report()


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestFilterRecords:
    def test_event_matches_base_and_negation(self):
        records = [
            {"cat": "actor", "op": "fired", "event": "e", "t": 1.0},
            {"cat": "actor", "op": "fired", "event": "~e", "t": 2.0},
            {"cat": "actor", "op": "fired", "event": "f", "t": 3.0},
        ]
        assert len(filter_records(records, event="e")) == 2
        assert len(filter_records(records, event="~e")) == 2
        assert len(filter_records(records, event="f")) == 1

    def test_site_matches_src_and_dst(self):
        records = [
            {"cat": "message", "op": "send", "src": "a", "dst": "b",
             "site": "a", "t": 0.0},
            {"cat": "actor", "op": "parked", "site": "c", "t": 1.0},
        ]
        assert len(filter_records(records, site="b")) == 1
        assert len(filter_records(records, site="c")) == 1

    def test_time_window_inclusive(self):
        records = [{"t": t} for t in (0.0, 1.0, 2.0, 3.0)]
        window = filter_records(records, since=1.0, until=2.0)
        assert [r["t"] for r in window] == [1.0, 2.0]

    def test_conjunction_of_filters(self, traced):
        _, records, _ = traced
        got = filter_records(records, cat="message", op="send")
        assert got
        assert all(
            r["cat"] == "message" and r["op"] == "send" for r in got
        )


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_empty_is_none(self):
        assert percentile([], 99) is None


class TestAttemptToFire:
    def test_pairs_latest_attempt(self):
        records = [
            {"cat": "actor", "op": "attempted", "event": "e", "t": 0.0},
            {"cat": "actor", "op": "attempted", "event": "e", "t": 4.0},
            {"cat": "actor", "op": "fired", "event": "e", "t": 5.0,
             "site": "s"},
        ]
        fires = attempt_to_fire(records)["e"]
        assert fires == [{
            "latency": 1.0, "attempted_at": 4.0, "fired_at": 5.0,
            "site": "s",
        }]

    def test_truncated_trace_falls_back_to_waited(self):
        records = [
            {"cat": "actor", "op": "fired", "event": "e", "t": 5.0,
             "site": "s", "waited": 2.0},
        ]
        assert attempt_to_fire(records)["e"][0]["latency"] == 2.0

    def test_fired_without_attempt_or_waited_skipped(self):
        records = [
            {"cat": "actor", "op": "fired", "event": "e", "t": 5.0},
        ]
        assert attempt_to_fire(records) == {}

    def test_latency_summary_stats(self):
        records = []
        for i, wait in enumerate((1.0, 3.0, 2.0)):
            records.append({
                "cat": "actor", "op": "attempted", "event": "e",
                "t": float(i * 10),
            })
            records.append({
                "cat": "actor", "op": "fired", "event": "e",
                "t": i * 10 + wait, "site": "s",
            })
        stats = latency_summary(records)["e"]
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["p50"] == 2.0
        assert stats["p99"] == 3.0
        assert stats["max"] == 3.0


class TestHistogramCrossCheck:
    def test_real_run_agrees_exactly(self, traced):
        _, records, metrics = traced
        assert histogram_cross_check(records, metrics) == []

    def test_detects_divergence(self, traced):
        _, records, metrics = traced
        import copy

        broken = copy.deepcopy(metrics)
        sites = broken["histograms"]["time_to_allow"]["sites"]
        site = next(iter(sites))
        sites[site]["sum"] += 1.0
        problems = histogram_cross_check(records, broken)
        assert problems and "sum" in problems[0]

    def test_detects_a_misplaced_attempt_record(self, traced):
        # the latencies pair each fired record with its attempted
        # record, not with the wait the histogram observed, so a wrong
        # attempt time shows
        _, records, metrics = traced
        import copy

        broken = copy.deepcopy(records)
        fired = {r["event"] for r in broken if r.get("op") == "fired"}
        attempt = next(
            r for r in broken
            if r.get("op") == "attempted" and r["event"] in fired
        )
        attempt["t"] -= 0.5
        problems = histogram_cross_check(broken, metrics)
        assert any("sum" in problem for problem in problems)

    def test_empty_trace_with_no_histogram_is_clean(self):
        assert histogram_cross_check([], {}) == []

    def test_fires_without_histogram_flagged(self):
        records = [
            {"cat": "actor", "op": "attempted", "event": "e", "t": 0.0},
            {"cat": "actor", "op": "fired", "event": "e", "t": 1.0,
             "site": "s"},
        ]
        problems = histogram_cross_check(records, {})
        assert problems == [
            "trace has fires but metrics lack a time_to_allow histogram"
        ]


class TestCriticalPath:
    def test_nothing_fired_is_empty(self):
        assert critical_path([]) == []
        assert critical_path(
            [{"cat": "actor", "op": "parked", "event": "e", "t": 0.0,
              "site": "s"}]
        ) == []

    def test_crosses_message_edges(self):
        records = [
            {"cat": "actor", "op": "attempted", "event": "e", "t": 0.0,
             "site": "a"},
            {"cat": "message", "op": "send", "kind": "announce", "mid": 1,
             "src": "a", "dst": "b", "site": "a", "t": 0.0},
            {"cat": "message", "op": "recv", "kind": "announce", "mid": 1,
             "src": "a", "dst": "b", "site": "b", "t": 1.0},
            {"cat": "actor", "op": "fired", "event": "f", "t": 1.0,
             "site": "b"},
        ]
        segments = critical_path(records)
        assert [s["site"] for s in segments] == ["a", "b"]
        assert segments[0]["via_kind"] is None
        assert segments[1]["via_kind"] == "announce"
        assert segments[1]["via_mid"] == 1
        assert segments[0]["records"] == 2
        assert segments[1]["records"] == 2

    def test_real_run_path_ends_at_last_firing(self, traced):
        result, records, _ = traced
        segments = critical_path(records)
        assert segments
        last_fired = max(
            r["t"] for r in records
            if r.get("cat") == "actor" and r.get("op") == "fired"
        )
        assert segments[-1]["to_t"] == last_fired <= result.makespan
        times = [s["from_t"] for s in segments]
        assert times == sorted(times)

    def test_event_selects_specific_firing(self, traced):
        _, records, _ = traced
        fired = [
            r for r in records
            if r.get("cat") == "actor" and r.get("op") == "fired"
        ]
        first = fired[0]["event"]
        segments = critical_path(records, event=first)
        assert segments[-1]["to_t"] <= fired[-1]["t"]


def _report(**overrides):
    report = {
        "makespan": 9.0,
        "messages": 12,
        "timeline": [
            {"event": "e", "time": 5.0, "attempted_at": 1.0,
             "outcome": "accepted"},
            {"event": "f", "time": 7.0, "attempted_at": 6.0,
             "outcome": "accepted"},
            {"event": "g", "time": 8.0, "attempted_at": 8.0,
             "outcome": "rejected"},
        ],
        "violations": [],
        "unsettled": [],
        "metrics": {
            "network": {"messages": 12, "retransmits": 3,
                        "by_kind": {"announce": 4}},
            "counters": {"guard_evals": {"total": 8}},
        },
    }
    report.update(overrides)
    return report


class TestEvaluateSlos:
    def test_latency_indicators_from_timeline(self):
        rules = {"slos": [
            {"indicator": "p99_attempt_to_fire", "max": 4.0},
            {"indicator": "mean_attempt_to_fire", "max": 3.0},
            {"indicator": "max_attempt_to_fire", "max": 4.0},
        ]}
        results = evaluate_slos(_report(), rules)
        assert [r["ok"] for r in results] == [True, True, True]
        assert results[0]["value"] == 4.0
        assert results[1]["value"] == pytest.approx(2.5)

    def test_rate_indicators(self):
        rules = {"slos": [
            {"indicator": "retransmit_rate", "max": 0.3},
            {"indicator": "guard_evals_per_announcement", "max": 2.0},
        ]}
        results = evaluate_slos(_report(), rules)
        assert results[0]["value"] == pytest.approx(0.25)
        assert results[1]["value"] == pytest.approx(2.0)
        assert all(r["ok"] for r in results)

    def test_guard_evals_falls_back_to_watch_wakes(self):
        report = _report()
        del report["metrics"]["counters"]
        report["metrics"]["kernel"] = {"watch": {"wakes": 4}}
        results = evaluate_slos(report, {"slos": [
            {"indicator": "guard_evals_per_announcement", "max": 1.0},
        ]})
        assert results[0]["value"] == pytest.approx(1.0)

    def test_no_data_fails_closed(self):
        empty = {"timeline": [], "metrics": {}}
        results = evaluate_slos(empty, {"slos": [
            {"indicator": "p99_attempt_to_fire", "max": 100.0},
        ]})
        assert results[0]["ok"] is False
        assert results[0]["detail"] == "no data"

    def test_min_bound_and_dotted_path(self):
        results = evaluate_slos(_report(), {"slos": [
            {"indicator": "fired", "min": 1},
            {"path": "metrics.network.retransmits", "max": 2,
             "name": "few retransmits"},
        ]})
        assert results[0]["ok"] is True
        assert results[0]["value"] == 2  # accepted entries only
        assert results[1]["ok"] is False
        assert results[1]["name"] == "few retransmits"

    def test_counting_indicators(self):
        results = evaluate_slos(_report(), {"slos": [
            {"indicator": "violations", "max": 0},
            {"indicator": "unsettled", "max": 0},
            {"indicator": "makespan", "max": 10.0},
            {"indicator": "messages", "max": 20},
        ]})
        assert all(r["ok"] for r in results)

    @pytest.mark.parametrize("doc", [
        {},
        {"slos": []},
        {"slos": [{"max": 1}]},
        {"slos": [{"indicator": "makespan", "path": "x", "max": 1}]},
        {"slos": [{"indicator": "nope", "max": 1}]},
        {"slos": [{"indicator": "makespan"}]},
    ])
    def test_malformed_documents_raise(self, doc):
        with pytest.raises(ValueError):
            evaluate_slos(_report(), doc)

    def test_known_indicators_all_computable_on_full_report(self):
        rules = {"slos": [
            {"indicator": name, "min": -1e9} for name in KNOWN_INDICATORS
        ]}
        results = evaluate_slos(_report(), rules)
        assert all(r["value"] is not None for r in results)
