"""The flight recorder's bounded window and dump triggers
(repro.obs.recorder)."""

import random

import pytest

from repro.obs.check import check_records
from repro.obs.recorder import RECORDER_SITE, FlightRecorder
from repro.obs.tracer import Tracer, read_jsonl
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.faults import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_travel_booking

CRASH_PLAN = FaultPlan.of([SiteCrash("airline", at=1.0, restart_at=2.5)])


def run_with(tracer, seed=0, **kwargs):
    scenario = make_travel_booking()
    scheduler = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        tracer=tracer,
        **kwargs,
    )
    result = scheduler.run(scenario.scripts)
    return result, scheduler


class TestRingTracer:
    def test_ring_bounds_retained_records(self):
        tracer = FlightRecorder(16)
        run_with(tracer)
        stats = tracer.recorder_stats()
        assert stats["retained"] == 16
        assert stats["dropped_total"] > 0
        assert sum(stats["dropped"].values()) == stats["dropped_total"]
        assert len(tracer.records) == 16

    def test_ring_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_window_header_precedes_records(self):
        tracer = FlightRecorder(8)
        run_with(tracer)
        window = tracer.window_records()
        header = window[0]
        assert header["site"] == RECORDER_SITE
        assert header["cat"] == "recorder"
        assert header["op"] == "window"
        assert header["ring"] == 8
        assert len(window) == 9

    def test_window_passes_the_checker(self):
        tracer = FlightRecorder(24)
        run_with(tracer)
        assert check_records(tracer.window_records()) == []

    def test_unbounded_tracer_window_is_plain_records(self, tmp_path):
        tracer = Tracer()
        run_with(tracer)
        path = tmp_path / "trace.jsonl"
        tracer.dump(str(path))
        assert read_jsonl(str(path)) == tracer.records
        assert tracer.recorder_stats() is None

    def test_fault_records_pinned_by_default(self):
        tracer = FlightRecorder(4)
        run_with(tracer, fault_plan=CRASH_PLAN, reliable=True)
        cats = [r["cat"] for r in tracer.records]
        assert "fault" in cats
        assert "fault" not in tracer.recorder_stats()["dropped"]

    def test_dump_and_reload_roundtrip(self, tmp_path):
        tracer = FlightRecorder(12)
        run_with(tracer)
        path = tmp_path / "window.jsonl.gz"
        tracer.dump(str(path))
        records = read_jsonl(str(path))
        assert len(records) == 13
        assert records[0]["cat"] == "recorder"
        assert check_records(records) == []

    def test_memory_stays_constant_as_run_grows(self):
        small = FlightRecorder(10)
        run_with(small)
        total = small.recorder_stats()["dropped_total"] + 10
        assert total > 40      # the run emits far more than the ring
        assert len(small.records) == 10


class TestFlightRecorder:
    def test_clean_run_never_arms(self):
        recorder = FlightRecorder(ring=16)
        run_with(recorder)
        assert not recorder.armed
        assert recorder.flush("/nonexistent/never-written") is None
        assert recorder.recorder_stats()["dumps"] == 0

    def test_crash_arms_and_flush_dumps_once(self, tmp_path):
        recorder = FlightRecorder(
            ring=16, dump_path=str(tmp_path / "dump.jsonl.gz")
        )
        run_with(recorder, fault_plan=CRASH_PLAN, reliable=True)
        assert recorder.armed
        path = recorder.flush()
        assert path == str(tmp_path / "dump.jsonl.gz")
        assert not recorder.armed          # anomalies consumed
        assert recorder.flush() is None    # second flush is a no-op
        records = read_jsonl(path)
        assert records[0]["op"] == "window"
        assert check_records(records) == []
        stats = recorder.recorder_stats()
        assert stats["dumps"] == 1

    def test_note_anomaly_arms_without_a_crash(self, tmp_path):
        recorder = FlightRecorder(ring=8)
        run_with(recorder)
        recorder.note_anomaly("SLO failed: makespan")
        assert recorder.armed
        path = recorder.flush(str(tmp_path / "slo.jsonl"))
        assert path is not None
        assert read_jsonl(path)[0]["cat"] == "recorder"

    def test_armed_without_path_keeps_anomalies(self):
        recorder = FlightRecorder(ring=8)
        recorder.note_anomaly("x")
        assert recorder.flush() is None
        assert recorder.armed              # nothing consumed, no dump lost

    def test_stats_flow_into_metrics_report(self):
        recorder = FlightRecorder(ring=16)
        _, scheduler = run_with(recorder)
        report = scheduler.metrics_report()
        assert report["recorder"]["ring"] == 16
        assert report["recorder"]["dropped_total"] > 0
        assert report["recorder"]["anomalies"] == 0

    def test_prometheus_counters_present(self):
        from repro.obs.prom import lint_prometheus, render_prometheus

        recorder = FlightRecorder(ring=16)
        _, scheduler = run_with(recorder)
        text = render_prometheus(scheduler.metrics_report())
        assert "repro_recorder_dropped_records_total" in text
        assert 'cat="message"' in text
        assert "repro_recorder_ring 16" in text
        assert lint_prometheus(text) == []
