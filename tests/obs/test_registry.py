"""The cross-run regression registry (repro.obs.registry)."""

import json
import random

import pytest

from repro.obs.registry import TREND_INDICATORS, RunRegistry
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.network import UniformLatency
from repro.workloads.scenarios import make_travel_booking


def run_report(seed: int, jitter: bool = True):
    """A ``run --json``-shaped report plus its trace records."""
    scenario = make_travel_booking()
    tracer = Tracer()
    latency = UniformLatency(0.5, 1.5) if jitter else None
    kwargs = {"latency": latency} if latency is not None else {}
    scheduler = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        tracer=tracer,
        **kwargs,
    )
    result = scheduler.run(scenario.scripts)
    report = {
        "ok": result.ok,
        "makespan": result.makespan,
        "messages": result.messages,
        "timeline": [
            {
                "event": repr(e.event),
                "time": e.time,
                "attempted_at": e.attempted_at,
                "outcome": e.outcome.value,
            }
            for e in result.entries
        ],
        "violations": [],
        "unsettled": [],
        "metrics": scheduler.metrics_report(),
    }
    return report, list(tracer.records)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(str(tmp_path / "runs"))


class TestStore:
    def test_store_writes_all_files(self, registry):
        report, records = run_report(0)
        meta = registry.store(
            report, records=records, config={"seed": 0},
            profile={"spans": []},
        )
        shown = registry.show(meta["id"])
        assert set(shown["files"]) == {
            "meta.json", "report.json", "trace.jsonl.gz", "profile.json"
        }
        assert shown["summary"]["trace_records"] == len(records)
        assert shown["config"] == {"seed": 0}
        assert shown["indicators"]["makespan"] == report["makespan"]

    def test_identical_content_dedups(self, registry):
        report, records = run_report(0)
        first = registry.store(report, records=records, config={"seed": 0})
        again = registry.store(report, records=records, config={"seed": 0})
        assert again["id"] == first["id"]
        assert again.get("deduplicated") is True
        assert len(registry.list_runs()) == 1

    def test_wall_clock_elapsed_does_not_change_the_id(self, registry):
        # two same-seed runs write the same trace (it holds no
        # wall-clock time), so they land on one id
        report_a, records_a = run_report(4)
        report_b, records_b = run_report(4)
        id_a = registry.store(report_a, records=records_a)["id"]
        id_b = registry.store(report_b, records=records_b)["id"]
        assert id_a == id_b

    def test_different_seeds_get_different_ids(self, registry):
        report_a, records_a = run_report(0)
        report_b, records_b = run_report(7)
        assert (
            registry.store(report_a, records=records_a)["id"]
            != registry.store(report_b, records=records_b)["id"]
        )

    def test_store_without_trace(self, registry):
        report, _ = run_report(0)
        meta = registry.store(report)
        assert "trace.jsonl.gz" not in registry.show(meta["id"])["files"]
        with pytest.raises(KeyError, match="no stored trace"):
            registry.load_trace(meta["id"])


class TestResolve:
    def test_by_prefix_and_name(self, registry):
        report, records = run_report(0)
        meta = registry.store(
            report, records=records, name="baseline"
        )
        assert registry.resolve(meta["id"][:6])["id"] == meta["id"]
        assert registry.resolve("baseline")["id"] == meta["id"]

    def test_unknown_raises(self, registry):
        with pytest.raises(KeyError, match="no stored run"):
            registry.resolve("deadbeef")

    def test_load_report_round_trips(self, registry):
        report, records = run_report(0)
        meta = registry.store(report, records=records)
        loaded = registry.load_report(meta["id"])
        assert loaded["makespan"] == report["makespan"]
        assert json.dumps(loaded)  # plain JSON, no surprises


class TestGc:
    def test_drops_oldest_beyond_keep(self, registry):
        ids = []
        for seed in range(4):
            report, records = run_report(seed)
            ids.append(registry.store(report, records=records)["id"])
        removed = registry.gc(keep=2)
        assert removed == ids[:2]
        assert [m["id"] for m in registry.list_runs()] == ids[2:]

    def test_negative_keep_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.gc(keep=-1)


class TestCompare:
    def test_same_seed_runs_compare_identical(self, registry):
        report_a, records_a = run_report(2)
        report_b, records_b = run_report(2)
        id_a = registry.store(report_a, records=records_a)["id"]
        # dedup would collapse them; store b under a forced name/config
        id_b = registry.store(
            report_b, records=records_b, config={"copy": True}
        )["id"]
        assert registry.compare(id_a, id_b).identical

    def test_divergent_runs_localize(self, registry):
        report_a, records_a = run_report(0)
        report_b, records_b = run_report(7)
        id_a = registry.store(report_a, records=records_a)["id"]
        id_b = registry.store(report_b, records=records_b)["id"]
        diff = registry.compare(id_a, id_b)
        assert not diff.identical
        assert diff.first is not None and diff.chain


class TestRegress:
    def test_needs_two_runs(self, registry):
        report, records = run_report(0)
        registry.store(report, records=records)
        with pytest.raises(ValueError, match="at least 2"):
            registry.regress()

    def test_stable_history_passes(self, registry):
        for seed in (0, 1):
            report, records = run_report(seed, jitter=False)
            registry.store(report, records=records, config={"seed": seed})
        outcome = registry.regress()
        assert not outcome["regressed"]
        names = {row["indicator"] for row in outcome["indicators"]}
        assert names == set(TREND_INDICATORS)

    def test_inflated_latest_run_regresses(self, registry):
        report, records = run_report(0, jitter=False)
        registry.store(report, records=records, config={"n": 1})
        slow = json.loads(json.dumps(report))
        slow["makespan"] = report["makespan"] * 2
        registry.store(slow, config={"n": 2})
        outcome = registry.regress()
        assert outcome["regressed"]
        failed = [r for r in outcome["indicators"] if not r["ok"]]
        assert any(r["indicator"] == "makespan" for r in failed)

    def test_tolerance_allows_slack(self, registry):
        report, records = run_report(0, jitter=False)
        registry.store(report, records=records, config={"n": 1})
        slightly = json.loads(json.dumps(report))
        slightly["makespan"] = report["makespan"] * 1.05
        registry.store(slightly, config={"n": 2})
        assert not registry.regress(tolerance=0.10)["regressed"]
        assert registry.regress(tolerance=0.01)["regressed"]

    def test_unknown_indicator_rejected(self, registry):
        for seed in (0, 1):
            report, records = run_report(seed)
            registry.store(report, records=records, config={"seed": seed})
        with pytest.raises(ValueError, match="unknown indicator"):
            registry.regress(indicators=["bogus"])

    def test_slo_doc_gates_the_latest_run(self, registry):
        for seed in (0, 1):
            report, records = run_report(seed, jitter=False)
            registry.store(report, records=records, config={"seed": seed})
        strict = {"slos": [
            {"name": "impossible", "indicator": "makespan", "max": 0.001}
        ]}
        outcome = registry.regress(slo_doc=strict)
        assert outcome["regressed"]
        assert any(not rule["ok"] for rule in outcome["slo"])
