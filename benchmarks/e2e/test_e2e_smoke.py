"""Smoke test of the end-to-end benchmark at small sizes.

Collected by the CI step ``pytest benchmarks``; not part of tier-1.
Checks that every workload runs and passes its own output checks,
that the metric names the runner prints are exactly those declared in
``BENCHMARK.json``, and that a broken result is counted as failed and
turns the exit code non-zero.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.harness import Spans, attributed_share
from benchmarks.e2e.workloads import WORKLOADS, run_pipeline

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: sizes that keep a whole run (probes at N/4 included) to a second or two
SMALL = {
    "travel_clean": 8,
    "travel_chaos": 8,
    "mutex_merged": 8,
    "mutex_sharded": 16,
    "fanin_parked": 16,
}


@pytest.fixture
def small(monkeypatch):
    for name, size in SMALL.items():
        monkeypatch.setattr(WORKLOADS[name], "size", size)
        monkeypatch.setattr(WORKLOADS[name], "iterations", 3)


def last_json(capfd) -> dict:
    return json.loads(capfd.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_passes_its_own_checks(name):
    workload = WORKLOADS[name]
    observation = run_pipeline(workload, SMALL[name], 7, Spans(), workers=1)
    assert observation["failed"] == 0
    assert observation["instances"] == workload.instances(SMALL[name])
    assert observation["settled"] > 0
    assert attributed_share(observation["spans"]) >= 0.95


def test_declared_names_and_limits():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    end_to_end, per_layer = DECLARED["end_to_end"], DECLARED["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert len(set(names)) == len(names)
    for metric in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric)
    assert "setup_s" in names
    assert all(0 <= metric["bound"] <= 0.25 for metric in end_to_end)
    assert DECLARED["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_printed_metrics_are_the_declared_ones(name, small, capfd, tmp_path):
    assert run.main(["--workload", name, "--seed", "3"]) == 0
    untraced = last_json(capfd)
    assert untraced["correct"] and untraced["failed"] == 0
    assert list(untraced["metrics"]) == [
        metric["name"] for metric in DECLARED["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    assert run.main(
        ["--workload", name, "--seed", "3", "--trace", "--out", str(tmp_path)]
    ) == 0
    traced = last_json(capfd)
    assert traced["correct"]
    assert list(traced["metrics"]) == [
        metric["name"] for metric in DECLARED["per_layer"]
    ]
    spans = json.loads(
        (tmp_path / f"spans-{name}-seed3.json").read_text()
    )["spans"]
    assert {"iteration", "workloads.generate"} <= {s["name"] for s in spans}


def test_broken_result_fails_the_run(small, monkeypatch, capfd):
    workload = WORKLOADS["travel_clean"]
    schedule = workload.schedule

    def lose_one_entry(spec, ready, spans):
        result = schedule(spec, ready, spans)
        del result.entries[0]
        return result

    monkeypatch.setattr(workload, "schedule", lose_one_entry)
    assert run.main(["--workload", "travel_clean", "--seed", "3"]) != 0
    out = capfd.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    share = re.search(r"^failed_share\s+(\S+)", out, re.MULTILINE)
    assert float(share.group(1)) > 0
