"""Causal trace diffing and divergence localization (repro.obs.diff)."""

import gzip
import json
import random

import pytest

from repro.obs.diff import (
    VOLATILE_FIELDS,
    canonical,
    diff_files,
    diff_traces,
)
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.network import UniformLatency
from repro.workloads.scenarios import make_travel_booking


def traced_run(seed: int):
    """One jittered travel-booking run; jitter makes the seed visible."""
    scenario = make_travel_booking()
    tracer = Tracer()
    scheduler = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        latency=UniformLatency(0.5, 1.5),
        rng=random.Random(seed),
        tracer=tracer,
    )
    scheduler.run(scenario.scripts)
    return list(tracer.records)


def actor(site, event, op, t, lc=1):
    return {"lc": lc, "t": t, "site": site, "cat": "actor",
            "op": op, "event": event}


def guard(site, event, verdict, t, lc=1):
    return {"lc": lc, "t": t, "site": site, "cat": "guard", "op": "eval",
            "event": event, "guard": "g", "residual": "r",
            "verdict": verdict, "elapsed": 0.001}


def msg(site, op, kind, t, mid=1, lc=1, src="a", dst="b"):
    return {"lc": lc, "t": t, "site": site, "cat": "message", "op": op,
            "kind": kind, "mid": mid, "src": src, "dst": dst}


class TestCanonical:
    def test_drops_exactly_the_volatile_fields(self):
        record = msg("a", "send", "announce", 1.0)
        record["elapsed"] = 0.5
        record["sent_lc"] = 3
        kept = canonical(record)
        assert set(record) - set(kept) == set(VOLATILE_FIELDS & set(record))
        assert "t" in kept and "site" in kept and "kind" in kept


class TestIdentical:
    def test_same_records_are_identical(self):
        records = [actor("a", "e", "fired", 1.0)]
        diff = diff_traces(records, [dict(records[0])])
        assert diff.identical and diff.first is None
        assert "identical" in diff.summary()

    def test_volatile_fields_are_ignored(self):
        a = guard("a", "e", "fire", 1.0)
        b = dict(a, lc=99, elapsed=123.0)
        assert diff_traces([a], [b]).identical

    def test_same_seed_real_runs_diff_clean(self):
        # a trace is a pure function of the run: same seed, same records
        a, b = traced_run(3), traced_run(3)
        assert a == b
        assert diff_traces(a, b).identical

    def test_empty_traces_are_identical(self):
        assert diff_traces([], []).identical

    def test_recorder_header_is_skipped(self):
        header = {"lc": 1, "t": 0.0, "site": "@recorder",
                  "cat": "recorder", "op": "window", "ring": 4}
        body = actor("a", "e", "fired", 1.0)
        diff = diff_traces([header, body], [dict(body)])
        assert diff.identical


class TestClassification:
    def test_guard_verdict_flip(self):
        a = [guard("a", "e", "fire", 1.0)]
        b = [guard("a", "e", "park", 1.0)]
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.first.kind == "guard_verdict_flip"
        assert diff.first.event == "e"
        assert diff.first.site == "a"

    def test_retiming_is_rng_drift(self):
        a = [msg("a", "recv", "announce", 1.0)]
        b = [msg("a", "recv", "announce", 1.7)]
        diff = diff_traces(a, b)
        assert diff.first.kind == "rng_drift"
        assert "seed" in diff.first.detail

    def test_crash_schedule_mismatch(self):
        common = actor("a", "e", "attempted", 0.0)
        fault = {"lc": 2, "t": 1.0, "site": "a", "cat": "fault",
                 "op": "crash"}
        diff = diff_traces([common, fault], [dict(common)])
        assert diff.first.kind == "crash_schedule_mismatch"

    def test_message_reorder_swapped_pair(self):
        first = msg("a", "recv", "announce", 1.0, mid=1)
        second = msg("a", "recv", "release", 2.0, mid=2)
        # same two deliveries, opposite order, times swapped with them
        a = [first, second]
        b = [dict(second, t=1.0), dict(first, t=2.0)]
        # strip t so the swapped pair is recognizable as a pure reorder
        for r in a + b:
            r["t"] = 1.0
        diff = diff_traces(a, b)
        assert diff.first.kind == "message_reorder"

    def test_drop_vs_delivery_is_rng_drift(self):
        a = [msg("a", "recv", "announce", 1.0)]
        b = [msg("a", "drop", "announce", 1.0)]
        assert diff_traces(a, b).first.kind == "rng_drift"

    def test_settlement_mismatch(self):
        a = [actor("a", "e", "fired", 1.0)]
        b = [actor("a", "e", "dead", 1.0)]
        diff = diff_traces(a, b)
        assert diff.first.kind == "settlement_mismatch"

    def test_one_stream_ending_early_is_localized(self):
        a = [actor("a", "e", "attempted", 0.0), actor("a", "e", "fired", 1.0)]
        b = [dict(a[0])]
        diff = diff_traces(a, b)
        assert diff.first.kind == "settlement_mismatch"
        assert diff.first.position == 1
        assert diff.first.record_b is None


class TestLocalization:
    def test_first_divergence_is_earliest_by_time(self):
        a = [actor("x", "e", "fired", 5.0), actor("y", "f", "fired", 1.0)]
        b = [actor("x", "e", "dead", 5.0), actor("y", "f", "dead", 1.0)]
        diff = diff_traces(a, b)
        assert len(diff.divergences) == 2
        assert diff.first.site == "y"
        assert diff.first.t == 1.0

    def test_root_cause_chain_crosses_message_edges(self):
        # site a sends; site b receives then decides differently
        send = msg("a", "send", "announce", 0.0, mid=7, src="a", dst="b")
        recv = dict(msg("b", "recv", "announce", 1.0, mid=7, src="a",
                        dst="b"), sent_lc=1)
        a_rec = [send, recv, guard("b", "e", "fire", 1.0)]
        b_rec = [dict(send), dict(recv), guard("b", "e", "park", 1.0)]
        diff = diff_traces(a_rec, b_rec)
        assert diff.first.kind == "guard_verdict_flip"
        sites = [seg["site"] for seg in diff.chain]
        assert sites == ["a", "b"]
        assert diff.chain[1]["via_kind"] == "announce"
        assert "root-cause chain" in diff.summary()

    def test_real_divergent_runs_localize(self):
        diff = diff_traces(traced_run(0), traced_run(7))
        assert not diff.identical
        assert diff.first.site in ("airline", "car_rental", "hotel")
        assert diff.first.kind in ("rng_drift", "message_reorder",
                                   "settlement_mismatch", "state_mismatch")
        assert diff.chain, "divergence must come with a root-cause chain"

    def test_as_dict_round_trips_through_json(self):
        diff = diff_traces(traced_run(0), traced_run(7))
        doc = json.loads(json.dumps(diff.as_dict()))
        assert doc["identical"] is False
        assert doc["first"]["site"] == diff.first.site
        assert doc["records_a"] == diff.records_a


class TestUnusable:
    def test_record_without_site_raises(self):
        with pytest.raises(ValueError, match="no site"):
            diff_traces([{"t": 1.0, "cat": "actor", "op": "fired"}], [])


class TestDiffFiles:
    def test_gzip_transparent(self, tmp_path):
        records = traced_run(5)
        plain = tmp_path / "a.jsonl"
        packed = tmp_path / "b.jsonl.gz"
        plain.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        with gzip.open(packed, "wt", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        diff = diff_files(str(plain), str(packed))
        assert diff.identical
        assert diff.records_a == len(records)

    def test_missing_file_raises_oserror(self, tmp_path):
        good = tmp_path / "a.jsonl"
        good.write_text(json.dumps(actor("a", "e", "fired", 1.0)) + "\n")
        with pytest.raises(OSError):
            diff_files(str(good), str(tmp_path / "nope.jsonl"))
