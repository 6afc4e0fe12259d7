"""The causal tracer: Lamport clocks, record envelopes, serialization."""

import gc
import json
import warnings

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer, read_jsonl


class TestClockDiscipline:
    def test_local_events_tick_per_site(self):
        t = Tracer()
        t.local(0.0, "a", "actor", "attempted")
        t.local(1.0, "a", "actor", "parked")
        t.local(0.5, "b", "actor", "attempted")
        stamps = {(r["site"], r["op"]): r["lc"] for r in t.records}
        assert stamps[("a", "attempted")] == 1
        assert stamps[("a", "parked")] == 2
        assert stamps[("b", "attempted")] == 1  # clocks are per site

    def test_receive_merges_sender_stamp(self):
        t = Tracer()
        # advance a's clock well past b's
        for _ in range(5):
            t.local(0.0, "a", "actor", "attempted")
        mid, lc = t.message_send(1.0, "a", "b", "announce")
        assert lc == 6
        t.message_recv(2.0, "a", "b", "announce", mid, lc)
        recv = t.records[-1]
        assert recv["lc"] == 7  # max(0, 6) + 1: merged, not just ticked
        assert recv["sent_lc"] == 6
        assert recv["mid"] == mid

    def test_monotone_per_site_under_reordered_delivery(self):
        """Receives land in a different order than the sends; every
        site's stamps stay strictly increasing and every receive
        exceeds its matching send."""
        t = Tracer()
        sends = [t.message_send(0.0, "a", f"dst{i}", "msg") for i in range(4)]
        # deliver in reverse order (the fabric is FIFO per channel, and
        # these are four different channels, so this is a legal schedule)
        for i, (mid, lc) in reversed(list(enumerate(sends))):
            t.message_recv(1.0, "a", f"dst{i}", "msg", mid, lc)
        per_site: dict = {}
        for record in t.records:
            previous = per_site.get(record["site"], 0)
            assert record["lc"] > previous
            per_site[record["site"]] = record["lc"]
        for record in t.records:
            if record["op"] == "recv":
                assert record["lc"] > record["sent_lc"]

    def test_message_ids_are_unique(self):
        t = Tracer()
        mids = {t.message_send(0.0, "a", "b", "msg")[0] for _ in range(10)}
        assert len(mids) == 10


class TestRecordEnvelope:
    def test_every_record_carries_the_envelope(self):
        t = Tracer()
        t.message_send(0.0, "a", "b", "announce")
        t.actor(0.0, "a", "e", "attempted")
        t.guard_eval(0.0, "a", "e", "G", "R", "park")
        t.round_event(0.0, "a", "e", "start", 1)
        t.crash(1.0, "a")
        t.sync(2.0, "a", "begin")
        t.monitor(2.0, "a", "trigger", event="e")
        t.session(2.0, "a", "retransmit", dst="b", kind="announce", seq=1)
        for record in t.records:
            for field in ("lc", "t", "site", "cat", "op"):
                assert field in record

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        mid, lc = t.message_send(0.0, "a", "b", "announce")
        t.message_recv(0.5, "a", "b", "announce", mid, lc)
        t.guard_eval(0.5, "b", "e", "guard-text", "residual", "fire")
        path = tmp_path / "trace.jsonl"
        t.dump(path)
        assert read_jsonl(path) == t.records
        # one JSON object per line
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_reading_a_gz_trace_leaves_no_open_handle(self, tmp_path):
        # regression: the magic-byte sniffing handle was wrapped in a
        # GzipFile that did not own it, so the raw file leaked (a
        # ResourceWarning at collection, an error under CI's -W error)
        t = Tracer()
        t.actor(0.0, "a", "e", "attempted")
        gz = tmp_path / "trace.jsonl.gz"
        t.dump(gz)
        bare = tmp_path / "renamed.jsonl"  # sniffed, not suffix-matched
        bare.write_bytes(gz.read_bytes())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert read_jsonl(gz) == t.records
            assert read_jsonl(bare) == t.records
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


class TestNullTracer:
    def test_inactive_and_shared(self):
        assert NULL_TRACER.active is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.records == []

    def test_all_hooks_are_noops(self):
        n = NullTracer()
        n.actor(0.0, "a", "e", "fired")
        n.round_event(0.0, "a", "e", "start", 1, targets=["f"])
        n.crash(0.0, "a")
        n.restart(1.0, "a")
        n.sync(0.0, "a", "begin")
        n.monitor(0.0, "a", "trigger", event="e")
        assert n.recorder_stats() is None
        assert n.records == []

    def test_hot_hooks_exist_on_the_recording_tracer_only(self):
        # their sites test ``active`` first; a stub would hide a site
        # that forgot to
        for hook in ("message_send", "message_recv", "message_drop",
                     "message_dup", "session", "guard_eval", "clock"):
            assert hasattr(Tracer, hook) and not hasattr(NullTracer, hook)

    def test_dump_refuses(self, tmp_path):
        with pytest.raises(ValueError):
            NullTracer().dump(tmp_path / "nothing.jsonl")
