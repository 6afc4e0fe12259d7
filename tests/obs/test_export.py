"""Chrome trace export: format shape, flows, spans, round-trip."""

import json

from repro.obs import Tracer, read_jsonl, to_chrome


def _traced_exchange():
    t = Tracer()
    mid, lc = t.message_send(1.0, "a", "b", "announce")
    t.message_recv(2.0, "a", "b", "announce", mid, lc)
    t.guard_eval(2.0, "b", "f", "G", "R", "fire")
    t.actor(2.0, "b", "f", "fired")
    t.crash(3.0, "b")
    t.restart(5.0, "b")
    return t


class TestChromeFormat:
    def test_top_level_shape(self):
        chrome = to_chrome(_traced_exchange().records)
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        json.dumps(chrome)  # valid JSON all the way down

    def test_one_process_per_site_with_names(self):
        events = to_chrome(_traced_exchange().records)["traceEvents"]
        meta = [e for e in events if e.get("ph") == "M"]
        assert {m["args"]["name"] for m in meta} == {"site a", "site b"}
        assert len({m["pid"] for m in meta}) == 2

    def test_delivered_message_becomes_a_flow(self):
        events = to_chrome(_traced_exchange().records)["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["ts"] == 1.0 * 1_000_000
        assert finishes[0]["ts"] == 2.0 * 1_000_000
        assert starts[0]["pid"] != finishes[0]["pid"]

    def test_undelivered_send_has_no_flow(self):
        t = Tracer()
        t.message_send(0.0, "a", "b", "announce")  # dropped: no recv
        events = to_chrome(t.records)["traceEvents"]
        assert not [e for e in events if e.get("ph") in ("s", "f")]

    def test_guard_eval_is_an_instant_event(self):
        # a trace holds no wall-clock time, so an evaluation has no
        # duration to draw
        events = to_chrome(_traced_exchange().records)["traceEvents"]
        assert not [e for e in events if e.get("ph") == "X"]
        (x,) = [e for e in events if e.get("tid") == "guard"]
        assert x["ph"] == "i" and x["name"] == "eval 'f'"
        assert x["args"]["verdict"] == "fire"
        assert x["args"]["residual"] == "'R'"

    def test_crash_restart_becomes_a_down_span(self):
        events = to_chrome(_traced_exchange().records)["traceEvents"]
        spans = [e for e in events if e.get("ph") in ("B", "E")]
        assert [s["ph"] for s in spans] == ["B", "E"]
        assert all(s["name"] == "down" for s in spans)

    def test_lamport_stamps_survive_in_args(self):
        events = to_chrome(_traced_exchange().records)["traceEvents"]
        instants = [e for e in events if e.get("ph") == "i"]
        assert all("lc" in e["args"] for e in instants)


class TestRoundTrip:
    def test_dump_read_export(self, tmp_path):
        t = _traced_exchange()
        path = tmp_path / "trace.jsonl"
        t.dump(path)
        via_disk = to_chrome(read_jsonl(path))
        in_memory = to_chrome(t.records)
        assert via_disk == in_memory
