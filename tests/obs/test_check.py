"""The trace-replay invariant checker: clean traces pass, corrupted
traces yield precise diagnostics with stable codes."""

import json

from repro.obs import Tracer, check_file, check_records


def _record(lc, site, cat, op, t=0.0, **fields):
    record = {"lc": lc, "t": t, "site": site, "cat": cat, "op": op}
    record.update(fields)
    return record


def _clean_run():
    """A minimal coherent trace: attempt, message, guard, fire."""
    return [
        _record(1, "a", "actor", "attempted", event="e"),
        _record(2, "a", "message", "send", kind="announce",
                src="a", dst="b", mid=1),
        _record(3, "b", "message", "recv", kind="announce",
                src="a", dst="b", mid=1, sent_lc=2),
        _record(4, "b", "guard", "eval", event="f", guard="G",
                residual="R", verdict="fire"),
        _record(5, "b", "actor", "attempted", event="f"),
        _record(6, "b", "actor", "fired", event="f"),
    ]


def _codes(diags):
    return [d.code for d in diags]


class TestCleanTraces:
    def test_empty_trace_is_clean(self):
        assert check_records([]) == []

    def test_minimal_run_is_clean(self):
        assert check_records(_clean_run()) == []

    def test_tracer_output_is_clean_by_construction(self):
        t = Tracer()
        t.actor(0.0, "a", "e", "attempted")
        mid, lc = t.message_send(0.0, "a", "b", "announce")
        t.message_recv(1.0, "a", "b", "announce", mid, lc)
        t.guard_eval(1.0, "b", "f", "G", "R", "fire")
        t.actor(1.0, "b", "f", "attempted")
        t.actor(1.0, "b", "f", "fired")
        assert check_records(t.records) == []


class TestClockInvariant:
    def test_stamp_regression_is_flagged(self):
        records = _clean_run()
        records[4]["lc"] = 3  # b already reached 4
        diags = check_records(records)
        assert "clock" in _codes(diags)
        (clock,) = [d for d in diags if d.code == "clock"]
        assert clock.index == 4
        assert "'b'" in clock.detail

    def test_repeated_stamp_is_flagged(self):
        records = [
            _record(1, "a", "actor", "attempted", event="e"),
            _record(1, "a", "actor", "parked", event="e"),
        ]
        assert _codes(check_records(records)) == ["clock"]


class TestCausalInvariant:
    def test_recv_without_send(self):
        records = [_record(1, "b", "message", "recv", kind="announce",
                           src="a", dst="b", mid=99, sent_lc=5)]
        diags = check_records(records)
        assert any(d.code == "causal" and "no preceding send" in d.detail
                   for d in diags)

    def test_recv_disagrees_on_endpoints(self):
        records = _clean_run()
        records[2]["src"] = "c"  # claims a different sender
        diags = check_records(records)
        assert any(d.code == "causal" and "src" in d.detail for d in diags)

    def test_sent_lc_mismatch(self):
        records = _clean_run()
        records[2]["sent_lc"] = 7
        diags = check_records(records)
        assert any(d.code == "causal" and "claims sent_lc=7" in d.detail
                   for d in diags)

    def test_recv_stamp_must_exceed_send_stamp(self):
        records = _clean_run()
        # a receive stamped below its cause: happened-before broken
        records[2]["lc"] = 1
        records[2]["sent_lc"] = 2
        diags = check_records(records)
        assert any(d.code == "causal" and "happened-before" in d.detail
                   for d in diags)

    def test_channel_fifo_violation(self):
        records = [
            _record(1, "a", "message", "send", kind="msg",
                    src="a", dst="b", mid=1),
            _record(2, "a", "message", "send", kind="msg",
                    src="a", dst="b", mid=2),
            # mid 2 (sent later) delivered before mid 1: FIFO broken
            _record(3, "b", "message", "recv", kind="msg",
                    src="a", dst="b", mid=2, sent_lc=2),
            _record(4, "b", "message", "recv", kind="msg",
                    src="a", dst="b", mid=1, sent_lc=1),
        ]
        diags = check_records(records)
        assert any(d.code == "channel-order" for d in diags)


def _hand_off(t_recv=1.0):
    """A hand-off within site ``b`` at t=1, received at ``t_recv``."""
    return [
        _record(1, "b", "message", "handoff", t=1.0, kind="release",
                src="b", dst="b", mid=1),
        _record(2, "b", "message", "recv", t=t_recv, kind="release",
                src="b", dst="b", mid=1, sent_lc=1),
    ]


class TestSiteAddressedMessages:
    def test_tracer_hand_off_is_clean(self):
        t = Tracer()
        mid, lc = t.message_handoff(1.0, "b", "release")
        t.message_recv(1.0, "b", "b", "release", mid, lc)
        assert [r["op"] for r in t.records] == ["handoff", "recv"]
        assert check_records(_hand_off()) == []
        assert check_records(t.records) == []

    def test_hand_off_between_two_sites(self):
        records = _hand_off()
        records[0]["dst"] = records[1]["dst"] = "c"
        records[1]["site"] = "c"
        diags = check_records(records)
        assert _codes(diags) == ["handoff"]
        assert diags[0].index == 0

    def test_transmission_from_a_site_to_itself(self):
        records = _hand_off()
        records[0]["op"] = "send"
        assert _codes(check_records(records)) == ["handoff"]

    def test_hand_off_received_later(self):
        diags = check_records(_hand_off(t_recv=2.0))
        assert _codes(diags) == ["handoff"]
        assert diags[0].index == 1 and "t=2.0" in diags[0].detail

    def test_receiver_away_from_the_destination(self):
        records = _clean_run()
        records[2]["site"] = "c"  # b's recv recorded at c
        records[2]["lc"] = 3
        diags = check_records(records)
        assert _codes(diags) == ["addressee"]
        assert diags[0].index == 2


class TestTraceSafety:
    def test_double_fire_of_same_event(self):
        records = _clean_run() + [
            _record(7, "b", "actor", "fired", event="f"),
        ]
        diags = check_records(records)
        assert any(d.code == "double-fire" and "it already" in d.detail
                   for d in diags)

    def test_event_and_complement_both_fire(self):
        records = _clean_run() + [
            _record(7, "b", "guard", "eval", event="~f", guard="G2",
                    residual="R2", verdict="fire"),
            _record(8, "b", "actor", "attempted", event="~f"),
            _record(9, "b", "actor", "fired", event="~f"),
        ]
        diags = check_records(records)
        assert any(d.code == "double-fire" and "complement" in d.detail
                   for d in diags)

    def test_centralized_accepted_counts_as_occurrence(self):
        records = [
            _record(1, "CENTER", "actor", "attempted", event="e"),
            _record(2, "CENTER", "actor", "accepted", event="e"),
            _record(3, "CENTER", "actor", "attempted", event="~e"),
            _record(4, "CENTER", "actor", "accepted", event="~e"),
        ]
        diags = check_records(records)
        assert any(d.code == "double-fire" for d in diags)


class TestJustification:
    def test_fire_without_guard_verdict(self):
        records = _clean_run()
        del records[3]  # drop the guard evaluation
        diags = check_records(records)
        assert any(d.code == "unjustified-fire" and "guard" in d.detail
                   for d in diags)

    def test_fire_without_attempt(self):
        records = _clean_run()
        del records[4]  # drop the attempted transition
        diags = check_records(records)
        assert any(d.code == "unjustified-fire" and "attempted" in d.detail
                   for d in diags)

    def test_guard_verdict_at_wrong_site_does_not_justify(self):
        records = _clean_run()
        records[3]["site"] = "a"
        records[3]["lc"] = 3  # keep a's clock coherent
        diags = check_records(records)
        assert any(d.code == "unjustified-fire" for d in diags)

    def test_forced_transition_justifies_nonrejectable_fire(self):
        records = _clean_run()
        # replace the guard verdict with an explicit forced transition
        records[3] = _record(4, "b", "actor", "forced", event="f")
        assert check_records(records) == []


class TestSchema:
    def test_missing_envelope_field(self):
        diags = check_records([{"lc": 1, "t": 0.0, "site": "a", "cat": "actor"}])
        assert _codes(diags) == ["schema"]
        assert "op" in diags[0].detail

    def test_non_object_record(self):
        assert _codes(check_records(["not a dict"])) == ["schema"]

    def test_bad_lamport_stamp(self):
        diags = check_records([_record(0, "a", "actor", "attempted", event="e")])
        assert _codes(diags) == ["schema"]


class TestCheckFile:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "\n".join(json.dumps(r) for r in _clean_run()) + "\n"
        )
        count, diags = check_file(path)
        assert count == 6
        assert diags == []

    def test_invalid_json_line_reported_not_raised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [json.dumps(r) for r in _clean_run()]
        lines.insert(2, "{broken json")
        path.write_text("\n".join(lines) + "\n")
        count, diags = check_file(path)
        assert count == 6  # the good records still checked
        assert any(d.code == "schema" and "line 3" in d.detail for d in diags)

    def test_diagnostic_str_names_the_record(self):
        records = _clean_run()
        del records[3]
        (diag,) = [d for d in check_records(records)
                   if d.code == "unjustified-fire"]
        text = str(diag)
        assert text.startswith(f"record {diag.index}:")
        assert "[unjustified-fire]" in text
