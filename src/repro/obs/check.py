"""Offline trace-replay invariant checker (``repro trace check``).

The checker re-reads a JSONL trace produced by
:class:`repro.obs.tracer.Tracer` and verifies -- without re-running the
simulation -- that the recorded run is causally and semantically
coherent:

``schema``
    every record carries the fixed envelope (``lc``/``t``/``site``/
    ``cat``/``op``) with sane types, and parses as JSON at all;
``clock``
    per site, Lamport stamps are strictly increasing (the tracer's
    clocks are observer state and survive simulated crashes);
``causal``
    every message ``recv`` names a previously-recorded ``send`` with
    the same message id, endpoints, and kind, the receive stamp
    strictly exceeds the send stamp, and the recorded ``sent_lc``
    matches the send record -- i.e. happened-before is respected along
    every delivered message;
``channel-order``
    per directed channel (src, dst), delivered messages arrive in
    physical send order (the fabric is FIFO per channel; retransmits
    and duplicates are separate physical transmissions with fresh
    stamps, so this holds even under chaos);
``handoff``
    a ``send`` is a transmission between two sites and a ``handoff``
    one within a site (``src == dst``), received at the instant it
    was handed off;
``addressee``
    every ``recv`` is recorded at its message's ``dst``: a
    transmission reaches the site it was addressed to, and whatever
    it fans out to there lives at that site;
``double-fire``
    trace safety: no base event occurs twice, and never both ``e`` and
    its complement ``~e`` (Theorem 4.2's no-event-twice /
    no-event-with-complement conditions, checked on the record of what
    actually fired);
``unjustified-fire``
    every distributed ``fired`` transition is justified by an earlier
    same-site guard evaluation with verdict ``fire`` (or an explicit
    ``forced`` transition for nonrejectable events), and every firing
    was preceded by an ``attempted`` transition for that event;
``truncated``
    (file checking only) the last line of the file has no trailing
    newline -- the writer always ends a trace with one, so its absence
    means the run crashed mid-write and the final record may be
    incomplete even if it happens to parse.

**Flight-recorder windows.**  A trace dumped from a flight recorder
(:class:`repro.obs.recorder.FlightRecorder`) starts with a
``cat="recorder"``/``op="window"`` header naming what was evicted: the
highest evicted Lamport stamp per site and the highest evicted message
id.  The checker uses the header to distinguish "the causal prefix was
evicted" from a genuine violation: per-site clocks are seeded from the
evicted stamps, a ``recv`` whose ``mid`` is at or below the horizon may
have lost its ``send`` to eviction, and fire-justification records for
a site with evictions may themselves be evicted.  In-window safety
(double-fire, clock monotonicity among retained records, FIFO among
retained deliveries) is still enforced.

Each violation is reported as a :class:`Diagnostic` carrying the
0-based record index (= line number - 1 in the JSONL file), a stable
code from the list above, and a human-readable detail string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from repro.obs.tracer import OCCURRED_OPS, SEND_OPS, base_name, open_trace

_ENVELOPE = ("lc", "t", "site", "cat", "op")


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation found in a trace."""

    index: int  # 0-based record index (line - 1 in the JSONL file)
    code: str
    detail: str

    def __str__(self) -> str:
        return f"record {self.index}: [{self.code}] {self.detail}"


def check_records(records: Iterable[dict]) -> list[Diagnostic]:
    """Check all trace invariants; returns diagnostics (empty = clean)."""
    diags: list[Diagnostic] = []
    site_clock: dict[str, int] = {}
    sends: dict[int, tuple[int, dict]] = {}
    channel_last_sent_lc: dict[tuple[str, str], int] = {}
    occurred: dict[str, tuple[int, str]] = {}
    attempted: set[str] = set()
    guard_fire_ok: set[tuple[str, str]] = set()  # (site, event) justified
    evicted_lc: dict[str, int] = {}  # flight-recorder window seeds
    mid_horizon = 0
    justification_evicted = False  # window dropped actor/guard records

    for index, record in enumerate(records):
        # -- schema ----------------------------------------------------
        if not isinstance(record, dict):
            diags.append(Diagnostic(index, "schema", f"not an object: {record!r}"))
            continue
        missing = [k for k in _ENVELOPE if k not in record]
        if missing:
            diags.append(Diagnostic(
                index, "schema", f"missing envelope field(s) {missing}"))
            continue
        lc, site, cat, op = record["lc"], record["site"], record["cat"], record["op"]
        if not isinstance(lc, int) or lc < 1:
            diags.append(Diagnostic(
                index, "schema", f"lc must be a positive integer, got {lc!r}"))
            continue

        # -- flight-recorder window header -----------------------------
        if cat == "recorder" and op == "window":
            for evicted_site, stamp in (record.get("evicted_lc") or {}).items():
                if isinstance(stamp, int):
                    evicted_lc[evicted_site] = max(
                        evicted_lc.get(evicted_site, 0), stamp)
                    site_clock[evicted_site] = max(
                        site_clock.get(evicted_site, 0), stamp)
            horizon = record.get("mid_horizon")
            if isinstance(horizon, int):
                mid_horizon = max(mid_horizon, horizon)
            dropped = record.get("dropped") or {}
            if dropped.get("actor") or dropped.get("guard"):
                justification_evicted = True
            site_clock[site] = max(site_clock.get(site, 0), lc)
            continue

        # -- clock: per-site strict monotonicity -----------------------
        prev = site_clock.get(site, 0)
        if lc <= evicted_lc.get(site, 0):
            # a pinned record (a ``recorder.PINNED`` category) survives in
            # the ring from *before* the eviction horizon; its stamp
            # legitimately precedes the window header's clock seed
            pass
        elif lc <= prev:
            diags.append(Diagnostic(
                index, "clock",
                f"site {site!r}: lc {lc} does not exceed previous stamp {prev}"))
        site_clock[site] = max(prev, lc)

        # -- messages --------------------------------------------------
        if cat == "message" and op in SEND_OPS:
            sends[record.get("mid")] = (index, record)
            if (op == "handoff") != (record.get("src") == record.get("dst")):
                diags.append(Diagnostic(
                    index, "handoff",
                    f"{op} of mid {record.get('mid')} from "
                    f"{record.get('src')!r} to {record.get('dst')!r}: a "
                    f"message within a site is a handoff, and only that"))
        elif cat == "message" and op == "recv":
            mid = record.get("mid")
            sent_lc = record.get("sent_lc")
            if site != record.get("dst"):
                diags.append(Diagnostic(
                    index, "addressee",
                    f"recv of mid {mid} recorded at {site!r}, not at its "
                    f"dst {record.get('dst')!r}"))
            entry = sends.get(mid)
            if entry is None:
                # below the window horizon the send may have been
                # evicted from the ring -- absence proves nothing
                if not (isinstance(mid, int) and mid <= mid_horizon):
                    diags.append(Diagnostic(
                        index, "causal",
                        f"recv of mid {mid} has no preceding send record"))
            else:
                send_index, send = entry
                for field in ("src", "dst", "kind"):
                    if send.get(field) != record.get(field):
                        diags.append(Diagnostic(
                            index, "causal",
                            f"recv of mid {mid} disagrees with send record "
                            f"{send_index} on {field}: "
                            f"{record.get(field)!r} != {send.get(field)!r}"))
                if send["lc"] != sent_lc:
                    diags.append(Diagnostic(
                        index, "causal",
                        f"recv of mid {mid} claims sent_lc={sent_lc} but send "
                        f"record {send_index} has lc={send['lc']}"))
                if send["op"] == "handoff" and send["t"] != record["t"]:
                    diags.append(Diagnostic(
                        index, "handoff",
                        f"handoff of mid {mid} at t={send['t']} received "
                        f"at t={record['t']}"))
            if isinstance(sent_lc, int) and lc <= sent_lc:
                diags.append(Diagnostic(
                    index, "causal",
                    f"recv lc {lc} does not exceed sent_lc {sent_lc} "
                    f"(happened-before violated along mid {mid})"))
            channel = (record.get("src"), record.get("dst"))
            if isinstance(sent_lc, int):
                last = channel_last_sent_lc.get(channel, 0)
                if sent_lc <= last:
                    diags.append(Diagnostic(
                        index, "channel-order",
                        f"channel {channel[0]}->{channel[1]}: delivery of "
                        f"sent_lc={sent_lc} after sent_lc={last} "
                        f"(fabric FIFO violated)"))
                channel_last_sent_lc[channel] = max(last, sent_lc)

        # -- guard verdicts justify firings ----------------------------
        elif cat == "guard" and op == "eval":
            if record.get("verdict") == "fire":
                guard_fire_ok.add((site, record.get("event")))

        # -- actor transitions: trace safety ---------------------------
        elif cat == "actor":
            event = record.get("event")
            if op == "attempted":
                attempted.add(event)
            elif op == "forced":
                guard_fire_ok.add((site, event))
            if op in OCCURRED_OPS and isinstance(event, str):
                base = base_name(event)
                if base in occurred:
                    first_index, first_event = occurred[base]
                    what = ("its complement " + first_event
                            if first_event != event else "it already")
                    diags.append(Diagnostic(
                        index, "double-fire",
                        f"{event} {op} but {what} occurred at record "
                        f"{first_index} (trace safety)"))
                else:
                    occurred[base] = (index, event)
                if event not in attempted and not justification_evicted:
                    diags.append(Diagnostic(
                        index, "unjustified-fire",
                        f"{event} {op} without a preceding attempted record"))
                if (op == "fired" and (site, event) not in guard_fire_ok
                        and not justification_evicted):
                    diags.append(Diagnostic(
                        index, "unjustified-fire",
                        f"{event} fired at {site!r} without a preceding guard "
                        f"verdict 'fire' (or forced transition) at that site"))

    return diags


def occurred_events(records: Iterable[dict]) -> list[str]:
    """The occurred timeline: the event of every actor ``fired`` /
    ``accepted`` record, in record order (a run writes one such record
    per settled event, as it appends the event to its result)."""
    return [
        record["event"]
        for record in records
        if isinstance(record, dict)
        and record.get("cat") == "actor"
        and record.get("op") in OCCURRED_OPS
        and isinstance(record.get("event"), str)
    ]


def check_file(path) -> tuple[int, list[Diagnostic]]:
    """Check a JSONL trace file; returns ``(record_count, diagnostics)``.

    Unparseable lines are reported as ``schema`` diagnostics rather
    than raising, so a truncated or hand-mangled trace still yields a
    precise report.  Gzipped traces are read transparently.  A missing
    trailing newline on the final line -- the writer always ends a
    trace with one -- is reported as a ``truncated`` diagnostic: the
    run crashed mid-write, and the last record is counted but flagged
    as possibly incomplete rather than silently accepted or dropped.
    """
    records: list[dict] = []
    diags: list[Diagnostic] = []
    last_line_complete = True
    with open_trace(path, "r") as handle:
        try:
            for lineno, raw in enumerate(handle):
                last_line_complete = raw.endswith("\n")
                line = raw.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    diags.append(Diagnostic(
                        len(records), "schema",
                        f"line {lineno + 1}: invalid JSON ({exc})"))
        except EOFError as exc:  # gzip stream cut off mid-member
            last_line_complete = False
            diags.append(Diagnostic(
                len(records), "truncated",
                f"compressed stream ends early ({exc}); trailing records lost"))
    if not last_line_complete:
        diags.append(Diagnostic(
            max(0, len(records) - 1), "truncated",
            "last line has no trailing newline: the run likely crashed "
            "mid-write, so the final record may be incomplete"))
    diags.extend(check_records(records))
    diags.sort(key=lambda d: d.index)
    return len(records), diags
