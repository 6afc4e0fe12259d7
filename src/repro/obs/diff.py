"""Causal trace diffing and divergence localization (``repro diff``).

The repo's correctness story leans on differential execution: watched
vs naive guard engines, sharded vs merged runs -- all demand
decision-identical traces.  When two runs *do* diverge, a raw equality
assert over thousands of records says nothing about *where* or *why*.
This module aligns two trace record streams causally and answers both
questions:

* **alignment** is per-site, by each site's record stream in Lamport
  order (the order the tracer wrote them), never line-by-line across
  the whole file -- a merged trace interleaves sites by virtual time,
  so global line numbers are meaningless across runs;
* **canonical form**: records are compared minus the volatile fields
  ``lc``/``sent_lc``/``mid`` (observer bookkeeping whose absolute
  values shift when any earlier event changes) and ``elapsed`` (the
  guard-evaluation wall time that traces recorded before traces became
  a pure function of the run; the golden traces still carry it).
  Virtual time ``t`` is part of
  the canonical form: the simulator is deterministic, so a sim-time
  shift is a real divergence;
* **localization**: per diverging site, the first position where the
  canonical streams disagree, and globally the earliest such
  divergence by ``(t, site)``;
* **classification**: each divergence is labelled -- a guard record
  pair for the same event with different verdicts is a
  ``guard_verdict_flip``; a fault record mismatch is a
  ``crash_schedule_mismatch``; message records that reappear swapped
  within a small lookahead are a ``message_reorder``; drop/dup/kind
  changes in message records are ``rng_drift`` (chaos decisions come
  from the seed), as are records identical except for ``t``; actor
  occurrence/outcome changes are a ``settlement_mismatch``; everything
  else falls back to ``state_mismatch``, and one stream ending early
  is ``missing_records`` classified by the first extra record;
* **root cause**: from the first divergent record the walker of
  :func:`repro.obs.query.causal_chain` runs backwards through same-site
  predecessors and message recv->send edges, compressed into the same
  per-site segments ``repro trace query --critical-path`` prints -- the
  chain of events that *led into* the divergence.

Library entry points: :func:`diff_traces` over record lists (what the
differential Hypothesis harnesses call on failure) and
:func:`diff_files` over JSONL paths (gzip transparent).  The CLI
``repro diff a b`` maps the result onto exit codes 0 (identical),
1 (divergent), 2 (unusable input).  ``repro diff --decisions`` compares
only each site's decision records (:func:`decisions`), so a change
that moves traffic but no decision diffs clean.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

from repro.obs.query import causal_chain, chain_segments
from repro.obs.tracer import SETTLEMENT_OPS, index_trace, read_jsonl

__all__ = ["Divergence", "TraceDiff", "decisions", "diff_traces", "diff_files"]

#: fields dropped before comparing records: Lamport bookkeeping whose
#: absolute values shift with any earlier event, and the wall-clock
#: guard timing older traces carry
VOLATILE_FIELDS = frozenset({"lc", "sent_lc", "mid", "elapsed"})

#: how far ahead to look for a swapped record pair when classifying
#: a message reorder
REORDER_LOOKAHEAD = 8

#: the actor ops that record a decision: an attempt, a park, and every
#: way an attempt settles
DECISION_OPS = frozenset({"attempted", "parked"}) | SETTLEMENT_OPS


@dataclass(frozen=True)
class Divergence:
    """The first disagreement between two runs at one site."""

    site: str
    position: int          # index within the site's record stream
    kind: str              # classification label
    detail: str            # human-readable one-liner
    t: float               # virtual time of the divergence
    event: str | None      # event involved, when the records name one
    record_a: dict | None  # the diverging record in trace a (None = missing)
    record_b: dict | None
    index_a: int | None    # index of record_a in the full trace a
    index_b: int | None

    def describe(self) -> str:
        cat = None
        for record in (self.record_a, self.record_b):
            if record is not None:
                cat = f"{record.get('cat')}/{record.get('op')}"
                break
        what = f" event {self.event}" if self.event else ""
        return (
            f"site {self.site} @ t={self.t:g} position {self.position}"
            f" [{self.kind}]{what} ({cat}): {self.detail}"
        )


@dataclass
class TraceDiff:
    """Result of diffing two traces."""

    identical: bool
    divergences: list[Divergence] = field(default_factory=list)
    first: Divergence | None = None
    #: per-site root-cause segments leading into ``first`` (computed in
    #: the trace that still contains the divergent record)
    chain: list[dict] = field(default_factory=list)
    records_a: int = 0
    records_b: int = 0

    def summary(self) -> str:
        """Multi-line human-readable report."""
        if self.identical:
            return (
                f"traces identical: {self.records_a} records, "
                f"same decisions at every site"
            )
        lines = [
            f"traces diverge at {len(self.divergences)} site(s) "
            f"({self.records_a} vs {self.records_b} records)",
            "first divergence:",
            "  " + self.first.describe(),
        ]
        if self.first.record_a is not None:
            lines.append(f"  a: {_render(self.first.record_a)}")
        else:
            lines.append("  a: (no record -- stream ends earlier)")
        if self.first.record_b is not None:
            lines.append(f"  b: {_render(self.first.record_b)}")
        else:
            lines.append("  b: (no record -- stream ends earlier)")
        if self.chain:
            lines.append("root-cause chain into the divergence:")
            for seg in self.chain:
                via = (
                    f" <- via {seg['via_kind']} (mid {seg['via_mid']})"
                    if seg.get("via_kind") else ""
                )
                lines.append(
                    f"  site {seg['site']} t={seg['from_t']:g}.."
                    f"{seg['to_t']:g} ({seg['records']} record(s)){via}"
                )
        others = [d for d in self.divergences if d is not self.first]
        if others:
            lines.append("other diverging sites:")
            for d in sorted(others, key=lambda d: (d.t, d.site)):
                lines.append("  " + d.describe())
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "identical": self.identical,
            "records_a": self.records_a,
            "records_b": self.records_b,
            "first": asdict(self.first) if self.first is not None else None,
            "divergences": [
                asdict(d)
                for d in sorted(self.divergences, key=lambda d: (d.t, d.site))
            ],
            "chain": self.chain,
        }


def _render(record: Mapping) -> str:
    parts = [f"t={record.get('t')}", f"{record.get('cat')}/{record.get('op')}"]
    for key in ("event", "kind", "src", "dst", "verdict", "round_id"):
        if key in record:
            parts.append(f"{key}={record[key]}")
    return " ".join(parts)


def canonical(record: Mapping) -> dict:
    """The record minus its volatile fields (see :data:`VOLATILE_FIELDS`)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def _retimed_only(ca: Mapping, cb: Mapping) -> bool:
    """Same canonical record at a different virtual time?"""
    if set(ca) != set(cb):
        return False
    return all(ca[k] == cb[k] for k in ca if k != "t") and ca["t"] != cb["t"]


def _classify(
    ca: Mapping | None,
    cb: Mapping | None,
    stream_a: Sequence[Mapping],
    stream_b: Sequence[Mapping],
    pos: int,
) -> tuple[str, str]:
    """Label one per-site divergence; returns ``(kind, detail)``.

    ``stream_a``/``stream_b`` are the site's *canonical* record
    streams; ``pos`` is the diverging position within them.
    """
    if ca is None or cb is None:
        extra = cb if ca is None else ca
        side = "b" if ca is None else "a"
        cat, op = extra.get("cat"), extra.get("op")
        if cat == "fault":
            return ("crash_schedule_mismatch",
                    f"only trace {side} records a {op} here")
        if cat == "actor" and op in SETTLEMENT_OPS:
            return ("settlement_mismatch",
                    f"only trace {side} records {extra.get('event')} {op}")
        if cat == "message":
            return ("rng_drift",
                    f"only trace {side} records a {op} of "
                    f"{extra.get('kind')} here")
        return ("missing_records",
                f"trace {'a' if ca is None else 'b'} stream ends early "
                f"({len(stream_a)} vs {len(stream_b)} record(s) at this "
                f"site)")

    cat_a, cat_b = ca.get("cat"), cb.get("cat")
    if cat_a == cat_b == "guard" and ca.get("event") == cb.get("event"):
        va, vb = ca.get("verdict"), cb.get("verdict")
        if va != vb:
            return ("guard_verdict_flip",
                    f"guard for {ca.get('event')} decided "
                    f"{va!r} in a but {vb!r} in b")
    if cat_a == "fault" or cat_b == "fault":
        return ("crash_schedule_mismatch",
                f"a records {cat_a}/{ca.get('op')}, "
                f"b records {cat_b}/{cb.get('op')}")
    if cat_a == cat_b == "message":
        # swapped pair within the lookahead => delivery order changed
        horizon = min(pos + 1 + REORDER_LOOKAHEAD, len(stream_a), len(stream_b))
        for ahead in range(pos + 1, horizon):
            if stream_b[ahead] == ca and stream_a[ahead] == cb:
                return ("message_reorder",
                        f"{ca.get('op')} of {ca.get('kind')} and "
                        f"{cb.get('op')} of {cb.get('kind')} swapped "
                        f"(positions {pos} and {ahead})")
        for ahead in range(pos + 1, min(pos + 1 + REORDER_LOOKAHEAD,
                                        len(stream_b))):
            if stream_b[ahead] == ca:
                return ("message_reorder",
                        f"{ca.get('op')} of {ca.get('kind')} delayed to "
                        f"position {ahead} in b")
        if ca.get("op") != cb.get("op") and {ca.get("op"), cb.get("op")} & {
            "drop", "dup"
        }:
            return ("rng_drift",
                    f"a records {ca.get('op')} of {ca.get('kind')}, "
                    f"b records {cb.get('op')} of {cb.get('kind')} "
                    f"(chaos decisions follow the seed)")
    if _retimed_only(ca, cb):
        return ("rng_drift",
                f"same {cat_a}/{ca.get('op')} record at t={ca['t']:g} in a "
                f"but t={cb['t']:g} in b (timing comes from the seed)")
    if cat_a == "actor" or cat_b == "actor":
        ops = {ca.get("op"), cb.get("op")}
        events = {ca.get("event"), cb.get("event")}
        if ops & SETTLEMENT_OPS or (
            cat_a == cat_b == "actor" and len(events) > 1
        ):
            return ("settlement_mismatch",
                    f"a records {ca.get('event')} {ca.get('op')}, "
                    f"b records {cb.get('event')} {cb.get('op')}")
    changed = sorted(
        k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k)
    )
    return ("state_mismatch", f"records disagree on {', '.join(changed)}")


def diff_traces(
    records_a: Sequence[Mapping], records_b: Sequence[Mapping]
) -> TraceDiff:
    """Causally diff two traces; see the module docstring.

    Raises :class:`ValueError` when either input is unusable (records
    without a ``site`` field); two empty traces are identical.
    """
    streams_a = index_trace(records_a)[0]
    streams_b = index_trace(records_b)[0]
    divergences: list[Divergence] = []

    for site in sorted(set(streams_a) | set(streams_b)):
        idx_a = streams_a.get(site, [])
        idx_b = streams_b.get(site, [])
        canon_a = [canonical(records_a[i]) for i in idx_a]
        canon_b = [canonical(records_b[i]) for i in idx_b]
        pos = next(
            (
                p for p in range(min(len(canon_a), len(canon_b)))
                if canon_a[p] != canon_b[p]
            ),
            None,
        )
        if pos is None:
            if len(canon_a) == len(canon_b):
                continue
            pos = min(len(canon_a), len(canon_b))
        ca = canon_a[pos] if pos < len(canon_a) else None
        cb = canon_b[pos] if pos < len(canon_b) else None
        kind, detail = _classify(ca, cb, canon_a, canon_b, pos)
        present = ca if ca is not None else cb
        record_a = dict(records_a[idx_a[pos]]) if pos < len(idx_a) else None
        record_b = dict(records_b[idx_b[pos]]) if pos < len(idx_b) else None
        divergences.append(Divergence(
            site=site,
            position=pos,
            kind=kind,
            detail=detail,
            t=float(present.get("t", 0.0)),
            event=(ca or {}).get("event") or (cb or {}).get("event"),
            record_a=record_a,
            record_b=record_b,
            index_a=idx_a[pos] if pos < len(idx_a) else None,
            index_b=idx_b[pos] if pos < len(idx_b) else None,
        ))

    if not divergences:
        return TraceDiff(
            identical=True,
            records_a=len(records_a),
            records_b=len(records_b),
        )

    first = min(divergences, key=lambda d: (d.t, d.site))
    # walk the provenance machinery backwards from the divergence point,
    # in whichever trace still contains the diverging record
    if first.index_a is not None:
        chain_records, target = records_a, first.index_a
    else:
        chain_records, target = records_b, first.index_b
    chain = chain_segments(
        chain_records, causal_chain(chain_records, target)
    )
    return TraceDiff(
        identical=False,
        divergences=divergences,
        first=first,
        chain=chain,
        records_a=len(records_a),
        records_b=len(records_b),
    )


def decisions(records: Sequence[Mapping]) -> list[Mapping]:
    """The decision records of a trace (:data:`DECISION_OPS`), in
    order: what a run decided, without the traffic that led there."""
    return [
        r for r in records
        if r.get("cat") == "actor" and r.get("op") in DECISION_OPS
    ]


def diff_files(path_a, path_b, decisions_only: bool = False) -> TraceDiff:
    """Diff two JSONL trace files (gzip transparent), whole or only
    their :func:`decisions`.

    Raises :class:`ValueError` for unparsable traces and propagates
    :class:`OSError` for unreadable paths -- the CLI maps both onto
    exit code 2 (unusable)."""
    records_a, records_b = read_jsonl(path_a), read_jsonl(path_b)
    if decisions_only:
        records_a, records_b = decisions(records_a), decisions(records_b)
    return diff_traces(records_a, records_b)
