"""Causal event tracing with per-site Lamport clocks.

Every record is a plain JSON-ready dict with a fixed envelope:

========  ==========================================================
``lc``    Lamport stamp: the recording site's logical clock *after*
          the event (each local event ticks the clock; a message
          receive first merges the sender's stamp)
``t``     virtual (simulator) time of the event
``site``  the site at which the event happened
``cat``   record category: ``message``, ``session``, ``actor``,
          ``guard``, ``round``, ``fault``, ``sync``, ``monitor``
``op``    operation within the category (``send``, ``recv``,
          ``fired``, ``eval``, ``crash``, ...)
========  ==========================================================

plus category-specific fields (message ``kind``/``mid``/``sent_lc``,
guard text and verdict, ...).  The stamps make the trace *causal*:
within a site the clock is strictly monotone, and along any message
the receive stamp strictly exceeds the send stamp, so the offline
checker (:mod:`repro.obs.check`) can verify happened-before structure
without re-running the simulation.

The clocks live in the tracer, not in the simulated sites: they are
observability infrastructure, so they survive simulated crashes (a
restarting site keeps appending to the same monotone record stream --
what crashed is the *protocol* state, which the trace is describing).

Design rule for instrumentation sites: a site that runs per message,
per guard evaluation or per knowledge refinement tests
``tracer.active`` and builds its record fields inside the branch, so
the default :data:`NULL_TRACER` costs it one attribute read; every
other site calls its hook outright and passes only values it already
holds (the :class:`Tracer` does the ``repr``).

A trace is a pure function of the run: no record carries wall-clock
time (that is the profiler's, :mod:`repro.obs.profile`), so two runs
of one seed write byte-identical traces.  A :class:`Tracer` keeps every
record; the bounded window of a long run is
:class:`~repro.obs.recorder.FlightRecorder`'s.

Every offline reader takes what a record means from here:
:data:`OCCURRED_OPS`, :data:`SETTLEMENT_OPS`, :func:`base_name` and
the one trace index, :func:`index_trace`.
"""

from __future__ import annotations

import gzip
import json
from typing import Any, Iterable, Mapping, Sequence

#: actor ops that mean "the event occurred": a role's firing in the
#: distributed scheduler, the center's acceptance in the centralized one
#: (each scheduler's ``SETTLED_OP``)
OCCURRED_OPS = frozenset({"fired", "accepted"})

#: actor ops that settle an attempt one way or the other
SETTLEMENT_OPS = OCCURRED_OPS | {"forced", "rejected", "dead"}


def base_name(name: str) -> str:
    """The base of a signed event name: ``e`` and ``~e`` share ``e``."""
    return name[1:] if name.startswith("~") else name


def open_trace(path, mode: str = "r"):
    """Open a trace file, transparently gzip-compressed.

    Write modes compress when ``path`` ends in ``.gz``; read modes
    sniff the gzip magic bytes, so a ``.gz`` trace renamed without its
    suffix still reads.  Always returns a text-mode handle (UTF-8).
    """
    path = str(path)
    if "r" in mode:
        with open(path, "rb") as handle:
            magic = handle.read(2)
        if magic == b"\x1f\x8b":
            # reopened by name: a GzipFile wrapped around the sniffing
            # handle would not own it, and the raw file would leak
            return gzip.open(path, "rt", encoding="utf-8")
        return open(path, "r", encoding="utf-8")
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class NullTracer:
    """The inert default tracer: records nothing.

    It answers the hooks that sites call without asking first (a few
    calls per run or per settled event).  The per-message,
    per-evaluation and per-refinement hooks exist on :class:`Tracer`
    only: their sites test ``active``, so an untraced run neither calls
    them nor builds their record fields.
    """

    active = False
    records: list[dict] = []

    def _ignore(self, *args, **fields) -> None:
        pass

    actor = round_event = crash = restart = sync = monitor = _ignore

    def recorder_stats(self):
        """Flight-recorder statistics; ``None`` but for a
        :class:`~repro.obs.recorder.FlightRecorder`."""
        return None

    def dump(self, path):
        raise ValueError("the null tracer records nothing; pass a Tracer")


#: Shared inert instance; schedulers default to this.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records Lamport-stamped structured events, in memory, as dicts.

    ``dump``/``dumps`` serialize to JSONL (one record per line);
    :func:`read_jsonl` reads such a file back for offline checking and
    export.
    """

    active = True

    def __init__(self) -> None:
        self._clocks: dict[str, int] = {}
        self._next_mid = 0
        self._records: list[dict] = []

    @property
    def records(self) -> list[dict]:
        """Every record, in recording order."""
        return self._records

    # ------------------------------------------------------------------
    # clock discipline

    def _tick(self, site: str) -> int:
        stamp = self._clocks.get(site, 0) + 1
        self._clocks[site] = stamp
        return stamp

    def _merge(self, site: str, sent_lc: int) -> int:
        stamp = max(self._clocks.get(site, 0), sent_lc) + 1
        self._clocks[site] = stamp
        return stamp

    def _emit(self, site: str, cat: str, op: str, t: float, lc: int, fields: dict) -> dict:
        record = {"lc": lc, "t": t, "site": site, "cat": cat, "op": op}
        record.update(fields)
        self._records.append(record)
        return record

    def local(self, t: float, site: str, cat: str, op: str, **fields: Any) -> dict:
        """Record a purely local event at ``site`` (ticks its clock)."""
        return self._emit(site, cat, op, t, self._tick(site), fields)

    # ------------------------------------------------------------------
    # message fabric (called from repro.sim.network)

    def message_send(self, t: float, src: str, dst: str, kind: str) -> tuple[int, int]:
        """Record a physical transmission; returns ``(mid, send_lc)``.

        The fabric threads both through to the matching delivery so
        :meth:`message_recv` can name its cause.
        """
        self._next_mid += 1
        mid = self._next_mid
        lc = self._tick(src)
        self._emit(src, "message", "send", t, lc, {"kind": kind, "src": src, "dst": dst, "mid": mid})
        return mid, lc

    def message_recv(self, t: float, src: str, dst: str, kind: str, mid: int, sent_lc: int) -> None:
        lc = self._merge(dst, sent_lc)
        self._emit(
            dst, "message", "recv", t, lc,
            {"kind": kind, "src": src, "dst": dst, "mid": mid, "sent_lc": sent_lc},
        )

    def message_drop(self, t: float, src: str, dst: str, kind: str) -> None:
        self.local(t, src, "message", "drop", kind=kind, src=src, dst=dst)

    def message_dup(self, t: float, src: str, dst: str, kind: str) -> None:
        self.local(t, src, "message", "dup", kind=kind, src=src, dst=dst)

    # ------------------------------------------------------------------
    # session layer (repro.sim.reliable)

    def session(self, t: float, site: str, op: str, **fields: Any) -> None:
        """``op``: retransmit / giveup / dedup / stale / crash_lost / reset."""
        self.local(t, site, "session", op, **fields)

    # ------------------------------------------------------------------
    # actors and guards (repro.scheduler)

    def actor(self, t: float, site: str, event: Any, op: str, **fields: Any) -> None:
        """``op``: attempted / parked / fired / accepted / rejected /
        forced / dead / recovered."""
        self.local(t, site, "actor", op, event=repr(event), **fields)

    def guard_eval(
        self,
        t: float,
        site: str,
        event: Any,
        guard: Any,
        residual: Any,
        verdict: str,
        cubes: list | None = None,
        knowledge: dict | None = None,
    ) -> None:
        """One guard evaluation: the compiled guard, its current
        residual under assimilated knowledge and the verdict
        (``fire``/``park``/``never``).

        ``cubes`` and ``knowledge``, when supplied, are the *structured*
        form of the decision -- the durable guard's cubes as
        ``[[base, mask], ...]`` lists and the knowledge as a
        ``{base: mask}`` dict (base names as strings, masks as the
        four-world integers of :mod:`repro.temporal.cubes`).  They let
        ``repro explain <trace> <event>`` replay the literal-level
        verdict offline without re-running the scheduler."""
        fields: dict[str, Any] = {
            "event": repr(event), "guard": repr(guard),
            "residual": repr(residual), "verdict": verdict,
        }
        if cubes is not None:
            fields["cubes"] = cubes
        if knowledge is not None:
            fields["knowledge"] = knowledge
        self.local(t, site, "guard", "eval", **fields)

    def round_event(
        self, t: float, site: str, event: Any, op: str, round_id: int,
        targets: Iterable | None = None, **fields: Any,
    ) -> None:
        """Not-yet certificate rounds: ``op`` is start / conclude /
        abort; ``targets`` are the bases a starting round asks about."""
        if targets is not None:
            fields["targets"] = [repr(base) for base in targets]
        self.local(t, site, "round", op, event=repr(event), round_id=round_id, **fields)

    # ------------------------------------------------------------------
    # faults and recovery

    def crash(self, t: float, site: str) -> None:
        self.local(t, site, "fault", "crash")

    def restart(self, t: float, site: str) -> None:
        self.local(t, site, "fault", "restart")

    def sync(
        self, t: float, site: str, op: str, event: Any = None, **fields: Any
    ) -> None:
        """Recovery sync rounds: ``op`` is begin / reply / complete;
        a reply names the ``event`` whose actor it reached."""
        if event is not None:
            fields["event"] = repr(event)
        self.local(t, site, "sync", op, **fields)

    # ------------------------------------------------------------------
    # requirement monitors

    def monitor(self, t: float, site: str, op: str, **subjects: Any) -> None:
        """``op``: trigger (of an ``event``) / doomed (a ``dependency``
        at a ``residual``); each subject is recorded by its ``repr``."""
        self.local(
            t, site, "monitor", op,
            **{name: repr(subject) for name, subject in subjects.items()},
        )

    # ------------------------------------------------------------------
    # observer reads

    def clock(self, site: str) -> int:
        """The site's current Lamport stamp (0 before its first record).

        Read-only: does not tick.  Used to stamp a snapshot cut with
        the causal position of the record stream it was read at."""
        return self._clocks.get(site, 0)

    # ------------------------------------------------------------------
    # serialization

    def dumps(self) -> str:
        return to_jsonl(self.records)

    def dump(self, path) -> None:
        """Write the trace as JSONL to ``path`` (gzipped for ``.gz``)."""
        with open_trace(path, "w") as handle:
            handle.write(self.dumps())


def to_jsonl(records: list[dict]) -> str:
    """``records`` as JSONL text, one sorted-key object per line."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def read_jsonl(path) -> list[dict]:
    """Read a JSONL trace back into a list of records.

    Transparently decompresses gzipped traces (suffix or magic-byte
    detection -- see :func:`open_trace`).  Raises :class:`ValueError`
    naming the offending line number when a line is not valid JSON
    (e.g. a trace truncated by a crash mid-write), or when a gzip stream
    ends before its end-of-stream marker, and propagates
    :class:`OSError` for unreadable paths; callers that want to
    *tolerate* damage line-by-line should parse themselves (the offline
    checker does -- see :func:`repro.obs.check.check_file`)."""
    records = []
    with open_trace(path, "r") as handle:
        try:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"line {number}: not a JSON trace record "
                        f"(truncated trace?): {exc}"
                    ) from exc
        except EOFError as exc:  # gzip stream cut off mid-member
            raise ValueError(
                f"compressed stream ends early after {len(records)} "
                f"records (truncated trace?): {exc}"
            ) from exc
    return records


def index_trace(
    records: Sequence[Mapping],
) -> tuple[dict[str, list[int]], dict[int, int], dict[str, int]]:
    """One pass over a trace: ``(streams, sends, occurred)``.

    ``streams`` maps each site to the indices of its records in
    recording order (its Lamport order); a flight-recorder window header
    belongs to no site's stream.  ``sends`` maps a message id to the
    index of its ``send`` record, ``occurred`` a signed event name to
    the index of its first occurrence record.  Raises
    :class:`ValueError` naming a record that has no site."""
    streams: dict[str, list[int]] = {}
    sends: dict[int, int] = {}
    occurred: dict[str, int] = {}
    for idx, r in enumerate(records):
        if not isinstance(r, Mapping) or r.get("cat") == "recorder":
            continue
        site = r.get("site")
        if not isinstance(site, str):
            raise ValueError(f"record {idx} has no site: {r!r}")
        streams.setdefault(site, []).append(idx)
        cat, op = r.get("cat"), r.get("op")
        if cat == "message" and op == "send":
            sends.setdefault(r.get("mid"), idx)
        elif cat == "actor" and op in OCCURRED_OPS:
            occurred.setdefault(r.get("event"), idx)
    return streams, sends, occurred
