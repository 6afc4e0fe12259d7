"""Offline analytics over causal traces and run reports.

The tracer (:mod:`repro.obs.tracer`) records *what happened*; this
module answers questions about it after the fact:

* :func:`filter_records` -- select records by event, site, category,
  op, message kind, and sim-time range (``repro trace query``).
* :func:`attempt_to_fire` / :func:`latency_summary` -- per-event
  attempt->occurrence latencies read off actor lifecycle records,
  with nearest-rank percentiles.  :func:`histogram_cross_check`
  verifies them against the scheduler's own ``time_to_allow``
  lifecycle histogram (count/sum/min/max per site must agree exactly
  -- sim time is deterministic).
* :func:`critical_path` -- the causal chain that ends at an occurrence:
  walk back through same-site predecessors and message send->recv
  edges, then compress it into per-site segments.
* :func:`evaluate_slos` -- declarative service-level objectives over a
  ``run --json`` report (``repro slo check``): named indicators such
  as ``p99_attempt_to_fire``, ``retransmit_rate``, and
  ``guard_evals_per_announcement``, or a generic dotted ``path`` into
  the report, each bounded by ``min``/``max``.  An indicator with no
  data fails closed -- CI should notice an empty run, not bless it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.obs.tracer import OCCURRED_OPS, base_name, index_trace

#: percentiles reported by :func:`latency_summary`
PERCENTILES = (50, 90, 99)


def filter_records(
    records: Iterable[Mapping],
    *,
    event: str | None = None,
    site: str | None = None,
    cat: str | None = None,
    op: str | None = None,
    kind: str | None = None,
    since: float | None = None,
    until: float | None = None,
) -> list[Mapping]:
    """Records matching every given criterion.

    ``event`` matches on the base name, so ``c_buy`` also selects
    ``~c_buy`` records; ``site`` matches the recording site as well as
    a message's ``src``/``dst``.  ``since``/``until`` bound the sim
    time (inclusive).
    """
    out = []
    for r in records:
        if event is not None:
            rec_event = r.get("event")
            if rec_event is None or base_name(rec_event) != base_name(event):
                continue
        if site is not None and site not in (
            r.get("site"), r.get("src"), r.get("dst")
        ):
            continue
        if cat is not None and r.get("cat") != cat:
            continue
        if op is not None and r.get("op") != op:
            continue
        if kind is not None and r.get("kind") != kind:
            continue
        t = r.get("t")
        if since is not None and (t is None or t < since):
            continue
        if until is not None and (t is None or t > until):
            continue
        out.append(r)
    return out


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile (q in [0, 100]); ``None`` on no data."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def attempt_to_fire(records: Iterable[Mapping]) -> dict[str, list[dict]]:
    """Per-event attempt->occurrence latencies from actor records.

    A ``fired`` record is paired with the latest ``attempted`` record
    of its event (a re-attempt restarts the clock), independently of
    the ``time_to_allow`` histogram.  The center's ``accepted`` (its
    ``attempted`` record is written a message after the attempt) and
    an occurrence whose attempt a flight-recorder window evicted take
    the wait they record, ``waited``, instead.  Returns ``{event:
    [{"latency", "attempted_at", "fired_at", "site"}, ...]}``.
    """
    last_attempt: dict[str, float] = {}
    out: dict[str, list[dict]] = {}
    for r in records:
        if r.get("cat") != "actor":
            continue
        ev, op = r.get("event"), r.get("op")
        if op == "attempted":
            last_attempt[ev] = r["t"]
        elif op in OCCURRED_OPS:
            attempted, waited = last_attempt.get(ev), r.get("waited")
            if op == "fired" and attempted is not None:
                waited = r["t"] - attempted
            elif waited is None:
                continue
            else:
                attempted = r["t"] - waited
            out.setdefault(ev, []).append({
                "latency": waited,
                "attempted_at": attempted,
                "fired_at": r["t"],
                "site": r.get("site"),
            })
    return out


def latency_summary(records: Iterable[Mapping]) -> dict[str, dict]:
    """Per-event latency statistics: count, mean, p50/p90/p99, max."""
    summary: dict[str, dict] = {}
    for event, fires in sorted(attempt_to_fire(records).items()):
        lats = [f["latency"] for f in fires]
        entry = {
            "count": len(lats),
            "mean": sum(lats) / len(lats),
            "max": max(lats),
        }
        for q in PERCENTILES:
            entry[f"p{q}"] = percentile(lats, q)
        summary[event] = entry
    return summary


def histogram_cross_check(
    records: Iterable[Mapping], metrics_report: Mapping
) -> list[str]:
    """Disagreements between trace-derived latencies and ``time_to_allow``.

    The scheduler records ``time_to_allow`` (attempt->fire) per site
    as it runs; the trace reconstruction must reproduce its count,
    sum, min, and max exactly.  Returns human-readable mismatch
    descriptions (empty = the two observations agree).
    """
    hist = metrics_report.get("histograms", {}).get("time_to_allow")
    per_site: dict[str, list[float]] = {}
    for fires in attempt_to_fire(records).values():
        for f in fires:
            per_site.setdefault(f["site"], []).append(f["latency"])
    if hist is None:
        return (
            ["trace has fires but metrics lack a time_to_allow histogram"]
            if per_site else []
        )
    problems = []
    recorded = hist.get("sites", {})
    for site in sorted(set(per_site) | set(recorded)):
        lats = per_site.get(site, [])
        stats = recorded.get(site)
        if stats is None:
            problems.append(
                f"site {site}: {len(lats)} fire(s) in trace, none in histogram"
            )
            continue
        derived = {
            "count": len(lats),
            "sum": sum(lats),
            "min": min(lats) if lats else 0.0,
            "max": max(lats) if lats else 0.0,
        }
        for field in ("count", "sum", "min", "max"):
            if not math.isclose(
                derived[field], stats[field], rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"site {site}: {field} from trace "
                    f"{derived[field]} != histogram {stats[field]}"
                )
    return problems


def causal_chain(records: Sequence[Mapping], target_idx: int) -> list[int]:
    """Record indices of the causal chain ending at ``records[target_idx]``.

    Walks backwards from the target: within a site, to the previous
    record of that site's stream; at a message ``recv``, across to the
    matching ``send`` (when present -- a flight-recorder window may
    have evicted it, which just ends that branch of the walk).  The
    result is in record order and always ends with ``target_idx``.

    This is the provenance walk behind :func:`critical_path`; the
    trace differ (:mod:`repro.obs.diff`) reuses it to chain backwards
    from a divergence point.
    """
    streams, sends, _occurred = index_trace(records)
    chain: list[int] = []
    idx: int | None = target_idx
    while idx is not None:
        chain.append(idx)
        r = records[idx]
        if r.get("cat") == "message" and r.get("op") == "recv":
            prev = sends.get(r.get("mid"))
            if prev is not None:
                idx = prev
                continue
        stream = streams.get(r.get("site"))
        if stream is None:
            break
        pos = bisect_left(stream, idx)
        idx = stream[pos - 1] if pos > 0 else None
    chain.reverse()
    return chain


def chain_segments(records: Sequence[Mapping], chain: Sequence[int]) -> list[dict]:
    """Compress a causal chain into per-site segments.

    Each segment is ``{"site", "from_t", "to_t", "records",
    "via_kind", "via_mid"}`` where ``via_*`` name the message that
    carried causality into the segment (``None`` for the first).
    """
    segments: list[dict] = []
    via_kind = via_mid = None
    for idx in chain:
        r = records[idx]
        if segments and segments[-1]["site"] == r["site"]:
            seg = segments[-1]
            seg["to_t"] = r["t"]
            seg["records"] += 1
        else:
            segments.append({
                "site": r["site"],
                "from_t": r["t"],
                "to_t": r["t"],
                "records": 1,
                "via_kind": via_kind,
                "via_mid": via_mid,
            })
        if r.get("cat") == "message" and r.get("op") == "send":
            via_kind, via_mid = r.get("kind"), r.get("mid")
        else:
            via_kind = via_mid = None
    return segments


def critical_path(
    records: Sequence[Mapping], event: str | None = None
) -> list[dict]:
    """Per-site segments of the causal chain ending at an occurrence.

    Starting from the last occurrence record (or the occurrence of
    ``event``), walk backwards via :func:`causal_chain` and compress
    the raw chain with :func:`chain_segments`.  Returns ``[]`` when
    nothing occurred.
    """
    target_idx: int | None = None
    for idx, r in enumerate(records):
        if r.get("cat") == "actor" and r.get("op") in OCCURRED_OPS and (
            event is None or base_name(r.get("event", "")) == base_name(event)
        ):
            target_idx = idx
    if target_idx is None:
        return []
    return chain_segments(records, causal_chain(records, target_idx))


# --------------------------------------------------------------------------
# SLO evaluation over a ``run --json`` report


def _timeline_latencies(report: Mapping) -> list[float]:
    return [
        entry["time"] - entry["attempted_at"]
        for entry in report.get("timeline", [])
        if entry.get("outcome") == "accepted"
        and entry.get("attempted_at") is not None
    ]


def _dotted(report: Mapping, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return node


def _indicator_value(report: Mapping, name: str):
    metrics = report.get("metrics", {})
    network = metrics.get("network", {})
    if name in ("p50_attempt_to_fire", "p90_attempt_to_fire",
                "p99_attempt_to_fire", "max_attempt_to_fire",
                "mean_attempt_to_fire"):
        lats = _timeline_latencies(report)
        if not lats:
            return None
        if name.startswith("max"):
            return max(lats)
        if name.startswith("mean"):
            return sum(lats) / len(lats)
        return percentile(lats, int(name[1:3]))
    if name == "retransmit_rate":
        sent = network.get("messages")
        if sent is None:
            return None
        return network.get("retransmits", 0) / max(1, sent)
    if name == "guard_evals_per_announcement":
        evals = (
            metrics.get("counters", {})
            .get("guard_evals", {})
            .get("total")
        )
        if evals is None:
            evals = (
                metrics.get("kernel", {}).get("watch", {}).get("wakes")
            )
        announced = network.get("by_kind", {}).get("announce")
        if evals is None or announced is None:
            return None
        return evals / max(1, announced)
    if name == "makespan":
        return report.get("makespan")
    if name == "messages":
        return report.get("messages")
    if name == "violations":
        return len(report.get("violations", []))
    if name == "unsettled":
        return len(report.get("unsettled", []))
    if name == "fired":
        return len([
            e for e in report.get("timeline", [])
            if e.get("outcome") == "accepted"
        ])
    return None


#: indicator names :func:`evaluate_slos` understands
KNOWN_INDICATORS = (
    "p50_attempt_to_fire", "p90_attempt_to_fire", "p99_attempt_to_fire",
    "max_attempt_to_fire", "mean_attempt_to_fire",
    "retransmit_rate", "guard_evals_per_announcement",
    "makespan", "messages", "violations", "unsettled", "fired",
)


def evaluate_slos(report: Mapping, slo_doc: Mapping) -> list[dict]:
    """Evaluate each SLO rule against a ``run --json`` report.

    ``slo_doc`` is ``{"slos": [rule, ...]}``; a rule names either an
    ``indicator`` from :data:`KNOWN_INDICATORS` or a dotted ``path``
    into the report, plus ``min``/``max`` bounds (at least one).  A
    rule whose value cannot be computed (unknown indicator, missing
    path, or a latency percentile of a run that fired nothing) fails
    with ``"no data"`` -- an empty run must not pass a latency gate.

    Returns one result dict per rule: ``{"name", "value", "min",
    "max", "ok", "detail"}``.
    """
    rules = slo_doc.get("slos")
    if not isinstance(rules, list) or not rules:
        raise ValueError('SLO document needs a non-empty "slos" list')
    results = []
    for rule in rules:
        indicator = rule.get("indicator")
        path = rule.get("path")
        if (indicator is None) == (path is None):
            raise ValueError(
                f'SLO rule needs exactly one of "indicator"/"path": {rule!r}'
            )
        if indicator is not None and indicator not in KNOWN_INDICATORS:
            raise ValueError(
                f"unknown SLO indicator {indicator!r} "
                f"(known: {', '.join(KNOWN_INDICATORS)})"
            )
        lo, hi = rule.get("min"), rule.get("max")
        if lo is None and hi is None:
            raise ValueError(f'SLO rule needs a "min" or "max" bound: {rule!r}')
        value = (
            _indicator_value(report, indicator)
            if indicator is not None else _dotted(report, path)
        )
        name = rule.get("name") or indicator or path
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            results.append({
                "name": name, "value": None, "min": lo, "max": hi,
                "ok": False, "detail": "no data",
            })
            continue
        ok = (lo is None or value >= lo) and (hi is None or value <= hi)
        bound = (
            f">= {lo}" if hi is None else
            f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        )
        results.append({
            "name": name, "value": value, "min": lo, "max": hi,
            "ok": ok, "detail": f"{value:g} {bound}",
        })
    return results
