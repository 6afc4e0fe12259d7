"""Cross-run regression registry (``repro runs ...``).

A :class:`RunRegistry` is a content-addressed store of finished runs
under ``.repro/runs/``: each entry keeps the ``run --json`` report,
the causal trace (gzipped), the phase profile when one was taken, and
the run's configuration, under a directory named by a hash of the
run's *deterministic* content.  A trace holds no wall-clock time and
the hash leaves out the entry's own creation time, so re-running the
same seed on the same spec lands on the same id (the store dedups
instead of growing), while any decision change produces a new entry.

On top of the store sit the regression tools:

* ``repro runs compare A B`` feeds two stored traces through the trace
  differ (:mod:`repro.obs.diff`), localizing exactly where two stored
  runs diverged;
* ``repro runs regress`` trends the latency/message/guard-eval
  indicators of :mod:`repro.obs.query` across the stored history:
  the newest run is compared against the best previous value of each
  lower-is-better indicator, with a tolerance band, and optionally
  gated through :func:`~repro.obs.query.evaluate_slos` -- wiring the
  bench corpus and CI into one regression detective.

The default root is ``.repro/runs`` relative to the working directory;
every entry is self-contained plain files, so the directory can be
uploaded as a CI artifact and inspected with nothing but ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Any, Mapping, Sequence

from repro.obs.diff import TraceDiff, diff_traces
from repro.obs.query import KNOWN_INDICATORS, _indicator_value, evaluate_slos
from repro.obs.tracer import open_trace

__all__ = ["RunRegistry", "DEFAULT_ROOT", "TREND_INDICATORS"]

DEFAULT_ROOT = os.path.join(".repro", "runs")

#: indicators trended by :meth:`RunRegistry.regress`; all are
#: lower-is-better ("fired" is deliberately absent)
TREND_INDICATORS = (
    "makespan",
    "messages",
    "mean_attempt_to_fire",
    "p99_attempt_to_fire",
    "retransmit_rate",
    "guard_evals_per_announcement",
    "violations",
    "unsettled",
)


def _content_id(
    config: Mapping | None,
    records: Sequence[Mapping] | None,
    report: Mapping,
) -> str:
    """Hash the run's deterministic content.

    The trace is the strongest identity; the result core (timeline,
    violations, unsettled, makespan, messages) covers untraced runs.
    Metrics are left out: their histograms are sim-time and their counts
    follow from the run the trace and result core already identify, so
    they would add only the flight recorder's ring bookkeeping.
    """
    core = {
        "config": config or {},
        "result": {
            key: report.get(key)
            for key in (
                "ok", "makespan", "messages", "timeline",
                "violations", "unsettled",
            )
        },
    }
    if records is not None:
        core["trace"] = list(records)
    payload = json.dumps(core, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


class RunRegistry:
    """Content-addressed store of runs; see the module docstring."""

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = str(root)

    # ------------------------------------------------------------------
    # storing

    def store(
        self,
        report: Mapping,
        *,
        records: Sequence[Mapping] | None = None,
        profile: Mapping | None = None,
        config: Mapping | None = None,
        name: str | None = None,
        shards: Sequence[Mapping] | None = None,
    ) -> dict:
        """Persist one run; returns its meta document.

        ``report`` is a ``run --json`` payload; ``records`` the causal
        trace; ``config`` whatever reproduces the run (spec, seed,
        flags); ``shards`` optional per-shard summaries for scale-out
        runs.  Identical deterministic content dedups onto the same id
        (the existing entry is kept; its meta is returned with
        ``"deduplicated": True``).
        """
        run_id = _content_id(config, records, report)
        run_dir = os.path.join(self.root, run_id)
        if os.path.isdir(run_dir):
            meta = self._read_meta(run_dir)
            meta["deduplicated"] = True
            return meta
        indicators = {}
        for indicator in KNOWN_INDICATORS:
            value = _indicator_value(report, indicator)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                indicators[indicator] = value
        meta = {
            "id": run_id,
            "name": name,
            "created": time.time(),
            "config": dict(config or {}),
            "indicators": indicators,
            "summary": {
                "ok": report.get("ok"),
                "makespan": report.get("makespan"),
                "messages": report.get("messages"),
                "fired": len([
                    e for e in report.get("timeline", [])
                    if e.get("outcome") == "accepted"
                ]),
                "violations": len(report.get("violations", [])),
                "unsettled": len(report.get("unsettled", [])),
                "trace_records": len(records) if records is not None else None,
            },
        }
        if shards:
            meta["shards"] = [dict(s) for s in shards]
        tmp_dir = run_dir + ".tmp"
        if os.path.isdir(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)
        # the report is stored without an embedded trace (the trace has
        # its own compressed file); regress/slo read this file
        stored_report = {k: v for k, v in report.items() if k != "trace"}
        with open(os.path.join(tmp_dir, "report.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(stored_report, handle, indent=2, default=repr)
        if records is not None:
            with open_trace(
                os.path.join(tmp_dir, "trace.jsonl.gz"), "w"
            ) as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        if profile is not None:
            with open(os.path.join(tmp_dir, "profile.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(profile, handle, indent=2, default=repr)
        with open(os.path.join(tmp_dir, "meta.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
        os.replace(tmp_dir, run_dir)
        return meta

    # ------------------------------------------------------------------
    # reading

    def _read_meta(self, run_dir: str) -> dict:
        with open(os.path.join(run_dir, "meta.json"), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)

    def list_runs(self) -> list[dict]:
        """Meta documents of every stored run, oldest first."""
        if not os.path.isdir(self.root):
            return []
        metas = []
        for entry in os.listdir(self.root):
            run_dir = os.path.join(self.root, entry)
            meta_path = os.path.join(run_dir, "meta.json")
            if not os.path.isfile(meta_path):
                continue
            try:
                metas.append(self._read_meta(run_dir))
            except (OSError, json.JSONDecodeError):
                continue
        metas.sort(key=lambda m: (m.get("created", 0), m.get("id", "")))
        return metas

    def resolve(self, ident: str) -> dict:
        """Meta of the run identified by a full id, unique id prefix,
        or name; raises :class:`KeyError` when absent or ambiguous."""
        matches = [
            meta for meta in self.list_runs()
            if meta.get("id") == ident
            or meta.get("name") == ident
            or (len(ident) >= 4 and str(meta.get("id", "")).startswith(ident))
        ]
        exact = [m for m in matches if m.get("id") == ident]
        if exact:
            return exact[0]
        if not matches:
            raise KeyError(f"no stored run matches {ident!r}")
        ids = sorted({m["id"] for m in matches})
        if len(ids) > 1:
            raise KeyError(
                f"{ident!r} is ambiguous: matches {', '.join(ids)}"
            )
        return matches[0]

    def run_dir(self, ident: str) -> str:
        return os.path.join(self.root, self.resolve(ident)["id"])

    def load_report(self, ident: str) -> dict:
        with open(os.path.join(self.run_dir(ident), "report.json"), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)

    def load_trace(self, ident: str) -> list[dict]:
        """The stored causal trace; raises :class:`KeyError` when the
        run was stored without one."""
        path = os.path.join(self.run_dir(ident), "trace.jsonl.gz")
        if not os.path.isfile(path):
            raise KeyError(f"run {ident!r} has no stored trace")
        from repro.obs.tracer import read_jsonl

        return read_jsonl(path)

    def show(self, ident: str) -> dict:
        """Meta plus the stored files and their sizes."""
        meta = self.resolve(ident)
        run_dir = os.path.join(self.root, meta["id"])
        files = {
            entry: os.path.getsize(os.path.join(run_dir, entry))
            for entry in sorted(os.listdir(run_dir))
        }
        return dict(meta, files=files, path=run_dir)

    # ------------------------------------------------------------------
    # maintenance

    def gc(self, keep: int = 20) -> list[str]:
        """Drop the oldest entries beyond ``keep``; returns removed ids."""
        if keep < 0:
            raise ValueError(f"keep must be non-negative, got {keep}")
        metas = self.list_runs()
        removed = []
        for meta in metas[: max(0, len(metas) - keep)]:
            shutil.rmtree(os.path.join(self.root, meta["id"]))
            removed.append(meta["id"])
        return removed

    # ------------------------------------------------------------------
    # regression detection

    def compare(self, ident_a: str, ident_b: str) -> TraceDiff:
        """Diff two stored runs' traces (see :mod:`repro.obs.diff`)."""
        return diff_traces(self.load_trace(ident_a), self.load_trace(ident_b))

    def regress(
        self,
        indicators: Sequence[str] | None = None,
        tolerance: float = 0.10,
        slo_doc: Mapping | None = None,
    ) -> dict:
        """Trend indicators across stored runs; newest vs best previous.

        For each lower-is-better indicator the newest run's value is
        compared against the *best* (minimum) value among all earlier
        stored runs; it regresses when it exceeds the best by more than
        ``tolerance`` (relative).  ``slo_doc`` additionally gates the
        newest run's report through :func:`evaluate_slos`.

        Returns ``{"runs", "baseline_runs", "latest", "indicators",
        "regressed", "slo"}``; raises :class:`ValueError` with fewer
        than two stored runs (a trend needs history).
        """
        if tolerance < 0:
            raise ValueError(f"tolerance must be non-negative: {tolerance}")
        metas = self.list_runs()
        if len(metas) < 2:
            raise ValueError(
                f"regression trending needs at least 2 stored runs, "
                f"have {len(metas)}"
            )
        names = tuple(indicators) if indicators else TREND_INDICATORS
        unknown = [n for n in names if n not in KNOWN_INDICATORS]
        if unknown:
            raise ValueError(
                f"unknown indicator(s): {', '.join(unknown)} "
                f"(known: {', '.join(KNOWN_INDICATORS)})"
            )
        latest = metas[-1]
        earlier = metas[:-1]
        rows = []
        regressed = False
        for indicator in names:
            value = latest.get("indicators", {}).get(indicator)
            history = [
                meta.get("indicators", {}).get(indicator)
                for meta in earlier
            ]
            history = [v for v in history if v is not None]
            if value is None or not history:
                rows.append({
                    "indicator": indicator,
                    "latest": value,
                    "best": min(history) if history else None,
                    "ok": True,
                    "detail": "no data",
                })
                continue
            best = min(history)
            # a relative band: a zero best (0 violations) tolerates
            # nothing
            limit = best * (1.0 + tolerance)
            ok = value <= limit
            regressed = regressed or not ok
            rows.append({
                "indicator": indicator,
                "latest": value,
                "best": best,
                "ok": ok,
                "detail": (
                    f"{value:g} vs best {best:g} "
                    f"(+{tolerance:.0%} tolerance)"
                ),
            })
        out: dict[str, Any] = {
            "runs": len(metas),
            "baseline_runs": len(earlier),
            "latest": {
                "id": latest["id"],
                "name": latest.get("name"),
                "created": latest.get("created"),
            },
            "indicators": rows,
            "regressed": regressed,
        }
        if slo_doc is not None:
            report = self.load_report(latest["id"])
            slo_results = evaluate_slos(report, slo_doc)
            out["slo"] = slo_results
            out["regressed"] = regressed or any(
                not r["ok"] for r in slo_results
            )
        return out
