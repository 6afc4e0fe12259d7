"""Export a JSONL trace to the Chrome ``chrome://tracing`` JSON format.

The output is the Trace Event Format understood by ``chrome://tracing``
and Perfetto (https://ui.perfetto.dev): a ``{"traceEvents": [...]}``
object.  The mapping:

* one *process* (``pid``) per site, named via ``process_name`` metadata;
* one *thread* (``tid``) per record category, so messages, guard
  evaluations, actor transitions etc. land on separate rows;
* most records, guard evaluations among them, become *instant* events
  (``ph: "i"``);
* each delivered message becomes a *flow* arrow (``ph: "s"`` at the
  send, ``ph: "f"`` at the receive, joined by the message id), which
  renders the causal structure the Lamport stamps encode;
* crash/restart pairs become ``B``/``E`` spans labelled ``down``.

Timestamps are virtual simulator time in microseconds (``t`` * 1e6);
the viewer's units are then "simulated seconds as microseconds".
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.obs.tracer import index_trace

_US = 1_000_000  # virtual seconds -> display microseconds


def _args(record: dict) -> dict:
    skip = {"lc", "t", "site", "cat", "op"}
    args = {k: v for k, v in record.items() if k not in skip}
    args["lc"] = record["lc"]
    return args


def to_chrome(records: Sequence[dict]) -> dict[str, Any]:
    """Convert trace records to a Chrome/Perfetto trace-event dict."""
    events: list[dict] = []
    pids: dict[str, int] = {}
    sends = index_trace(records)[1]

    def pid(site: str) -> int:
        if site not in pids:
            pids[site] = len(pids) + 1
            events.append({
                "ph": "M", "name": "process_name", "pid": pids[site], "tid": 0,
                "args": {"name": f"site {site}"},
            })
        return pids[site]

    for record in records:
        site = record["site"]
        cat = record["cat"]
        op = record["op"]
        base = {
            "pid": pid(site),
            "tid": cat,
            "cat": cat,
            "ts": record["t"] * _US,
            "args": _args(record),
        }

        if cat == "message" and op == "send":
            events.append({**base, "ph": "i", "s": "t",
                           "name": f"send {record['kind']} -> {record['dst']}"})
        elif cat == "message" and op == "recv":
            events.append({**base, "ph": "i", "s": "t",
                           "name": f"recv {record['kind']} <- {record['src']}"})
            if record["mid"] in sends:
                send = records[sends[record["mid"]]]
                flow = {"cat": "message", "name": record["kind"],
                        "id": record["mid"]}
                events.append({**flow, "ph": "s", "pid": pid(send["site"]),
                               "tid": "message", "ts": send["t"] * _US})
                events.append({**flow, "ph": "f", "bp": "e", "pid": base["pid"],
                               "tid": "message", "ts": base["ts"]})
        elif cat == "fault" and op == "crash":
            events.append({**base, "ph": "B", "tid": "fault", "name": "down"})
        elif cat == "fault" and op == "restart":
            events.append({**base, "ph": "E", "tid": "fault", "name": "down"})
        else:
            name = op
            if "event" in record:
                name = f"{op} {record['event']}"
            elif "kind" in record:
                name = f"{op} {record['kind']}"
            events.append({**base, "ph": "i", "s": "t", "name": name})

    return {"traceEvents": events, "displayTimeUnit": "ms"}
