"""Consistent global snapshots of a distributed scheduler run.

The simulator is single-threaded and holds the whole global state, so
a consistent cut needs no protocol: between two simulator steps every
site's state and every undelivered message can be read directly.
:meth:`DistributedScheduler.snapshot` reads them now;
:meth:`DistributedScheduler.schedule_snapshots` reads them at the
boundaries of a virtual-time cadence through the simulator's read-only
sampling hook (:meth:`repro.sim.clock.Simulator.sample_every`), which
runs before the due instant's entries fire.  A snapshot sends nothing,
schedules nothing, draws nothing from the fabric's rng and writes no
trace record, so a run with snapshots is the run without them.

A snapshot holds every site's local state, with the sites that are
down at the cut listed in ``down`` (their state is the durable part
that survived the crash); each site's cut position, its Lamport clock
in a traced run; and per ordered channel ``"src->dst"`` every payload
``src`` sent whose handler has not yet run, as the channel in use
lists them (``undelivered()`` of the raw fabric or of the session
layer).

:func:`check_snapshot` validates a snapshot, optionally against the
run's causal trace: settled facts recorded anywhere in the cut must
have fired inside the origin site's side of the cut (no knowledge from
the future), and no two recorded states may disagree about how a base
settled.
"""

from __future__ import annotations

from typing import Any

from repro.obs.check import Diagnostic
from repro.obs.tracer import base_name, index_trace
from repro.temporal.cubes import C_OCC, E_OCC


class Snapshot:
    """The global state of one scheduler, read at one instant."""

    def __init__(self, sched, snap_id: int, time: float):
        self.id = snap_id
        self.time = time
        sites = sched.snapshot_sites()
        #: site -> local state (actors, parked, frozen, ...)
        self.states: dict[str, dict] = {
            site: sched.site_state(site) for site in sites
        }
        faults = sched.faults
        #: the sites down at the cut
        self.down = [
            site for site in sites
            if faults is not None and faults.is_down(site)
        ]
        tracer = sched.tracer
        #: site -> Lamport clock at the cut (None untraced)
        self.cut: dict[str, int | None] = {
            site: tracer.clock(site) if tracer.active else None
            for site in sites
        }
        #: "src->dst" -> payloads sent whose handler has not yet run
        self.channels: dict[str, list[dict]] = {}
        for src, dst, kind, payload in sched.channel.undelivered():
            self.channels.setdefault(f"{src}->{dst}", []).append(
                {"kind": kind, "payload": repr(payload)}
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "time": self.time,
            "sites": dict(self.states),
            "down": list(self.down),
            "cut": dict(self.cut),
            "channels": {k: list(v) for k, v in self.channels.items()},
        }


# ----------------------------------------------------------------------
# consistency checking

def _settled_facts(state: dict) -> tuple[dict[str, str], list[tuple]]:
    """``(facts, conflicts)``: base -> signed event name, from every
    settled fact a recorded site state holds (actor statuses, knowledge
    masks, settlement log, monitor observations), and each
    ``(base, first, other, where)`` that contradicts an earlier one."""
    facts: dict[str, str] = {}
    conflicts: list[tuple] = []

    def put(base: str, signed: str, where: str) -> None:
        if facts.setdefault(base, signed) != signed:
            conflicts.append((base, facts[base], signed, where))

    for event_name, actor in state.get("actors", {}).items():
        base = base_name(event_name)
        if actor.get("status") == "occurred":
            put(base, event_name, "actor")
        elif actor.get("status") == "dead":
            comp = base if event_name.startswith("~") else "~" + base
            put(base, comp, "actor")
        for k_base, mask in actor.get("knowledge", {}).items():
            if mask == E_OCC:
                put(k_base, k_base, "knowledge")
            elif mask == C_OCC:
                put(k_base, "~" + k_base, "knowledge")
    for base, signed in state.get("settled", {}).items():
        put(base, signed, "settlement")
    for monitor in state.get("monitors", []):
        for signed in monitor.get("settled", []):
            put(base_name(signed), signed, "monitor")
    return facts, conflicts


def check_snapshot(
    snapshot: "Snapshot | dict",
    records: list[dict] | None = None,
) -> list[Diagnostic]:
    """Validate a snapshot's internal and causal consistency.

    Internal checks (always run): no recorded state may contain two
    settlements of one base or of opposite polarities, and no two
    recorded states may disagree about how a base settled.

    Cut check (when the run's trace ``records`` are given and the
    snapshot carries Lamport cut stamps): every settled fact present in
    the cut must originate from a firing *inside* the origin site's
    side of the cut -- ``fired.lc <= cut[origin_site]``.  Announcements
    travel directly from the firing site, so a fact known on a
    receiver's side of the cut but fired on the far side of the
    origin's would mean a message crossed the cut backwards.
    """
    snap = snapshot.as_dict() if isinstance(snapshot, Snapshot) else snapshot
    diags: list[Diagnostic] = []
    index = snap.get("id", 0)
    per_site: dict[str, dict[str, str]] = {}
    global_facts: dict[str, tuple[str, str]] = {}
    for site, state in sorted(snap.get("sites", {}).items()):
        facts, conflicts = _settled_facts(state)
        for base, old, new, where in conflicts:
            diags.append(Diagnostic(
                index, "snapshot-conflict",
                f"site {site} records {base} settled as both {old} and "
                f"{new} ({where})",
            ))
        per_site[site] = facts
        for base, signed in facts.items():
            seen = global_facts.get(base)
            if seen is not None and seen[0] != signed:
                diags.append(Diagnostic(
                    index, "snapshot-conflict",
                    f"sites {seen[1]} and {site} disagree on {base}: "
                    f"{seen[0]} vs {signed}",
                ))
            global_facts.setdefault(base, (signed, site))
    if records:
        cut = snap.get("cut", {})
        occurred = index_trace(records)[2]
        for site, facts in per_site.items():
            if cut.get(site) is None:
                continue
            for signed in facts.values():
                if signed not in occurred:
                    diags.append(Diagnostic(
                        index, "snapshot-causal",
                        f"site {site} records {signed} settled but the "
                        f"trace has no firing of it",
                    ))
                    continue
                origin = records[occurred[signed]]
                origin_cut = cut.get(origin["site"])
                if origin_cut is not None and origin["lc"] > origin_cut:
                    diags.append(Diagnostic(
                        index, "snapshot-cut",
                        f"site {site} knows {signed} inside the cut, but "
                        f"it fired at {origin['site']} outside the cut "
                        f"(lc {origin['lc']} > {origin_cut})",
                    ))
    return diags
