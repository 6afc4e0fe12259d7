"""Consistent global snapshots of a distributed scheduler run.

A Chandy--Lamport marker protocol over the scheduler's own message
channel: the initiator records its local state and floods a
``snapshot_marker`` to every other site; each site records on its
*first* marker for the snapshot and floods markers in turn; a channel's
in-flight messages are exactly those application-delivered at a
recorded site before that channel's marker arrives.  The snapshot is
complete when a marker has been received on every ordered channel.

The protocol rides the session layer (:mod:`repro.sim.reliable`) when
the run is reliable, so it stays correct under the fault model of the
chaos suite: markers are retransmitted through drops, deduplicated
through duplication, and re-queued through crashes -- a site that is
down when its marker arrives records right after its restart, which
still yields a consistent cut (its recorded state *is* its state at
record time, and session FIFO keeps post-marker traffic behind the
marker).  A permanently dead site simply leaves the snapshot
incomplete, which is reported, never hidden.

Like the tracer's Lamport clocks, the coordinator's bookkeeping is
*observer* state: it survives simulated crashes because it describes
the run rather than participating in it.  In-channel capture across a
restart inherits the session layer's at-least-once delivery, so a
channel state may list a re-delivered payload twice -- consistent with
what the (idempotent) handlers actually saw.

:func:`check_snapshot` validates a snapshot, optionally against the
run's causal trace: settled facts recorded anywhere in the cut must
have fired inside the origin site's side of the cut (no knowledge from
the future), and no two recorded states may disagree about how a base
settled.
"""

from __future__ import annotations

from typing import Any

from repro.obs.check import Diagnostic
from repro.temporal.cubes import C_OCC, E_OCC

#: The marker's message kind (registered in ``network.KNOWN_KINDS``).
MARKER_KIND = "snapshot_marker"


class Snapshot:
    """One (possibly in-progress) consistent global snapshot."""

    def __init__(self, snap_id: int, initiator: str, initiated_at: float,
                 sites: list[str]):
        self.id = snap_id
        self.initiator = initiator
        self.initiated_at = initiated_at
        self.sites = list(sites)
        #: site -> recorded local state (actors, parked, frozen, ...)
        self.states: dict[str, dict] = {}
        #: site -> Lamport stamp of its record point (None untraced)
        self.cut: dict[str, int | None] = {}
        #: site -> virtual time of its record point
        self.recorded_at: dict[str, float] = {}
        #: "src->dst" -> messages caught in the channel at the cut
        self.channels: dict[str, list[dict]] = {}
        self.complete = False
        self.completed_at: float | None = None
        self.aborted = False
        #: ordered channels whose marker has not arrived yet
        self._awaiting: set[tuple[str, str]] = {
            (src, dst)
            for src in self.sites
            for dst in self.sites
            if src != dst
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "initiator": self.initiator,
            "initiated_at": self.initiated_at,
            "complete": self.complete,
            "completed_at": self.completed_at,
            "aborted": self.aborted,
            "sites": dict(self.states),
            "cut": dict(self.cut),
            "recorded_at": dict(self.recorded_at),
            "channels": {k: list(v) for k, v in self.channels.items()},
            "missing": sorted(
                f"{src}->{dst}" for src, dst in self._awaiting
            ),
        }


class SnapshotCoordinator:
    """Drives the marker protocol for one scheduler.

    One snapshot is active at a time; initiating a new one abandons an
    unfinished predecessor (marked ``aborted``, kept in ``snapshots``).
    """

    def __init__(self, sched):
        self.sched = sched
        self.snapshots: list[Snapshot] = []
        self._active: Snapshot | None = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # protocol

    def initiate(self) -> Snapshot | None:
        """Start a snapshot from the first up site; None if all down."""
        sched = self.sched
        sites = sched.snapshot_sites()
        initiator = next(
            (
                s for s in sites
                if sched.faults is None or not sched.faults.is_down(s)
            ),
            None,
        )
        if initiator is None:
            return None
        if self._active is not None:
            self._abandon(self._active)
        snap = Snapshot(self._next_id, initiator, sched.sim.now, sites)
        self._next_id += 1
        self.snapshots.append(snap)
        self._active = snap
        if sched.tracer.active:
            sched.tracer.snapshot(
                sched.sim.now, initiator, "initiate", snap.id,
                sites=len(sites),
            )
        sched.metrics.inc("snapshots_initiated")
        sched.channel.delivery_hook = self._on_delivery
        self._record_site(snap, initiator)
        if not snap._awaiting:
            self._finish(snap)
        return snap

    def _record_site(self, snap: Snapshot, site: str) -> None:
        sched = self.sched
        snap.states[site] = sched.site_state(site)
        snap.recorded_at[site] = sched.sim.now
        if sched.tracer.active:
            # this record's Lamport stamp IS the site's cut position
            snap.cut[site] = sched.tracer.snapshot(
                sched.sim.now, site, "record", snap.id,
            )
        else:
            snap.cut[site] = None
        for other in snap.sites:
            if other == site:
                continue
            sched.channel.send(
                site, other, MARKER_KIND, (snap.id, site, other),
                self._on_marker,
            )

    def _on_marker(self, marker: tuple[int, str, str]) -> None:
        """A marker ``(snapshot id, src, dst)`` arrives at ``dst``."""
        snap_id, src, dst = marker
        snap = self._active
        if snap is None or snap.id != snap_id:
            return  # straggler from an abandoned snapshot
        snap._awaiting.discard((src, dst))
        if dst not in snap.states:
            self._record_site(snap, dst)
        if not snap._awaiting:
            self._finish(snap)

    def _on_delivery(self, src: str, dst: str, kind: str, payload) -> None:
        """Channel hook: capture messages in flight across the cut.

        A message is in the (src, dst) channel state exactly when the
        receiver has recorded but src's marker has not yet arrived on
        that channel -- the Chandy--Lamport rule."""
        snap = self._active
        if snap is None or kind == MARKER_KIND:
            return
        if dst not in snap.states:
            return
        if (src, dst) not in snap._awaiting:
            return
        snap.channels.setdefault(f"{src}->{dst}", []).append({
            "kind": kind,
            "payload": repr(payload),
            "t": self.sched.sim.now,
        })

    def _finish(self, snap: Snapshot) -> None:
        snap.complete = True
        snap.completed_at = self.sched.sim.now
        self._active = None
        self.sched.channel.delivery_hook = None
        if self.sched.tracer.active:
            self.sched.tracer.snapshot(
                self.sched.sim.now, snap.initiator, "complete", snap.id,
                duration=snap.completed_at - snap.initiated_at,
            )
        self.sched.metrics.inc("snapshots_completed")

    def _abandon(self, snap: Snapshot) -> None:
        snap.aborted = True
        self._active = None
        self.sched.channel.delivery_hook = None
        if self.sched.tracer.active:
            self.sched.tracer.snapshot(
                self.sched.sim.now, snap.initiator, "abandon", snap.id,
                missing=len(snap._awaiting),
            )
        self.sched.metrics.inc("snapshots_abandoned")


# ----------------------------------------------------------------------
# consistency checking

def _base_name(event_name: str) -> str:
    return event_name[1:] if event_name.startswith("~") else event_name


def _settled_facts(state: dict) -> dict[str, str]:
    """base -> signed event name, from every settled fact a recorded
    site state holds (actor statuses, knowledge masks, settlement log,
    monitor observations)."""
    facts: dict[str, str] = {}

    def put(base: str, signed: str, where: str, conflicts: list) -> None:
        if base in facts and facts[base] != signed:
            conflicts.append((base, facts[base], signed, where))
        facts.setdefault(base, signed)

    conflicts: list = []
    for event_name, actor in state.get("actors", {}).items():
        base = _base_name(event_name)
        if actor.get("status") == "occurred":
            put(base, event_name, "actor", conflicts)
        elif actor.get("status") == "dead":
            comp = base if event_name.startswith("~") else "~" + base
            put(base, comp, "actor", conflicts)
        for k_base, mask in actor.get("knowledge", {}).items():
            if mask == E_OCC:
                put(k_base, k_base, "knowledge", conflicts)
            elif mask == C_OCC:
                put(k_base, "~" + k_base, "knowledge", conflicts)
    for base, signed in state.get("settled", {}).items():
        put(base, signed, "settlement", conflicts)
    for monitor in state.get("monitors", []):
        for signed in monitor.get("settled", []):
            put(_base_name(signed), signed, "monitor", conflicts)
    facts["__conflicts__"] = conflicts  # type: ignore[assignment]
    return facts


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
    travel directly from the firing site, so a fact known before a
    receiver's record point but fired after the origin's record point
    would mean a message crossed the cut backwards.
    """
    snap = snapshot.as_dict() if isinstance(snapshot, Snapshot) else snapshot
    diags: list[Diagnostic] = []
    index = snap.get("id", 0)
    if not snap.get("complete"):
        diags.append(Diagnostic(
            index, "snapshot-incomplete",
            f"snapshot {index} incomplete: missing markers on "
            f"{snap.get('missing', [])}",
        ))
    per_site: dict[str, dict[str, str]] = {}
    global_facts: dict[str, tuple[str, str]] = {}
    for site, state in sorted(snap.get("sites", {}).items()):
        facts = _settled_facts(state)
        conflicts = facts.pop("__conflicts__", [])
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
        fired: dict[str, dict] = {}
        for record in records:
            if (
                record.get("cat") == "actor"
                and record.get("op") in ("fired", "accepted", "forced")
            ):
                fired.setdefault(record.get("event"), record)
        for site, facts in per_site.items():
            if cut.get(site) is None:
                continue
            for base, signed in facts.items():
                origin = fired.get(signed)
                if origin is None:
                    diags.append(Diagnostic(
                        index, "snapshot-causal",
                        f"site {site} records {signed} settled but the "
                        f"trace has no firing of it",
                    ))
                    continue
                origin_cut = cut.get(origin.get("site"))
                if origin_cut is not None and origin["lc"] > origin_cut:
                    diags.append(Diagnostic(
                        index, "snapshot-cut",
                        f"site {site} knows {signed} inside the cut, but "
                        f"it fired at {origin['site']} outside the cut "
                        f"(lc {origin['lc']} > {origin_cut})",
                    ))
    return diags
