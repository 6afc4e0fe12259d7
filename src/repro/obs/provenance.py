"""Decision provenance: *why* did an event fire, park, or die?

The paper's point (Sections 4.2--4.3) is that every scheduling verdict
is derivable: an event fires exactly when its synthesized guard
``G(D, e)`` -- a union of cubes over four-world literals -- subsumes the
actor's assimilated knowledge.  This module keeps the proof instead of
throwing it away:

* :func:`explain_region` classifies every literal of every cube as
  ``satisfied`` / ``pending`` / ``blocked`` under a knowledge map and
  reproduces the fire/park/never verdict literal-by-literal;
* :func:`minimal_unblocking_sets` answers "what must happen for ``e``
  to become enabled?" -- the smallest sets of future facts
  (``[]`` announcements, ``<>`` promises, not-yet certificates) whose
  delivery would flip a parked verdict to fire.  The search is
  *semantic*: candidate sets are verified by applying the facts to the
  knowledge and re-checking region subsumption, because cube absorption
  (:func:`repro.temporal.cubes._absorb` merges cubes differing in one
  base) makes per-literal counting overestimate -- one announcement can
  complete a guard whose literals all look pending;
* one assembly builds an :class:`Explanation` from a guard's cubes,
  the knowledge, the lifecycle rows and the occurrence rows, and two
  adapters gather them.  :func:`explain_actor` (for
  ``DistributedScheduler.explain(event)``) reads the role's current
  state and the run's settlement record, so a traced and an untraced
  run give the same answer; :func:`explain_records` (``repro explain
  <trace> <event>``) reads the last guard evaluation's structured
  ``cubes``/``knowledge`` fields and the trace index, and stamps each
  origin with its Lamport clock.  The trace is the one record of
  *when* a fact was learned; nothing else journals it.

Everything region-level operates on *string* base names (cube tuples
``((name, mask), ...)``, knowledge ``{name: mask}``) so the live and
offline paths share one implementation; the live path converts via
``repr``.  The fire/never/park rule itself is the roles' own,
:func:`repro.temporal.cubes.verdict`, which only needs hashable bases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.tracer import OCCURRED_OPS, base_name, index_trace
from repro.temporal.cubes import (
    C_OCC,
    DIA_COMP_MASK,
    DIA_MASK,
    E_OCC,
    FULL,
    P_C,
    P_E,
    classify_mask,
    closure,
    mask_text,
    reachable,
    verdict,
)

#: Transient worlds a not-yet certificate pins (neither polarity occurred).
NOT_YET_MASK = P_E | P_C

StrCube = tuple[tuple[str, int], ...]


# ----------------------------------------------------------------------
# unblocking facts

@dataclass(frozen=True, order=True)
class Fact:
    """A future fact an actor could assimilate.

    ``kind`` is ``announce`` (a ``[]`` occurrence announcement of the
    signed ``event``), ``promise`` (a ``<>`` grant), or ``certificate``
    (a transient not-yet agreement on ``event``'s base).
    """

    kind: str
    event: str

    @property
    def base(self) -> str:
        return base_name(self.event)

    @property
    def negated(self) -> bool:
        return self.event.startswith("~")

    @property
    def mask(self) -> int:
        if self.kind == "announce":
            return C_OCC if self.negated else E_OCC
        if self.kind == "promise":
            return DIA_COMP_MASK if self.negated else DIA_MASK
        return NOT_YET_MASK

    def describe(self) -> str:
        if self.kind == "certificate":
            return f"not-yet certificate on {self.base}"
        return f"{self.kind} {mask_text(self.base, self.mask)}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "event": self.event,
                "fact": mask_text(self.base, self.mask)}


def apply_facts(
    knowledge: Mapping[str, int], facts: Iterable[Fact]
) -> dict[str, int] | None:
    """Knowledge after assimilating ``facts``; None when contradictory."""
    out = dict(knowledge)
    for fact in facts:
        known = out.get(fact.base, FULL) & fact.mask
        if known == 0:
            return None
        out[fact.base] = known
    return out


def _candidate_facts(
    pending: Mapping[str, int], include_non_announce: bool
) -> list[Fact]:
    """Facts consistent with (and strictly tightening) the knowledge of
    the bases behind still-pending literals."""
    out: list[Fact] = []
    for name in sorted(pending):
        known = pending[name]
        kinds = [("announce", name), ("announce", "~" + name)]
        if include_non_announce:
            kinds += [
                ("certificate", name),
                ("promise", name),
                ("promise", "~" + name),
            ]
        for kind, event in kinds:
            fact = Fact(kind, event)
            new = known & fact.mask
            if new == 0 or new == known:
                continue  # contradictory, or already implied
            out.append(fact)
    return out


def minimal_unblocking_sets(
    cubes: Iterable[StrCube],
    knowledge: Mapping[str, int],
    max_size: int = 3,
    max_sets: int = 3,
) -> list[tuple[Fact, ...]]:
    """Smallest sets of future facts whose delivery flips park to fire.

    Verified semantically: a candidate set is accepted exactly when the
    knowledge *after* assimilating it is subsumed by the cube region --
    the same test :meth:`Role.try_fire` runs -- so "deliver the
    set and the event fires" holds by construction.  Announcement-only
    sets are preferred; promises/certificates are searched only when no
    announcement set of size ``<= max_size`` exists.  Returns up to
    ``max_sets`` sets of the smallest achievable size (empty when the
    verdict is not ``park`` or no such small set exists).
    """
    cubes = [tuple(cube) for cube in cubes]
    if verdict(cubes, knowledge) != "park":
        return []
    # bases of not-yet-satisfied literals of still-possible cubes
    pending: dict[str, int] = {}
    for cube in cubes:
        if not reachable([cube], knowledge):
            continue
        for name, lit_mask in cube:
            known = knowledge.get(name, FULL)
            if closure(known) & ~lit_mask & FULL:
                pending[name] = known
    for include_non_announce in (False, True):
        universe = _candidate_facts(pending, include_non_announce)
        if len(universe) > 16:
            universe = universe[:16]
        for size in range(1, max_size + 1):
            found: list[tuple[Fact, ...]] = []
            for combo in itertools.combinations(universe, size):
                applied = apply_facts(knowledge, combo)
                if applied is None:
                    continue
                if verdict(cubes, applied) == "fire":
                    found.append(combo)
            if found:
                found.sort(key=lambda c: (
                    sum(1 for f in c if f.kind != "announce"), c,
                ))
                return found[:max_sets]
    return []


# ----------------------------------------------------------------------
# literal-level classification

def explain_region(
    cubes: Iterable[StrCube],
    knowledge: Mapping[str, int],
    max_size: int = 3,
) -> dict:
    """Literal-by-literal account of a guard region under knowledge.

    Returns ``{"verdict", "cubes", "unblocking"}`` where each cube
    report carries a status (``satisfied`` / ``open`` / ``dead``) and
    its literals' statuses (:func:`repro.temporal.cubes.classify_mask`),
    and ``unblocking`` is :func:`minimal_unblocking_sets` (nonempty only
    for parked verdicts)."""
    cubes = sorted(tuple(sorted((n, m) for n, m in cube)) for cube in cubes)
    reports = []
    for cube in cubes:
        literals = []
        blocked = False
        satisfied = True
        for name, lit_mask in cube:
            known = knowledge.get(name, FULL)
            status = classify_mask(known, lit_mask)
            blocked = blocked or status == "blocked"
            satisfied = satisfied and status == "satisfied"
            literals.append({
                "base": name,
                "mask": lit_mask,
                "literal": mask_text(name, lit_mask),
                "known": known,
                "status": status,
            })
        reports.append({
            "status": "dead" if blocked else (
                "satisfied" if satisfied else "open"
            ),
            "literals": literals,
        })
    return {
        "verdict": verdict(cubes, knowledge),
        "cubes": reports,
        "unblocking": [
            list(combo)
            for combo in minimal_unblocking_sets(
                cubes, knowledge, max_size=max_size
            )
        ],
    }


# ----------------------------------------------------------------------
# assembled explanations

@dataclass
class Explanation:
    """The full answer to "why is ``event`` in this state?"."""

    event: str
    site: str | None
    status: str
    verdict: str | None
    guard: str
    residual: str | None
    knowledge: dict[str, int]
    cubes: list[dict]
    unblocking: list[list[Fact]]
    justifications: list[dict] = field(default_factory=list)
    lifecycle: list[dict] = field(default_factory=list)
    frozen_by: list[str] = field(default_factory=list)
    attempted_at: float | None = None
    #: the centralized scheduler's verdict holds no guard: the residual
    #: dependencies that held the event back instead (None elsewhere)
    held_by: list[str] | None = None

    def unsatisfied_literals(self) -> list[str]:
        """Literal texts still pending in some non-dead cube."""
        out: list[str] = []
        for cube in self.cubes:
            if cube["status"] != "open":
                continue
            for lit in cube["literals"]:
                if lit["status"] == "pending" and lit["literal"] not in out:
                    out.append(lit["literal"])
        return out

    def to_dict(self) -> dict:
        """Every field, in declaration order, JSON-ready."""
        out = dict(vars(self))
        out["knowledge"] = dict(self.knowledge)
        out["unblocking"] = [
            [fact.to_dict() for fact in combo] for combo in self.unblocking
        ]
        return out

    def render(self) -> str:
        lines = [f"{self.event}: {self._headline()}"]
        if self.site is not None:
            lines[0] += f" @ {self.site}"
        if self.attempted_at is not None and not any(
            entry["op"] == "attempted" for entry in self.lifecycle
        ):
            lines.append(f"  attempted at t={self.attempted_at:g}")
        for entry in self.lifecycle:
            stamp = f" lc={entry['lc']}" if entry.get("lc") is not None else ""
            lines.append(
                f"  {entry['op']} at t={entry['t']:g}"
                f" @ {entry.get('site', '?')}{stamp}"
            )
        if self.held_by is None:
            lines.append(f"  guard:    {self.guard}")
        else:
            lines.append(f"  verdict:  {self.verdict or '?'} (at the center)")
            lines.extend(f"  held back by: {held}" for held in self.held_by)
        if self.residual is not None and self.residual != self.guard:
            lines.append(f"  residual: {self.residual}")
        if self.knowledge:
            facts = ", ".join(
                mask_text(name, mask)
                for name, mask in sorted(self.knowledge.items())
            )
            lines.append(f"  knowledge: {facts}")
        for index, cube in enumerate(self.cubes, start=1):
            parts = " & ".join(
                f"{lit['literal']}[{lit['status']}]"
                for lit in cube["literals"]
            ) or "T"
            lines.append(f"  cube {index} [{cube['status']}]: {parts}")
        if self.frozen_by:
            lines.append(
                "  base frozen by outstanding certificate round(s) of: "
                + ", ".join(self.frozen_by)
            )
        for justification in self.justifications:
            origin = justification.get("origin") or justification["base"]
            where = justification.get("origin_site")
            stamp = justification.get("lc")
            detail = f"  learned {justification['fact']} via {justification['source']}"
            if where is not None:
                detail += f" from {origin} @ {where}"
            detail += f" at t={justification['t']:g}"
            if stamp is not None:
                detail += f" (lc={stamp})"
            lines.append(detail)
        if self.verdict == "park" and self.held_by is None:
            if self.unblocking:
                for combo in self.unblocking:
                    lines.append(
                        "  to enable: "
                        + " and ".join(fact.describe() for fact in combo)
                    )
            else:
                lines.append(
                    "  to enable: no small unblocking set found "
                    "(multiple coordinated facts required)"
                )
        return "\n".join(lines)

    def _headline(self) -> str:
        if self.status == "occurred":
            return "fired (guard satisfied)"
        if self.status == "dead":
            return "dead (complement occurred)"
        if self.status == "rejected":
            return "rejected permanently (guard unreachable)"
        if self.verdict == "park":
            return "parked (guard undetermined)"
        if self.verdict == "never":
            return "unfireable (guard unreachable)"
        if self.verdict == "fire" and self.frozen_by:
            return "enabled but frozen (certificate round in progress)"
        return f"status={self.status}" + (
            f", verdict={self.verdict}" if self.verdict else ""
        )


def _explanation(
    event: str, site: str | None, status: str, guard: str,
    residual: str | None, cubes: Iterable[StrCube] | None,
    knowledge: dict[str, int], lifecycle: list[dict],
    occurrences: Mapping[str, Mapping], source: str,
    verdict: str | None = None, frozen_by: list[str] | None = None,
    attempted_at: float | None = None, held_by: list[str] | None = None,
) -> Explanation:
    """The one assembly of an :class:`Explanation`: the guard's
    ``cubes`` (``None``: no structured evaluation) classified under
    ``knowledge``; ``verdict`` defaults to the region's.  A settled
    ``status`` drops the verdict, and an attempted event it parks is
    pending.  Each settled fact is justified by its row in
    ``occurrences`` (signed event name -> ``site``/``t``/``lc``),
    learned via ``source``."""
    region = explain_region(cubes or (), knowledge)
    if verdict is None and cubes is not None:
        verdict = region["verdict"]
    if status not in ("idle", "attempted", "pending"):
        verdict = None
    elif status == "attempted" and verdict == "park":
        status = "pending"
    justifications = []
    for name, mask in sorted(knowledge.items()):
        if mask not in (E_OCC, C_OCC):
            continue
        signed = name if mask == E_OCC else "~" + name
        origin = occurrences.get(signed, {})
        justifications.append({
            "base": name,
            "fact": mask_text(name, mask),
            "source": source,
            "origin": signed,
            "origin_site": origin.get("site"),
            "t": origin.get("t", 0.0),
            "lc": origin.get("lc"),
        })
    return Explanation(
        event=event, site=site, status=status, verdict=verdict,
        guard=guard, residual=residual, knowledge=knowledge,
        cubes=region["cubes"],
        unblocking=region["unblocking"] if verdict == "park" else [],
        justifications=justifications, lifecycle=lifecycle,
        frozen_by=frozen_by or [], attempted_at=attempted_at,
        held_by=held_by,
    )


def explain_actor(sched, role) -> Explanation:
    """Live explanation of one role's state (``scheduler.explain``).

    Classification runs against the *durable* guard -- the residual has
    already dropped satisfied literals, and the point is to show them,
    with their justifications.  Knowledge tightening is monotone, so the
    durable guard under current knowledge yields the same verdict the
    residual did.  Occurrences come from the settlement record (no
    Lamport stamp -- that is the trace's)."""
    knowledge = {repr(base): mask for base, mask in role.knowledge.items()}
    cubes = [
        [(repr(base), mask) for base, mask in cube]
        for cube in role.durable_guard.cubes
    ]
    occurrences = {
        repr(entry.event): {
            "site": sched.site_of(entry.event.base), "t": entry.time,
        }
        for entry in sched.result.entries
    }
    lifecycle = []
    fired = occurrences.get(repr(role.event))
    if fired is not None:
        lifecycle.append({
            "op": "fired", "t": fired["t"], "site": role.site, "lc": None,
        })
    parked_since = sched._parked_at.get(role.event)
    if parked_since is not None:
        lifecycle.append({
            "op": "parked", "t": parked_since, "site": role.site, "lc": None,
        })
    return _explanation(
        event=repr(role.event),
        site=role.site,
        status=role.status.value,
        guard=repr(role.durable_guard),
        residual=repr(role.guard),
        cubes=cubes,
        knowledge=knowledge,
        lifecycle=sorted(lifecycle, key=lambda e: e["t"]),
        occurrences=occurrences,
        source="settlement",
        frozen_by=sorted(
            repr(requester)
            for requester, _round_id in role.actor.frozen
            if requester != role.event
        ),
        attempted_at=role.attempted_at,
    )


def explain_records(records: list[dict], event_name: str) -> Explanation:
    """Offline explanation of ``event_name`` from trace ``records``.

    Replays the literal-level verdict from the last guard evaluation's
    structured ``cubes``/``knowledge`` fields, and justifies each
    settled fact by its first occurrence record; a centralized trace's
    last ``residuals`` record gives the center's verdict and the
    residual dependencies that held the event back instead.  Raises
    ``KeyError`` when the trace never mentions the event, and
    ``ValueError`` when a record has no site
    (:func:`~repro.obs.tracer.index_trace`)."""
    occurred = index_trace(records)[2]
    lifecycle = [
        {"op": r["op"], "t": r["t"], "site": r["site"], "lc": r["lc"]}
        for r in records
        if r.get("cat") == "actor" and r.get("event") == event_name
    ]
    evals = [
        r for r in records
        if r.get("cat") == "guard"
        and r.get("op") in ("eval", "residuals")
        and r.get("event") == event_name
    ]
    if not lifecycle and not evals:
        raise KeyError(
            f"trace has no record of event {event_name!r}"
        )
    status = "attempted"
    for entry in lifecycle:
        if entry["op"] in OCCURRED_OPS:
            status = "occurred"
        elif entry["op"] == "dead":
            status = "dead"
        elif entry["op"] == "rejected" and status != "occurred":
            status = "rejected"
        elif entry["op"] == "parked" and status == "attempted":
            status = "pending"
    last = evals[-1] if evals else {}
    site = lifecycle[-1]["site"] if lifecycle else last["site"]
    return _explanation(
        event=event_name,
        site=site,
        status=status,
        verdict=last.get("verdict"),
        guard=last.get("guard", "?"),
        residual=last.get("residual"),
        cubes=last.get("cubes"),
        knowledge=dict(last.get("knowledge", {})),
        lifecycle=lifecycle,
        occurrences={signed: records[i] for signed, i in occurred.items()},
        source="announce",
        attempted_at=next(
            (e["t"] for e in lifecycle if e["op"] == "attempted"), None
        ),
        held_by=last.get("residuals"),
    )
