"""Requirement monitoring: when must a triggerable event be caused?

Section 3.3 lists triggering among the scheduler's three ways of
making an event occur, and Example 4 relies on it (``s_book`` is
initiated when ``s_buy`` starts; ``s_cancel`` compensates when ``buy``
fails).  The decision rule used here is derived from the residual
state of each dependency:

    an event ``g`` is *required* by dependency ``D`` in state ``R``
    (the residual of ``D`` after the events so far) when every
    accepting completion of ``R`` over the still-unsettled alphabet
    contains ``g``.

Required events that are triggerable get triggered; a state with *no*
accepting completion is doomed and is reported as a violation as soon
as it arises (the scheduler should have prevented it).

In the centralized schedulers the monitor lives at the scheduler node
(it already tracks residuals); in the distributed scheduler one
monitor runs on the site of each triggerable event, fed by the same
announcements its actors receive, so triggering needs no central
state.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.algebra.expressions import Expr, Top, Zero
from repro.algebra.symbols import Event
from repro.temporal.guards import ResidualCursor, accepting_paths


#: the triggers fired by a monitor that has fired none
_NO_TRIGGERS: frozenset[Event] = frozenset()


def required_events(residual: Expr, settled_bases: frozenset[Event]) -> frozenset[Event] | None:
    """Events on *every* accepting completion of ``residual``.

    Completions may use any still-unsettled signed event from the
    residual's alphabet.  Returns ``None`` when no accepting completion
    exists (the dependency is doomed).  This is the rule as stated, by
    enumeration of ``Pi(residual)``; the monitor reads the same answer
    off ``ResidualAutomaton.required``, which the tests hold to this.
    """
    if isinstance(residual, Top):
        return frozenset()
    if isinstance(residual, Zero):
        return None
    paths = [
        p
        for p in accepting_paths(residual, minimal=True)
        if all(ev.base not in settled_bases for ev in p)
    ]
    if not paths:
        return None
    common = set(paths[0])
    for p in paths[1:]:
        common &= set(p)
    return frozenset(common)


class RequirementMonitor:
    """Tracks residuals of a set of dependencies and fires triggers.

    Parameters
    ----------
    dependencies:
        The dependencies to monitor, each a state of its shape's
        residual closure entered through the dependency's binding
        (:func:`~repro.temporal.guards.dependency_binding`; a stamped
        copy carries it, anything else is normal-formed once).
    triggerable:
        Base events the scheduler may cause.
    trigger:
        Callback invoked with each event that must be caused.
    doomed:
        Callback invoked with (dependency, residual) when a dependency
        loses all accepting completions.
    site:
        Where it runs, for its snapshot.  Triggers and dooms are the
        callbacks' to report: the monitor only decides.
    """

    def __init__(
        self,
        dependencies: Iterable[Expr],
        triggerable: frozenset[Event],
        trigger: Callable[[Event], None],
        doomed: Callable[[Expr, Expr], None] | None = None,
        site: str = "monitor",
    ):
        self._tracks = {dep: ResidualCursor(dep) for dep in dependencies}
        #: base -> the tracks it can move (to the rest it is foreign); a
        #: base that one track alone mentions holds that track's 1-tuple
        self._mentioning: dict[Event, tuple[ResidualCursor, ...]] = {}
        for track in self._tracks.values():
            alone = (track,)
            for base in track.to_slot:
                held = self._mentioning.get(base)
                self._mentioning[base] = alone if held is None else held + alone
        self.triggerable = frozenset(triggerable)
        self._trigger = trigger
        self._doomed = doomed
        self.site = site
        #: base -> its signed occurrence, in observation order (each
        #: base settles once; the snapshot record)
        self._observed: dict[Event, Event] = {}
        self._already_triggered: frozenset[Event] = _NO_TRIGGERS

    @property
    def dependencies(self) -> list[Expr]:
        """The dependencies tracked, each once, in the order given."""
        return list(self._tracks)

    def observe(self, event: Event) -> None:
        """Assimilate an occurrence and fire any newly-required triggers.

        Each base settles exactly once, so a repeated announcement (the
        session layer is at-least-once across a site restart) is a
        duplicate and is dropped -- residuating twice by the same event
        would corrupt the residual."""
        base = event.base
        if base in self._observed:
            return
        self._observed[base] = event
        for track in self._mentioning.get(base, ()):
            slot = track.to_slot[base]
            track.state = track.closure.transitions[track.state].get(
                slot.complement if event.negated else slot, track.state
            )
        self.evaluate()

    #: the fabric's handler for an announcement to this monitor: the
    #: monitor itself, so a message carries no bound method
    __call__ = observe

    def evaluate(self) -> None:
        for dep, track in self._tracks.items():
            required = track.closure.required[track.state]
            if required is None:
                if self._doomed is not None:
                    self._doomed(dep, self.residual(dep))
                continue
            for slot in required:
                if slot.negated:  # complements settle via agent policy
                    continue
                ev = track.from_slot[slot]
                if ev in self.triggerable and ev not in self._already_triggered:
                    self._already_triggered |= {ev}
                    self._trigger(ev)

    def residual(self, dependency: Expr) -> Expr:
        return self._tracks[dependency].residual()

    @property
    def residuals(self) -> dict[Expr, Expr]:
        return {dep: self.residual(dep) for dep in self._tracks}

    def snapshot_state(self) -> dict:
        """JSON-ready copy of the monitor's state for a global snapshot."""
        return {
            "site": self.site,
            "settled": sorted(repr(e) for e in self._observed.values()),
            "triggered": sorted(repr(e) for e in self._already_triggered),
            "residuals": {
                repr(dep): repr(res) for dep, res in self.residuals.items()
            },
        }
