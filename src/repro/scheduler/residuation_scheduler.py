"""The centralized dependency-centric baseline (Sections 3.3-3.4).

This is the scheduler the paper develops first and then argues away
from: the dependencies live at a single site whose state is one
cursor per dependency into Figure 2's state machine
(:class:`repro.temporal.guards.ResidualAutomaton`), read as the tuple
of residual expressions.  Every attempt is a round trip --
agent site -> center -> agent site -- and the center serializes its
decisions (a configurable per-decision service time), which is the
bottleneck the distributed scheduler removes.

Decision rule on an attempt of ``e``:

* accept iff the residuals after ``e`` still have a joint accepting
  completion over the unsettled alphabet (Definition 3), asked of
  :func:`repro.algebra.normal_form.joint_completion_exists`, the one
  engine the static analysis and the parametrized scheduler ask too;
* otherwise park; parked events are re-examined after each occurrence;
* parked events whose residual can never recover are rejected, and the
  agent settles the complement.

Triggerable events are caused by the same requirement rule the
distributed monitors use (every accepting completion contains them,
i.e. none contains the complement anywhere) -- naturally computed
here, since the center holds all residuals.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping

from repro.algebra.expressions import Expr
from repro.algebra.normal_form import joint_completion_exists
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript
from repro.scheduler.base import RunBase
from repro.scheduler.events import (
    AttemptOutcome,
    EventAttributes,
    Violation,
)
from repro.sim.network import LatencyModel
from repro.temporal.guards import ResidualCursor

CENTER = "center"


class CentralizedScheduler(RunBase):
    """Residuation-based scheduling at a single center site: the
    decision logic over :class:`~repro.scheduler.base.RunBase`'s run
    frame, every lifecycle record made at :data:`CENTER`."""

    SETTLED_OP = "accepted"

    def __init__(
        self,
        dependencies: Iterable[Expr],
        sites: Mapping[Event, str] | None = None,
        attributes: Mapping[Event, EventAttributes] | None = None,
        latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        decision_service_time: float = 0.0,
        tracer=None,
        profiler=None,
    ):
        service = {CENTER: decision_service_time} if decision_service_time else None
        super().__init__(
            dependencies, sites, attributes, tracer, profiler,
            latency=latency, rng=rng, service_times=service,
        )
        #: Figure 2, one copy per dependency: a state of the automaton
        #: its shape shares with guard synthesis and the monitors
        self.cursors = {d: ResidualCursor(d) for d in self.dependencies}
        #: base -> the (dependency, cursor) pairs it can move
        self._mentioning: dict[Event, list[tuple[Expr, ResidualCursor]]] = {}
        for dep, cursor in self.cursors.items():
            for base in cursor.to_slot:
                self._mentioning.setdefault(base, []).append((dep, cursor))
        #: the cursors' states on the real names, the form the joint
        #: completion check reads
        self.residuals: dict[Expr, Expr] = {
            d: cursor.residual() for d, cursor in self.cursors.items()
        }
        self._parked: dict[Event, float] = {}  # event -> attempted_at
        self._triggered: set[Event] = set()
        self._seen_attempts: set[Event] = set()

    # ------------------------------------------------------------------
    # the center's decision logic

    def _state(self) -> tuple[Expr, ...]:
        return tuple(self.residuals.values())

    def _allowed_positive(self, extra: Event | None = None) -> frozenset[Event]:
        """Positive events a completion may rely on: already attempted
        (pending or parked), triggerable, or vouched-for (guaranteed)."""
        allowed: set[Event] = set()
        for base in self._all_bases():
            attrs = self.attributes(base)
            if attrs.triggerable or attrs.guaranteed:
                allowed.add(base)
        allowed |= {ev for ev in self._seen_attempts if not ev.negated}
        if extra is not None and not extra.negated:
            allowed.add(extra)
        return frozenset(allowed)

    def _acceptable(self, event: Event) -> bool:
        """Accept iff all residuals jointly admit a completion after it,
        relying only on attainable positive events."""
        after = tuple(residuate(r, event) for r in self._state())
        return joint_completion_exists(
            after, allowed_positive=self._allowed_positive(event)
        )

    def _recoverable(self, event: Event) -> bool:
        """Might a parked event still occur on some joint completion?

        Deliberately optimistic (no attainability restriction): events
        not yet attempted may be attempted later, so parking must not
        turn into rejection just because of attempt-arrival order."""
        return joint_completion_exists(self._state(), require=event)

    def _decide(self, event: Event, attempted_at: float) -> None:
        if event.base in self._settled:
            return
        newly_seen = event not in self._seen_attempts
        self._seen_attempts.add(event)
        if newly_seen:
            self.note_attempted(CENTER, event)
        if self._acceptable(event):
            self._occur(event, attempted_at, AttemptOutcome.ACCEPTED)
            return
        if not self.attributes(event.base).rejectable:
            self.note_forced(CENTER, event)
            self._occur(event, attempted_at, AttemptOutcome.FORCED)
            return
        if not self.attributes(event.base).delayable:
            # non-delayable: no parking; the attempt is refused now
            self._reject(event)
            return
        if self._recoverable(event):
            if event not in self._parked:
                self._parked[event] = attempted_at
                self.note_parked(CENTER, event, attempted_at)
            if newly_seen:
                # a new pending event enlarges the attainable set and
                # may legitimize earlier parked attempts
                self._after_state_change()
            return
        # permanently unacceptable
        self._reject(event)

    def _reject(self, event: Event) -> None:
        self._parked.pop(event, None)
        self.note_rejected(CENTER, event)
        if self.complements_refusal(event):
            comp = event.complement
            if comp.base not in self._settled:
                self._decide(comp, self.sim.now)

    def _occur(self, event: Event, attempted_at: float, outcome) -> None:
        self._parked.pop(event, None)
        self.note_settled(CENTER, event, attempted_at, outcome)
        if self._parked.pop(event.complement, None) is not None:
            self.note_dead(CENTER, event.complement)
        for dep, cursor in self._mentioning.get(event.base, ()):
            cursor.step(event)
            self.residuals[dep] = cursor.residual()
        # tell the owning agent (round trip completes)
        self.network.send(
            CENTER,
            self.site_of(event.base),
            "decision",
            event,
            lambda ev: None,
        )
        for callback in self._waiters.pop(event.base, ()):
            callback()
        self._after_state_change()

    def _after_state_change(self) -> None:
        for parked_event in sorted(self._parked, key=Event.sort_key):
            attempted_at = self._parked[parked_event]
            if self._acceptable(parked_event):
                self._occur(parked_event, attempted_at, AttemptOutcome.ACCEPTED)
                return  # _occur re-enters _after_state_change
            if not self._recoverable(parked_event):
                self._reject(parked_event)
                return
        self._run_triggers()

    def _run_triggers(self) -> None:
        state = self._state()
        # doom and requirement are judged without the attainability
        # restriction: attempts not yet seen may still arrive
        if not joint_completion_exists(state):
            self.result.violations.append(
                Violation("doomed", "residual state lost all joint completions")
            )
            return
        alphabet: set[Event] = set()
        for r in state:
            alphabet |= r.alphabet()
        for ev in sorted(alphabet, key=Event.sort_key):
            if ev.negated or ev in self._triggered:
                continue
            if not self.attributes(ev.base).triggerable:
                continue
            # required: no joint completion contains the complement
            if joint_completion_exists(state, require=ev.complement):
                continue
            self._triggered.add(ev)
            self.note_triggered(CENTER)
            # center -> agent trigger, agent -> center attempt
            self.network.send(
                CENTER, self.site_of(ev.base), "trigger", ev,
                self.attempt,
            )

    # ------------------------------------------------------------------
    # agent-side behaviour

    def attempt(self, event: Event) -> None:
        """The owning agent asks the center (the attempt is made now)."""
        attempted_at = self.sim.now
        self.network.send(
            self.site_of(event.base),
            CENTER,
            "attempt",
            (event, attempted_at),
            lambda pair: self._decide(pair[0], pair[1]),
        )

    def start(self, scripts: Iterable[AgentScript] = ()) -> None:
        super().start(scripts)
        self._run_triggers()

    def drain(self) -> None:
        """Attempt the complement of one unsettled base per round until
        none is eligible.  Each round either settles something (and
        clears ``_no_progress_bases``) or adds its base to that set, so
        with ``n`` bases fewer than ``(n + 1) ** 2`` rounds run."""
        while self._settle_round(self._settlement_candidates()[:1]):
            pass
