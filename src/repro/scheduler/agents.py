"""Task agents and significant-event skeletons (paper Section 2, Figure 1).

An *agent* embodies a coarse description of its task: only the states
and transitions significant for coordination.  It interfaces the task
with the scheduling system -- requesting permission for controllable
events, reporting uncontrollable ones, and executing events the
scheduler triggers.  :class:`TaskSkeleton` captures the coarse state
machine; :class:`AgentScript` captures *when* the underlying task
attempts its transitions in a simulated run.

Figure 1's two standard agents are provided as factories:

* ``TaskSkeleton.typical_application`` -- start, then finish;
* ``TaskSkeleton.rda_transaction`` -- start, then commit or abort
  (abort being the classic nonrejectable event).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.symbols import Event


class TaskSkeleton:
    """A coarse task state machine over significant events.

    States are strings; each transition is labelled by the event whose
    occurrence takes it.  The skeleton validates that a sequence of
    significant events is one the task could actually produce -- the
    conformance check behind the Figure 1 bench.
    """

    def __init__(
        self,
        name: str,
        initial: str,
        transitions: dict[tuple[str, Event], str],
        terminal: frozenset[str],
    ):
        self.name = name
        self.initial = initial
        self.transitions = dict(transitions)
        self.terminal = frozenset(terminal)

    @staticmethod
    def typical_application(name: str) -> "TaskSkeleton":
        """Figure 1's "Typical Application": start -> executing -> done."""
        start = Event(f"s_{name}")
        finish = Event(f"f_{name}")
        return TaskSkeleton(
            name,
            "initial",
            {
                ("initial", start): "executing",
                ("executing", finish): "done",
            },
            frozenset({"done"}),
        )

    @staticmethod
    def rda_transaction(name: str) -> "TaskSkeleton":
        """Figure 1's "RDA Transaction": start, then commit or abort."""
        start = Event(f"s_{name}")
        commit = Event(f"c_{name}")
        abort = Event(f"a_{name}")
        return TaskSkeleton(
            name,
            "initial",
            {
                ("initial", start): "active",
                ("active", commit): "committed",
                ("active", abort): "aborted",
            },
            frozenset({"committed", "aborted"}),
        )

    def events(self) -> frozenset[Event]:
        return frozenset(ev for (_, ev) in self.transitions)

    def step(self, state: str, event: Event) -> str | None:
        """The state after ``event`` from ``state``; None if not allowed."""
        return self.transitions.get((state, event))

    def accepts(self, events: list[Event]) -> bool:
        """Whether the event sequence is a run of the skeleton that may
        stop anywhere (tasks can be mid-flight when observed)."""
        state = self.initial
        for event in events:
            nxt = self.step(state, event)
            if nxt is None:
                return False
            state = nxt
        return True

    def run_to_terminal(self, events: list[Event]) -> bool:
        """Like :meth:`accepts` but the run must end in a terminal state."""
        state = self.initial
        for event in events:
            nxt = self.step(state, event)
            if nxt is None:
                return False
            state = nxt
        return state in self.terminal


@dataclass(frozen=True)
class ScriptedAttempt:
    """One scripted task transition: attempt ``event`` at ``time``.

    ``after`` optionally names an event that must have occurred first
    (the task's own control flow: a transaction only tries to commit
    once it has started)."""

    time: float
    event: Event
    after: Event | None = None


@dataclass
class AgentScript:
    """What one task agent does during a simulated run.

    Attributes
    ----------
    site:
        The network site hosting the agent (and its events' actors in
        the distributed scheduler -- "typically placed close to its
        task").
    attempts:
        The transitions the underlying task spontaneously attempts.
    """

    site: str
    attempts: list[ScriptedAttempt] = field(default_factory=list)

    def events(self) -> frozenset[Event]:
        return frozenset(a.event for a in self.attempts)
