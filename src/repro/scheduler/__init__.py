"""Execution: task agents, event actors, and the two schedulers.

* :mod:`repro.scheduler.events` -- event attributes (triggerable,
  rejectable, ...) and shared result types.
* :mod:`repro.scheduler.messages` -- the message vocabulary flowing
  between actors (announcements, promises, not-yet certificates).
* :mod:`repro.scheduler.monitors` -- the requirement monitor that
  decides when a triggerable event *must* be caused (Section 3.3's
  "triggers that event ... on its own accord").
* :mod:`repro.scheduler.agents` -- task agents with significant-event
  skeletons (Figure 1) and scripted attempt behaviour.
* :mod:`repro.scheduler.actors` -- one actor per base, holding both
  polarity guards and assimilating messages (Sections 2, 4.3).
* :mod:`repro.scheduler.base` -- what a run is under every scheduler:
  simulator, fabric, lifecycle, result, and the one method that
  reports each lifecycle event.
* :mod:`repro.scheduler.guard_scheduler` -- the paper's contribution:
  the distributed event-centric scheduler.
* :mod:`repro.scheduler.residuation_scheduler` -- the centralized
  dependency-centric baseline (Figure 2 executed at one site: one
  cursor per dependency into the shared
  :class:`repro.temporal.guards.ResidualAutomaton`).
* :mod:`repro.scheduler.automata` -- the automaton-per-dependency
  baseline in the style of Attie et al. [2] (Section 6): the
  centralized scheduler's run-time procedure, so only the size of the
  automata it walks (:func:`~repro.scheduler.automata.automata_size`).
* :mod:`repro.scheduler.oracle` -- :func:`judge`, the one function that
  judges a trace against the spec (``ExecutionResult.verify`` calls
  it, so it is loaded with the package).
"""

from repro.scheduler.events import (
    AttemptOutcome,
    EventAttributes,
    ExecutionResult,
    Violation,
)
from repro.scheduler.oracle import judge
from repro.scheduler.agents import AgentScript, ScriptedAttempt, TaskSkeleton
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.scheduler.residuation_scheduler import CentralizedScheduler

__all__ = [
    "AgentScript",
    "AttemptOutcome",
    "CentralizedScheduler",
    "DistributedScheduler",
    "EventAttributes",
    "ExecutionResult",
    "ScriptedAttempt",
    "TaskSkeleton",
    "Violation",
    "judge",
]
