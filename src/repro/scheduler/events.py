"""Event attributes and execution results.

Section 3.3 distinguishes how the scheduler may act on an event: it
*accepts* events requested by task agents, *triggers* events marked
triggerable, and must swallow *nonrejectable* events (like ``abort``)
no matter what.  :class:`EventAttributes` records those properties per
base event; :class:`ExecutionResult` is the common outcome type both
schedulers produce, so the benchmarks can compare them on equal
terms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace


class AttemptOutcome(enum.Enum):
    """What happened to one attempt when it reached its decision point."""

    ACCEPTED = "accepted"
    PARKED = "parked"
    REJECTED = "rejected"
    FORCED = "forced"  # nonrejectable event accepted regardless of guard


@dataclass(frozen=True)
class EventAttributes:
    """Scheduling-relevant properties of a base event (Section 3.3).

    Attributes
    ----------
    triggerable:
        The scheduler may cause the event on its own accord (e.g. the
        ``start`` of a compensating task).
    rejectable:
        The scheduler may refuse the event.  ``abort`` events are
        typically nonrejectable: the component system will do them
        whether permitted or not.
    auto_complement:
        When the positive event is rejected permanently or the run
        quiesces without it, its complement is attempted automatically
        (the task abandons the transition), keeping traces maximal.
    guaranteed:
        The task agent vouches that the event will eventually be
        attempted (e.g. a task in its critical section will exit).
        Its actor may then grant ``<>`` promises before the attempt
        arrives -- Section 4's condition "(c) what should be
        guaranteed to happen eventually".
    delayable:
        The event may be parked awaiting other occurrences (the
        default).  Non-delayable events (Section 2's "events that ...
        cannot be delayed", e.g. a timeout firing) get an immediate
        verdict: if the guard is not certainly true at attempt time,
        the attempt is rejected outright.
    """

    triggerable: bool = False
    rejectable: bool = True
    auto_complement: bool = True
    guaranteed: bool = False
    delayable: bool = True


@dataclass(frozen=True)
class Violation:
    """A correctness violation detected during or after a run."""

    kind: str
    detail: str


@dataclass
class TraceEntry:
    """One settled event in a run, with its decision telemetry."""

    event: Event
    time: float
    attempted_at: float
    outcome: AttemptOutcome

    @property
    def decision_latency(self) -> float:
        return self.time - self.attempted_at


@dataclass
class ExecutionResult:
    """The outcome of one scheduled run, common to all schedulers.

    ``terminal`` is how the run ended: ``"maximal"`` (every base
    settled), ``"down"`` (an unsettled base lives on a site that is
    down for good) or ``"stuck"`` (unsettled bases, none of them on a
    lost site); ``unsettled`` lists the bases behind it.  It is not a
    violation: a run can be stuck and violate nothing.
    """

    entries: list[TraceEntry] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    makespan: float = 0.0
    messages: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    max_site_load: int = 0
    central_queue_wait: float = 0.0
    #: these four are the run's metrics counters, read off when it
    #: finishes
    parked_total: int = 0
    promises_granted: int = 0
    not_yet_rounds: int = 0
    triggered: int = 0
    unsettled: list[Event] = field(default_factory=list)
    terminal: str = "maximal"

    @property
    def trace(self) -> Trace:
        return Trace([entry.event for entry in self.entries])

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unsettled

    def mean_decision_latency(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.decision_latency for e in self.entries) / len(self.entries)

    def verify(self, dependencies: list[Expr]) -> list[Violation]:
        """Check the realized trace against every stated dependency.

        Appends (and returns) the :func:`~repro.scheduler.oracle.judge`
        violations for dependencies the trace fails -- the post-hoc
        form of Theorem 6's guarantee.
        """
        if not dependencies:
            return []  # nothing to check: do not even build the trace
        # imported here: the oracle imports Violation from this module
        from repro.scheduler.oracle import judge

        found = judge(self.trace, dependencies)
        self.violations.extend(found)
        return found
