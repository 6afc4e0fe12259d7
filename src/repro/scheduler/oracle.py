"""Post-hoc execution validation: the Definition 4 oracle.

A scheduler's realized trace can be audited offline against the
specification, independently of the machinery that produced it:

* :func:`validate_trace` -- the end-result check (every dependency
  satisfied, trace maximal);
* :func:`validate_generation` -- the stronger point-by-point check of
  Definition 4: at the index each event occurred, its synthesized
  guard held.  By Theorem 6 this is equivalent to satisfaction when
  guards are taken over *all* dependencies; with mentioned-only guards
  (what the distributed actors enforce) it additionally certifies that
  no actor fired against its own guard.

Used by the test suite as an independent oracle over every scheduler's
runs, and handy when debugging new scheduling policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, unsatisfied
from repro.scheduler.events import ExecutionResult
from repro.temporal.guards import workflow_guards


@dataclass
class AuditFinding:
    """One problem the oracle found."""

    kind: str
    detail: str


@dataclass
class AuditReport:
    findings: list[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, kind: str, detail: str) -> None:
        self.findings.append(AuditFinding(kind, detail))


def validate_trace(
    trace: Trace,
    dependencies: list[Expr],
    require_maximal: bool = True,
) -> AuditReport:
    """End-result audit: satisfaction and maximality."""
    report = AuditReport()
    for dep in unsatisfied(trace, dependencies):
        report.add("dependency", f"{trace!r} violates {dep!r}")
    if require_maximal:
        bases: set[Event] = set()
        for dep in dependencies:
            bases |= dep.bases()
        present = {e.base for e in trace}
        for base in sorted(bases - present, key=Event.sort_key):
            report.add("maximality", f"base {base!r} never settled")
    return report


def validate_generation(
    trace: Trace,
    dependencies: list[Expr],
    mentioned_only: bool = True,
) -> AuditReport:
    """Definition 4 audit: each event's guard held when it occurred.

    Requires a maximal trace (guards are interpreted over maximal
    traces); combine with :func:`validate_trace` for the full story.
    """
    report = AuditReport()
    table = workflow_guards(dependencies, mentioned_only=mentioned_only)
    for index, event in enumerate(trace.events):
        event_guard = table.get(event)
        if event_guard is None:
            continue  # event foreign to the specification
        if not event_guard.holds_at(trace, index):
            report.add(
                "guard",
                f"{event!r} occurred at index {index} while its guard "
                f"{event_guard!r} was false",
            )
    return report


def audit_result(
    result: ExecutionResult,
    dependencies: list[Expr],
    mentioned_only: bool = True,
) -> AuditReport:
    """Full audit of a scheduler run: end result + generation +
    consistency of the result's own bookkeeping."""
    report = validate_trace(result.trace, dependencies)
    generation = validate_generation(
        result.trace, dependencies, mentioned_only=mentioned_only
    )
    report.findings.extend(generation.findings)
    if result.ok and report.findings:
        report.add(
            "bookkeeping",
            "result claims ok=True but the audit found problems",
        )
    seen: set[Event] = set()
    for entry in result.entries:
        if entry.event.base in seen:
            report.add(
                "bookkeeping", f"base {entry.event.base!r} settled twice"
            )
        seen.add(entry.event.base)
        if entry.time < entry.attempted_at:
            report.add(
                "bookkeeping",
                f"{entry.event!r} occurred before it was attempted",
            )
    return report
