"""The one oracle that judges a trace against its specification.

Theorem 6 promises that the guards generate exactly the traces that
satisfy every dependency; :func:`judge` checks a realized trace
against both halves of that statement, independently of the machinery
that produced it.  ``ExecutionResult.verify`` -- and through it every
scheduler's ``finish`` and the shard runner -- calls it for
satisfaction only; the tests hand it a guard table for the Definition 4
point check as well.  Whether a run *ended* maximal is not the
oracle's question: that is the result's ``terminal`` state.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algebra.expressions import Expr
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, unsatisfied
from repro.scheduler.events import Violation
from repro.temporal.cubes import GuardExpr
from repro.temporal.guards import guard_failures


def judge(
    trace: Trace,
    dependencies: Sequence[Expr],
    guards: Mapping[Event, GuardExpr] | None = None,
) -> list[Violation]:
    """The violations of ``trace``: one ``dependency`` violation per
    dependency it fails, in the order given, then -- when ``guards`` is
    a guard table -- one ``guard`` violation per index at which the
    event's guard did not hold (Definition 4; events foreign to the
    table are not checked).

    With guards over *all* dependencies the point check is equivalent
    to satisfaction (Theorem 6); with mentioned-only guards (what the
    distributed actors enforce) it additionally certifies that no actor
    fired against its own guard.
    """
    found = [
        Violation("dependency", f"trace {trace!r} violates {dep!r}")
        for dep in unsatisfied(trace, dependencies)
    ]
    if guards is not None:
        found.extend(
            Violation(
                "guard",
                f"{event!r} occurred at index {index} while its guard "
                f"{guard!r} was false",
            )
            for index, event, guard in guard_failures(guards, trace)
        )
    return found
