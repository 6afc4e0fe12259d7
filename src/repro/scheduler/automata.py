"""The automaton-per-dependency baseline (paper Section 6, citing [2]).

Attie et al. (VLDB 1993) enforce intertask dependencies by compiling
each dependency into a finite automaton and running the automata at a
central scheduler ("it avoids generating product automata, but the
individual automata themselves can be quite large").  The automaton of
a dependency is the closure of its residuals (Figure 2 *is* this
automaton for ``D_<`` and ``D_->``):
:class:`repro.temporal.guards.ResidualAutomaton`, which
:class:`~repro.scheduler.residuation_scheduler.CentralizedScheduler`
already steps, one :class:`~repro.temporal.guards.ResidualCursor` per
dependency.

So the run-time decision procedure *is* the centralized scheduler's,
and what bench SC2 compares is *compile-time* size: the states and
transitions of the minimized automata (the object [2] would
precompile) against the size of the synthesized symbolic guards.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.expressions import Expr
from repro.temporal.guards import ResidualCursor


def automata_size(dependencies: Iterable[Expr]) -> tuple[int, int]:
    """``(states, transitions)`` summed over the minimized automata of
    ``dependencies``, one automaton per distinct dependency (the ones a
    centralized scheduler over them walks)."""
    states = transitions = 0
    for dependency in dict.fromkeys(dependencies):
        table = ResidualCursor(dependency).closure.minimized()
        states += len(table)
        transitions += sum(map(len, table.values()))
    return states, transitions
