"""The automaton-per-dependency baseline (paper Section 6, citing [2]).

Attie et al. (VLDB 1993) enforce intertask dependencies by compiling
each dependency into a finite automaton and running the automata at a
central scheduler ("it avoids generating product automata, but the
individual automata themselves can be quite large").  The automaton of
a dependency is the closure of its residuals (Figure 2 *is* this
automaton for ``D_<`` and ``D_->``):
:class:`repro.temporal.guards.ResidualAutomaton`, which
:class:`CentralizedScheduler` already steps, one
:class:`~repro.temporal.guards.ResidualCursor` per dependency.

So the run-time decision procedure *is* the residuation scheduler's,
and the interesting comparison -- bench SC2 -- is *compile-time* state
count and table size (of the minimized automata, the object [2] would
precompile) versus the size of the synthesized symbolic guards.
"""

from __future__ import annotations

from repro.scheduler.residuation_scheduler import CentralizedScheduler


class AutomataScheduler(CentralizedScheduler):
    """Centralized scheduling over precompiled dependency automata:
    :class:`CentralizedScheduler` plus the compile-time metrics of the
    automata it walks, for bench SC2."""

    def total_states(self) -> int:
        return sum(
            len(cursor.closure.minimized()) for cursor in self.cursors.values()
        )

    def total_transitions(self) -> int:
        return sum(
            len(row)
            for cursor in self.cursors.values()
            for row in cursor.closure.minimized().values()
        )
