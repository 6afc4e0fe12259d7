"""Compile a workflow into its per-event guard table (Section 4.2-4.3).

Compilation performs the symbolic work once ("much of the required
symbolic reasoning can be precompiled, leading to efficiency at
runtime", Section 6):

* synthesize ``G(D, e)`` for every event and conjoin per event;
* derive the *subscription lists* -- which occurrences each actor must
  hear about;
* statically detect the consensus obligations: guards containing
  not-yet literals (events must agree whether something has happened)
  and mutually-referential eventuality guards (Example 11's promise
  pairs);
* report guard sizes, which bench SC2 compares against automata sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.symbols import Event
from repro.scheduler.events import EventAttributes
from repro.temporal.cubes import C_OCC, E_OCC, FULL, GuardExpr, P_C, P_E
from repro.temporal.guards import wanted_eventualities, workflow_guards
from repro.workflows.spec import Workflow


@dataclass
class CompiledWorkflow:
    """The precompiled form of a workflow."""

    workflow: Workflow
    guards: dict[Event, GuardExpr]
    subscriptions: dict[Event, frozenset[Event]]
    notyet_needs: dict[Event, frozenset[Event]] = field(default_factory=dict)
    promise_pairs: frozenset[frozenset[Event]] = frozenset()

    def guard_of(self, event: Event) -> GuardExpr:
        return self.guards[event]

    def total_guard_literals(self) -> int:
        return sum(g.literal_count() for g in self.guards.values())

    def total_guard_cubes(self) -> int:
        return sum(g.cube_count() for g in self.guards.values())

    def attributes(self, event: Event) -> EventAttributes:
        return self.workflow.attributes.get(event.base, EventAttributes())

    def summary(self) -> str:
        lines = [f"workflow {self.workflow.name}:"]
        for event in sorted(self.guards, key=Event.sort_key):
            lines.append(f"  G({event!r}) = {self.guards[event]!r}")
        if self.promise_pairs:
            pairs = ", ".join(
                "{" + ", ".join(repr(e) for e in sorted(p, key=Event.sort_key)) + "}"
                for p in sorted(self.promise_pairs, key=repr)
            )
            lines.append(f"  promise pairs: {pairs}")
        for event, bases in sorted(self.notyet_needs.items(), key=lambda kv: repr(kv[0])):
            names = ", ".join(repr(b) for b in sorted(bases, key=Event.sort_key))
            lines.append(f"  {event!r} needs not-yet agreement on: {names}")
        return "\n".join(lines)


def _needs_notyet(guard: GuardExpr) -> frozenset[Event]:
    """Bases whose *pending* worlds matter to the guard.

    A cube mask that contains a pending world but not the matching
    occurred world can only be certified before the base settles --
    the not-yet agreement of Section 4.3.
    """
    needs: set[Event] = set()
    for cube in guard.cubes:
        for base, mask in cube:
            pend_only = ((mask & P_E) and not (mask & E_OCC)) or (
                (mask & P_C) and not (mask & C_OCC)
            )
            if pend_only and mask != FULL:
                needs.add(base)
    return frozenset(needs)


def compile_workflow(workflow: Workflow) -> CompiledWorkflow:
    """Synthesize guards and static analysis for a workflow.

    >>> from repro.workflows.spec import Workflow
    >>> w = Workflow("demo")
    >>> _ = w.add("~e + ~f + e . f")
    >>> compiled = compile_workflow(w)
    >>> from repro.algebra.symbols import Event
    >>> compiled.guard_of(Event("e"))
    !f
    """
    guards = workflow_guards(workflow.dependencies)
    subscriptions = {
        event: frozenset(g.bases() - {event.base})
        for event, g in guards.items()
    }
    notyet_needs = {}
    wants: dict[Event, frozenset[Event]] = {}
    for event, g in guards.items():
        needs = _needs_notyet(g)
        if needs:
            notyet_needs[event] = needs
        wants[event] = wanted_eventualities(g, event.base)
    pairs: set[frozenset[Event]] = set()
    for event, targets in wants.items():
        for target in targets:
            if event in wants.get(target, frozenset()):
                pairs.add(frozenset({event, target}))
    return CompiledWorkflow(
        workflow=workflow,
        guards=guards,
        subscriptions=subscriptions,
        notyet_needs=notyet_needs,
        promise_pairs=frozenset(pairs),
    )
