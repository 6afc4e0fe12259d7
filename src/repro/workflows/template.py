"""Template-instantiated guard synthesis for multi-instance workloads.

Independent workflow instances share one declarative specification:
the ``N`` travel bookings of Example 12 differ only by an identifier
suffix on every event and site name.  Re-running guard synthesis per
suffixed copy therefore repeats the same symbolic computation ``N``
times -- cold-start cost ``O(N * synthesis)``.

:class:`WorkflowTemplate` pays synthesis once, on the un-suffixed
workflow, and stamps out per-instance guard tables by *interned event
substitution*: a rename pass over the compiled cube sets
(:meth:`repro.temporal.cubes.GuardExpr.rename` via
:func:`repro.temporal.guards.rename_guard_table`) plus a structural
rename of the dependency expressions.  Cold-start drops to
``O(synthesis + N * rename)``.

Correctness note: guard synthesis folds in canonical event order
(``Event.sort_key``), so the renamed table is bit-identical to
from-scratch synthesis on the renamed workflow exactly when the rename
preserves that order.  Appending one suffix to every name *usually*
preserves lexicographic order but not always (``"t1" < "t10"`` yet
``"t1_i1" > "t10_i1"``); :meth:`WorkflowTemplate.instantiate` checks
order preservation per suffix and falls back to
:func:`~repro.temporal.guards.workflow_guards` on the renamed
dependencies for the rare violating suffix -- a shape-table hit there
whenever the suffix merely reorders names the same way an earlier one
did, not a re-synthesis -- so instantiated guards are *always*
structurally identical to from-scratch synthesis (a property the test
suite checks over the workload generators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.algebra.expressions import rename_expr
from repro.algebra.symbols import Event, rename_event
from repro.obs.profile import span
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.cubes import GuardExpr
from repro.temporal.guards import rename_guard_table, workflow_guards
from repro.workflows.spec import Workflow


def rename_script(
    script: AgentScript, mapping: Mapping[Event, Event], suffix: str
) -> AgentScript:
    """A copy of ``script`` with events renamed and the site suffixed."""
    return AgentScript(
        f"{script.site}{suffix}",
        [
            ScriptedAttempt(
                attempt.time,
                rename_event(attempt.event, mapping),
                None
                if attempt.after is None
                else rename_event(attempt.after, mapping),
            )
            for attempt in script.attempts
        ],
    )


@dataclass(frozen=True)
class WorkflowInstance:
    """One stamped-out instance: renamed workflow + instantiated guards."""

    suffix: str
    workflow: Workflow
    guards: dict[Event, GuardExpr]
    mapping: dict[Event, Event]

    def instantiate_script(self, script: AgentScript) -> AgentScript:
        """Rename a template-level agent script for this instance."""
        return rename_script(script, self.mapping, self.suffix)


class WorkflowTemplate:
    """Synthesize a workflow's guards once; instantiate per suffix.

    >>> from repro.workloads.scenarios import make_travel_booking
    >>> template = WorkflowTemplate(make_travel_booking().workflow)
    >>> inst = template.instantiate("_i0")
    >>> sorted(b.name for b in inst.workflow.bases())[:2]
    ['c_book_i0', 'c_buy_i0']
    """

    def __init__(self, workflow: Workflow, profiler=None):
        self.workflow = workflow
        #: span profiler attributing synthesis vs stamping time, if any
        self.profiler = profiler
        self._guards: dict[Event, GuardExpr] | None = None
        bases = {e.base for e in workflow.alphabet()}
        bases.update(b.base for b in workflow.sites)
        bases.update(b.base for b in workflow.attributes)
        #: every base the template renames, in canonical order
        self.bases: tuple[Event, ...] = tuple(
            sorted(bases, key=Event.sort_key)
        )
        #: instantiations served by the rename fast path
        self.fast_instantiations = 0
        #: instantiations through ``workflow_guards`` (order-violating suffix)
        self.fallback_instantiations = 0

    @property
    def guards(self) -> dict[Event, GuardExpr]:
        """The template's guard table (synthesized once, lazily)."""
        if self._guards is None:
            with span(self.profiler, "synthesis"):
                self._guards = workflow_guards(self.workflow.dependencies)
        return self._guards

    def mapping_for(self, suffix: str) -> dict[Event, Event]:
        """Base-event rename for one instance suffix."""
        if not suffix:
            return {}
        return {
            base: Event(f"{base.name}{suffix}") for base in self.bases
        }

    def _order_preserving(self, mapping: Mapping[Event, Event]) -> bool:
        """Does the rename keep the canonical event order?

        ``self.bases`` is sorted; the rename is order-preserving iff
        the image sequence is strictly sorted too.  This is what makes
        the renamed guard table bit-identical to a fresh synthesis on
        the renamed dependencies (the synthesis folds in sort order).
        """
        keys = [mapping[base].sort_key() for base in self.bases]
        return all(a < b for a, b in zip(keys, keys[1:]))

    def instantiate(self, suffix: str) -> WorkflowInstance:
        """Stamp out one instance: renamed events, sites, and guards."""
        with span(self.profiler, "template_stamp"):
            mapping = self.mapping_for(suffix)
            source = self.workflow
            instance = Workflow(
                f"{source.name}{suffix}",
                dependencies=[
                    rename_expr(dep, mapping) for dep in source.dependencies
                ],
                attributes={
                    rename_event(event, mapping): attrs
                    for event, attrs in source.attributes.items()
                },
                sites={
                    rename_event(event, mapping): f"{site}{suffix}"
                    for event, site in source.sites.items()
                },
            )
            if mapping and not self._order_preserving(mapping):
                guards = workflow_guards(instance.dependencies)
                self.fallback_instantiations += 1
            else:
                guards = rename_guard_table(self.guards, mapping)
                self.fast_instantiations += 1
        return WorkflowInstance(
            suffix=suffix,
            workflow=instance,
            guards=guards,
            mapping=mapping,
        )

    def instantiate_merged(
        self, suffixes: Iterable[str]
    ) -> tuple[Workflow, dict[Event, GuardExpr]]:
        """All instances merged for one scheduler: workflow + guards.

        The merged guard table is the union of the per-instance tables
        (instances are event-disjoint by construction), ready to pass
        as ``DistributedScheduler(guards=...)`` so the scheduler skips
        its own synthesis.
        """
        names: list[str] = []
        merged = Workflow("")
        guards: dict[Event, GuardExpr] = {}
        for suffix in suffixes:
            inst = self.instantiate(suffix)
            names.append(inst.workflow.name)
            merged.dependencies += inst.workflow.dependencies
            merged.attributes |= inst.workflow.attributes
            merged.sites |= inst.workflow.sites
            guards |= inst.guards
        if not names:
            raise ValueError("instantiate_merged needs at least one suffix")
        merged.name = "+".join(names)
        return merged, guards
