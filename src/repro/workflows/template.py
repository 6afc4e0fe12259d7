"""Template-instantiated guard tables for multi-instance workloads.

Independent workflow instances share one declarative specification:
the ``N`` travel bookings of Example 12 differ only by an identifier
suffix on every event and site name.  Each of their guards and
dependencies is a copy of one *shape*, so an instance needs no
synthesis, no normal form and no closure of its own: it is a binding.

:class:`WorkflowTemplate` pays synthesis once, on the un-suffixed
workflow, through :func:`repro.temporal.guards.workflow_bindings`.
Every entry of that table is a :class:`~repro.temporal.guards.Binding`:
the guard's shape on canonical slot events plus the template's
``to_slot`` / ``from_slot`` maps.  Stamping an instance composes each
binding with the suffix's base rename
(:meth:`~repro.temporal.guards.Binding.renamed`): the shape object is
shared, no cube is touched, and the compiled cursor enters at it as it
is.  The real-name guard is rendered only where a real name is read.

A dependency is stamped the same way
(:func:`~repro.temporal.guards.stamp_dependency`): the template keeps
each of its dependencies in canonical form with its binding (its
normal form on its own slots, the key of the residual closure every
copy walks), and an instance's copy is a structural copy -- rebuilt
through the interning constructors with no sort, dedupe or collapse --
bound by that binding composed with the rename.  The requirement
monitors enter the shared closure from it.  The rename itself is
computed once per suffix (:meth:`WorkflowTemplate.mapping_for`) and
shared by the instance's scripts.  Cold start is
``O(synthesis + N * bases)``.

Correctness note: guard synthesis and normal forms fold in canonical
event order (``Event.sort_key``), so a composed binding renders
exactly the guard from-scratch synthesis on the renamed workflow
gives, binds the same slots, and enters the closure the renamed
dependency's own normal form keys, when the rename preserves that
order.  Appending one suffix to every name *usually* preserves
lexicographic order but not always (``"t1" < "t10"`` yet
``"t1_i1" > "t10_i1"``); :meth:`WorkflowTemplate.instantiate` checks
order preservation per suffix and, for the rare violating suffix,
renames the dependencies through
:func:`~repro.algebra.expressions.rename_expr` and falls back to
:func:`~repro.temporal.guards.workflow_bindings` on them -- a
shape-table hit there whenever the suffix merely reorders names the
same way an earlier one did, not a re-synthesis -- so an instance's
table always renders the from-scratch guards (a property the test
suite checks over the workload generators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from repro.algebra.expressions import rename_expr
from repro.algebra.symbols import Event, rename_event
from repro.obs.profile import span
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.guards import Binding, stamp_dependency, workflow_bindings
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
    """One stamped-out instance: the renamed workflow (its dependencies
    carry their bindings), its guard table as bindings (each the
    template's shape under this instance's names;
    :func:`~repro.temporal.guards.render` gives the real-name guards)
    and the base rename ``mapping`` that produced it (empty for the
    empty suffix; the template's own, shared, so not to be mutated).

    The guard table is stamped when it is first read, so an instance
    whose scheduler synthesizes its own table stamps none."""

    suffix: str
    workflow: Workflow
    mapping: dict[Event, Event]
    template: "WorkflowTemplate" = field(repr=False, compare=False)

    @cached_property
    def guards(self) -> dict[Event, Binding]:
        return self.template._stamp_guards(self)

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
        self._guards: dict[Event, Binding] | None = None
        #: the dependencies in canonical form, which a structural copy
        #: needs (``rename_expr`` under no rename canonicalizes)
        self._dependencies = tuple(
            rename_expr(dep, {}) for dep in workflow.dependencies
        )
        bases = {e.base for e in workflow.alphabet()}
        bases.update(b.base for b in workflow.sites)
        bases.update(b.base for b in workflow.attributes)
        #: every base the template renames, in canonical order
        self.bases: tuple[Event, ...] = tuple(
            sorted(bases, key=Event.sort_key)
        )
        self._mappings: dict[str, dict[Event, Event]] = {}
        #: instantiations served by composing bindings
        self.fast_instantiations = 0
        #: instantiations through ``workflow_bindings`` (order-violating
        #: suffix)
        self.fallback_instantiations = 0

    @property
    def guards(self) -> dict[Event, Binding]:
        """The template's binding table (synthesized once, lazily)."""
        if self._guards is None:
            with span(self.profiler, "synthesis"):
                self._guards = workflow_bindings(self.workflow.dependencies)
        return self._guards

    def mapping_for(self, suffix: str) -> dict[Event, Event]:
        """Base-event rename for one instance suffix: each base's name
        suffixed, its parameters kept, so distinct bases stay distinct.
        Computed once per suffix; the dict is shared with every caller,
        so it must not be mutated."""
        mapping = self._mappings.get(suffix)
        if mapping is None:
            mapping = {
                base: Event(f"{base.name}{suffix}", params=base.params)
                for base in self.bases
            } if suffix else {}
            self._mappings[suffix] = mapping
        return mapping

    def _order_preserving(self, mapping: Mapping[Event, Event]) -> bool:
        """Does the rename keep the canonical event order?

        ``self.bases`` is sorted; the rename is order-preserving iff
        the image sequence is strictly sorted too (so it is injective).
        This is what makes the composed guard and dependency bindings
        bit-identical to a fresh synthesis and fresh normal forms on
        the renamed dependencies (both fold in sort order).
        """
        keys = [mapping[base].sort_key() for base in self.bases]
        return all(a < b for a, b in zip(keys, keys[1:]))

    def instantiate(self, suffix: str) -> WorkflowInstance:
        """Stamp out one instance: renamed events and sites, and the
        template's dependency bindings composed with the suffix's
        rename (its guard bindings are, when first read)."""
        with span(self.profiler, "template_stamp"):
            mapping = self.mapping_for(suffix)
            if not mapping:
                dependencies = list(self._dependencies)
                self.fast_instantiations += 1
            elif self._order_preserving(mapping):
                dependencies = [
                    stamp_dependency(dep, mapping)
                    for dep in self._dependencies
                ]
                self.fast_instantiations += 1
            else:
                dependencies = [
                    rename_expr(dep, mapping) for dep in self._dependencies
                ]
                self.fallback_instantiations += 1
            source = self.workflow
            instance = Workflow(
                f"{source.name}{suffix}",
                dependencies=dependencies,
                attributes={
                    rename_event(event, mapping): attrs
                    for event, attrs in source.attributes.items()
                },
                sites={
                    rename_event(event, mapping): f"{site}{suffix}"
                    for event, site in source.sites.items()
                },
            )
        return WorkflowInstance(
            suffix=suffix, workflow=instance, mapping=mapping, template=self
        )

    def _stamp_guards(
        self, instance: WorkflowInstance
    ) -> dict[Event, Binding]:
        """``instance``'s guard table: the template's bindings composed
        with its rename, or, for an order-violating suffix, its own
        dependencies' bindings."""
        with span(self.profiler, "template_stamp"):
            mapping = instance.mapping
            if not mapping:
                return dict(self.guards)
            if not self._order_preserving(mapping):
                return workflow_bindings(instance.workflow.dependencies)
            # the template maps every base it holds, so every key and
            # binding of its table has an image
            guards = {}
            for event, binding in self.guards.items():
                target = mapping[event.base]
                key = target.complement if event.negated else target
                guards[key] = binding.renamed(mapping)
            return guards

    def _claim(self, suffix: str, claimed: set[str]) -> None:
        """Add the base names of instance ``suffix`` to ``claimed``;
        raise :class:`ValueError` naming one another instance holds."""
        names = {f"{base.name}{suffix}" for base in self.bases}
        if not claimed.isdisjoint(names):
            raise ValueError(
                f"instances are not event-disjoint: {min(claimed & names)} "
                "belongs to more than one of them"
            )
        claimed.update(names)

    def check_disjoint(self, suffixes: Iterable[str]) -> None:
        """Raise :class:`ValueError` unless the instances of
        ``suffixes`` share no base (a suffix given twice shares all)."""
        claimed: set[str] = set()
        for suffix in suffixes:
            self._claim(suffix, claimed)

    def instantiate_merged(
        self, suffixes: Iterable[str]
    ) -> tuple[Workflow, dict[Event, Binding]]:
        """All instances merged for one scheduler: workflow + guards.

        The merged binding table is the union of the per-instance
        tables, ready to pass as ``DistributedScheduler(guards=...)`` so
        the scheduler skips its own synthesis.  The instances must be
        event-disjoint: a base two of them would share raises
        :class:`ValueError` (its events would settle once per copy).
        """
        merged, instances = self._merged(suffixes)
        guards: dict[Event, Binding] = {}
        for inst in instances:
            guards |= inst.guards
        return merged, guards

    def merged_workflow(self, suffixes: Iterable[str]) -> Workflow:
        """:meth:`instantiate_merged`'s workflow alone, for a scheduler
        that synthesizes its own table: no guard is synthesized or
        stamped."""
        return self._merged(suffixes)[0]

    def _merged(
        self, suffixes: Iterable[str]
    ) -> tuple[Workflow, list[WorkflowInstance]]:
        names: list[str] = []
        merged = Workflow("")
        instances: list[WorkflowInstance] = []
        claimed: set[str] = set()
        for suffix in suffixes:
            self._claim(suffix, claimed)
            inst = self.instantiate(suffix)
            instances.append(inst)
            names.append(inst.workflow.name)
            merged.dependencies += inst.workflow.dependencies
            merged.attributes |= inst.workflow.attributes
            merged.sites |= inst.workflow.sites
        if not names:
            raise ValueError("instantiate_merged needs at least one suffix")
        merged.name = "+".join(names)
        return merged, instances
