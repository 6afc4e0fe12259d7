"""Template-instantiated guard tables for multi-instance workloads.

Independent workflow instances share one declarative specification:
the ``N`` travel bookings of Example 12 differ only by an identifier
suffix on every event and site name.  Each of their guards and
dependencies is a copy of one *shape*, so an instance needs no
synthesis, no normal form and no closure of its own: it is a *row*,
its suffix and its bases' events in the template's canonical order.

:class:`WorkflowTemplate` pays synthesis once, on the un-suffixed
workflow, through :func:`repro.temporal.guards.workflow_bindings`, and
on first use plans its rows (:class:`~repro.temporal.guards.RowPlan`):
each guard's and each dependency's shape, with its slots given as
positions among the template's bases, plus each base's site and
attributes.  Stamping a row writes, straight into the merged workflow
and table, each dependency's structural copy -- rebuilt through the
interning constructors with no sort, dedupe or collapse, one
constructor call per node of a recipe planned once
(:class:`~repro.algebra.expressions.RowCopies`), and entered with its
binding, the key of the residual closure every copy walks -- each
guard's binding of its shared shape onto the row, and the row's sites
and attributes.  A row's events are interned with the suffix checked
once (:func:`~repro.algebra.symbols.suffixed`).  No cube is touched
and no per-instance workflow is built; the real-name guard is rendered
only where a real name is read.  Cold start is
``O(synthesis + N * (bases + entries))``.

Correctness note: guard synthesis and normal forms fold in canonical
event order (``Event.sort_key``), so a row's bindings render exactly
the guards from-scratch synthesis on the renamed workflow gives, and
enter the closures the renamed dependencies' own normal forms key,
when the row keeps that order.  Appending one suffix to every name
*usually* preserves lexicographic order but not always (``"t1" <
"t10"`` yet ``"t1_i1" > "t10_i1"``); each row's order is checked once,
when its suffix is first seen, and a violating row is renamed through
:func:`~repro.algebra.expressions.rename_expr` and synthesized by
:func:`~repro.temporal.guards.workflow_bindings` -- a shape-table hit
whenever the suffix merely reorders names the same way an earlier one
did -- so an instance's table always renders the from-scratch guards
(a property the test suite checks over the workload generators).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from repro.algebra.expressions import rename_expr
from repro.algebra.symbols import Event, rename_event, suffixed
from repro.obs.profile import span
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.guards import (
    Binding,
    RowPlan,
    dependency_binding,
    in_order,
    workflow_bindings,
)
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


class _Row:
    """One instance of a template: its suffix, the template's bases
    renamed (``events``, in the template's canonical order), whether it
    keeps the canonical order, and that rename as a mapping once a
    caller asks for it (:meth:`WorkflowTemplate.mapping_for`)."""

    __slots__ = ("suffix", "events", "ordered", "mapping")

    def __init__(self, suffix: str, bases: tuple[Event, ...]):
        self.suffix = suffix
        if suffix:
            self.events = suffixed(bases, suffix)
            self.ordered = in_order(self.events)
        else:
            self.events, self.ordered = bases, True
        self.mapping: dict[Event, Event] | None = None


class _Plan:
    """What every row of a template reads: its canonical dependencies
    and their bindings, and each site and attribute entry as
    ``(position, negated, value)``."""

    __slots__ = ("dependencies", "bindings", "sites", "attributes")

    def __init__(self, workflow: Workflow, bases: tuple[Event, ...]):
        position = {base: i for i, base in enumerate(bases)}
        #: canonical form, which a structural copy needs (``rename_expr``
        #: under no rename canonicalizes)
        self.dependencies = [
            rename_expr(dep, {}) for dep in workflow.dependencies
        ]
        self.bindings = [dependency_binding(dep) for dep in self.dependencies]
        self.sites = [
            (position[event.base], event.negated, site)
            for event, site in workflow.sites.items()
        ]
        self.attributes = [
            (position[event.base], event.negated, attrs)
            for event, attrs in workflow.attributes.items()
        ]


class WorkflowTemplate:
    """Synthesize a workflow's guards once; instantiate per suffix.

    >>> from repro.workloads.scenarios import make_travel_booking
    >>> template = WorkflowTemplate(make_travel_booking().workflow)
    >>> workflow, guards = template.instantiate_merged(["_i0"])
    >>> sorted(b.name for b in workflow.bases())[:2]
    ['c_book_i0', 'c_buy_i0']
    """

    def __init__(self, workflow: Workflow, profiler=None):
        self.workflow = workflow
        #: span profiler attributing synthesis vs stamping time, if any
        self.profiler = profiler
        self._guards: dict[Event, Binding] | None = None
        bases = {e.base for e in workflow.alphabet()}
        bases.update(b.base for b in workflow.sites)
        bases.update(b.base for b in workflow.attributes)
        #: every base the template renames, in canonical order
        self.bases: tuple[Event, ...] = tuple(
            sorted(bases, key=Event.sort_key)
        )
        self._rows: dict[str, _Row] = {}
        #: instantiations served by the template's shapes
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

    @cached_property
    def _plan(self) -> _Plan:
        return _Plan(self.workflow, self.bases)

    @cached_property
    def _dependency_rows(self) -> RowPlan:
        """The dependencies' copies and bindings, planned on the
        template's bases (what a row stamps when no guard is)."""
        plan = self._plan
        return RowPlan(plan.bindings, self.bases, plan.dependencies)

    @cached_property
    def _guard_plan(self) -> tuple[list[tuple[int, int, bool]], RowPlan]:
        """The dependencies' bindings then the guard table's, placed on
        the template's bases, with each guard's key as ``(binding index,
        position, negated)`` (read by the first stamped guard table, so
        a template that stamps none synthesizes none)."""
        plan, guards = self._plan, self.guards
        position = {base: i for i, base in enumerate(self.bases)}
        keys = [
            (index, position[event.base], event.negated)
            for index, event in enumerate(guards, start=len(plan.bindings))
        ]
        rows = RowPlan(
            [*plan.bindings, *guards.values()], self.bases, plan.dependencies
        )
        return keys, rows

    def _row(self, suffix: str) -> _Row:
        row = self._rows.get(suffix)
        if row is None:
            row = self._rows[suffix] = _Row(suffix, self.bases)
        return row

    def mapping_for(self, suffix: str) -> dict[Event, Event]:
        """Base-event rename for one instance suffix: each base's name
        suffixed, its parameters kept, so distinct bases stay distinct.
        Computed once per suffix; the dict is shared with every caller,
        so it must not be mutated."""
        return self._mapping(self._row(suffix))

    def _mapping(self, row: _Row) -> dict[Event, Event]:
        mapping = row.mapping
        if mapping is None:
            mapping = row.mapping = (
                dict(zip(self.bases, row.events)) if row.suffix else {}
            )
        return mapping

    def _stamp(
        self,
        row: _Row,
        dependencies: list,
        sites: dict[Event, str],
        attributes: dict,
        guards: dict[Event, Binding] | None,
    ) -> None:
        """Append ``row``'s dependency copies to ``dependencies``, write
        its sites and attributes, and its guard table into ``guards``
        unless that is ``None``."""
        plan, events = self._plan, row.events
        if row.suffix and row.ordered:
            if guards is None:
                copies, _ = self._dependency_rows.stamp(events)
            else:
                keys, rows = self._guard_plan
                copies, bindings = rows.stamp(events)
                for index, at, negated in keys:
                    event = events[at]
                    guards[event.complement if negated else event] = (
                        bindings[index]
                    )
        elif not row.suffix:
            copies = plan.dependencies
            if guards is not None:
                guards.update(self.guards)
        else:
            # an order-violating row: its copies' own bindings
            mapping = self._mapping(row)
            copies = [rename_expr(dep, mapping) for dep in plan.dependencies]
            if guards is not None:
                guards.update(workflow_bindings(copies))
        if row.ordered:
            self.fast_instantiations += 1
        else:
            self.fallback_instantiations += 1
        dependencies += copies
        suffix = row.suffix
        for at, negated, site in plan.sites:
            event = events[at]
            sites[event.complement if negated else event] = f"{site}{suffix}"
        for at, negated, attrs in plan.attributes:
            event = events[at]
            attributes[event.complement if negated else event] = attrs

    def _rows_of(self, suffixes: Iterable[str]) -> list[_Row]:
        """The rows of ``suffixes``; raise :class:`ValueError` naming a
        base two of them share (a suffix given twice shares all)."""
        rows = [self._row(suffix) for suffix in suffixes]
        claimed = {event for row in rows for event in row.events}
        if len(claimed) < len(self.bases) * len(rows):
            # some base is claimed twice: name the first clash
            seen: set[Event] = set()
            for row in rows:
                clash = seen.intersection(row.events)
                if clash:
                    raise ValueError(
                        "instances are not event-disjoint: "
                        f"{min(clash, key=Event.sort_key)!r} "
                        "belongs to more than one of them"
                    )
                seen.update(row.events)
        return rows

    def check_disjoint(self, suffixes: Iterable[str]) -> None:
        """Raise :class:`ValueError` unless the instances of
        ``suffixes`` share no base (a suffix given twice shares all)."""
        self._rows_of(suffixes)

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
        guards: dict[Event, Binding] = {}
        return self._merged(suffixes, guards), guards

    def merged_workflow(self, suffixes: Iterable[str]) -> Workflow:
        """:meth:`instantiate_merged`'s workflow alone, for a scheduler
        that synthesizes its own table: no guard is synthesized or
        stamped."""
        return self._merged(suffixes, None)

    def _merged(
        self, suffixes: Iterable[str], guards: dict[Event, Binding] | None
    ) -> Workflow:
        with span(self.profiler, "template_stamp"):
            rows = self._rows_of(suffixes)
            if not rows:
                raise ValueError(
                    "instantiate_merged needs at least one suffix"
                )
            name = self.workflow.name
            merged = Workflow(
                "+".join([f"{name}{row.suffix}" for row in rows])
            )
            dependencies, sites = merged.dependencies, merged.sites
            attributes = merged.attributes
            for row in rows:
                self._stamp(row, dependencies, sites, attributes, guards)
        return merged
