"""The :class:`Workflow` container (paper Section 3.1).

A workflow ``W`` is a set of dependencies (Syntax: ``W`` is a set of
expressions of ``E``) together with the scheduling attributes of its
events (Section 3.3) and the site placement of its task agents
(Section 2).  The class is a plain declarative record; compilation to
guards lives in :mod:`repro.workflows.compiler` and execution in
:mod:`repro.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.expressions import Expr
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, unsatisfied
from repro.scheduler.events import EventAttributes


@dataclass
class Workflow:
    """A declaratively specified workflow.

    >>> w = Workflow("ticket")
    >>> w.add("~s_buy + s_book")
    >>> sorted(e.name for e in w.bases())
    ['s_book', 's_buy']
    """

    name: str
    dependencies: list[Expr] = field(default_factory=list)
    attributes: dict[Event, EventAttributes] = field(default_factory=dict)
    sites: dict[Event, str] = field(default_factory=dict)

    def add(self, dependency: Expr | str) -> Expr:
        """Add a dependency (parsing it when given as text)."""
        expr = parse(dependency) if isinstance(dependency, str) else dependency
        self.dependencies.append(expr)
        return expr

    def set_attributes(self, event: Event, **kwargs) -> None:
        """Set scheduling attributes for a base event.

        Keyword arguments are those of
        :class:`repro.scheduler.events.EventAttributes`.
        """
        self.attributes[event.base] = EventAttributes(**kwargs)

    def place(self, event: Event, site: str) -> None:
        """Place a base event's agent (and actor) at a network site."""
        self.sites[event.base] = site

    def place_task(self, site: str, *events: Event) -> None:
        """Place several events of one task agent at the same site."""
        for event in events:
            self.place(event, site)

    def bases(self) -> frozenset[Event]:
        out: set[Event] = set()
        for dep in self.dependencies:
            out |= dep.bases()
        return frozenset(out)

    def alphabet(self) -> frozenset[Event]:
        out: set[Event] = set()
        for dep in self.dependencies:
            out |= dep.alphabet()
        return frozenset(out)

    def admits(self, trace: Trace) -> bool:
        """Does the trace satisfy every dependency (Section 3.3)?"""
        return next(unsatisfied(trace, self.dependencies), None) is None

    def merged(self, other: "Workflow", name: str | None = None) -> "Workflow":
        """Combine two workflows (their union runs under one scheduler)."""
        combined = Workflow(
            name or f"{self.name}+{other.name}",
            dependencies=list(self.dependencies) + list(other.dependencies),
            attributes={**self.attributes, **other.attributes},
            sites={**self.sites, **other.sites},
        )
        return combined
