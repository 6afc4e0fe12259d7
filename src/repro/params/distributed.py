"""Distributed execution of parametrized dependencies (Section 5.2).

The synchronous :class:`~repro.params.scheduler.ParamScheduler`
isolates the Section 5 *reasoning*; this module closes the loop by
running parametrized specifications on the distributed guard
scheduler.  The trick is composition: ground dependency instances are
materialized lazily -- whenever a token with new parameter values is
attempted -- through the scheduler's run-time modification machinery
(``add_dependency_runtime``), which residuates each new instance by
history, synthesizes guards for its events, spins up their roles, and wires
subscriptions.  Guards thereby "grow" exactly as Example 14
describes, and tasks with loops just keep minting tokens.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.algebra.expressions import Expr
from repro.algebra.parser import parse
from repro.algebra.symbols import Event, Variable
from repro.scheduler.events import EventAttributes, ExecutionResult
from repro.scheduler.guard_scheduler import DistributedScheduler


class DistributedParamRunner:
    """Parametrized dependencies on the distributed scheduler.

    Parameters
    ----------
    templates:
        Parametrized dependencies (strings or expressions); unbound
        variables are universally quantified over token values.
    attributes:
        Per *event-type name* attributes (applied to every ground
        instance of that type).
    tracer:
        Observability hook, forwarded to the underlying
        :class:`DistributedScheduler` (see :mod:`repro.obs`).
    """

    #: the scheduler the runner drives (the differential tests' runner
    #: drives their reference subclass)
    scheduler_class = DistributedScheduler

    def __init__(
        self,
        templates: Iterable[Expr | str],
        attributes: dict[str, EventAttributes] | None = None,
        tracer=None,
    ):
        self.templates: list[Expr] = [
            parse(t) if isinstance(t, str) else t for t in templates
        ]
        self._type_attributes = dict(attributes or {})
        self._seen_values: set = set()
        self._materialized: set = set()
        self.sched = self.scheduler_class([], attributes={}, tracer=tracer)
        # per-name attributes are resolved lazily per ground base
        self.sched.attributes = self._attributes_for  # type: ignore[assignment]

    # ------------------------------------------------------------------

    def _attributes_for(self, base: Event) -> EventAttributes:
        return self._type_attributes.get(base.name, EventAttributes())

    def _materialize_for_values(self, values: tuple) -> None:
        """Ground every template over bindings drawn from the values
        seen so far (plus the new ones) and install new instances."""
        self._seen_values.update(values)
        pool = sorted(self._seen_values, key=repr)
        for template in self.templates:
            variables = sorted(
                {v for atom in template.events() for v in atom.variables},
                key=lambda v: v.name,
            )
            if not variables:
                combos: Iterable[tuple] = [()]
            else:
                combos = itertools.product(pool, repeat=len(variables))
            for combo in combos:
                binding = dict(zip(variables, combo))
                instance = template.substitute(binding)
                key = (id(template), combo)
                if key in self._materialized:
                    continue
                self._materialized.add(key)
                self.sched.add_dependency_runtime(instance)

    # ------------------------------------------------------------------

    def attempt(self, token: Event) -> None:
        """Attempt a ground token; instances materialize as needed."""
        if not token.is_ground:
            raise ValueError(f"attempts must be ground tokens: {token!r}")
        self._materialize_for_values(token.params)
        # a token no template matched is an unconstrained event
        self.sched.add_role(token)
        self.sched.attempt(token)
        self.sched.sim.run()

    def explain(self, token: Event):
        """Decision provenance for a ground token (see
        :meth:`DistributedScheduler.explain`)."""
        return self.sched.explain(token)

    def finish(self, verify: bool = True) -> ExecutionResult:
        """Settle the trace and return the result."""
        return self.sched.run(settle=True, verify=verify)

    @property
    def trace(self):
        return self.sched.result.trace
