"""Admission scheduling over parametrized dependencies (Section 5.2).

The :class:`ParamScheduler` is the reasoning engine behind Example 13:
dependencies range over event *types* (``b1[x]``, ``b2[y]``); tokens
are ground occurrences; unbound variables are universally quantified.
Guards are synthesized once per event type by the ordinary Definition
2 machinery -- parametrized atoms are perfectly good atoms for the
symbolic computation -- and evaluated per attempt by enumerating the
bindings that matter: those named by tokens seen so far, plus a fresh
binding standing for all untouched values.

The engine is synchronous (a direct admission test, no simulated
network): it isolates Section 5's *reasoning* contribution.  The
distributed execution of ground instances is Example 12's territory
and reuses the ordinary schedulers via
:class:`~repro.params.workflows.ParametrizedWorkflow`.

Tasks of arbitrary structure come for free: a looping task simply
produces tokens ``b[i]`` with fresh ids, and nothing here bounds how
many (Section 5.2: "if we can handle parameters correctly, we can
handle arbitrary tasks correctly!").
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable

from repro.algebra.expressions import Expr, Top, Zero
from repro.algebra.normal_form import joint_completion_exists
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event, Variable
from repro.params.guards import FreshValue
from repro.temporal.cubes import C_OCC, E_OCC, GuardExpr
from repro.temporal.guards import guard as synthesize_guard


class ParamScheduler:
    """Synchronous admission over parametrized dependencies.

    Admission semantics: a token may occur iff, after materializing
    every ground instance of every dependency over the bindings that
    matter (token values seen so far plus a fresh value per variable)
    and residuating them by the history, the state reached by the
    token still has a *joint* accepting completion.  This is the
    dependency-centric acceptance rule of Section 3.3 lifted to event
    types; the per-event guard view of the same decisions is exposed
    by :meth:`guard_instance` (used by the Example 14 walkthrough).
    """

    def __init__(self, dependencies: Iterable[Expr | str] = ()):
        self.dependencies: list[Expr] = []
        self._guards: dict[Event, GuardExpr] = {}
        self._occurred: dict[Event, int] = {}  # ground base -> E/C mask
        self._promised: dict[Event, int] = {}  # ground base -> DIA mask
        self.trace: list[Event] = []
        #: the one fresh value standing for every untouched binding of
        #: a variable, kept for the scheduler's lifetime so repeated
        #: admission tests intern no new events or expressions
        self._fresh: dict[Variable, FreshValue] = defaultdict(FreshValue)
        for dep in dependencies:
            self.add_dependency(dep)

    # ------------------------------------------------------------------
    # setup

    def add_dependency(self, dependency: Expr | str) -> Expr:
        expr = parse(dependency) if isinstance(dependency, str) else dependency
        self.dependencies.append(expr)
        self._guards.clear()  # recompile lazily
        return expr

    def _guard_for_type(self, event_type: Event) -> GuardExpr:
        cached = self._guards.get(event_type)
        if cached is not None:
            return cached
        total = None
        for dep in self.dependencies:
            if not any(
                a.name == event_type.name for a in dep.bases()
            ):
                continue
            g = synthesize_guard(dep, event_type)
            total = g if total is None else (total & g)
        from repro.temporal.cubes import TRUE_GUARD

        result = total if total is not None else TRUE_GUARD
        self._guards[event_type] = result
        return result

    # ------------------------------------------------------------------
    # runtime

    def allowed(self, token: Event) -> bool:
        """May this ground token occur now?

        Residuate every materialized dependency instance by the token
        and check the joint state still has an accepting completion
        over the unsettled (and universally quantified) remainder.
        """
        if not token.is_ground:
            raise ValueError(f"attempts must be ground tokens: {token!r}")
        if token.base in self._occurred:
            return False  # a token occurs at most once (Definition 1)
        return joint_completion_exists(
            tuple(
                residuate(instance, token)
                for instance in self._residual_instances(token.params)
            )
        )

    def guard_instance(self, event_type: Event) -> GuardExpr:
        """The synthesized guard template of an event type (Definition 2
        applied to parametrized atoms)."""
        return self._guard_for_type(event_type)

    def _residual_instances(self, extra_values: tuple = ()):
        """Ground every dependency over the bindings that matter and
        residuate by the history; discharged instances are dropped."""
        seen_values = set(extra_values)
        for ground in self._occurred:
            seen_values.update(ground.params)
        for dep in self.dependencies:
            variables = sorted(
                {v for atom in dep.events() for v in atom.variables},
                key=lambda v: v.name,
            )
            pools = [
                sorted(seen_values, key=repr) + [self._fresh[v]]
                for v in variables
            ]
            for combo in itertools.product(*pools) if variables else [()]:
                binding = dict(zip(variables, combo))
                instance = dep.substitute(binding)
                for past in self.trace:
                    instance = residuate(instance, past)
                    if isinstance(instance, (Top, Zero)):
                        break
                if isinstance(instance, Top):
                    continue
                yield instance

    def occur(self, token: Event) -> None:
        """Record an occurrence (caller should have checked ``allowed``)."""
        if token.base in self._occurred:
            raise ValueError(f"token occurred twice: {token!r}")
        self._occurred[token.base] = C_OCC if token.negated else E_OCC
        self.trace.append(token)

    def attempt(self, token: Event) -> bool:
        """``allowed`` + ``occur`` in one step; returns the decision."""
        if self.allowed(token):
            self.occur(token)
            return True
        return False
