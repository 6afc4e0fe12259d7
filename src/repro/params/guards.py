"""Parametrized guards with growing/shrinking instance maps (Example 14).

A parametrized guard is a guard template over variable-carrying atoms.
Unbound variables are universally quantified: the guard must hold for
*every* binding.  Operationally only finitely many bindings ever
matter -- those named by tokens that actually occurred -- plus the
"fresh" binding standing for all untouched values, so the guard is
maintained as a map from touched bindings to residual ground guards:

* a token occurrence *grows* the map (a new binding's instance is
  materialized and the occurrence assimilated into it);
* an instance that simplifies to ``T`` is dropped -- the guard
  *shrinks* back, possibly *resurrecting* an event that was blocked
  (Example 14's ``!f[y] + []g[y]`` cycle);
* evaluation conjoins all live instances with the fresh-binding check.

This is what makes tasks of arbitrary structure (loops included)
schedulable: nothing here depends on how many tokens a task will
produce (Section 5.2).
"""

from __future__ import annotations

import itertools

from repro.algebra.symbols import Event, Variable
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    FULL,
    GuardExpr,
    P_C,
    P_E,
)

#: The world mask of a base no token has settled: pending, direction
#: unknown.
PENDING = P_E | P_C


class FreshValue:
    """A sentinel parameter value no real token ever carries.

    Used to check the universally quantified remainder: the guard must
    hold for bindings nobody has touched, whose events are all still
    pending.
    """

    _counter = itertools.count()

    def __init__(self):
        self._id = next(FreshValue._counter)

    def __repr__(self) -> str:
        return f"<fresh#{self._id}>"


class ParametrizedGuard:
    """A guard template plus its live instance map.

    Parameters
    ----------
    template:
        A :class:`GuardExpr` whose cube keys are parametrized base
        events (possibly carrying :class:`Variable` parameters).
    """

    def __init__(self, template: GuardExpr):
        self.template = template
        self.instances: dict[tuple, GuardExpr] = {}
        self.history: list[tuple[str, tuple]] = []
        self._knowledge: dict[Event, int] = {}

    # -- inspection ----------------------------------------------------

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for base in self.template.bases():
            out.update(base.variables)
        return frozenset(out)

    def live_instances(self) -> dict[tuple, GuardExpr]:
        return dict(self.instances)

    # -- occurrences ---------------------------------------------------

    def observe(self, token: Event) -> None:
        """Assimilate a ground token occurrence.

        Every template base that unifies with the token's base yields
        a binding; each such binding's instance is materialized (grown)
        if needed and then simplified under the new knowledge.  An
        instance reduced to ``T`` is dropped (shrunk).
        """
        mask = C_OCC if token.negated else E_OCC
        self._knowledge[token.base] = mask
        for base in sorted(self.template.bases(), key=Event.sort_key):
            binding = base.unify(token.base)
            if binding is None:
                continue
            key = self._binding_key(binding)
            if key not in self.instances:
                ground = self._instantiate(binding)
                self.instances[key] = ground
                self.history.append(("grow", key))
            updated = self.instances[key].simplify_under(self._knowledge)
            if updated.is_true:
                del self.instances[key]
                self.history.append(("shrink", key))
            else:
                self.instances[key] = updated

    # -- evaluation ----------------------------------------------------

    def holds_now(self) -> bool:
        """Is the guard true for every binding, right now?

        Live instances are checked under accumulated knowledge; the
        universally quantified remainder is checked via a fresh
        binding whose events are all pending.
        """
        for instance in self.instances.values():
            if not instance.region_subsumes(self._world_masks(instance)):
                return False
        fresh = self._instantiate(
            {v: FreshValue() for v in self.variables()}
        )
        return fresh.region_subsumes(self._world_masks(fresh))

    def _world_masks(self, instance: GuardExpr) -> dict[Event, int]:
        return {
            base: self._knowledge.get(base, PENDING)
            for base in instance.bases()
        }

    # -- internals -----------------------------------------------------

    @staticmethod
    def _binding_key(binding: dict) -> tuple:
        return tuple(
            (var.name, value)
            for var, value in sorted(binding.items(), key=lambda kv: kv[0].name)
        )

    def _instantiate(self, binding: dict) -> GuardExpr:
        return instantiate_template(self.template, binding)


def instantiate_template(template: GuardExpr, binding: dict) -> GuardExpr:
    """Apply a variable binding to every cube of a guard template."""
    cubes = set()
    for cube in template.cubes:
        entries: dict[Event, int] = {}
        dead = False
        for base, mask in cube:
            ground = base.substitute(binding)
            combined = entries.get(ground, FULL) & mask
            if combined == 0:
                dead = True
                break
            entries[ground] = combined
        if dead:
            continue
        cubes.add(
            tuple(
                sorted(
                    ((b, m) for b, m in entries.items() if m != FULL),
                    key=lambda kv: kv[0].sort_key(),
                )
            )
        )
    return GuardExpr(frozenset(cubes))
