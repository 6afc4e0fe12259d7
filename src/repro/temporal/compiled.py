"""Compiled guard automata: interned decision diagrams over guard shapes.

The cube engine *rewrites* a guard on every assimilated announcement:
``simplify_under`` walks the cube DNF, and the verdict checks
(``region_subsumes`` / ``possible_under``) re-run on top.

This module compiles each synthesized :class:`GuardExpr` into a
hash-consed *guard automaton* whose runtime state is a single node
pointer:

* a :class:`GuardNode` is the interned pair ``(residual guard,
  knowledge restricted to the residual's bases)`` -- the complete
  input of every per-announcement computation the cube engine
  performs.  Restriction is sound because ``simplify_under``,
  ``region_subsumes``, ``possible_under``, the solicitation plans and
  the grant decision consult the knowledge map **only** at bases the
  residual's cubes mention;
* *learn edges* move between nodes as knowledge tightens: one interned
  dict hop per announcement, zero cube allocation.  A base outside the
  residual's support is a self-loop;
* each node lazily computes -- once, across all actors sharing the
  node -- its **verdict** (fire / park / never, exactly Section 4.3's
  evaluation rule), its **assimilation successor** (the
  ``simplify_under`` result, re-interned), its **solicitation plans**
  (:func:`solicitations`: the first is what a parked role solicits,
  all of them what quiescence escalation demands) and its **grant
  decision** (:func:`grant_decision`, asked on the node a promise
  request's chain refines to); its **wake set** (the wake rule below)
  is the residual's support, cached on the guard.  No guard question
  of a run reads a real-name guard;
* terminal nodes are the constant guards: an unsatisfiable conjunction
  or dead event compiles to the constant-false node whose verdict is
  permanently ``never`` (surfaced as a warning by ``repro analyze``).

Nodes live in *slot space*.  A :class:`GuardCursor` is a node plus its
copy's binding: the ``to_slot`` / ``from_slot`` pair
:func:`repro.temporal.guards._slot_maps` gives for the guard's bases
(canonical slot events in ``Event.sort_key`` order, the spelling
synthesis and :class:`~repro.temporal.guards.ResidualCursor` use).
Synthesis and template stamping hand that pair over already, as a
:class:`~repro.temporal.guards.Binding`, so a cursor enters at the
shape with no rename; only a plain guard (a hand-built table) is bound
by :func:`_slot_guard`.  Every computation above commutes with an
order-preserving injective rename, so renamed copies of one guard
*shape* -- the stamped instances of a
:class:`~repro.workflows.template.WorkflowTemplate`, a fan-in of
isomorphic guards -- walk one automaton: the shape pays each expansion
once, and a copy pays a dict probe per learned base plus a translation
of its plan when its node changes.  A copy whose rename breaks the
order binds onto a different shape; it is no less exact.

**The wake rule.**  An actor re-evaluates its guard when an
announcement arrives (Section 4.3), and the evaluation is a no-op when
the announced base cannot move it.  The scheduler decides wake or skip
at delivery, from the actor's own node: an actor wakes **iff the
announced base is in its residual's support** (``guard.bases()``),
the one clause AKL's stability rule asks for -- a suspended guard wakes
only on the variables it is suspended on.  A decided literal leaves the
residual and its base leaves the wake set, so residuation itself picks
the replacement watch -- one watch per undecided literal, not a SAT
solver's two, because the residual is observable state.  An unbound
cursor, and the reference engine's (which has no node), wakes on
everything.

The paper-literal reference engine acts from *any* announcement, also
in protocol states the residual does not show (a residual not yet
re-simplified after a promise learn, held grant decisions, a parked
actor whose solicitation would act).  Waking on the support alone
decides the same: the schedule explorer (``tests/scheduler/explorer.py``)
compares the two engines on every schedule it reaches, and that
agreement is the rule's regression guard.

Byte-for-byte equivalence with the cube engine is by construction: the
node's residual renamed back through the binding *is* the actor's
residual, and every cached value is defined as the result of the very
cube-engine call it replaces.  The differential harness
(``tests/properties/test_compiled_equivalence.py``) enforces identical
traces under fuzzed faults, resurrection, and runtime guard growth
(handled by :meth:`GuardCursor.reset` -- an incremental recompile that
re-enters the interned node space at the new guard).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.algebra.symbols import Event, rename_event

from .cubes import (
    DIA_COMP_MASK,
    DIA_MASK,
    FULL,
    P_C,
    P_E,
    GuardExpr,
    closure,
    verdict,
)
from .guards import Binding, _slot_maps, as_guard

#: Restricted-knowledge tuples are sorted by base; masks are 4-bit
#: world sets (:mod:`repro.temporal.cubes`).
Know = tuple[tuple[Event, int], ...]

#: The transient fact a not-yet certificate establishes: neither the
#: base nor its complement has occurred (worlds P_E or P_C).
NOT_YET_MASK = P_E | P_C


class WakeCounts:
    """One scheduler's wake / skip tally, counted by
    ``BaseActor.on_announce``; its ``metrics_report`` reports it as
    ``kernel['watch']``."""

    def __init__(self) -> None:
        self.wakes = 0
        self.skips = 0

    def counts(self) -> dict:
        return {"wakes": self.wakes, "skips": self.skips}


def _restrict(guard: GuardExpr, knowledge: Mapping[Event, int]) -> Know:
    """Project a knowledge map onto the guard's base support.

    ``O(|bases(guard)|)``, and it shrinks with the residual as
    announcements assimilate."""
    if not knowledge:
        return ()
    return tuple(
        (base, knowledge[base])
        for base in guard._sorted_bases()
        if base in knowledge
    )


def _set_know(know: Know, base: Event, mask: int) -> Know:
    """Insert or replace one base's mask, keeping the sort order."""
    out = []
    placed = False
    key = base.sort_key()
    for b, m in know:
        if b == base:
            out.append((base, mask))
            placed = True
        elif not placed and b.sort_key() > key:
            out.append((base, mask))
            out.append((b, m))
            placed = True
        else:
            out.append((b, m))
    if not placed:
        out.append((base, mask))
    return tuple(out)


def _slot_guard(guard: GuardExpr) -> tuple[GuardExpr, dict, dict]:
    """``guard``'s shape: the guard renamed onto the canonical slots,
    with the ``to_slot`` / ``from_slot`` binding that took it there."""
    to_slot, from_slot = _slot_maps(guard.bases())
    return guard.rename(to_slot), to_slot, from_slot


def _verdict(guard: GuardExpr, knowledge: Mapping[Event, int]) -> str:
    """Section 4.3's evaluation rule (:func:`~.cubes.verdict`) on a guard:
    ``"fire"`` / ``"never"`` / ``"park"``."""
    return verdict(guard.sorted_cubes(), knowledge)


#: The facts that can certify one literal, in the order they are tried:
#: ``(mask the facts leave, promise target, needs a certificate)``,
#: where the target is ``None`` (no promise), ``False`` (the base's own
#: promise) or ``True`` (its complement's).  A (transient, cheap)
#: not-yet certificate is preferred over a promise: promises oblige the
#: grantee to occur.
_RESOLUTIONS = (
    (NOT_YET_MASK, None, True),
    (DIA_MASK, False, False),
    (DIA_COMP_MASK, True, False),
    (DIA_MASK & NOT_YET_MASK, False, True),
    (DIA_COMP_MASK & NOT_YET_MASK, True, True),
)


def solicitations(
    guard: GuardExpr, knowledge: Mapping[Event, int]
) -> tuple[bool, list[tuple[tuple, tuple[Event, ...], tuple[Event, ...]]]]:
    """Which promises / certificates could complete a cube of ``guard``.

    Returns ``(demand, plans)``.  ``plans`` holds, in canonical cube
    order, ``(cube, promise targets, certificate bases)`` for every cube
    still possible under ``knowledge`` whose every uncertain base a
    promise, a not-yet certificate or both could resolve; a cube
    needing an actual occurrence has no plan.  ``demand`` says a single
    cube is still possible: its requests are then mandatory, so idle
    triggerable targets are caused at once ("information flows as soon
    as it is available", Section 6); with alternatives solicitation
    stays lazy.

    The one definition of soliciting: nodes call it in slot space
    (:meth:`GuardNode.plans`, behind both the first plan a parked role
    sends and the plans quiescence escalation walks), the reference
    cursor on the real names.
    """
    possible = 0
    plans = []
    for cube in guard.sorted_cubes():
        promises: list[Event] = []
        needs: list[Event] = []
        resolved = True
        for base, mask in cube:
            known = knowledge.get(base, FULL)
            if not closure(known) & mask:
                break  # the cube can no longer hold
            if not resolved or known & ~mask & FULL == 0:
                continue  # no plan anyway, or the base is already certain
            for facts, target, certify in _RESOLUTIONS:
                combined = known & facts
                if combined and combined & ~mask & FULL == 0:
                    if target is not None:
                        promises.append(base.complement if target else base)
                    if certify:
                        needs.append(base)
                    break
            else:
                resolved = False
        else:
            possible += 1
            if resolved:
                plans.append((cube, tuple(promises), tuple(needs)))
    return possible == 1, plans


def first_solicitation(
    guard: GuardExpr, knowledge: Mapping[Event, int]
) -> tuple[bool, tuple[Event, ...], tuple[Event, ...]]:
    """``(demand, promise targets, certificate bases)`` of the first
    plan :func:`solicitations` finds: one requestable cube at a time
    keeps traffic low."""
    demand, plans = solicitations(guard, knowledge)
    if not plans:
        return False, (), ()
    _cube, promises, needs = plans[0]
    return demand, promises, needs


def grant_decision(
    guard: GuardExpr, assumed: Mapping[Event, int]
) -> tuple[bool, bool, tuple[Event, ...]]:
    """Section 4.3's promise rule for one grantee: ``(possible,
    secured, chain targets)`` of its residual ``guard`` under
    ``assumed``, its knowledge with the requester chain's
    eventualities added.

    ``possible`` says some cube can still hold (``possible_under``);
    without it there is no promise.  A literal confined to one
    direction demands that its base eventually settles that way, and
    the need is met when ``assumed`` rules out the other direction;
    direction-ambivalent (``!``-style) literals resolve at fire time
    through certificates, so they do not gate a grant.  ``secured``
    says some cube ``assumed`` admits has every such need met: the
    grant goes out.  Otherwise the chain targets, in canonical cube
    order, are the signed events whose promises would meet the needs
    of the cubes ``assumed`` admits.

    The one definition of granting: nodes call it in slot space
    (:meth:`GuardNode.grant`), the reference cursor on the real names.
    """
    possible = secured = False
    targets: list[Event] = []
    for cube in guard.sorted_cubes():
        admits = True
        wanted = []
        for base, mask in cube:
            known = assumed.get(base, FULL)
            if not closure(known) & mask:
                break  # the cube can no longer hold
            if not known & mask:
                admits = False
            elif not mask & DIA_COMP_MASK and known & DIA_COMP_MASK:
                wanted.append(base)  # needs <>base
            elif not mask & DIA_MASK and known & DIA_MASK:
                wanted.append(base.complement)  # needs <>~base
        else:
            possible = True
            if admits:
                secured = secured or not wanted
                targets += wanted
    return possible, secured, tuple(targets)


class GuardNode:
    """One interned automaton state: ``(residual, restricted knowledge)``.

    Everything the scheduler asks per announcement is a slot on the
    node, filled lazily by the first asker and shared by every cursor
    that reaches the same state under any binding.
    """

    __slots__ = (
        "engine", "residual", "know", "_edges", "_next", "_verdict",
        "_plans", "_grant",
    )

    def __init__(self, engine: "CompiledGuardEngine", residual: GuardExpr, know: Know):
        self.engine = engine
        self.residual = residual
        self.know = know
        self._edges: dict[tuple[Event, int], GuardNode] = {}
        self._next: GuardNode | None = None
        self._verdict: str | None = None
        self._plans: tuple | None = None
        self._grant: tuple | None = None

    # -- transitions ---------------------------------------------------

    def learn(self, base: Event, mask: int) -> "GuardNode":
        """The knowledge-tightening transition: ``knowledge[base] = mask``.

        A base outside the residual's support is a self-loop (the cube
        engine's rewrite would not touch the residual either); a
        relevant base follows one interned edge, installed on first
        traversal."""
        if base not in self.residual.bases():
            self.engine.hops += 1
            return self
        return self._transition(base, mask)

    def refined(self, base: Event, mask: int) -> "GuardNode":
        """Non-committal conjunction of a transient fact: the node for
        ``knowledge[base] &= mask``, without any cursor moving there.

        This is how certificate rounds evaluate (Section 4.3's
        transient not-yet facts): descend along learn edges, read the
        verdict, never commit the facts."""
        if base not in self.residual.bases():
            return self
        current = FULL
        for b, m in self.know:
            if b == base:
                current = m
                break
        combined = current & mask
        if combined == current:
            return self
        return self._transition(base, combined)

    def _transition(self, base: Event, mask: int) -> "GuardNode":
        key = (base, mask)
        succ = self._edges.get(key)
        if succ is None:
            succ = self.engine._node(
                self.residual, _set_know(self.know, base, mask)
            )
            self._edges[key] = succ
            self.engine.edges += 1
        else:
            self.engine.hops += 1
        return succ

    def assimilate(self) -> "GuardNode":
        """The ``simplify_under`` successor: residual rewritten by the
        node's knowledge, knowledge re-restricted to the new support.

        Computed with the cube engine's own ``simplify_under`` exactly
        once per node, then a pointer hop forever after."""
        nxt = self._next
        if nxt is None:
            self.engine.expansions += 1
            knowledge = dict(self.know)
            residual = self.residual.simplify_under(knowledge)
            nxt = self.engine._node(residual, _restrict(residual, knowledge))
            self._next = nxt
        else:
            self.engine.hops += 1
        return nxt

    # -- cached evaluations --------------------------------------------

    def verdict(self) -> str:
        """Section 4.3's evaluation rule, precomputed per node:
        ``"fire"`` / ``"never"`` / ``"park"``."""
        v = self._verdict
        if v is None:
            self.engine.expansions += 1
            v = self._verdict = _verdict(self.residual, dict(self.know))
        else:
            self.engine.hops += 1
        return v

    def plans(self) -> tuple:
        """This state's :func:`solicitations`: the first plan is what a
        parked role solicits, all of them what escalation demands."""
        plans = self._plans
        if plans is None:
            plans = self._plans = solicitations(
                self.residual, dict(self.know)
            )
        return plans

    def grant(self) -> tuple:
        """This state's :func:`grant_decision`; a grantee asks it on
        the node its requester chain's eventualities refine to."""
        grant = self._grant
        if grant is None:
            grant = self._grant = grant_decision(
                self.residual, dict(self.know)
            )
        return grant

    def __repr__(self) -> str:  # pragma: no cover
        return f"GuardNode({self.residual!r}, know={len(self.know)})"


class GuardCursor:
    """One actor's runtime state: a node of the shared slot-space
    automaton plus this copy's ``to_slot`` / ``from_slot`` binding.

    The cursor enters at a guard-table entry: a
    :class:`~repro.temporal.guards.Binding` (synthesized or
    stamped), whose shape and binding it takes as they are, or a plain
    :class:`GuardExpr` (a hand-built table, a run-time
    reconfiguration), bound once here by :func:`_slot_guard`.
    ``knowledge`` is the owner's live map, which the owner updates
    before each :meth:`learn`.  The cursor binds on first use (any
    method below), not at construction: the entry node is taken against
    the live map then, so a scheduler's build pays nothing per actor.
    ``node`` is ``None`` until then.  Every method returns exactly the
    value of the cube-engine call it replaces.
    """

    __slots__ = (
        "engine", "knowledge", "node", "to_slot", "from_slot",
        "_entry", "_guard", "_rendered", "_plan_node", "_plan",
        "_plans_node", "_plans",
    )

    def __init__(
        self,
        engine: "CompiledGuardEngine",
        entry: Binding | GuardExpr,
        knowledge: dict[Event, int],
    ):
        engine.cursors += 1
        self.engine, self._entry, self.knowledge = engine, entry, knowledge
        self.node: GuardNode | None = None
        self._plan_node = self._plans_node = None

    def _bind(self) -> GuardNode:
        """Take the entry's binding and enter the automaton at its
        shape's node, the live knowledge restricted in slot space."""
        entry = self._entry
        if isinstance(entry, GuardExpr):
            shape, to_slot, from_slot = _slot_guard(entry)
            rendered = entry
        else:
            shape, to_slot, from_slot = (
                entry.shape, entry.to_slot, entry.from_slot
            )
            rendered = entry._guard  # ``None`` until a reader asked
        self.to_slot, self.from_slot = to_slot, from_slot
        knowledge = self.knowledge
        # ``from_slot`` runs in slot order, the order nodes key on
        node = self.node = self.engine._node(
            shape,
            tuple([
                (slot, knowledge[base])
                for slot, base in from_slot.items()
                if base in knowledge
            ]) if knowledge else (),
        )
        # ``_guard`` is the real-name rendering of ``_rendered``; at the
        # entry node it is known for a plain guard or a binding some
        # reader already rendered
        self._guard = rendered
        self._rendered = None if rendered is None else node.residual
        return node

    @property
    def guard(self) -> GuardExpr:
        """The residual on the real names: the node's, renamed back
        through the binding when it changes."""
        node = self.node
        if node is None:
            return as_guard(self._entry)
        if node.residual is not self._rendered:
            self._rendered = node.residual
            self._guard = node.residual.rename(self.from_slot)
        return self._guard

    def learn(self, base: Event, mask: int) -> None:
        """Track ``actor.learn``: knowledge for ``base`` is now ``mask``."""
        node = self.node
        if node is None:
            self._bind()  # the live map already holds the fact
            return
        slot = self.to_slot.get(base)
        if slot is None:  # foreign to this copy: a self-loop
            self.engine.hops += 1
            return
        self.node = node.learn(slot, mask)

    def assimilate(self) -> None:
        """Advance past ``simplify_under`` (:attr:`guard` is then, value
        for value, what the cube engine assigns)."""
        self.node = (self.node or self._bind()).assimilate()

    def verdict(self) -> str:
        return (self.node or self._bind()).verdict()

    def _refined(self, facts: Iterable[tuple[Event, int]]) -> GuardNode:
        """The node under transient facts: descend along refined edges
        without moving this cursor."""
        node = self.node or self._bind()
        to_slot = self.to_slot
        for base, mask in facts:
            slot = to_slot.get(base)
            if slot is not None:
                node = node.refined(slot, mask)
        return node

    def transient_verdict(
        self, facts: Iterable[tuple[Event, int]]
    ) -> str:
        """Verdict under transient facts (certificate rounds)."""
        return self._refined(facts).verdict()

    def grant(
        self, facts: Iterable[tuple[Event, int]]
    ) -> tuple[bool, bool, tuple[Event, ...]]:
        """:func:`grant_decision` under assumed facts (a promise
        request's chain), read on the refined node as certificate rounds
        read their verdict; the chain targets are translated back."""
        possible, secured, targets = self._refined(facts).grant()
        if targets:
            from_slot = self.from_slot
            targets = tuple([rename_event(t, from_slot) for t in targets])
        return possible, secured, targets

    def wakes_on(self, base: Event) -> bool:
        """Can an announcement on ``base`` move the bound node?  Iff
        ``base``'s slot is in the residual's support
        (the wake rule)."""
        return self.to_slot.get(base) in self.node.residual.bases()

    def plan(self) -> tuple:
        """:func:`first_solicitation` on the real names, translated from
        the node's once per node change."""
        node = self.node or self._bind()
        if node is not self._plan_node:
            demand, plans = node.plans()
            if plans:
                _cube, promises, needs = plans[0]
                from_slot = self.from_slot
                self._plan = (
                    demand,
                    tuple([rename_event(p, from_slot) for p in promises]),
                    tuple([from_slot[b] for b in needs]),
                )
            else:
                self._plan = (False, (), ())
            self._plan_node = node
        return self._plan

    def escalation_plans(self) -> list:
        """:func:`solicitations`' plans, translated from the node's
        once per node change.  The cubes stay in slot space: they only
        key a role's escalation record, which every :meth:`reset`
        clears."""
        node = self.node or self._bind()
        if node is not self._plans_node:
            from_slot = self.from_slot
            self._plans = [
                (
                    cube,
                    tuple([rename_event(p, from_slot) for p in promises]),
                    tuple([from_slot[b] for b in needs]),
                )
                for cube, promises, needs in node.plans()[1]
            ]
            self._plans_node = node
        return self._plans

    def reset(
        self, entry: Binding | GuardExpr, knowledge: dict[Event, int]
    ) -> None:
        """Incremental recompile: re-enter the automaton at a new entry
        (runtime dependency growth/removal, crash resets), binding
        afresh on next use.  The new state's nodes are interned lazily
        like any other -- a recompile shares every state already
        explored, and a binding re-entered is not renamed again."""
        self.engine.recompiles += 1
        self._entry, self.knowledge = entry, knowledge
        self.node = self._plan_node = self._plans_node = None


class ReferenceCursor:
    """The paper-literal evaluation behind the cursor interface: every
    method *is* the cube-engine call the compiled cursor caches, run
    afresh on the real-name ``(residual guard, knowledge)`` pair.

    Only the differential tests use it (a scheduler subclass whose
    ``cursor_factory`` returns this class); it is what the compiled
    engine is proved byte-identical against."""

    __slots__ = ("guard", "knowledge")

    #: no node to cache on: the solicitation plan is recomputed
    node = None

    def __init__(
        self,
        entry: Binding | GuardExpr,
        knowledge: Mapping[Event, int] = (),
    ):
        self.reset(entry, knowledge)

    def learn(self, base: Event, mask: int) -> None:
        self.knowledge[base] = mask

    def assimilate(self) -> None:
        self.guard = self.guard.simplify_under(self.knowledge)

    def verdict(self) -> str:
        return _verdict(self.guard, self.knowledge)

    def _refined(self, facts: Iterable[tuple[Event, int]]) -> dict:
        transient = dict(self.knowledge)
        for base, mask in facts:
            transient[base] = transient.get(base, FULL) & mask
        return transient

    def transient_verdict(self, facts: Iterable[tuple[Event, int]]) -> str:
        return _verdict(self.guard, self._refined(facts))

    def grant(self, facts: Iterable[tuple[Event, int]]) -> tuple:
        return grant_decision(self.guard, self._refined(facts))

    def plan(self) -> tuple:
        return first_solicitation(self.guard, self.knowledge)

    def escalation_plans(self) -> list:
        return solicitations(self.guard, self.knowledge)[1]

    def reset(
        self, entry: Binding | GuardExpr, knowledge: Mapping[Event, int]
    ) -> None:
        self.guard = as_guard(entry)
        self.knowledge = dict(knowledge)


class CompiledGuardEngine:
    """The hash-consing node store (one per scheduler)."""

    def __init__(self) -> None:
        self._nodes: dict[tuple[GuardExpr, Know], GuardNode] = {}
        self._reset_counts()

    def _reset_counts(self) -> None:
        self.reused = 0
        self.edges = 0
        self.hops = 0
        self.expansions = 0
        self.cursors = 0
        self.recompiles = 0

    def _node(self, residual: GuardExpr, know: Know) -> GuardNode:
        key = (residual, know)
        node = self._nodes.get(key)
        if node is None:
            node = GuardNode(self, residual, know)
            self._nodes[key] = node
        else:
            self.reused += 1
        return node

    # -- public API ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def counts(self) -> dict:
        """This engine's counters, reported as ``kernel['compiled']``
        by ``DistributedScheduler.metrics_report()``."""
        return {
            "nodes": len(self._nodes),
            "reused": self.reused,
            "edges": self.edges,
            "hops": self.hops,
            "expansions": self.expansions,
            "cursors": self.cursors,
            "recompiles": self.recompiles,
        }


def table_stats(guards: Mapping[Event, GuardExpr]) -> dict:
    """Compile-time statistics of a guard table's automata.

    JSON-ready; reported by ``repro analyze`` (and its ``--json``
    form).  ``constant_false`` lists *dead* events -- their guard
    compiled to the constant-false terminal, so every attempt will be
    rejected outright -- and ``constant_true`` the unconstrained ones.
    ``shapes`` counts the distinct slot-space roots, one automaton each
    in a scheduler's engine, and ``sharing_ratio`` is
    ``1 - shapes/guards``: the fraction of guards served by an
    automaton another guard's copy already compiled.
    """
    shapes = {_slot_guard(g)[0] for g in guards.values()}
    total = len(guards)
    return {
        "guards": total,
        "shapes": len(shapes),
        "sharing_ratio": round(1.0 - len(shapes) / total, 4) if total else 0.0,
        "cubes": sum(g.cube_count() for g in guards.values()),
        "literals": sum(g.literal_count() for g in guards.values()),
        "constant_false": sorted(
            repr(e) for e, g in guards.items() if g.is_false
        ),
        "constant_true": sorted(
            repr(e) for e, g in guards.items() if g.is_true
        ),
    }
