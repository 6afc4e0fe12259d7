"""Compiled guard automata: interned decision diagrams over guards.

The cube engine *rewrites* a guard on every assimilated announcement:
``simplify_under`` walks the cube DNF, and -- although the rewrite is
memoized -- each hot-loop hit still builds and hashes a key over the
guard's bases.  The verdict checks (``region_subsumes`` /
``possible_under``) re-run on top.

This module compiles each synthesized :class:`GuardExpr` into a
hash-consed *guard automaton* whose runtime state is a single node
pointer:

* a :class:`GuardNode` is the interned pair ``(residual guard,
  knowledge restricted to the residual's bases)`` -- the complete
  input of every per-announcement computation the cube engine
  performs.  Restriction is sound because ``simplify_under``,
  ``region_subsumes``, ``possible_under``, and the watch-set rules
  consult the knowledge map **only** at bases the residual's cubes
  mention;
* *learn edges* move between nodes as knowledge tightens: one interned
  dict hop per announcement, zero cube allocation.  A base outside the
  residual's support is a self-loop decided by one frozenset probe;
* each node lazily computes -- once, ever, across all actors and runs
  sharing the node -- its **verdict** (fire / park / never, exactly
  Section 4.3's evaluation rule), its **assimilation successor** (the
  ``simplify_under`` result, re-interned), and its **watch set** (the
  PR 6 wake rule, so the scheduler's ``WatchIndex`` derives watched
  bases straight from the current node: the two engines compose
  instead of layering);
* terminal nodes are the constant guards: an unsatisfiable conjunction
  or dead event compiles to the constant-false node whose verdict is
  permanently ``never`` (surfaced as a warning by ``repro analyze``).

Byte-for-byte equivalence with the cube engine is by construction:
the node's residual component *is* the actor's residual (the intern
key includes it, so iterated vs one-shot simplification cannot
diverge), and every cached value is defined as the result of the very
cube-engine call it replaces.  The differential harness
(``tests/properties/test_compiled_equivalence.py``) enforces identical
traces under fuzzed faults, resurrection, and runtime guard growth
(handled by :meth:`GuardCursor.reset` -- an incremental recompile that
re-enters the interned node space at the new guard).

Instances of a :class:`~repro.workflows.template.WorkflowTemplate`
compile once and stamp per-suffix tables through interned renaming
(the PR 5 trick): the renamed guards from ``rename_guard_table`` are
the intern keys, so stamping costs one dict probe per guard.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.algebra.symbols import Event

from .cubes import FULL, GuardExpr
from .watch import watch_bases

#: Restricted-knowledge tuples are sorted by base; masks are 4-bit
#: world sets (:mod:`repro.temporal.cubes`).
Know = tuple[tuple[Event, int], ...]

_UNSET = object()


class _CompiledStats:
    """Process-wide counters (per-engine counts mirror these)."""

    nodes = 0        # interned nodes created
    reused = 0       # intern probes served by an existing node
    edges = 0        # learn edges installed (first traversal)
    hops = 0         # O(1) cached transitions / verdict reads served
    expansions = 0   # lazy verdict / simplify / watch computations
    cursors = 0      # cursors handed out
    recompiles = 0   # cursor resets (runtime modification, crashes)


def compiled_stats() -> dict:
    """Snapshot of the process-wide compiled-guard counters, for
    ``kernel_stats()['compiled']``."""
    return {
        "nodes": _CompiledStats.nodes,
        "reused": _CompiledStats.reused,
        "edges": _CompiledStats.edges,
        "hops": _CompiledStats.hops,
        "expansions": _CompiledStats.expansions,
        "cursors": _CompiledStats.cursors,
        "recompiles": _CompiledStats.recompiles,
    }


def clear_compiled() -> None:
    """Reset the process-wide counters."""
    _CompiledStats.nodes = 0
    _CompiledStats.reused = 0
    _CompiledStats.edges = 0
    _CompiledStats.hops = 0
    _CompiledStats.expansions = 0
    _CompiledStats.cursors = 0
    _CompiledStats.recompiles = 0


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


def _verdict(guard: GuardExpr, knowledge: Mapping[Event, int]) -> str:
    """Section 4.3's evaluation rule: ``"fire"`` / ``"never"`` / ``"park"``."""
    if guard.region_subsumes(knowledge):
        return "fire"
    if not guard.possible_under(knowledge):
        return "never"
    return "park"


class GuardNode:
    """One interned automaton state: ``(residual, restricted knowledge)``.

    Everything the scheduler asks per announcement is a slot on the
    node, filled lazily by the first asker and shared by every actor
    that reaches the same state.  ``plan`` is the one slot the node
    does not fill itself: the state's solicitation plan, a function of
    ``(residual, know)`` and the scheduler's policy (the engine is per
    scheduler) that ``EventActor._solicit_plan`` computes and keeps here.
    """

    __slots__ = (
        "engine", "residual", "know",
        "_edges", "_next", "_verdict", "_watches", "plan",
    )

    def __init__(self, engine: "CompiledGuardEngine", residual: GuardExpr, know: Know):
        self.engine = engine
        self.residual = residual
        self.know = know
        self._edges: dict[tuple[Event, int], GuardNode] = {}
        self._next: GuardNode | None = None
        self._verdict: str | None = None
        self._watches = _UNSET
        self.plan: tuple | None = None

    # -- transitions ---------------------------------------------------

    def learn(self, base: Event, mask: int) -> "GuardNode":
        """The knowledge-tightening transition: ``knowledge[base] = mask``.

        A base outside the residual's support is a self-loop (the cube
        engine's rewrite would not touch the residual either); a
        relevant base follows one interned edge, installed on first
        traversal."""
        if base not in self.residual.bases():
            _CompiledStats.hops += 1
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
            _CompiledStats.edges += 1
            self.engine.edges += 1
        else:
            _CompiledStats.hops += 1
            self.engine.hops += 1
        return succ

    def assimilate(self) -> "GuardNode":
        """The ``simplify_under`` successor: residual rewritten by the
        node's knowledge, knowledge re-restricted to the new support.

        Computed with the cube engine's own ``simplify_under`` exactly
        once per node, then a pointer hop forever after."""
        nxt = self._next
        if nxt is None:
            _CompiledStats.expansions += 1
            self.engine.expansions += 1
            knowledge = dict(self.know)
            residual = self.residual.simplify_under(knowledge)
            nxt = self.engine._node(residual, _restrict(residual, knowledge))
            self._next = nxt
        else:
            _CompiledStats.hops += 1
            self.engine.hops += 1
        return nxt

    # -- cached evaluations --------------------------------------------

    def verdict(self) -> str:
        """Section 4.3's evaluation rule, precomputed per node:
        ``"fire"`` / ``"never"`` / ``"park"``."""
        v = self._verdict
        if v is None:
            _CompiledStats.expansions += 1
            self.engine.expansions += 1
            v = self._verdict = _verdict(self.residual, dict(self.know))
        else:
            _CompiledStats.hops += 1
            self.engine.hops += 1
        return v

    def watches(self):
        """The PR 6 wake set of this state (``None`` = wake on all),
        read off the node instead of recomputed per registration."""
        w = self._watches
        if w is _UNSET:
            _CompiledStats.expansions += 1
            self.engine.expansions += 1
            w = watch_bases(self.residual, dict(self.know))
            self._watches = w
        else:
            _CompiledStats.hops += 1
            self.engine.hops += 1
        return w

    def __repr__(self) -> str:  # pragma: no cover
        return f"GuardNode({self.residual!r}, know={len(self.know)})"


class GuardCursor:
    """One actor's runtime state: a single pointer into the automaton.

    Mirrors the actor's ``(residual guard, knowledge)`` pair move for
    move; every method is the O(1) compiled replacement for one cube-
    engine call and returns/produces exactly that call's value.
    """

    __slots__ = ("engine", "node")

    def __init__(
        self,
        engine: "CompiledGuardEngine",
        guard: GuardExpr,
        knowledge: Mapping[Event, int],
    ):
        _CompiledStats.cursors += 1
        engine.cursors += 1
        self.engine = engine
        self.node = engine._node(guard, _restrict(guard, knowledge))

    def learn(self, base: Event, mask: int) -> None:
        """Track ``actor.learn``: knowledge for ``base`` is now ``mask``."""
        self.node = self.node.learn(base, mask)

    def assimilate(self) -> GuardExpr:
        """Advance past ``simplify_under`` and return the new residual
        (equal, value for value, to what the cube engine assigns)."""
        self.node = self.node.assimilate()
        return self.node.residual

    def verdict(self) -> str:
        return self.node.verdict()

    def transient_verdict(
        self, facts: Iterable[tuple[Event, int]]
    ) -> str:
        """Verdict under transient facts (certificate rounds): descend
        along learn edges without moving this cursor."""
        node = self.node
        for base, mask in facts:
            node = node.refined(base, mask)
        return node.verdict()

    def reset(self, guard: GuardExpr, knowledge: Mapping[Event, int]) -> None:
        """Incremental recompile: re-enter the automaton at a new
        guard (runtime dependency growth/removal, crash resets).  The
        new state's nodes are interned lazily like any other -- a
        recompile shares every state already explored."""
        _CompiledStats.recompiles += 1
        self.engine.recompiles += 1
        self.node = self.engine._node(guard, _restrict(guard, knowledge))


class ReferenceCursor:
    """The paper-literal evaluation behind the cursor interface: every
    method *is* the cube-engine call the compiled cursor caches, run
    afresh on the actor's ``(residual guard, knowledge)`` pair.

    Only the differential tests use it
    (``DistributedScheduler(reference_engine=True)``); it is what the
    compiled engine is proved byte-identical against."""

    __slots__ = ("guard", "knowledge")

    #: no node to cache on: the solicitation plan is recomputed
    node = None

    def __init__(self, guard: GuardExpr, knowledge: Mapping[Event, int] = ()):
        self.reset(guard, knowledge)

    def learn(self, base: Event, mask: int) -> None:
        self.knowledge[base] = mask

    def assimilate(self) -> GuardExpr:
        self.guard = self.guard.simplify_under(self.knowledge)
        return self.guard

    def verdict(self) -> str:
        return _verdict(self.guard, self.knowledge)

    def transient_verdict(self, facts: Iterable[tuple[Event, int]]) -> str:
        transient = dict(self.knowledge)
        for base, mask in facts:
            transient[base] = transient.get(base, FULL) & mask
        return _verdict(self.guard, transient)

    def reset(self, guard: GuardExpr, knowledge: Mapping[Event, int]) -> None:
        self.guard = guard
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
            _CompiledStats.nodes += 1
        else:
            _CompiledStats.reused += 1
            self.reused += 1
        return node

    # -- public API ----------------------------------------------------

    def root(self, guard: GuardExpr) -> GuardNode:
        """The compiled automaton of a guard (its no-knowledge node)."""
        return self._node(guard, ())

    def cursor(
        self, guard: GuardExpr, knowledge: Mapping[Event, int] | None = None
    ) -> GuardCursor:
        return GuardCursor(self, guard, knowledge or {})

    def __len__(self) -> int:
        return len(self._nodes)

    def counts(self) -> dict:
        """Per-engine counters, overlaid onto the process-wide totals
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
    ``sharing_ratio`` is ``1 - roots/guards``: the fraction of guard
    slots served by a node another event already interned.
    """
    roots = set(guards.values())
    total = len(guards)
    return {
        "guards": total,
        "roots": len(roots),
        "sharing_ratio": round(1.0 - len(roots) / total, 4) if total else 0.0,
        "cubes": sum(g.cube_count() for g in guards.values()),
        "literals": sum(g.literal_count() for g in guards.values()),
        "constant_false": sorted(
            repr(e) for e, g in guards.items() if g.is_false
        ),
        "constant_true": sorted(
            repr(e) for e, g in guards.items() if g.is_true
        ),
    }
