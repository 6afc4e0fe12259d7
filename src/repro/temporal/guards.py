"""Guard synthesis ``G(D, e)`` (paper Section 4.2, Definition 2).

The guard on an event ``e`` due to dependency ``D`` is the weakest
condition under which ``e`` may occur without compromising ``D``:

    ``G(D, e) = (<>(D/e) | AND_{f in Gamma_D^e} !f)
                + SUM_{f in Gamma_D^e} ([]f | G(D/f, e))``

where ``Gamma_D^e`` is the alphabet of ``D`` minus ``e`` and ``~e``.
The first term covers ``e`` occurring before any other event of the
dependency (nothing else has happened yet, and the residual must still
be achievable); the remaining terms case-split on some other event
``f`` having happened first, recursing on the residual dependency.

Sequential residuals inside ``<>(...)`` are replaced by conjunctions
of eventualities -- the paper's "small insight": the guards on the
*other* events enforce the ordering, so this event only needs each
remaining event to be guaranteed.  Theorem 6 (checked in the test
suite and the theorem bench) validates the collective correctness.

Synthesis works *modulo renaming*.  A dependency is a :class:`Binding`
(:func:`dependency_binding`): its normal form on the canonical slots of
its own bases, in ``Event.sort_key`` order, is its *shape*, the key of
the one residual closure every copy walks, and a template stamps copies
bound onto a row of its bases (:class:`RowPlan`).  ``G(D, e)``
depends only on that shape, so :func:`guard`, :func:`guard_table`,
:func:`workflow_bindings` and :func:`workflow_guards` all go through
:func:`_bindings_modulo_renaming`.  It keys a query by its dependencies'
shapes and the slots their bases take among the query's, which costs
dict probes and no expression rename, and synthesizes each distinct
query once: the columns of the dependencies' own closures, renamed onto
the query's slots and conjoined.  Every fold below runs in canonical
event order, so an order-preserving injective rename commutes with it
exactly: the result is cube-for-cube what direct synthesis
(:func:`_synthesize`, the tests' oracle) gives on the real names.

What synthesis hands out is a :class:`Binding` too: the guard's
*shape* (the guard on its own canonical slots, shared by every copy)
plus the copy's ``to_slot`` / ``from_slot`` maps.  The compiled cursor
enters at the shape as it is; the real-name guard is rendered only
where a real name is read (:attr:`Binding.guard`,
:func:`workflow_guards`).

Also here: :class:`ResidualAutomaton`, Figure 2's state machine, which
synthesis builds once per shape and the schedulers, monitors, analysis
and renderers walk through a :class:`ResidualCursor`; ``Pi(D)`` -- the
accepting paths of Definition 3 -- the path-sum form of Lemma 5, and
the per-event guard table of a whole workflow (the conjunction over
its dependencies, Section 4.2).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Expr,
    RowCopies,
    Seq,
    Top,
    Zero,
    picker,
    rename_expr,
)
from repro.algebra.normal_form import to_normal_form
from repro.algebra.residuation import residuate, residuate_nf
from repro.algebra.symbols import Event, Variable, rename_event
from repro.temporal.cubes import (
    C_OCC,
    DIA_COMP_MASK,
    DIA_MASK,
    E_OCC,
    FALSE_GUARD,
    GuardExpr,
    P_C,
    P_E,
    TRUE_GUARD,
    guard_and,
    guard_or,
    literal,
)
from repro.temporal.formulas import (
    Always,
    Eventually,
    NotYet,
    TAtom,
    TChoice,
    TConj,
    TFormula,
    embed,
)


def _alphabet(expr: Expr) -> tuple[Event, ...]:
    """``Gamma_D``: mentioned events and complements, in canonical order."""
    return tuple(sorted(expr.alphabet(), key=Event.sort_key))


class ResidualAutomaton:
    """Figure 2: the closure of one normal-form dependency under
    residuation, built once per shape and walked by every consumer
    (synthesis, the requirement monitors, the centralized scheduler,
    the renderers).

    ``transitions[S]`` maps every ``f`` in ``Gamma_S`` to
    ``to_normal_form(S/f)``, in canonical alphabet order (an event the
    row lacks is foreign to ``S``: a self-loop).  ``order`` lists
    the states by ascending base count; because residuating by ``f``
    always eliminates ``f``'s base (Rules 3/7/8 of residuation, plus
    ``Seq.of`` collapsing repeated events to ``0``), every transition
    strictly decreases the base set, the closure is a finite DAG, and a
    guard column or the ``required`` table can be filled in one
    bottom-up pass with every successor already solved.  ``columns[e]``
    memoizes the per-event pass so all events of a workflow share one
    closure.  ``required[S]`` lists, in canonical order, the signed
    events on *every* accepting path out of ``S`` (``None``: no path
    accepts, the state is doomed) --
    :func:`repro.scheduler.monitors.required_events` is the
    path-enumerating reading it is tested against.  It needs no
    settled-base filter: no completion of a reached state mentions a
    base a transition already eliminated.
    """

    __slots__ = ("root", "transitions", "order", "columns", "required")

    def __init__(self, root: Expr):
        self.root = root
        self.transitions: dict[Expr, dict[Event, Expr]] = {}
        stack = [root]
        while stack:
            state = stack.pop()
            if state in self.transitions:
                continue
            # states are normal forms and residuation is NF-stable, so
            # the successor needs no re-normalization
            succs = {f: residuate_nf(state, f) for f in _alphabet(state)}
            self.transitions[state] = succs
            for succ in succs.values():
                if succ not in self.transitions:
                    stack.append(succ)
        # Stable sort over deterministic discovery order; ties need no
        # further break because equal-base-count states never depend on
        # each other.
        self.order = tuple(
            sorted(self.transitions, key=lambda s: len(s.bases()))
        )
        self.columns: dict[Event, dict[Expr, GuardExpr]] = {}
        self.required: dict[Expr, tuple[Event, ...] | None] = {}
        for state in self.order:
            common = frozenset() if isinstance(state, Top) else None
            for f, succ in self.transitions[state].items():
                rest = self.required[succ]
                if rest is not None:
                    path = {f, *rest}
                    common = path if common is None else common & path
            self.required[state] = None if common is None else tuple(
                sorted(common, key=Event.sort_key)
            )

    def step(self, state: Expr, event: Event) -> Expr:
        """``state/event``; an event foreign to ``state`` is a self-loop."""
        return self.transitions[state].get(event, state)

    @staticmethod
    def accepting(state: Expr) -> bool:
        """The obligation is discharged (``T``)."""
        return isinstance(state, Top)

    @staticmethod
    def dead(state: Expr) -> bool:
        """The obligation can no longer be met (``0``)."""
        return isinstance(state, Zero)

    def minimized(self) -> dict[Expr, dict[Event, Expr]]:
        """The quotient by Moore equivalence (partition refinement from
        accepting / dead / neither), as a total table over ``Gamma_root``
        with the self-loops explicit: representative state -> event ->
        representative.  A block is represented by its first-discovered
        member, so the root stands for its own; ``T`` and ``0`` are
        always alone in theirs.  This is the precompiled object of the
        automata baseline [2] whose size SC2 reports."""
        alphabet = tuple(self.transitions[self.root])
        block = {
            s: self.accepting(s) + 2 * self.dead(s) for s in self.transitions
        }
        while True:
            ids: dict[tuple, int] = {}
            refined = {
                s: ids.setdefault(
                    (block[s], *(block[row.get(f, s)] for f in alphabet)),
                    len(ids),
                )
                for s, row in self.transitions.items()
            }
            if len(ids) == len(set(block.values())):
                break  # no block split: ``refined`` is ``block`` renumbered
            block = refined
        chosen: dict[int, Expr] = {}
        for s in self.transitions:
            chosen.setdefault(block[s], s)
        return {
            s: {f: chosen[block[self.step(s, f)]] for f in alphabet}
            for s in chosen.values()
        }

    def column(self, event: Event) -> dict[Expr, GuardExpr]:
        """``G(S, event)`` for every closure state, one iterative pass.

        Folds mirror Definition 2's recursive reading exactly (same
        alphabet order, same term order), so the results are
        bit-identical to the recursion they replace.
        """
        col = self.columns.get(event)
        if col is not None:
            return col
        base = event.base
        col = {}
        for state in self.order:
            row = self.transitions[state]
            others = tuple(f for f in row if f.base != base)
            first = eventually_guard(residuate_nf(state, event))
            for f in others:
                first = first & literal("notyet", f)
            terms = [first]
            for f in others:
                terms.append(literal("box", f) & col[row[f]])
            col[state] = guard_or(terms)
        self.columns[event] = col
        _SynthStats.columns += 1
        return col


_CLOSURES: dict[Expr, ResidualAutomaton] = {}

#: ``(((dependency shape, its bases' query slots), ...), query-slot
#: event) -> (guard shape, its slots, their query positions)``: one
#: entry per distinct query shape, shared by every renamed copy.  The
#: synthesized guard is stored normalized to its own bases, each slot
#: placed at the position of its base among the query's sorted bases.
_SHAPES: dict[
    tuple[tuple[tuple[Expr, tuple[Event, ...]], ...], Event],
    tuple[GuardExpr, tuple[Event, ...], tuple[int, ...]],
] = {}

#: ``_SLOTS[i]`` is the ``i``-th canonical base, as a ground event and
#: as a variable-carrying one (``Seq.of`` / ``Conj.of`` only collapse
#: ground contradictions, so a slot keeps its base's groundness).  The
#: ``#`` keeps slot names outside the parser's identifier grammar;
#: fixed-width digits make name order equal index order.  Grown on
#: demand, never at import.
_SLOTS: list[tuple[Event, Event]] = []

#: ``dependency -> binding``: :func:`dependency_binding`'s memo, which
#: :meth:`RowPlan.stamp` fills for the copies it stamps.
_DEPENDENCY_BINDINGS: dict[Expr, Binding] = {}

#: ``dependency shape -> its waits``: :func:`shape_waits`' memo
_WAITS: dict[Expr, tuple[tuple[int, int, int], ...]] = {}

#: ``(guard shape, own slot) -> its wants``: :func:`promise_wants`' memo
_WANTS: dict[tuple[GuardExpr, Event | None], frozenset[Event]] = {}


class _SynthStats:
    closure_hits = 0
    closure_misses = 0
    columns = 0
    shape_hits = 0
    shape_misses = 0
    binding_hits = 0
    binding_misses = 0


def _closure_for(dep_nf: Expr) -> ResidualAutomaton:
    closure = _CLOSURES.get(dep_nf)
    if closure is None:
        _SynthStats.closure_misses += 1
        closure = ResidualAutomaton(dep_nf)
        _CLOSURES[dep_nf] = closure
    else:
        _SynthStats.closure_hits += 1
    return closure


def shape_lookups() -> dict:
    """The shape table's lookup counters alone: callers difference two
    snapshots to attribute lookups to a stretch of their own work."""
    return {
        "shape_hits": _SynthStats.shape_hits,
        "shape_misses": _SynthStats.shape_misses,
    }


def synthesis_stats() -> dict:
    """Shape- and closure-table counters (exposed via ``metrics_report()``)."""
    return {
        "shapes": len(_SHAPES),
        **shape_lookups(),
        "closures": len(_CLOSURES),
        "closure_states": sum(len(c.transitions) for c in _CLOSURES.values()),
        "closure_hits": _SynthStats.closure_hits,
        "closure_misses": _SynthStats.closure_misses,
        "columns": _SynthStats.columns,
        "dependency_bindings": len(_DEPENDENCY_BINDINGS),
        "binding_hits": _SynthStats.binding_hits,
        "binding_misses": _SynthStats.binding_misses,
    }


def clear_synthesis_caches() -> None:
    """Drop every synthesis memo and reset the counters (benchmarks
    measure cold synthesis).  A dependency stamped earlier loses the
    binding stamping gave it and is normal-formed again on first use."""
    _SHAPES.clear()
    _SLOTS.clear()
    _CLOSURES.clear()
    _DEPENDENCY_BINDINGS.clear()
    _WAITS.clear()
    _WANTS.clear()
    _EVENTUALLY_CACHE.clear()
    guard_formula.cache_clear()
    _SynthStats.closure_hits = 0
    _SynthStats.closure_misses = 0
    _SynthStats.columns = 0
    _SynthStats.shape_hits = 0
    _SynthStats.shape_misses = 0
    _SynthStats.binding_hits = 0
    _SynthStats.binding_misses = 0


def kernel_stats() -> dict:
    """One JSON-ready snapshot of every symbolic-kernel cache.

    Aggregates the intern tables (hash-consing), the shape/closure
    synthesis counters and the lru memo tables of the kernel entry
    points: what is process-wide by nature.  Surfaced per run through
    ``metrics_report()`` and ``repro run --json``, where the
    distributed scheduler adds its own wake and compiled-automaton
    counters.
    """
    from repro.algebra.expressions import intern_stats

    def lru_counts(fn) -> dict:
        info = fn.cache_info()
        return {"size": info.currsize, "hits": info.hits, "misses": info.misses}

    return {
        "interning": intern_stats(),
        "synthesis": synthesis_stats(),
        "memo": {
            "residuate": lru_counts(residuate),
            "to_normal_form": lru_counts(to_normal_form),
            "guard_formula": lru_counts(guard_formula),
        },
    }


def _synthesize(deps_nf: Sequence[Expr], event: Event) -> GuardExpr:
    """``AND_D G(D, event)`` over normal-form dependencies, computed
    directly on the names given (Definition 2 per dependency, Section
    4.2's conjunction across them, folded in the order given).

    The tests' oracle for :func:`_bindings_modulo_renaming`, which
    composes the same columns from each dependency's own closure.
    """
    return guard_and(_closure_for(d).column(event)[d] for d in deps_nf)


def _grow_slots(count: int) -> None:
    """Make ``_SLOTS`` hold at least ``count`` slots."""
    while len(_SLOTS) < count:
        name = f"#{len(_SLOTS):08d}"
        _SLOTS.append((Event(name), Event(name, params=(Variable("_"),))))


def _slot_maps(
    bases: Iterable[Event],
) -> tuple[dict[Event, Event], dict[Event, Event]]:
    """The rename of ``bases`` onto ``_SLOTS`` in ``Event.sort_key``
    order, and its inverse: injective, order- and groundness-preserving."""
    ordered = sorted(bases, key=Event.sort_key)
    if len(_SLOTS) < len(ordered):
        _grow_slots(len(ordered))
    to_slot, from_slot = {}, {}
    for base, (ground, typed) in zip(ordered, _SLOTS):
        # an event without parameters needs no groundness walk
        slot = typed if base.params and not base.is_ground else ground
        to_slot[base] = slot
        from_slot[slot] = base
    return to_slot, from_slot


class Binding:
    """One renamed copy of a slot-space shape.

    ``shape`` lives on the canonical slots of its own bases
    (:func:`_slot_maps` order) and is one object shared by every copy:
    a guard (a guard-table entry, which the compiled cursor enters at)
    or a dependency's normal form (the key of the residual closure a
    :class:`ResidualCursor` walks).  ``to_slot`` / ``from_slot`` are
    this copy's binding, each in slot order.  Copies on another row of
    bases come from a :class:`RowPlan`: the same shape, bound afresh.
    :attr:`guard` renders a guard entry on the real names once, for
    readers of real names.
    """

    __slots__ = ("shape", "to_slot", "from_slot", "_guard")

    def __init__(
        self,
        shape: GuardExpr | Expr,
        to_slot: dict[Event, Event],
        from_slot: dict[Event, Event],
    ):
        self.shape = shape
        self.to_slot = to_slot
        self.from_slot = from_slot
        self._guard: GuardExpr | None = None

    @property
    def guard(self) -> GuardExpr:
        """A guard entry on the real names, rendered on first read."""
        rendered = self._guard
        if rendered is None:
            rendered = self._guard = self.shape.rename(self.from_slot)
        return rendered

    def bases(self):
        """The shape's bases on the real names, in canonical order."""
        return self.to_slot.keys()


def in_order(row: Sequence[Event]) -> bool:
    """Are the events of ``row`` strictly increasing in canonical order
    (so distinct)?  A rename onto such a row keeps the order of the
    canonical row it replaces, which is what lets a copy share its
    original's shapes and slots."""
    previous = ()
    for event in row:
        # ``Event.sort_key`` read without the call: stamping is hot
        order = event._skey
        if order <= previous:
            return False
        previous = order
    return True


class RowPlan:
    """Bindings placed on a *row*: the bases they mention, in canonical
    order, each slot given as the position of its base in the row.

    :meth:`bind` gives every binding's copy on another row of the same
    length that is :func:`in_order`: the same shape, the same slots,
    each bound to the event at its position.  Such a rename is
    injective and order-preserving, so it commutes with normal forms
    and with synthesis (see :func:`_bindings_modulo_renaming`): each
    copy is the binding a from-scratch normal form or synthesis on the
    row's names gives.  Bindings over the same positions share one
    pair of slot maps per row, and a binding over no position (a
    constant guard) is one object every row shares.

    ``dependencies``, canonical expressions whose bindings come first,
    are planned too: :meth:`stamp` copies them onto a row
    (:class:`~repro.algebra.expressions.RowCopies`) and enters each
    copy with its binding.
    """

    __slots__ = ("shapes", "groups", "copies")

    def __init__(
        self,
        bindings: Iterable[Binding],
        row: Sequence[Event],
        dependencies: Iterable[Expr] = (),
    ):
        position = {base: i for i, base in enumerate(row)}
        group_of: dict[tuple[int, ...], int] = {}
        #: ``(slots, pick)`` per distinct slot placement, ``pick(row)``
        #: giving the tuple of the row's events at those positions
        self.groups: list[tuple[tuple[Event, ...], itemgetter]] = []
        #: ``(shape, group)`` per binding, in the order given, or
        #: ``(binding, None)`` for one over no position
        self.shapes: list[tuple[GuardExpr | Expr | Binding, int | None]] = []
        for binding in bindings:
            placed = tuple([position[b] for b in binding.from_slot.values()])
            if not placed:
                self.shapes.append((Binding(binding.shape, {}, {}), None))
                continue
            group = group_of.get(placed)
            if group is None:
                group = group_of[placed] = len(self.groups)
                self.groups.append((tuple(binding.from_slot), picker(placed)))
            self.shapes.append((binding.shape, group))
        self.copies = RowCopies(dependencies, row)

    def bind(self, row: Sequence[Event]) -> list[Binding]:
        """Every binding's copy on ``row``, in the order planned."""
        maps = [
            (dict(zip(reals, slots)), dict(zip(slots, reals)))
            for slots, pick in self.groups
            for reals in (pick(row),)
        ]
        return [
            shape if group is None else Binding(shape, *maps[group])
            for shape, group in self.shapes
        ]

    def stamp(self, row: Sequence[Event]) -> tuple[list[Expr], list[Binding]]:
        """The planned dependencies' copies on ``row``, each entered in
        :func:`dependency_binding`'s memo with its binding, and every
        binding on ``row`` (:meth:`bind`).  ``row`` must be
        :func:`in_order`; the check is the row's, once, so it covers
        the bases a normal form dropped too.  (A copy stamped before,
        or bound by :func:`dependency_binding`, gets an equal binding
        again.)"""
        bindings = self.bind(row)
        copies = self.copies(row)
        _DEPENDENCY_BINDINGS.update(zip(copies, bindings))
        return copies, bindings


def dependency_binding(dependency: Expr) -> Binding:
    """``dependency`` as a copy of its residual closure's shape: its
    normal form renamed onto the slots of its own bases, bound onto
    its real names.

    Memoized per dependency (``binding_hits`` / ``binding_misses`` in
    :func:`synthesis_stats`).  A stamped copy is entered by stamping
    (:meth:`RowPlan.stamp`); any other dependency pays one normal form
    and one rename here, once.
    """
    binding = _DEPENDENCY_BINDINGS.get(dependency)
    if binding is None:
        _SynthStats.binding_misses += 1
        dep_nf = to_normal_form(dependency)
        to_slot, from_slot = _slot_maps(dep_nf.bases())
        binding = Binding(rename_expr(dep_nf, to_slot), to_slot, from_slot)
        _DEPENDENCY_BINDINGS[dependency] = binding
    else:
        _SynthStats.binding_hits += 1
    return binding


class ResidualCursor:
    """One copy of a dependency in Figure 2's state machine: a state of
    the slot-space closure its shape shares with synthesis (and with
    every other copy), entered through the copy's :class:`Binding`
    (:func:`dependency_binding`).  Stepping is a probe of
    ``closure.transitions[state]`` (the monitors' ``observe`` inlines
    it)."""

    __slots__ = ("closure", "state", "to_slot", "from_slot")

    def __init__(self, dependency: Expr):
        binding = dependency_binding(dependency)
        self.to_slot, self.from_slot = binding.to_slot, binding.from_slot
        self.closure = _closure_for(binding.shape)
        self.state = self.closure.root

    def step(self, event: Event) -> None:
        """Move along ``event`` (on the real names); an event foreign to
        this copy is a self-loop."""
        slot = self.to_slot.get(event.base)
        if slot is not None:
            self.state = self.closure.step(
                self.state, slot.complement if event.negated else slot
            )

    def residual(self) -> Expr:
        """The state on the real names: the very node iterated
        :func:`residuate` yields there (the rename commutes with it,
        see :func:`_bindings_modulo_renaming`)."""
        return rename_expr(self.state, self.from_slot)


def as_guard(entry: Binding | GuardExpr) -> GuardExpr:
    """A guard-table entry on the real names (a hand-built table holds
    plain guards, a synthesized or stamped one bindings)."""
    return entry if isinstance(entry, GuardExpr) else entry.guard


def render(table: Mapping[Event, Binding]) -> dict[Event, GuardExpr]:
    """A binding table on the real names."""
    return {event: binding.guard for event, binding in table.items()}


def _bindings_modulo_renaming(
    deps: Sequence[Binding], events: Sequence[Event]
) -> list[Binding]:
    """What ``_synthesize`` gives for the dependencies ``deps`` bind and
    each ``e`` of ``events``, as bindings, paying one synthesis per
    query *shape*.

    The query's bases go onto ``_SLOTS`` in ``Event.sort_key`` order
    (the *group* slots).  A dependency enters as its own binding, so
    the query's shape is, per dependency, its closure's key plus the
    group slots of its bases, and the queried event's group slot: dict
    probes, no expression renamed.  On a miss each conjunct is the
    column of the dependency's own closure at its own slot for the
    event (an event foreign to it at a slot outside its shape), renamed
    onto the group slots, and the conjuncts fold in the order given.
    Own slot -> group slot is injective and preserves order and
    groundness, so it commutes with every step of synthesis
    (``Choice/Conj.of`` sorting, the closure walk, the column folds,
    ``_absorb``'s sorted passes): each conjunct, and so the fold, is
    cube for cube what ``_synthesize`` gives on the group slots.
    Closures and columns are per dependency shape, shared by every copy
    and every query.  Each synthesized guard is stored as its shape
    with each slot placed among the group slots, and a copy binds those
    places to the query's bases (its row), so no guard is renamed per
    copy.
    """
    bases = {e.base for e in events}
    for dep in deps:
        bases.update(dep.to_slot)
    to_slot, from_slot = _slot_maps(bases)
    row = tuple(from_slot.values())
    slot_deps = tuple(
        (dep.shape, tuple([to_slot[base] for base in dep.to_slot]))
        for dep in deps
    )
    bindings = []
    for event in events:
        key = (slot_deps, rename_event(event, to_slot))
        found = _SHAPES.get(key)
        if found is None:
            _SynthStats.shape_misses += 1
            conjuncts = []
            for dep, (shape, slots) in zip(deps, slot_deps):
                own = dep.to_slot.get(event.base)
                if own is None:
                    # foreign: the column does not mention the event, and
                    # the query has a base beyond this dependency's
                    own = _SLOTS[len(slots)][0]
                elif event.negated:
                    own = own.complement
                column = _closure_for(shape).column(own)[shape]
                onto_query = dict(zip(dep.from_slot, slots))
                conjuncts.append(column.rename(onto_query))
            synthesized = guard_and(conjuncts)
            own_to, own_from = _slot_maps(synthesized.bases())
            group = {slot: i for i, slot in enumerate(from_slot)}
            found = _SHAPES[key] = (
                synthesized.rename(own_to),
                tuple(own_from),
                tuple([group[slot] for slot in own_from.values()]),
            )
        else:
            _SynthStats.shape_hits += 1
        shape, slots, placed = found
        reals = [row[i] for i in placed]
        bindings.append(
            Binding(shape, dict(zip(reals, slots)), dict(zip(slots, reals)))
        )
    return bindings


def guard(dependency: Expr, event: Event) -> GuardExpr:
    """Compute ``G(D, e)`` as a cube guard (Definition 2).

    Definition 2 reads as a recursion over residuals; here it is
    evaluated over the dependency's residual closure: the closure is
    computed once per dependency *shape* and shared by every event and
    every renamed copy, and each event's guards for *all* closure
    states are derived in a single bottom-up pass (see
    :class:`ResidualAutomaton`).

    >>> from repro.algebra.parser import parse
    >>> from repro.algebra.symbols import Event
    >>> guard(parse("~e + ~f + e . f"), Event("e"))
    !f
    >>> guard(parse("~e + ~f + e . f"), Event("f"))
    ([]e + <>~e)
    """
    (found,) = _bindings_modulo_renaming(
        (dependency_binding(dependency),), (event,)
    )
    return found.guard


def guard_table(dependency: Expr) -> dict[Event, GuardExpr]:
    """``G(D, e)`` for every ``e`` in ``Gamma_D``, sharing one closure.

    >>> from repro.algebra.parser import parse
    >>> sorted(map(repr, guard_table(parse("~e + f")).values()))
    ['<>f', '<>~e', 'T', 'T']
    """
    events = _alphabet(dependency)
    found = _bindings_modulo_renaming(
        (dependency_binding(dependency),), events
    )
    return render(dict(zip(events, found)))


def shape_waits(shape: Expr) -> tuple[tuple[int, int, int], ...]:
    """Which slot of a dependency shape waits on which, in slot space:
    ``(i, j, n)`` says that ``n`` of the guards ``G(shape, e)`` on slot
    ``i``'s two events mention slot ``j`` (``i != j``).  Slot ``i`` is
    the ``i``-th base of the shape (a copy's ``i``-th ``from_slot``
    entry); slot ``len(shape.bases())`` stands for a base a copy
    mentions and its normal form dropped, whose events are foreign to
    the shape.

    The guards come from :func:`_bindings_modulo_renaming` on the shape
    itself, bound onto its own slots, so no guard is rendered; the
    result is memoized per shape, and a copy reads its waits on the
    real names through its binding.
    """
    waits = _WAITS.get(shape)
    if waits is None:
        own = sorted(shape.bases(), key=Event.sort_key)
        _grow_slots(len(own) + 1)
        beyond = _SLOTS[len(own)][0]
        index = {slot: i for i, slot in enumerate((*own, beyond))}
        events = [e for slot in index for e in (slot, slot.complement)]
        identity = dict(zip(own, own))
        found = _bindings_modulo_renaming(
            (Binding(shape, identity, identity),), events
        )
        counts: dict[tuple[int, int], int] = {}
        for event, binding in zip(events, found):
            i = index[event.base]
            for base in binding.bases():
                j = index[base]
                if i != j:
                    counts[i, j] = counts.get((i, j), 0) + 1
        waits = _WAITS[shape] = tuple(
            (i, j, n) for (i, j), n in counts.items()
        )
    return waits


def wanted_eventualities(
    guard: GuardExpr, own: Event | None
) -> frozenset[Event]:
    """Signed events whose eventuality ``guard`` can use (its ``<>f``
    bits), outside the base ``own`` the guard is for: the eventualities
    a promise can supply (Section 4.3)."""
    wants: set[Event] = set()
    for cube in guard.cubes:
        for base, mask in cube:
            if base == own:
                continue
            if (mask & DIA_MASK) == DIA_MASK and not (mask & (C_OCC | P_C)):
                wants.add(base)
            if (mask & DIA_COMP_MASK) == DIA_COMP_MASK and not (mask & (E_OCC | P_E)):
                wants.add(base.complement)
    return frozenset(wants)


def promise_wants(entry: Binding | GuardExpr, event: Event) -> list[Event]:
    """:func:`wanted_eventualities` of ``event``'s guard-table entry, on
    the real names.  A binding's are read off its shape, once per
    (shape, slot of ``event``), and bound through its ``from_slot``:
    nothing is rendered."""
    if type(entry) is not Binding:
        return list(wanted_eventualities(entry, event.base))
    own = entry.to_slot.get(event.base)
    wants = _WANTS.get((entry.shape, own))
    if wants is None:
        wants = _WANTS[entry.shape, own] = wanted_eventualities(
            entry.shape, own
        )
    if not wants:
        return []
    from_slot = entry.from_slot
    return [
        from_slot[slot.base].complement if slot.negated else from_slot[slot]
        for slot in wants
    ]


def explain_guard(
    dependency: Expr,
    event: Event,
    knowledge: dict[Event, int] | None = None,
) -> dict:
    """Classify ``G(D, e)`` against a knowledge map, Example-9 style.

    Synthesizes the guard and hands it to the decision-provenance
    engine (:func:`repro.obs.provenance.explain_region`): the result
    names the verdict (``fire`` / ``never`` / ``park``), each cube's
    per-literal status, and -- when parked -- minimal sets of future
    announcements that would let the event fire.  ``knowledge`` maps
    base events to their four-world masks (e.g. ``{Event("f"):
    E_OCC}``); ``None`` means nothing is known yet.
    """
    from repro.obs.provenance import explain_region

    g = guard(dependency, event)
    cubes = [
        sorted((repr(base), mask) for base, mask in cube)
        for cube in g.cubes
    ]
    known = {
        repr(base): mask for base, mask in (knowledge or {}).items()
    }
    return explain_region(cubes, known)


_EVENTUALLY_CACHE: dict[Expr, GuardExpr] = {}


def eventually_guard(expr: Expr) -> GuardExpr:
    """``<> E`` as a cube guard, for a normal-form event expression.

    ``<>`` distributes through ``+`` and ``|`` because satisfaction of
    event expressions is stable (monotone in the index) on maximal
    traces; a sequence of atoms is replaced by the conjunction of the
    atoms' eventualities per the paper's Section 4.2 insight.

    Memoized per (interned) node: closure states share subexpressions,
    so the same eventualities recur across states and columns.
    """
    cached = _EVENTUALLY_CACHE.get(expr)
    if cached is not None:
        return cached
    if isinstance(expr, Top):
        result = TRUE_GUARD
    elif isinstance(expr, Zero):
        result = FALSE_GUARD
    elif isinstance(expr, Atom):
        result = literal("dia", expr.event)
    elif isinstance(expr, Choice):
        result = guard_or(eventually_guard(p) for p in expr.parts)
    elif isinstance(expr, (Conj, Seq)):
        result = guard_and(eventually_guard(p) for p in expr.parts)
    else:  # pragma: no cover
        raise TypeError(f"unknown expression: {expr!r}")
    _EVENTUALLY_CACHE[expr] = result
    return result


@lru_cache(maxsize=65536)
def guard_formula(dependency: Expr, event: Event) -> TFormula:
    """``G(D, e)`` as a literal ``T`` formula, built verbatim.

    Unlike :func:`guard`, the ``<>(D/e)`` term keeps the residual
    expression intact (sequences and all).  Used by the test suite to
    compare Definition 2's exact reading against the cube guard.
    """
    dep = to_normal_form(dependency)
    others = tuple(f for f in _alphabet(dep) if f.base != event.base)
    first = TConj.of(
        [Eventually(embed(residuate(dep, event)))]
        + [NotYet(TAtom(f)) for f in others]
    )
    terms: list[TFormula] = [first]
    for f in others:
        terms.append(
            TConj.of([Always(TAtom(f)), guard_formula(residuate(dep, f), event)])
        )
    return TChoice.of(terms)


def path_guard(path: Sequence[Event], event: Event) -> GuardExpr:
    """``G(e1 ... ek ... en, ek)`` in the closed form below Theorem 4.

    The guard of an event within one accepting path is: everything
    before it has occurred, nothing after it has occurred yet, and
    everything after it is guaranteed.
    """
    if event not in path:
        raise ValueError(f"{event!r} is not on the path {path!r}")
    index = list(path).index(event)
    parts = [literal("box", f) for f in path[:index]]
    parts += [literal("notyet", f) for f in path[index + 1:]]
    parts += [literal("dia", f) for f in path[index + 1:]]
    return guard_and(parts)


def accepting_paths(
    dependency: Expr,
    minimal: bool = True,
) -> frozenset[tuple[Event, ...]]:
    """``Pi(D)``: event sequences whose iterated residual is ``T``
    (Definition 3), drawn from ``Gamma_D``.

    With ``minimal=True`` a path stops at the first ``T`` (the
    dependency is discharged; further events are unconstrained).  With
    ``minimal=False`` all extensions within ``Gamma_D`` are also
    produced, which is the reading Lemma 5's path sum requires.

    >>> from repro.algebra.parser import parse
    >>> sorted(accepting_paths(parse("~e + f")))
    [(f,), (~e,)]
    """
    dep = to_normal_form(dependency)
    alphabet = _alphabet(dep)
    paths: set[tuple[Event, ...]] = set()

    def explore(current: Expr, used: tuple[Event, ...]) -> None:
        if isinstance(current, Top):
            paths.add(used)
            if minimal:
                return
        if isinstance(current, Zero):
            return
        taken = set(used)
        for f in alphabet:
            if f in taken or f.complement in taken:
                continue
            explore(residuate(current, f), used + (f,))

    explore(dep, ())
    return frozenset(paths)


def lemma5_guard(dependency: Expr, event: Event) -> GuardExpr:
    """``G(D, e)`` computed by Lemma 5's sum over accepting paths."""
    total = FALSE_GUARD
    for path in accepting_paths(dependency, minimal=False):
        if event in path:
            total = total | path_guard(path, event)
    return total


def workflow_guards(
    dependencies: Iterable[Expr],
    mentioned_only: bool = True,
) -> dict[Event, GuardExpr]:
    """The per-event guard table of a workflow (Section 4.2), on the
    real names: :func:`workflow_bindings`, rendered.

    The guard on event ``e`` is the conjunction of ``G(D, e)`` over the
    dependencies that mention ``e`` (the default); with
    ``mentioned_only=False`` every dependency contributes, which is the
    reading Definition 4 / Theorem 6 use for exact trace generation.
    """
    return render(workflow_bindings(dependencies, mentioned_only))


def workflow_bindings(
    dependencies: Iterable[Expr],
    mentioned_only: bool = True,
) -> dict[Event, Binding]:
    """The per-event guard table of a workflow as bindings: what a
    scheduler enters its cursors at and a template stamps out.  See
    :func:`workflow_guards` for ``mentioned_only``."""
    originals = list(dependencies)
    deps = [dependency_binding(d) for d in originals]
    # base -> positions of the dependencies mentioning it.  Bases come
    # from the *original* expressions: a dependency that normalizes to
    # 0 (e.g. ``e . e``) still constrains every event it mentioned --
    # nothing may occur at all -- so its events need (false) guards in
    # the table.
    mentions: dict[Event, list[int]] = {}
    for position, original in enumerate(originals):
        for base in original.bases():
            mentions.setdefault(base, []).append(position)
    # events constrained by the same dependencies share one slot map;
    # the table is keyed up front, in the canonical event order the
    # grouping loses
    everything = tuple(range(len(deps)))
    groups: dict[tuple[int, ...], list[Event]] = {}
    table: dict[Event, Binding | None] = {}
    for base in sorted(mentions, key=Event.sort_key):
        relevant = tuple(mentions[base]) if mentioned_only else everything
        for event in (base, base.complement):
            groups.setdefault(relevant, []).append(event)
            table[event] = None
    for relevant, events in groups.items():
        table.update(
            zip(
                events,
                _bindings_modulo_renaming([deps[i] for i in relevant], events),
            )
        )
    return table


def guard_failures(
    guards: Mapping[Event, GuardExpr],
    trace,
) -> Iterator[tuple[int, Event, GuardExpr]]:
    """Definition 4's point check: ``(index, event, guard)`` for each
    event of ``u`` whose guard did not hold at the index just before it
    occurred.  Events foreign to the table are not checked."""
    for j, e in enumerate(trace.events):
        table_guard = guards.get(e)
        if table_guard is not None and not table_guard.holds_at(trace, j):
            yield j, e, table_guard


def generates(
    guards: Mapping[Event, GuardExpr],
    trace,
) -> bool:
    """Definition 4: the guard table generates ``u`` iff no event of
    ``u`` fails its guard (:func:`guard_failures`)."""
    return next(guard_failures(guards, trace), None) is None
