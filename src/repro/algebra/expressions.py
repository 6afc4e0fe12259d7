"""The dependency-expression AST (paper Syntax 1-4).

A *dependency* ``D`` is an expression of the language ``E``:

* atoms -- event symbols and their complements (Syntax 1-2);
* ``E1 + E2`` -- choice (disjunction over traces, Semantics 2);
* ``E1 . E2`` -- sequence (trace concatenation, Semantics 3);
* ``E1 | E2`` -- conjunction (trace-set intersection, Semantics 4);
* ``0`` -- the unsatisfiable expression (empty denotation);
* ``T`` -- the trivially true expression (all of ``U_E``).

Python operator mapping: ``+`` is choice, ``&`` is conjunction, and
``>>`` is sequencing (``a >> b`` reads "a then b").

Constructors canonicalize lightly, using only identities validated by
the paper's semantics (associativity of all three operators,
commutativity and idempotence of ``+`` and ``|``, identity/absorbing
constants, and emptiness of sequences that repeat an event or contain
an event together with its complement).  Heavier rewriting lives in
:mod:`repro.algebra.normal_form`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.algebra.symbols import (
    Event,
    alphabet_of,
    clear_event_intern_table,
    event_intern_stats,
    rename_event,
)

# Hash-consing: every expression node is interned, so constructing the
# same expression twice yields the same object.  Equality then
# short-circuits on identity, and derived views -- events(),
# alphabet(), bases(), the canonical sort key -- are computed once and
# memoized on the node.  A node's hash is structural and computed once,
# at construction, from its children's stored hashes.  An atom's table
# is keyed by its event, and an n-ary node is filed under its hash, so
# interning one hashes its parts once, not once per probe of a
# structural key (nodes whose hashes collide are kept apart by
# structure in ``_SPILL``).
_ATOMS: dict = {}
_INTERN: dict = {}
_SPILL: dict = {}


class _Counters:
    hits = 0
    misses = 0


def _new_node(cls, node_hash: int) -> "Expr":
    """A bare node of ``cls`` with ``node_hash`` and empty memos."""
    node = object.__new__(cls)
    node._hash = node_hash
    node._events = node._alpha = node._bases = node._skey = None
    return node


def intern_stats() -> dict:
    """Sizes and hit/miss counters of the expression and event intern
    tables (exposed through ``metrics_report()`` and ``run --json``)."""
    return {
        "exprs": {
            "size": len(_ATOMS) + len(_INTERN) + len(_SPILL),
            "hits": _Counters.hits,
            "misses": _Counters.misses,
        },
        "events": event_intern_stats(),
    }


def clear_intern_tables() -> None:
    """Drop interned expressions (cold-cache benchmarking).

    Nodes constructed earlier stay valid -- equality falls back to
    structural comparison and all hashes are structural -- they just
    stop being ``is``-identical to nodes built afterwards.  Events
    compare by identity and are never dropped; their counters reset."""
    _ATOMS.clear()
    _INTERN.clear()
    _SPILL.clear()
    _Counters.hits = 0
    _Counters.misses = 0
    clear_event_intern_table()


class Expr:
    """Base class for event expressions.  Instances are immutable: no
    code writes a node's slots but its constructor and the memo fills
    below.  Nodes define no ``__setattr__`` guard, which would send
    every one of those writes through ``object.__setattr__`` (about
    four times the cost of a slot store on the hot interning path)."""

    __slots__ = ("_hash", "_events", "_alpha", "_bases", "_skey")

    # -- operator sugar ----------------------------------------------

    def __add__(self, other: "Expr") -> "Expr":
        return Choice.of([self, _as_expr(other)])

    def __radd__(self, other: "Expr") -> "Expr":
        return Choice.of([_as_expr(other), self])

    def __and__(self, other: "Expr") -> "Expr":
        return Conj.of([self, _as_expr(other)])

    def __rand__(self, other: "Expr") -> "Expr":
        return Conj.of([_as_expr(other), self])

    def __rshift__(self, other: "Expr") -> "Expr":
        return Seq.of([self, _as_expr(other)])

    def __rrshift__(self, other: "Expr") -> "Expr":
        return Seq.of([_as_expr(other), self])

    # -- inspection --------------------------------------------------

    def events(self) -> frozenset[Event]:
        """All event symbols literally mentioned in the expression."""
        cached = self._events
        if cached is None:
            out: set[Event] = set()
            self._collect_events(out)
            cached = frozenset(out)
            self._events = cached
        return cached

    def alphabet(self) -> frozenset[Event]:
        """The paper's ``Gamma_E``: mentioned events and their complements."""
        cached = self._alpha
        if cached is None:
            cached = alphabet_of(self.events())
            self._alpha = cached
        return cached

    def bases(self) -> frozenset[Event]:
        """Positive base events mentioned (directly or via complements)."""
        cached = self._bases
        if cached is None:
            cached = frozenset(e.base for e in self.events())
            self._bases = cached
        return cached

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # back through the interning constructor with the node's own
        # slots (none / event / parts): a copy or an unpickled node *is*
        # the interned one, in whichever process it lands
        return type(self), ()

    def _collect_events(self, out: set[Event]) -> None:
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all descendants (pre-order)."""
        yield self

    def substitute(self, binding: dict) -> "Expr":
        """Apply a variable binding to every parametrized atom."""
        return self

    # Subclasses override __eq__/__hash__/__repr__.


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, Event):
        return Atom(value)
    raise TypeError(f"not an event expression: {value!r}")


class Zero(Expr):
    """The expression ``0`` with empty denotation (Example 1)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        inst = cls._instance
        if inst is None:
            inst = cls._instance = _new_node(cls, hash("Zero"))
        return inst

    def _collect_events(self, out: set[Event]) -> None:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Zero)

    __hash__ = Expr.__hash__

    def __repr__(self) -> str:
        return "0"


class Top(Expr):
    """The expression ``T`` denoting all of ``U_E`` (Semantics 5)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        inst = cls._instance
        if inst is None:
            inst = cls._instance = _new_node(cls, hash("Top"))
        return inst

    def _collect_events(self, out: set[Event]) -> None:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Top)

    __hash__ = Expr.__hash__

    def __repr__(self) -> str:
        return "T"


ZERO = Zero()
TOP = Top()


class Atom(Expr):
    """An atomic expression: a single event symbol (Semantics 1)."""

    __slots__ = ("event",)

    def __new__(cls, event: Event):
        if event in _ATOMS:
            _Counters.hits += 1
            return _ATOMS[event]
        if type(event) is not Event:
            raise TypeError(f"Atom requires an Event, got {event!r}")
        _Counters.misses += 1
        self = _ATOMS[event] = object.__new__(cls)
        self._hash = hash(("Atom", event))
        self._events = self._alpha = self._bases = self._skey = None
        self.event = event
        return self

    def __reduce__(self):
        return Atom, (self.event,)

    def _collect_events(self, out: set[Event]) -> None:
        out.add(self.event)

    def substitute(self, binding: dict) -> "Expr":
        new_event = self.event.substitute(binding)
        return self if new_event is self.event else Atom(new_event)

    def __invert__(self) -> "Atom":
        return Atom(self.event.complement)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Atom) and other.event == self.event

    __hash__ = Expr.__hash__

    def __repr__(self) -> str:
        return repr(self.event)


class _Nary(Expr):
    """The n-ary operators' shared node: its ``parts``, interned under
    its structural hash (see the module's interning note)."""

    __slots__ = ("parts",)

    def __new__(cls, parts: tuple[Expr, ...]):
        parts = tuple(parts)
        node_hash = hash((cls.__name__, parts))
        if node_hash in _INTERN:
            found = _INTERN[node_hash]
            if type(found) is not cls or found.parts != parts:
                found = _SPILL.get((cls, parts))
            if found is not None:
                _Counters.hits += 1
                return found
            table, key = _SPILL, (cls, parts)
        else:
            table, key = _INTERN, node_hash
        _Counters.misses += 1
        self = table[key] = object.__new__(cls)
        self._hash = node_hash
        self._events = self._alpha = self._bases = self._skey = None
        self.parts = parts
        return self

    def __reduce__(self):
        return type(self), (self.parts,)

    def _collect_events(self, out: set[Event]) -> None:
        for p in self.parts:
            p._collect_events(out)

    def walk(self) -> Iterator[Expr]:
        yield self
        for p in self.parts:
            yield from p.walk()

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return type(other) is type(self) and other.parts == self.parts

    __hash__ = Expr.__hash__


class Seq(_Nary):
    """Sequence ``E1 . E2 ... En`` (Semantics 3), flattened n-ary.

    ``Seq.of`` applies sound unit/annihilator laws: ``T`` parts are
    dropped (``T`` is a two-sided unit because satisfaction in this
    trace semantics is closed under extending a trace on either side),
    any ``0`` part collapses the whole sequence to ``0``, and a
    sequence of atoms that repeats an event or mentions both an event
    and its complement denotes no trace at all and collapses to ``0``
    (no trace in ``U_E`` may contain either combination, Definition 1).
    """

    __slots__ = ()

    @staticmethod
    def of(items: Iterable[Expr]) -> Expr:
        flat: list[Expr] = []
        for item in items:
            item = _as_expr(item)
            if isinstance(item, Top):
                continue
            if isinstance(item, Zero):
                return ZERO
            if isinstance(item, Seq):
                flat.extend(item.parts)
            else:
                flat.append(item)
        if not flat:
            return TOP
        if len(flat) == 1:
            return flat[0]
        # A ground all-atom sequence that repeats an event or contains
        # an event with its complement is unsatisfiable.
        atoms = [p.event for p in flat if isinstance(p, Atom)]
        ground = [e for e in atoms if e.is_ground]
        seen: set[Event] = set()
        for e in ground:
            if e in seen or e.complement in seen:
                return ZERO
            seen.add(e)
        return Seq(tuple(flat))

    def substitute(self, binding: dict) -> Expr:
        return Seq.of([p.substitute(binding) for p in self.parts])

    def __repr__(self) -> str:
        return " . ".join(_wrap(p, for_seq=True) for p in self.parts)


class Choice(_Nary):
    """Choice ``E1 + E2 ... + En`` (Semantics 2), flattened n-ary.

    Canonicalization: flattening, deduplication, sorting (both ``+``
    and ``|`` are associative, commutative, and idempotent in the trace
    semantics), dropping ``0`` summands, and collapsing to ``T`` when
    any summand is ``T``.
    """

    __slots__ = ()

    @staticmethod
    def of(items: Iterable[Expr]) -> Expr:
        flat: list[Expr] = []
        for item in items:
            item = _as_expr(item)
            if isinstance(item, Zero):
                continue
            if isinstance(item, Top):
                return TOP
            if isinstance(item, Choice):
                flat.extend(item.parts)
            else:
                flat.append(item)
        unique = _sorted_unique(flat)
        if not unique:
            return ZERO
        if len(unique) == 1:
            return unique[0]
        return Choice(tuple(unique))

    def substitute(self, binding: dict) -> Expr:
        return Choice.of([p.substitute(binding) for p in self.parts])

    def __repr__(self) -> str:
        return " + ".join(_wrap(p, for_seq=False) for p in self.parts)


class Conj(_Nary):
    """Conjunction ``E1 | E2 ... | En`` (Semantics 4), flattened n-ary.

    Canonicalization mirrors :class:`Choice` with the dual constants:
    ``T`` parts are dropped and any ``0`` part collapses to ``0``.
    """

    __slots__ = ()

    @staticmethod
    def of(items: Iterable[Expr]) -> Expr:
        flat: list[Expr] = []
        for item in items:
            item = _as_expr(item)
            if isinstance(item, Top):
                continue
            if isinstance(item, Zero):
                return ZERO
            if isinstance(item, Conj):
                flat.extend(item.parts)
            else:
                flat.append(item)
        unique = _sorted_unique(flat)
        if not unique:
            return TOP
        if len(unique) == 1:
            return unique[0]
        # An atom conjoined with its complement is unsatisfiable
        # (Example 1: [[ e | ~e ]] = 0).
        atoms = {p.event for p in unique if isinstance(p, Atom)}
        if any(e.complement in atoms for e in atoms if e.is_ground):
            return ZERO
        return Conj(tuple(unique))

    def substitute(self, binding: dict) -> Expr:
        return Conj.of([p.substitute(binding) for p in self.parts])

    def __repr__(self) -> str:
        return " | ".join(_wrap(p, for_seq=False, for_conj=True) for p in self.parts)


def _sorted_unique(parts: list[Expr]) -> list[Expr]:
    """Sort by a stable structural key and drop duplicates."""
    seen: set[Expr] = set()
    unique: list[Expr] = []
    for p in parts:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    unique.sort(key=_struct_key)
    return unique


def _struct_key(expr: Expr) -> tuple:
    """A total structural order on expressions for canonical layout.

    Memoized on the node (children are interned, so a key is computed
    once per distinct subexpression, not once per occurrence)."""
    skey = expr._skey
    if skey is not None:
        return skey
    if isinstance(expr, Zero):
        skey = (0,)
    elif isinstance(expr, Top):
        skey = (1,)
    elif isinstance(expr, Atom):
        skey = (2, expr.event.sort_key())
    elif isinstance(expr, Seq):
        skey = (3, tuple(_struct_key(p) for p in expr.parts))
    elif isinstance(expr, Conj):
        skey = (4, tuple(_struct_key(p) for p in expr.parts))
    elif isinstance(expr, Choice):
        skey = (5, tuple(_struct_key(p) for p in expr.parts))
    else:  # pragma: no cover
        raise TypeError(f"unknown expression: {expr!r}")
    expr._skey = skey
    return skey


def rename_expr(expr: Expr, mapping: Mapping[Event, Event]) -> Expr:
    """Rename every event of an expression through a base mapping.

    Rebuilds through the interning ``.of`` constructors, so the result
    is the same canonical node a from-scratch parse of the renamed text
    would produce (``Choice``/``Conj`` re-sort their parts under the
    *renamed* structural keys).
    """
    if isinstance(expr, Atom):
        renamed = rename_event(expr.event, mapping)
        return expr if renamed is expr.event else Atom(renamed)
    if isinstance(expr, Seq):
        return Seq.of([rename_expr(p, mapping) for p in expr.parts])
    if isinstance(expr, Choice):
        return Choice.of([rename_expr(p, mapping) for p in expr.parts])
    if isinstance(expr, Conj):
        return Conj.of([rename_expr(p, mapping) for p in expr.parts])
    return expr  # Zero / Top carry no events


def picker(positions: Sequence[int]) -> itemgetter:
    """``pick(row)``: the row's items at ``positions``, always a sequence
    (``itemgetter`` of one index would give the item itself)."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    if not positions:
        return itemgetter(slice(0))
    return itemgetter(*positions)


class RowCopies:
    """Structural copies of canonical expressions (ones the ``.of``
    constructors built) onto *rows*: each expression's bases replaced by
    the events at the same positions of another row of as many events.

    A row whose events keep the ``Event.sort_key`` order of the planned
    row renames injectively and order-preservingly, and such a rename
    commutes with every canonicalization step: it keeps distinct parts
    distinct (no dedupe), the structural order of the parts (no
    re-sort), and every repeat or complementary pair absent (no
    collapse).  Each copy is therefore rebuilt straight through the
    interning constructors, parts in the order they stand, and *is*
    the node :func:`rename_expr` returns.  The expressions are planned
    once as a flat list of steps, children before parents and each
    shared node once, so a copy takes one constructor call per node.
    Its bases are the row's events at the original's positions, so a
    fresh copy is handed them and never walked for them.
    """

    __slots__ = ("steps", "outputs", "bases")

    def __init__(self, exprs: Iterable[Expr], row: Sequence[Event]):
        position = {base: i for i, base in enumerate(row)}
        #: ``(kind, arg, negated)`` per node: an atom at row position
        #: ``arg``, a constant node ``arg`` (kind ``None``), or an n-ary
        #: node of class ``kind`` over the steps ``arg`` picks
        self.steps: list[tuple] = []
        #: the step of each expression, in the order given
        self.outputs: list[int] = []
        #: each expression's base positions, as a picker of the row
        self.bases: list[itemgetter] = []
        step_of: dict[Expr, int] = {}
        for expr in exprs:
            self.outputs.append(self._plan(expr, position, step_of))
            self.bases.append(picker([position[b] for b in expr.bases()]))

    def _plan(
        self, node: Expr, position: dict[Event, int], step_of: dict
    ) -> int:
        """The step that builds ``node``'s copy, planned after its
        parts' steps unless ``step_of`` has one."""
        step = step_of.get(node)
        if step is None:
            if type(node) is Atom:
                event = node.event
                made = (Atom, position[event.base], event.negated)
            elif isinstance(node, _Nary):
                picks = [
                    self._plan(part, position, step_of) for part in node.parts
                ]
                made = (type(node), picker(picks), False)
            else:  # Zero / Top carry no events
                made = (None, node, False)
            step = step_of[node] = len(self.steps)
            self.steps.append(made)
        return step

    def __call__(self, row: Sequence[Event]) -> list[Expr]:
        """The copies on ``row``, in the order planned."""
        made: list = [None] * len(self.steps)
        for i, (kind, arg, negated) in enumerate(self.steps):
            if kind is Atom:
                event = row[arg]
                made[i] = Atom(event.complement if negated else event)
            elif kind is None:
                made[i] = arg
            else:
                made[i] = kind(arg(made))
        copies = [made[i] for i in self.outputs]
        for copy, bases in zip(copies, self.bases):
            if copy._bases is None:
                copy._bases = frozenset(bases(row))
        return copies


def _wrap(expr: Expr, for_seq: bool, for_conj: bool = False) -> str:
    """Parenthesize for printing: ``.`` binds tighter than ``|`` than ``+``."""
    text = repr(expr)
    if for_seq and isinstance(expr, (Choice, Conj)):
        return f"({text})"
    if for_conj and isinstance(expr, Choice):
        return f"({text})"
    return text


def atom(name: str, *params) -> Atom:
    """Shorthand for ``Atom(Event(name, params=params))``."""
    return Atom(Event(name, params=tuple(params)))
