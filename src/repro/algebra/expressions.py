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

from typing import Iterable, Iterator, Mapping

from repro.algebra.symbols import (
    Event,
    alphabet_of,
    clear_event_intern_table,
    event_intern_stats,
    rename_event,
)

# Hash-consing: every expression node is interned here, keyed by its
# structural identity, so constructing the same expression twice yields
# the same object.  Equality then short-circuits on identity, the hash
# is computed once per node (and is O(children), not O(tree), because
# child hashes are themselves cached), and derived views -- events(),
# alphabet(), bases(), the canonical sort key -- are computed once and
# memoized on the node.
_INTERN: dict = {}


class _Counters:
    hits = 0
    misses = 0


def _init_node(node: "Expr", node_hash: int) -> None:
    object.__setattr__(node, "_hash", node_hash)
    object.__setattr__(node, "_events", None)
    object.__setattr__(node, "_alpha", None)
    object.__setattr__(node, "_bases", None)
    object.__setattr__(node, "_skey", None)


def intern_stats() -> dict:
    """Sizes and hit/miss counters of the expression and event intern
    tables (exposed through ``metrics_report()`` and ``run --json``)."""
    return {
        "exprs": {
            "size": len(_INTERN),
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
    _INTERN.clear()
    _Counters.hits = 0
    _Counters.misses = 0
    clear_event_intern_table()


class Expr:
    """Base class for event expressions.  Instances are immutable."""

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
            object.__setattr__(self, "_events", cached)
        return cached

    def alphabet(self) -> frozenset[Event]:
        """The paper's ``Gamma_E``: mentioned events and their complements."""
        cached = self._alpha
        if cached is None:
            cached = alphabet_of(self.events())
            object.__setattr__(self, "_alpha", cached)
        return cached

    def bases(self) -> frozenset[Event]:
        """Positive base events mentioned (directly or via complements)."""
        cached = self._bases
        if cached is None:
            cached = frozenset(e.base for e in self.events())
            object.__setattr__(self, "_bases", cached)
        return cached

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # back through the interning constructor with the node's own
        # slots (none / event / parts): a copy or an unpickled node *is*
        # the interned one, in whichever process it lands
        cls = type(self)
        return cls, tuple(getattr(self, slot) for slot in cls.__slots__)

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
            inst = super().__new__(cls)
            _init_node(inst, hash("Zero"))
            cls._instance = inst
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
            inst = super().__new__(cls)
            _init_node(inst, hash("Top"))
            cls._instance = inst
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
        key = ("Atom", event)
        found = _INTERN.get(key)
        if found is not None:
            _Counters.hits += 1
            return found
        if not isinstance(event, Event):
            raise TypeError(f"Atom requires an Event, got {event!r}")
        _Counters.misses += 1
        self = super().__new__(cls)
        object.__setattr__(self, "event", event)
        _init_node(self, hash(key))
        _INTERN[key] = self
        return self

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Atom is immutable")

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


class Seq(Expr):
    """Sequence ``E1 . E2 ... En`` (Semantics 3), flattened n-ary.

    ``Seq.of`` applies sound unit/annihilator laws: ``T`` parts are
    dropped (``T`` is a two-sided unit because satisfaction in this
    trace semantics is closed under extending a trace on either side),
    any ``0`` part collapses the whole sequence to ``0``, and a
    sequence of atoms that repeats an event or mentions both an event
    and its complement denotes no trace at all and collapses to ``0``
    (no trace in ``U_E`` may contain either combination, Definition 1).
    """

    __slots__ = ("parts",)

    def __new__(cls, parts: tuple[Expr, ...]):
        parts = tuple(parts)
        key = ("Seq", parts)
        found = _INTERN.get(key)
        if found is not None:
            _Counters.hits += 1
            return found
        _Counters.misses += 1
        self = super().__new__(cls)
        object.__setattr__(self, "parts", parts)
        _init_node(self, hash(key))
        _INTERN[key] = self
        return self

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Seq is immutable")

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

    def _collect_events(self, out: set[Event]) -> None:
        for p in self.parts:
            p._collect_events(out)

    def walk(self) -> Iterator[Expr]:
        yield self
        for p in self.parts:
            yield from p.walk()

    def substitute(self, binding: dict) -> Expr:
        return Seq.of([p.substitute(binding) for p in self.parts])

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Seq) and other.parts == self.parts

    __hash__ = Expr.__hash__

    def __repr__(self) -> str:
        return " . ".join(_wrap(p, for_seq=True) for p in self.parts)


class Choice(Expr):
    """Choice ``E1 + E2 ... + En`` (Semantics 2), flattened n-ary.

    Canonicalization: flattening, deduplication, sorting (both ``+``
    and ``|`` are associative, commutative, and idempotent in the trace
    semantics), dropping ``0`` summands, and collapsing to ``T`` when
    any summand is ``T``.
    """

    __slots__ = ("parts",)

    def __new__(cls, parts: tuple[Expr, ...]):
        parts = tuple(parts)
        key = ("Choice", parts)
        found = _INTERN.get(key)
        if found is not None:
            _Counters.hits += 1
            return found
        _Counters.misses += 1
        self = super().__new__(cls)
        object.__setattr__(self, "parts", parts)
        _init_node(self, hash(key))
        _INTERN[key] = self
        return self

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Choice is immutable")

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

    def _collect_events(self, out: set[Event]) -> None:
        for p in self.parts:
            p._collect_events(out)

    def walk(self) -> Iterator[Expr]:
        yield self
        for p in self.parts:
            yield from p.walk()

    def substitute(self, binding: dict) -> Expr:
        return Choice.of([p.substitute(binding) for p in self.parts])

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Choice) and other.parts == self.parts

    __hash__ = Expr.__hash__

    def __repr__(self) -> str:
        return " + ".join(_wrap(p, for_seq=False) for p in self.parts)


class Conj(Expr):
    """Conjunction ``E1 | E2 ... | En`` (Semantics 4), flattened n-ary.

    Canonicalization mirrors :class:`Choice` with the dual constants:
    ``T`` parts are dropped and any ``0`` part collapses to ``0``.
    """

    __slots__ = ("parts",)

    def __new__(cls, parts: tuple[Expr, ...]):
        parts = tuple(parts)
        key = ("Conj", parts)
        found = _INTERN.get(key)
        if found is not None:
            _Counters.hits += 1
            return found
        _Counters.misses += 1
        self = super().__new__(cls)
        object.__setattr__(self, "parts", parts)
        _init_node(self, hash(key))
        _INTERN[key] = self
        return self

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Conj is immutable")

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

    def _collect_events(self, out: set[Event]) -> None:
        for p in self.parts:
            p._collect_events(out)

    def walk(self) -> Iterator[Expr]:
        yield self
        for p in self.parts:
            yield from p.walk()

    def substitute(self, binding: dict) -> Expr:
        return Conj.of([p.substitute(binding) for p in self.parts])

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Conj) and other.parts == self.parts

    __hash__ = Expr.__hash__

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
    object.__setattr__(expr, "_skey", skey)
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


def rename_ordered(expr: Expr, mapping: Mapping[Event, Event]) -> Expr:
    """:func:`rename_expr` of a canonical expression (one the ``.of``
    constructors built) under a rename that is injective and keeps the
    ``Event.sort_key`` order of the bases it maps.

    Such a rename commutes with every canonicalization step: it keeps
    distinct parts distinct (no dedupe), the structural order of the
    parts (no re-sort), and every repeat or complementary pair absent
    (no collapse).  The copy is therefore rebuilt straight through the
    interning constructors, parts in the order they stand, and *is*
    the node :func:`rename_expr` returns.  Its bases are the images of
    ``expr``'s, so a fresh copy is handed them and never walked for
    them.
    """
    copy = _rename_ordered(expr, mapping)
    if copy._bases is None:
        bases = expr.bases()
        images = frozenset(map(mapping.get, bases, bases))
        object.__setattr__(copy, "_bases", images)
    return copy


def _rename_ordered(expr: Expr, mapping: Mapping[Event, Event]) -> Expr:
    cls = type(expr)
    if cls is Atom:
        event = expr.event
        target = mapping.get(event.base)
        if target is None:
            return expr
        return Atom(target.complement if event.negated else target)
    if cls is Zero or cls is Top:
        return expr
    return cls(tuple([_rename_ordered(p, mapping) for p in expr.parts]))


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
