"""Event symbols and alphabets (paper Section 3.1).

``Sigma`` is the set of *significant event* symbols.  For every symbol
``e`` the alphabet ``Gamma`` also contains its complement ``~e`` (the
paper writes an overline).  The complement event denotes "``e`` will
never occur": e.g. the complement of a task's ``commit`` is announced
when the task aborts or is abandoned, so that waiting events can make
progress (Section 3.3's "rejects the complement").

Section 5 parametrizes event symbols with a tuple of parameters (task
ids, database keys, customer ids, ...).  A parameter slot may hold a
concrete value or a :class:`Variable`; an event with at least one
variable is an event *type*, a fully ground event is an event *token*.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class Variable:
    """A named logic variable used in parametrized events (Section 5).

    Variables compare by name, so ``Variable("x") == Variable("x")``.
    Unbound parameters in a guard are treated as universally
    quantified (Section 5.2).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not name.isidentifier():
            raise ValueError(f"variable name must be an identifier: {name!r}")
        self.name = name

    def __repr__(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))


class Event:
    """An event symbol ``e`` or its complement ``~e`` in ``Gamma``.

    An :class:`Event` is immutable and hashable; the same name with the
    same parameters and polarity is the same event.  The unary ``~``
    operator yields the complement, and ``~~e is`` equivalent to ``e``
    (the paper identifies the double complement with the event).

    Instances are *hash-consed*: constructing the same (name, polarity,
    params) combination returns the one interned object, so equality is
    usually settled by the identity fast path, the hash is computed
    once, and complements resolve to a cached pointer.  Structural
    equality is kept as a fallback so objects that straddle an intern
    table reset (benchmarks clear the tables to measure cold costs)
    still compare correctly.

    Parameters
    ----------
    name:
        The base symbol from ``Sigma``, e.g. ``"c_buy"``.
    negated:
        ``True`` for the complement symbol.
    params:
        Optional tuple of parameters (values or :class:`Variable`).
    """

    __slots__ = ("name", "negated", "params", "_hash", "_comp", "_skey")

    _intern: dict = {}
    _hits = 0
    _misses = 0

    def __new__(cls, name: str, negated: bool = False, params: tuple = ()):
        key = (name, bool(negated), tuple(params))
        table = cls._intern
        found = table.get(key)
        if found is not None:
            cls._hits += 1
            return found
        if not name:
            raise ValueError("event name must be non-empty")
        if any(ch in "~+|.()[], " for ch in name):
            raise ValueError(f"event name contains reserved characters: {name!r}")
        cls._misses += 1
        self = super().__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "negated", key[1])
        object.__setattr__(self, "params", key[2])
        object.__setattr__(self, "_hash", hash(("Event",) + key))
        object.__setattr__(self, "_comp", None)
        object.__setattr__(self, "_skey", None)
        table[key] = self
        return self

    def __init__(self, name: str, negated: bool = False, params: tuple = ()):
        pass  # fully constructed (or found interned) in __new__

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Event is immutable")

    # -- structure ---------------------------------------------------

    @property
    def base(self) -> "Event":
        """The positive (non-complemented) form of this event."""
        if not self.negated:
            return self
        return Event(self.name, False, self.params)

    @property
    def complement(self) -> "Event":
        """The complement event; the paper's overline."""
        comp = self._comp
        if comp is None:
            comp = Event(self.name, not self.negated, self.params)
            object.__setattr__(self, "_comp", comp)
        return comp

    def __invert__(self) -> "Event":
        return self.complement

    @property
    def is_ground(self) -> bool:
        """True when no parameter is a :class:`Variable`."""
        return not any(isinstance(p, Variable) for p in self.params)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The variables appearing in this event's parameters, in order."""
        return tuple(p for p in self.params if isinstance(p, Variable))

    def substitute(self, binding: dict) -> "Event":
        """Apply a ``{Variable: value}`` binding to the parameters."""
        if not self.params:
            return self
        new_params = tuple(
            binding.get(p, p) if isinstance(p, Variable) else p for p in self.params
        )
        if new_params == self.params:
            return self
        return Event(self.name, self.negated, new_params)

    def unify(self, other: "Event") -> dict | None:
        """Match this (possibly variable-carrying) event against ``other``.

        Returns a binding ``{Variable: value}`` making ``self`` equal to
        ``other``, or ``None`` when they cannot match.  Polarity and
        name must agree; unification is one-way (variables may appear
        only in ``self``).
        """
        if self.name != other.name or self.negated != other.negated:
            return None
        if len(self.params) != len(other.params):
            return None
        binding: dict = {}
        for mine, theirs in zip(self.params, other.params):
            if isinstance(mine, Variable):
                if mine in binding and binding[mine] != theirs:
                    return None
                binding[mine] = theirs
            elif mine != theirs:
                return None
        return binding

    # -- identity ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Event)
            and other.name == self.name
            and other.negated == self.negated
            and other.params == self.params
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """A total order used for canonical forms and tie-breaking."""
        skey = self._skey
        if skey is None:
            skey = (self.name, tuple(repr(p) for p in self.params), self.negated)
            object.__setattr__(self, "_skey", skey)
        return skey

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        body = self.name
        if self.params:
            inner = ",".join(
                p.name if isinstance(p, Variable) else repr(p) for p in self.params
            )
            body = f"{body}[{inner}]"
        return f"~{body}" if self.negated else body


def event_intern_stats() -> dict:
    """Hit/miss counters and size of the :class:`Event` intern table."""
    return {
        "size": len(Event._intern),
        "hits": Event._hits,
        "misses": Event._misses,
    }


def clear_event_intern_table() -> None:
    """Drop interned events (benchmarks use this to measure cold costs).

    Previously constructed events stay valid: equality falls back to
    structural comparison, and hashes were computed from structure."""
    Event._intern.clear()
    Event._hits = 0
    Event._misses = 0


def rename_event(event: Event, mapping: Mapping[Event, Event]) -> Event:
    """Rename one (possibly negated) event through a base mapping."""
    target = mapping.get(event.base)
    if target is None:
        return event
    return target.complement if event.negated else target


def events(names: str | Iterable[str]) -> tuple[Event, ...]:
    """Convenience constructor: ``events("e f g")`` -> three events."""
    if isinstance(names, str):
        names = names.split()
    return tuple(Event(n) for n in names)


def alphabet_of(items: Iterable[Event]) -> frozenset[Event]:
    """Close a set of events under complement: the paper's ``Gamma_E``."""
    out: set[Event] = set()
    for e in items:
        out.add(e)
        out.add(e.complement)
    return frozenset(out)


def bases_of(items: Iterable[Event]) -> frozenset[Event]:
    """The positive base events underlying a set of events."""
    return frozenset(e.base for e in items)
