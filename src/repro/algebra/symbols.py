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

#: characters of the expression grammar, which no event name may hold
_RESERVED = frozenset("~+|.()[], ")


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
    operator yields the complement, and ``~~e is e`` (the paper
    identifies the double complement with the event).

    Instances are *interned*: the same (name, polarity, params) gives
    the one object there is, so identity *is* equality and the class
    defines neither ``__eq__`` nor ``__hash__`` -- dict probes and set
    inserts keyed by events run ``object``'s C slots.  Both polarities
    of a symbol are created together and linked: ``base`` is the
    positive form, ``complement`` the other polarity (the paper's
    overline).  The intern table, keyed by (name, params) and holding
    the positive form, is thus every event's identity and is never
    dropped; copies and unpickled events are the interned object.

    Parameters
    ----------
    name:
        The base symbol from ``Sigma``, e.g. ``"c_buy"``.
    negated:
        ``True`` for the complement symbol.
    params:
        Optional tuple of parameters (values or :class:`Variable`).
    """

    __slots__ = ("name", "negated", "params", "base", "complement", "_skey")

    _intern: dict = {}
    _hits = 0
    _misses = 0

    def __new__(cls, name: str, negated: bool = False, params: tuple = ()):
        key = (name, tuple(params))
        table = cls._intern
        if key in table:
            cls._hits += 1
            positive = table[key]
        else:
            if not name:
                raise ValueError("event name must be non-empty")
            if not _RESERVED.isdisjoint(name):
                raise ValueError(
                    f"event name contains reserved characters: {name!r}"
                )
            params = key[1]
            positive = _new_symbol(key, tuple(map(repr, params)))
        return positive.complement if negated else positive

    def __reduce__(self):
        return Event, (self.name, self.negated, self.params)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Event is immutable")

    # -- structure ---------------------------------------------------

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

    def sort_key(self) -> tuple:
        """A total order used for canonical forms and tie-breaking."""
        return self._skey

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


def _new_symbol(key: tuple, shown: tuple) -> Event:
    """Intern a new symbol under ``key``, its (valid) name and its
    parameters, ``shown`` the ``repr`` of each parameter: both
    polarities at once, each holding the other; the positive one is
    returned."""
    Event._misses += 1
    name, params = key
    positive, negative = object.__new__(Event), object.__new__(Event)
    _set_name(positive, name)
    _set_name(negative, name)
    _set_negated(positive, False)
    _set_negated(negative, True)
    _set_params(positive, params)
    _set_params(negative, params)
    _set_base(positive, positive)
    _set_base(negative, positive)
    _set_complement(positive, negative)
    _set_complement(negative, positive)
    _set_skey(positive, (name, shown, False))
    _set_skey(negative, (name, shown, True))
    Event._intern[key] = positive
    return positive


# the slots' own setters, past ``Event.__setattr__``'s guard: a third
# quicker than ``object.__setattr__``, which looks each slot up again
_set_name = Event.name.__set__
_set_negated = Event.negated.__set__
_set_params = Event.params.__set__
_set_base = Event.base.__set__
_set_complement = Event.complement.__set__
_set_skey = Event._skey.__set__


def suffixed(bases: Iterable[Event], suffix: str) -> tuple[Event, ...]:
    """``Event(f"{base.name}{suffix}", params=base.params)`` for each
    positive event of ``bases``, in order: a stamped instance's row.

    The suffix is checked once; a base's name is valid already, so
    each new name is, and a new symbol is interned with no check."""
    if not _RESERVED.isdisjoint(suffix):
        raise ValueError(f"event name contains reserved characters: {suffix!r}")
    table = Event._intern
    row = []
    for base in bases:
        key = (base.name + suffix, base.params)
        if key in table:
            Event._hits += 1
            row += (table[key],)
        else:
            row += (_new_symbol(key, base._skey[1]),)
    return tuple(row)


def event_intern_stats() -> dict:
    """Hit/miss counters and size of the :class:`Event` intern table.

    ``size`` counts both polarities of every symbol (they are created
    together); a miss is one new symbol."""
    return {
        "size": 2 * len(Event._intern),
        "hits": Event._hits,
        "misses": Event._misses,
    }


def clear_event_intern_table() -> None:
    """Reset the hit/miss counters; the events themselves stay.

    Dropping the table while any event is alive (module constants,
    cached guards) would let a second, unequal ``Event("a")`` appear.
    Cold-cache benchmarks lose nothing: re-finding an event is the
    same dict probe as the first miss."""
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
