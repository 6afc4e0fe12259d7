"""Traces, universes, and satisfaction (paper Section 3.2).

A *trace* is a finite sequence of events describing a fragment of a
possible computation.  Per Definition 1, a trace of ``U_E`` never
contains both an event and its complement, and never contains the same
event twice.  The temporal logic of Section 4.1 is interpreted over
*maximal* traces (``U_T``): every base event of the alphabet occurs
either positively or complemented.

The paper permits infinite traces; every experiment in the paper uses
finite alphabets, for which maximal traces are finite, so this
reproduction works with finite traces throughout (each base event
settles exactly once, after which the trace cannot grow).
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from repro.algebra.expressions import Atom, Choice, Conj, Expr, Seq, Top, Zero
from repro.algebra.symbols import Event, bases_of


class Trace:
    """An immutable event sequence subject to Definition 1.

    >>> e, f = Event("e"), Event("f")
    >>> Trace([e, ~f])
    <e ~f>
    """

    __slots__ = ("events", "_hash", "_index")

    def __init__(self, events: Sequence[Event] = ()):
        events = tuple(events)
        seen: set[Event] = set()
        for ev in events:
            if ev in seen:
                raise ValueError(f"event occurs twice on trace: {ev!r}")
            if ev.complement in seen:
                raise ValueError(
                    f"trace contains both an event and its complement: {ev!r}"
                )
            seen.add(ev)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_hash", hash(("Trace", events)))
        object.__setattr__(self, "_index", None)

    def __setattr__(self, key, value):  # pragma: no cover
        raise AttributeError("Trace is immutable")

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.events[index])
        return self.events[index]

    def __contains__(self, event: Event) -> bool:
        return event in self._positions()

    def _positions(self) -> dict[Event, int]:
        """The ``event -> position`` index, built on first use.

        Well defined because Definition 1 (checked in ``__init__``)
        forbids an event from occurring twice."""
        index = self._index
        if index is None:
            index = {ev: i for i, ev in enumerate(self.events)}
            object.__setattr__(self, "_index", index)
        return index

    def position(self, event: Event) -> int | None:
        """Where ``event`` occurs on the trace, or ``None``."""
        return self._positions().get(event)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Trace) and other.events == self.events

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = " ".join(repr(e) for e in self.events)
        return f"<{inner}>"

    # -- operations ----------------------------------------------------

    def concat(self, other: "Trace") -> "Trace":
        """``uv``; raises ``ValueError`` if the result leaves ``U_E``."""
        return Trace(self.events + other.events)

    def can_concat(self, other: "Trace") -> bool:
        """True when ``uv`` stays inside ``U_E``."""
        mine = set(self.events)
        for ev in other.events:
            if ev in mine or ev.complement in mine:
                return False
        return True

    def prefix(self, length: int) -> "Trace":
        return Trace(self.events[:length])

    def suffix(self, start: int) -> "Trace":
        """The paper's ``u^j``: drop the first ``start`` events."""
        return Trace(self.events[start:])

    def is_maximal(self, bases: Iterable[Event]) -> bool:
        """True when every base event occurs positively or complemented."""
        present = {e.base for e in self.events}
        return all(b.base in present for b in bases)


EMPTY_TRACE = Trace()


#: ``earliest_end`` of an expression no interval can satisfy
_NEVER = float("inf")


def satisfies(trace: Trace, expr: Expr) -> bool:
    """The satisfaction relation ``u |= E`` (Semantics 1-5).

    * an atom is satisfied iff the event occurs anywhere on the trace;
    * ``E1 + E2`` iff either disjunct is satisfied;
    * ``E1 . E2`` iff some split ``u = vw`` has ``v |= E1`` and
      ``w |= E2``;
    * ``E1 | E2`` iff both conjuncts are satisfied;
    * ``T`` always; ``0`` never.

    Decided in O(|E|) dictionary lookups, independent of the trace
    length, as ``earliest_end(E, 0) <= |u|`` where ``earliest_end(E, s)``
    is the least ``e`` with ``u[s:e] |= E``.  Every operator is monotone
    under widening the interval (an atom "occurs anywhere"), so for
    ``E1 . E2`` the earliest split that satisfies ``E1`` leaves ``E2``
    the largest suffix: if that split fails, every later one does.
    :func:`satisfies_by_definition` is the split-enumerating reference.
    """
    return _earliest_end(expr, 0, trace._positions()) <= len(trace.events)


def unsatisfied(trace: Trace, deps: Iterable[Expr]) -> Iterator[Expr]:
    """The dependencies ``trace`` fails, in the order given -- the one
    satisfaction loop (the oracle, ``Workflow.admits``, the admissible
    traces of ``workflows.analysis``)."""
    return (dep for dep in deps if not satisfies(trace, dep))


def _earliest_end(expr: Expr, start: int, positions: dict) -> float:
    if isinstance(expr, Atom):
        at = positions.get(expr.event)
        return _NEVER if at is None or at < start else at + 1
    if isinstance(expr, Seq):
        for part in expr.parts:
            start = _earliest_end(part, start, positions)
            if start == _NEVER:
                break
        return start
    if isinstance(expr, Choice):
        best = _NEVER
        for part in expr.parts:
            end = _earliest_end(part, start, positions)
            if end < best:
                best = end
        return best
    if isinstance(expr, Conj):
        worst = start
        for part in expr.parts:
            end = _earliest_end(part, start, positions)
            if end > worst:
                worst = end
        return worst
    if isinstance(expr, Top):
        return start
    if isinstance(expr, Zero):
        return _NEVER
    raise TypeError(f"unknown expression: {expr!r}")  # pragma: no cover


def satisfies_by_definition(trace: Trace, expr: Expr) -> bool:
    """Semantics 1-5 read literally: every ``Seq`` tries every split.

    The reference the tests hold :func:`satisfies` to; nothing at run
    time calls it.
    """
    memo: dict[tuple[int, int, int], bool] = {}
    return _satisfies(trace.events, 0, len(trace.events), expr, memo)


def _satisfies(
    events: tuple[Event, ...],
    start: int,
    end: int,
    expr: Expr,
    memo: dict,
) -> bool:
    key = (start, end, id(expr))
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = _satisfies_uncached(events, start, end, expr, memo)
    memo[key] = result
    return result


def _satisfies_uncached(events, start, end, expr, memo) -> bool:
    if isinstance(expr, Top):
        return True
    if isinstance(expr, Zero):
        return False
    if isinstance(expr, Atom):
        target = expr.event
        return any(events[i] == target for i in range(start, end))
    if isinstance(expr, Choice):
        return any(_satisfies(events, start, end, p, memo) for p in expr.parts)
    if isinstance(expr, Conj):
        return all(_satisfies(events, start, end, p, memo) for p in expr.parts)
    if isinstance(expr, Seq):
        return _satisfies_seq(events, start, end, expr.parts, 0, memo)
    raise TypeError(f"unknown expression: {expr!r}")  # pragma: no cover


def _satisfies_seq(events, start, end, parts, part_index, memo) -> bool:
    if part_index == len(parts) - 1:
        return _satisfies(events, start, end, parts[part_index], memo)
    head = parts[part_index]
    for split in range(start, end + 1):
        if _satisfies(events, start, split, head, memo) and _satisfies_seq(
            events, split, end, parts, part_index + 1, memo
        ):
            return True
    return False


def universe(bases: Iterable[Event], include_partial: bool = True) -> Iterator[Trace]:
    """Enumerate ``U_E`` restricted to a finite base alphabet.

    Every base event independently either does not occur, occurs
    positively, or occurs complemented; the present events may appear
    in any relative order.  With ``include_partial=False`` only the
    maximal traces (``U_T``) are produced.

    >>> from repro.algebra.symbols import Event
    >>> len(list(universe([Event("e"), Event("f")])))
    15
    """
    base_list = sorted(bases_of(bases), key=Event.sort_key)
    for signs in product((None, False, True), repeat=len(base_list)):
        if not include_partial and None in signs:
            continue
        chosen = [
            base.complement if negated else base
            for base, negated in zip(base_list, signs)
            if negated is not None
        ]
        for ordering in permutations(chosen):
            yield Trace(ordering)


def maximal_universe(bases: Iterable[Event]) -> Iterator[Trace]:
    """Enumerate ``U_T``: every base event settles as itself or complement."""
    return universe(bases, include_partial=False)


def universe_size(n_bases: int, include_partial: bool = True) -> int:
    """The size of the finite universe, for documentation and tests."""
    from math import comb, factorial

    if not include_partial:
        return (2**n_bases) * factorial(n_bases)
    total = 0
    for k in range(n_bases + 1):
        total += comb(n_bases, k) * (2**k) * factorial(k)
    return total
