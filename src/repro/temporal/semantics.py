"""Exact point semantics of ``T`` (paper Semantics 7-14).

``holds(u, i, F)`` decides ``u |=_i F`` literally as the paper defines
it, on *finite maximal* traces:

* Semantics 7:  an atom holds at ``i`` iff the event is among the
  first ``i`` events (indices are 1-based in the paper; ``i`` counts
  how many events have occurred, so ``i = 0`` is "nothing yet").
* Semantics 8/10/11: pointwise disjunction/conjunction/``T``.
* Semantics 9:  ``E1 . E2`` holds at ``i`` iff some split ``j <= i``
  has ``E1`` at ``j`` on ``u`` and ``E2`` at ``i - j`` on the suffix
  ``u^j``.
* Semantics 12/13: ``[]``/``<>`` quantify over ``j >= i`` up to the end
  of the (finite, maximal) trace.
* Semantics 14: ``!`` is point negation.

This module is the ground truth the cube algebra and the guard
synthesizer are validated against; it is deliberately direct rather
than fast.
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.symbols import Event
from repro.algebra.traces import Trace, maximal_universe
from repro.temporal.formulas import (
    Always,
    Eventually,
    NotYet,
    TAtom,
    TChoice,
    TConj,
    TFormula,
    TSeq,
    TTop,
    TZero,
)


def holds(trace: Trace, index: int, formula: TFormula) -> bool:
    """Decide ``u |=_i F`` (Semantics 7-14).

    ``index`` ranges over ``0 .. len(trace)``; the trace should be
    maximal for the ``[]``/``<>`` readings to match the paper (the
    top-level calls of the semantics are made with maximal traces).
    """
    if not 0 <= index <= len(trace):
        raise ValueError(f"index {index} out of range for {trace!r}")
    memo: dict = {}
    return _holds(trace.events, 0, index, len(trace.events), formula, memo)


def _holds(events, offset, index, end, formula, memo) -> bool:
    """``u^offset |=_index formula`` where the suffix runs to ``end``."""
    key = (offset, index, id(formula))
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = _holds_uncached(events, offset, index, end, formula, memo)
    memo[key] = result
    return result


def _holds_uncached(events, offset, index, end, formula, memo) -> bool:
    if isinstance(formula, TTop):
        return True
    if isinstance(formula, TZero):
        return False
    if isinstance(formula, TAtom):
        # Semantics 7: the event occurred among the first ``index``
        # events of the current suffix.
        limit = min(offset + index, end)
        return any(events[k] == formula.event for k in range(offset, limit))
    if isinstance(formula, TChoice):
        return any(
            _holds(events, offset, index, end, p, memo) for p in formula.parts
        )
    if isinstance(formula, TConj):
        return all(
            _holds(events, offset, index, end, p, memo) for p in formula.parts
        )
    if isinstance(formula, TSeq):
        return _holds_seq(events, offset, index, end, formula.parts, 0, memo)
    horizon = end - offset  # largest meaningful index on this suffix
    if isinstance(formula, Always):
        return all(
            _holds(events, offset, j, end, formula.sub, memo)
            for j in range(index, horizon + 1)
        )
    if isinstance(formula, Eventually):
        return any(
            _holds(events, offset, j, end, formula.sub, memo)
            for j in range(index, horizon + 1)
        )
    if isinstance(formula, NotYet):
        return not _holds(events, offset, index, end, formula.sub, memo)
    raise TypeError(f"unknown formula: {formula!r}")  # pragma: no cover


def _holds_seq(events, offset, index, end, parts, part_index, memo) -> bool:
    # Semantics 9, n-ary: exists j <= index with part at j and the rest
    # at index - j on the suffix from j.
    if part_index == len(parts) - 1:
        return _holds(events, offset, index, end, parts[part_index], memo)
    for j in range(index + 1):
        if _holds(events, offset, j, end, parts[part_index], memo) and _holds_seq(
            events, offset + j, index - j, end, parts, part_index + 1, memo
        ):
            return True
    return False


def t_equivalent(
    left: TFormula,
    right: TFormula,
    bases: Iterable[Event] | None = None,
) -> bool:
    """Semantic equivalence of two ``T`` formulas on maximal traces.

    Evaluates both formulas at every point of every maximal trace over
    the covering base alphabet.  Exponential in the alphabet size, so
    meant for the small alphabets of dependencies and tests.

    >>> from repro.algebra.symbols import Event
    >>> from repro.temporal.formulas import Always, NotYet, TAtom, T_TOP, TChoice
    >>> e = Event("e")
    >>> t_equivalent(TChoice.of([NotYet(TAtom(e)), Always(TAtom(e))]), T_TOP)
    True
    """
    base_set = set(b.base for b in (bases or ()))
    base_set |= left.bases() | right.bases()
    if not base_set:
        # No events mentioned: evaluate on a one-event dummy universe.
        base_set = {Event("dummy_base")}
    for u in maximal_universe(base_set):
        for i in range(len(u) + 1):
            if holds(u, i, left) != holds(u, i, right):
                return False
    return True


def t_entails(
    left: TFormula,
    right: TFormula,
    bases: Iterable[Event] | None = None,
) -> bool:
    """Pointwise entailment of ``T`` formulas on maximal traces."""
    base_set = set(b.base for b in (bases or ()))
    base_set |= left.bases() | right.bases()
    if not base_set:
        base_set = {Event("dummy_base")}
    for u in maximal_universe(base_set):
        for i in range(len(u) + 1):
            if holds(u, i, left) and not holds(u, i, right):
                return False
    return True
