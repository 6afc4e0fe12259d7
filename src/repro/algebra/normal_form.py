"""Normal form for residuation (paper Section 3.4).

The residuation rewrite rules "assume that the given expression is in
a form where there is no ``|`` or ``+`` in the scope of ``.``".  This
module rewrites any expression into that form using the distribution
laws the trace semantics validates:

* ``(A + B) . C  =  A . C + B . C``     (and symmetrically on the right)
* ``(A | B) . C  =  (A . C) | (B . C)`` (and symmetrically)

Distribution of ``.`` over ``|`` is sound here because satisfaction is
closed under extending a trace on either side: if a short prefix
satisfies ``A`` and a longer one satisfies ``B``, the longer prefix
satisfies both, so a single split point always exists.  (The property
tests in ``tests/algebra/test_normal_form.py`` check this against the
model-theoretic semantics.)

The resulting expressions combine *sequences of atoms* with ``+`` and
``|`` only, which is the domain on which Rules 1-8 of
:mod:`repro.algebra.residuation` operate.

The same form read as a disjunction of ``(events, edges)`` terms
(:func:`expression_terms`) is the one engine for every joint question:
:func:`joint_completion_exists` backtracks over one term per
expression, which decides satisfiability, attainability, the
centralized schedulers' acceptance and, with the candidate's terms
broken, entailment.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable

from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Expr,
    Seq,
    Top,
    Zero,
)
from repro.algebra.symbols import Event


def is_normal_form(expr: Expr) -> bool:
    """True when no ``+`` or ``|`` occurs under a ``.``."""
    if isinstance(expr, (Atom, Top, Zero)):
        return True
    if isinstance(expr, Seq):
        return all(isinstance(p, Atom) for p in expr.parts)
    if isinstance(expr, (Choice, Conj)):
        return all(is_normal_form(p) for p in expr.parts)
    raise TypeError(f"unknown expression: {expr!r}")  # pragma: no cover


@lru_cache(maxsize=4096)
def to_normal_form(expr: Expr) -> Expr:
    """Distribute ``.`` over ``+`` and ``|`` until none remain under ``.``.

    >>> from repro.algebra.parser import parse
    >>> to_normal_form(parse("(e + f) . g"))
    e . g + f . g
    """
    if isinstance(expr, (Atom, Top, Zero)):
        return expr
    if isinstance(expr, (Choice, Conj)):
        cls = Choice if isinstance(expr, Choice) else Conj
        return cls.of([to_normal_form(p) for p in expr.parts])
    if isinstance(expr, Seq):
        return _normalize_seq([to_normal_form(p) for p in expr.parts])
    raise TypeError(f"unknown expression: {expr!r}")  # pragma: no cover


def _normalize_seq(parts: list[Expr]) -> Expr:
    """Combine already-normalized parts under ``.`` by distribution."""
    # First distribute choices: pick one summand from every Choice part.
    if any(isinstance(p, Choice) for p in parts):
        option_lists = [
            list(p.parts) if isinstance(p, Choice) else [p] for p in parts
        ]
        return Choice.of(
            [_normalize_seq(list(pick)) for pick in product(*option_lists)]
        )
    # Then distribute conjunctions the same way.
    if any(isinstance(p, Conj) for p in parts):
        option_lists = [
            list(p.parts) if isinstance(p, Conj) else [p] for p in parts
        ]
        return Conj.of(
            [_normalize_seq(list(pick)) for pick in product(*option_lists)]
        )
    return Seq.of(parts)


def expression_terms(expr: Expr):
    """The DNF reading of a normal-form expression.

    Yields ``(events, edges)`` per disjunct: the signed events that
    must occur and the ordered pairs among them (sequence order).
    Inconsistent disjuncts (an event with its complement) are skipped.
    Satisfaction of such a term is monotone under inserting foreign
    events anywhere, so a trace satisfies the expression iff it covers
    some term's events in some linearization of its edges.
    """
    if isinstance(expr, Zero):
        return
    if isinstance(expr, Top):
        yield frozenset(), ()
        return
    if isinstance(expr, Atom):
        yield frozenset({expr.event}), ()
        return
    if isinstance(expr, Seq):
        atoms = tuple(p.event for p in expr.parts)
        yield frozenset(atoms), tuple(zip(atoms, atoms[1:]))
        return
    if isinstance(expr, Choice):
        for part in expr.parts:
            yield from expression_terms(part)
        return
    if isinstance(expr, Conj):
        option_lists = [list(expression_terms(p)) for p in expr.parts]
        for combo in product(*option_lists):
            events: set[Event] = set()
            edges: list = []
            consistent = True
            for evs, eds in combo:
                events |= evs
                edges.extend(eds)
            for ev in events:
                if ev.complement in events:
                    consistent = False
                    break
            if consistent:
                yield frozenset(events), tuple(edges)
        return
    raise TypeError(f"unknown expression: {expr!r}")  # pragma: no cover


def _edges_acyclic(edges: Iterable[tuple[Event, Event]]) -> bool:
    graph: dict[Event, list[Event]] = {}
    for src, dst in edges:
        graph.setdefault(src, []).append(dst)
    state: dict[Event, int] = {}

    def visit(node: Event) -> bool:
        mark = state.get(node, 0)
        if mark == 1:
            return False  # back edge
        if mark == 2:
            return True
        state[node] = 1
        for nxt in graph.get(node, ()):
            if not visit(nxt):
                return False
        state[node] = 2
        return True

    return all(visit(node) for node in list(graph))


def _breakers(events: frozenset[Event], edges: tuple) -> list:
    """The ways a maximal trace fails the term ``(events, edges)``, each
    itself a term: the complement of one of its events occurs, or both
    ends of one of its edges occur in reverse order."""
    return [
        (frozenset({ev.complement}), ())
        for ev in sorted(events, key=Event.sort_key)
    ] + [(frozenset({a, b}), ((b, a),)) for a, b in edges]


class StepBudget:
    """The steps one :func:`joint_completion_exists` search may take:
    ``taken`` counts them, and the step past ``limit`` raises
    :class:`ValueError` naming the count instead of searching on."""

    def __init__(self, limit: int):
        self.limit, self.taken = limit, 0

    def take(self) -> None:
        self.taken += 1
        if self.taken > self.limit:
            raise ValueError(
                f"the joint-completion search took {self.limit} steps, "
                f"its budget, without an answer"
            )


def joint_completion_exists(
    residuals: tuple[Expr, ...],
    require: Event | None = None,
    allowed_positive: frozenset[Event] | None = None,
    breaking: Expr | None = None,
    budget: StepBudget | None = None,
) -> bool:
    """Can all residuals be discharged by one shared completion?

    Per-dependency satisfiability is not enough: two residuals may
    individually admit completions that contradict each other on a
    shared event (mutual exclusion is the canonical case).  A joint
    completion exists iff each residual can select one DNF term such
    that the selected sign requirements are consistent across
    residuals and the union of their sequence constraints is acyclic
    -- exact for this algebra because term satisfaction is monotone
    under inserting foreign events.  ``require`` restricts the check
    to completions containing the given signed event.

    ``allowed_positive`` restricts which *positive* events a
    completion may rely on: a scheduler can always settle a base
    negatively (the task abandons the transition) but cannot conjure a
    positive occurrence unless the event is pending, triggerable, or
    guaranteed -- passing that set makes acceptance honest about
    attainability.

    ``breaking`` restricts the check to completions that fail that
    expression: each of its DNF terms contributes the list of its
    breakers (:func:`_breakers`), one of which the completion must
    select, so the residuals entail ``breaking`` iff no such
    completion exists.  The breaker lists go ahead of residual lists
    of equal length, so a search that refutes the candidate commits
    to the candidate's failure first.  ``budget`` counts the
    backtracking steps and stops the search past its limit.
    """

    def usable(term) -> bool:
        if allowed_positive is None:
            return True
        events, _edges = term
        return all(ev.negated or ev in allowed_positive for ev in events)

    term_lists = [] if breaking is None else [
        _breakers(*term) for term in expression_terms(to_normal_form(breaking))
    ]
    for r in residuals:
        nf = to_normal_form(r)
        if isinstance(nf, Zero):
            return False
        if not isinstance(nf, Top):
            term_lists.append([t for t in expression_terms(nf) if usable(t)])
    if require is not None:
        term_lists.append([(frozenset({require}), ())])
    if any(not terms for terms in term_lists):
        return False
    term_lists.sort(key=len)

    def backtrack(index: int, signs: dict[Event, Event], edges: tuple) -> bool:
        if budget is not None:
            budget.take()
        if index == len(term_lists):
            return _edges_acyclic(edges)
        for events, term_edges in term_lists[index]:
            chosen = dict(signs)
            conflict = False
            for ev in events:
                previous = chosen.get(ev.base)
                if previous is not None and previous != ev:
                    conflict = True
                    break
                chosen[ev.base] = ev
            if conflict:
                continue
            combined = edges + term_edges
            if term_edges and not _edges_acyclic(combined):
                continue
            if backtrack(index + 1, chosen, combined):
                return True
        return False

    return backtrack(0, {}, ())
