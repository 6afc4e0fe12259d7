"""``ResidualAutomaton`` is Figure 2: its walk is iterated residuation,
its ``required`` table is the path-enumerating rule, and ``minimized()``
is a quotient that changes no verdict.

The definitional readings stay the references: ``residuate_trace``
(Rules 1-8 applied one event at a time), ``required_events`` (an
``accepting_paths`` enumeration, factorial in the base count) and, for
the state counts SC2 reports, the numbers in EXPERIMENTS.md.
"""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.expressions import Conj
from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.residuation import residuate, residuate_trace
from repro.algebra.symbols import Event
from repro.scheduler.monitors import RequirementMonitor, required_events
from repro.temporal.guards import (
    ResidualAutomaton,
    ResidualCursor,
    clear_synthesis_caches,
)
from repro.workflows.primitives import klein_precedes

from .strategies import BASES, expressions, signed_events


@pytest.fixture(autouse=True, scope="module")
def memo_tables_of_this_intern_table():
    """``is`` below means *the* interned node (see
    ``test_monitor_equivalence.py``)."""
    residuate.cache_clear()
    to_normal_form.cache_clear()
    clear_synthesis_caches()


#: ``h`` is foreign to every generated dependency; a list may repeat an
#: event or follow it with its complement
SEQUENCES = st.lists(signed_events(BASES + [Event("h")]), max_size=8)


@given(expressions(), SEQUENCES)
def test_walk_is_iterated_residuation(dependency, sequence):
    cursor = ResidualCursor(dependency)
    automaton = cursor.closure
    for taken in range(len(sequence) + 1):
        if taken:
            cursor.step(sequence[taken - 1])
        residual = residuate_trace(dependency, sequence[:taken])
        assert cursor.residual() is residual
        assert automaton.accepting(cursor.state) == (repr(residual) == "T")
        assert automaton.dead(cursor.state) == (repr(residual) == "0")
        assert cursor.state in automaton.transitions


@given(expressions(), SEQUENCES)
def test_minimized_changes_no_verdict(dependency, sequence):
    automaton = ResidualAutomaton(to_normal_form(dependency))
    table = automaton.minimized()
    assert automaton.root in table
    assert len(table) <= len(automaton.transitions)
    raw = small = automaton.root
    for event in sequence:
        raw = automaton.step(raw, event)
        small = table[small].get(event, small)  # foreign to the root
        assert automaton.accepting(small) == automaton.accepting(raw)
        assert automaton.dead(small) == automaton.dead(raw)


def staircase(k):
    events = [Event(f"t{i}") for i in range(k)]
    return Conj.of([klein_precedes(a, b) for a, b in zip(events, events[1:])])


@pytest.mark.parametrize("dependency, raw, states, transitions", [
    (parse("~e + ~f + e . f"), 5, 5, 20),  # Figure 2, left
    (parse("~e + f"), 5, 5, 20),           # Figure 2, right
    (staircase(2), 5, 5, 20),              # SC2
    (staircase(3), 13, 11, 66),
    (staircase(4), 30, 24, 192),
])
def test_sc2_state_counts(dependency, raw, states, transitions):
    automaton = ResidualAutomaton(to_normal_form(dependency))
    table = automaton.minimized()
    assert len(automaton.transitions) == raw
    assert len(table) == states
    assert sum(len(row) for row in table.values()) == transitions


def test_an_unsatisfiable_state_is_not_the_dead_state():
    """``dead`` is the literal ``0`` in both views, so a state no path
    accepts from but that is not ``0`` keeps its own block (the
    verdicts would differ on the empty sequence otherwise)."""
    automaton = ResidualAutomaton(to_normal_form(parse("(e . f) | (f . e)")))
    assert automaton.required[automaton.root] is None
    assert not automaton.dead(automaton.root)
    assert len(automaton.minimized()) == 2


@given(expressions())
def test_required_is_the_path_rule_at_every_state(dependency):
    automaton = ResidualAutomaton(to_normal_form(dependency))
    for state, required in automaton.required.items():
        expected = required_events(state, frozenset())
        if expected is None:
            assert required is None, state
        else:
            assert frozenset(required) == expected, state
            assert list(required) == sorted(required, key=Event.sort_key)


def test_a_nine_base_monitor_starts_at_once():
    """Enumerating the accepting paths of ``~e + a.b.c.d.f.g.h.i`` per
    closure state took minutes; the bottom-up pass is one visit each."""
    dependency = parse("~e + a . b . c . d . f . g . h . i")
    triggered = []
    started = time.perf_counter()
    monitor = RequirementMonitor(
        [dependency], frozenset({Event("a")}), triggered.append
    )
    monitor.evaluate()
    monitor.observe(Event("e"))
    assert time.perf_counter() - started < 1.0
    assert triggered == [Event("a")]
