"""Experiment SC2: automata blow-up vs symbolic guard size.

Section 6 on the prior automata approach [2]: "It avoids generating
product automata, but the individual automata themselves can be quite
large."  We grow a family of dependencies (pairwise precedence over k
tasks, conjoined) and compare the minimized residual automaton's state
count against the synthesized guards' total cube/literal counts: the
automaton grows combinatorially with the alphabet while the symbolic
guards stay compact.
"""

import pytest

from repro.algebra.expressions import Conj
from repro.algebra.symbols import Event
from repro.scheduler.automata import automata_size
from repro.temporal.guards import workflow_guards
from repro.workflows.primitives import klein_precedes

from benchmarks.helpers import clear_symbolic_caches


def staircase(k: int):
    """``t0 < t1 | t1 < t2 | ... `` as ONE conjoined dependency --
    the worst case for a single dependency automaton."""
    events = [Event(f"t{i}") for i in range(k)]
    return Conj.of(
        [klein_precedes(a, b) for a, b in zip(events, events[1:])]
    ), events


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bench_automaton_states(benchmark, k):
    dep, _events = staircase(k)

    def build():
        clear_symbolic_caches()
        return automata_size([dep])

    states, _transitions = benchmark.pedantic(build, rounds=3, iterations=1)
    assert states >= 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bench_guard_sizes(benchmark, k):
    dep, events = staircase(k)

    def build():
        clear_symbolic_caches()
        return workflow_guards([dep])

    table = benchmark.pedantic(build, rounds=3, iterations=1)
    assert all(not g.is_false for g in table.values())


def test_bench_blowup_shape(benchmark):
    """The centralized precompiled object vs the per-actor state.

    The automaton's transition table (the object the centralized
    scheduler of [2] must hold and consult at one site) grows
    super-linearly with the conjoined dependency's alphabet -- Figure
    2's 5 states over 4 letters become dozens of states over 8.  The
    event-centric compilation shards the same information: no single
    actor ever holds more than its own event's guard, a strictly and
    increasingly smaller object.  (Honest note, recorded in
    EXPERIMENTS.md: the *sum* of all guard sizes for densely conjoined
    dependencies is not small -- locality, not total size, is the
    win.)
    """

    def sweep():
        rows = []
        for k in (2, 3, 4):
            dep, events = staircase(k)
            clear_symbolic_caches()
            states, transitions = automata_size([dep])
            table = workflow_guards([dep])
            per_event_literals = max(g.literal_count() for g in table.values())
            rows.append(
                {
                    "k": k,
                    "automaton_states": states,
                    "automaton_transitions": transitions,
                    "max_guard_literals": per_event_literals,
                    "total_guard_cubes": sum(
                        g.cube_count() for g in table.values()
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_k = {row["k"]: row for row in rows}
    # the automaton at least doubles with each extra task
    assert by_k[3]["automaton_states"] >= 2 * by_k[2]["automaton_states"]
    assert by_k[4]["automaton_states"] >= 2 * by_k[3]["automaton_states"]
    # the central table always exceeds any one actor's guard, and the
    # absolute gap widens with k (the locality claim)
    gaps = {
        k: by_k[k]["automaton_transitions"] - by_k[k]["max_guard_literals"]
        for k in (2, 3, 4)
    }
    for k in (2, 3, 4):
        assert (
            by_k[k]["automaton_transitions"] > by_k[k]["max_guard_literals"]
        )
    assert gaps[4] > gaps[3] > gaps[2]
