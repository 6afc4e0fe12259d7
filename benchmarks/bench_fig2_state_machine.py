"""Experiment F2: regenerate Figure 2's scheduler state machines.

Figure 2 draws the residuation state graphs of ``D_<`` and ``D_->``.
This bench rebuilds both via the residual automaton (minimized, which
merges nothing in either), asserts every state and transition the
figure shows, and times the closure.
"""

from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.temporal.guards import ResidualAutomaton

from benchmarks.helpers import clear_symbolic_caches

E, F = Event("e"), Event("f")
D_PREC = parse("~e + ~f + e . f")
D_ARROW = parse("~e + f")


def _state_graph(dependency):
    auto = ResidualAutomaton(to_normal_form(dependency))
    table = auto.minimized()
    labels = {i: repr(expr) for i, expr in enumerate(table)}
    edges = {
        (repr(src), repr(ev), repr(dst))
        for src, row in table.items()
        for ev, dst in row.items()
        if src is not dst  # omit self-loops for the figure view
    }
    return auto, labels, edges


def test_bench_figure2_precedes(benchmark):
    def build():
        clear_symbolic_caches()
        return _state_graph(D_PREC)

    auto, labels, edges = benchmark(build)
    # Figure 2 left: initial state D_<, then e-successor (f + ~f),
    # f-successor (~e), and the sinks T and 0.
    assert sorted(labels.values()) == sorted(
        ["~e + ~f + e . f", "f + ~f", "~e", "T", "0"]
    )
    assert ("~e + ~f + e . f", "e", "f + ~f") in edges
    assert ("~e + ~f + e . f", "f", "~e") in edges
    assert ("~e + ~f + e . f", "~e", "T") in edges
    assert ("~e + ~f + e . f", "~f", "T") in edges
    assert ("f + ~f", "f", "T") in edges
    assert ("f + ~f", "~f", "T") in edges
    assert ("~e", "~e", "T") in edges
    assert ("~e", "e", "0") in edges


def test_bench_figure2_arrow(benchmark):
    def build():
        clear_symbolic_caches()
        return _state_graph(D_ARROW)

    auto, labels, edges = benchmark(build)
    # Figure 2 right: D_->, e-successor f, ~f-successor ~e, sinks.
    assert sorted(labels.values()) == sorted(["~e + f", "f", "~e", "T", "0"])
    assert ("~e + f", "e", "f") in edges
    assert ("~e + f", "~f", "~e") in edges
    assert ("~e + f", "~e", "T") in edges
    assert ("~e + f", "f", "T") in edges
    assert ("f", "f", "T") in edges
    assert ("f", "~f", "0") in edges
    assert ("~e", "e", "0") in edges
    assert ("~e", "~e", "T") in edges


def test_bench_example5_transition_narrative(benchmark):
    """Example 5's narrative: after f under D_<, only ~e is possible."""
    from repro.algebra.residuation import residuate_trace

    def walk():
        clear_symbolic_caches()
        return (
            residuate_trace(D_PREC, [F, ~E]),
            residuate_trace(D_PREC, [F, E]),
            residuate_trace(D_PREC, [E, F]),
        )

    discharged, dead, ordered = benchmark(walk)
    assert repr(discharged) == "T"
    assert repr(dead) == "0"
    assert repr(ordered) == "T"
