"""The automaton-per-dependency baseline (Section 6 / Attie et al.)."""

from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler import CentralizedScheduler
from repro.scheduler.automata import automata_size
from repro.temporal.guards import ResidualAutomaton

E, F, G = Event("e"), Event("f"), Event("g")


def automaton(text):
    return ResidualAutomaton(to_normal_form(parse(text)))


def run(auto, table, events):
    state = auto.root
    for event in events:
        state = table[state].get(event, state)
    return state


class TestDependencyAutomaton:
    def test_figure_2_precedes_has_five_states(self):
        """Figure 2 left: D_<, e-state, f-state, T, 0."""
        assert len(automaton("~e + ~f + e . f").minimized()) == 5

    def test_figure_2_arrow_has_five_states(self):
        # ~e+f, f (after e), ~e (after ~f), T, 0
        assert len(automaton("~e + f").minimized()) == 5

    def test_transitions_match_residuation(self):
        from repro.algebra.residuation import residuate_trace

        dep = parse("~e + ~f + e . f")
        auto = automaton("~e + ~f + e . f")
        table = auto.minimized()
        for seq in ([E, F], [F, E], [~E], [F, ~E], [E, ~F]):
            state = run(auto, table, seq)
            residual = residuate_trace(dep, seq)
            assert auto.accepting(state) == (repr(residual) == "T")
            assert auto.dead(state) == (repr(residual) == "0")

    def test_foreign_events_self_loop(self):
        auto = automaton("~e + f")
        assert auto.step(auto.root, G) is auto.root
        assert run(auto, auto.minimized(), [G]) is auto.root

    def test_dead_state_absorbing(self):
        auto = automaton("e . f")
        table = auto.minimized()
        dead = run(auto, table, [F])
        assert auto.dead(dead)
        assert table[dead][E] is dead

    def test_semantic_dedup_merges_equivalent_residuals(self):
        # e + e.f and its residual e (by f or ~f) are both "e decides":
        # minimization merges them
        auto = automaton("e + e . f")
        assert len(auto.minimized()) <= 4
        assert len(auto.minimized()) < len(auto.transitions)

    def test_transition_table_is_total_over_alphabet(self):
        auto = automaton("~e + ~f + e . f")
        alphabet = tuple(auto.transitions[auto.root])
        assert alphabet == (E, ~E, F, ~F)
        for row in auto.minimized().values():
            assert tuple(row) == alphabet


class TestAutomataBaseline:
    """The baseline runs the centralized scheduler's procedure; what
    it adds is the size of the automata that scheduler walks."""

    def test_exposes_compile_metrics(self):
        deps = [parse("~e + ~f + e . f"), parse("~e + f")]
        assert automata_size(deps) == (10, 40)
        assert automata_size(deps + deps[:1]) == (10, 40)
        assert automata_size([]) == (0, 0)

    def test_automaton_state_tracks_run(self):
        dep = parse("~e + f")
        sched = CentralizedScheduler([dep])
        sched.run([AgentScript("s", [ScriptedAttempt(0.0, ~E)])])
        cursor = sched.cursors[dep]
        assert cursor.closure.accepting(cursor.state)
