"""Rendering: DOT and text output."""

from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler import DistributedScheduler
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.guards import ResidualAutomaton, workflow_guards
from repro.viz import (
    automaton_to_dot,
    dependency_to_dot,
    guards_to_text,
    result_to_text,
    workflow_to_dot,
)
from repro.workloads.scenarios import make_travel_booking

E, F = Event("e"), Event("f")


class TestAutomatonDot:
    def test_contains_all_states(self):
        auto = ResidualAutomaton(to_normal_form(parse("~e + ~f + e . f")))
        dot = automaton_to_dot(auto, title="D_<")
        assert dot.startswith("digraph")
        assert dot.endswith("}")
        assert dot.count("shape=") == len(auto.minimized()) == 5
        assert "D_<" in dot

    def test_accepting_and_dead_shapes(self):
        dot = dependency_to_dot(parse("~e + f"))
        assert "doublecircle" in dot  # the T state
        assert "octagon" in dot       # the 0 state

    def test_edges_merge_labels(self):
        dot = dependency_to_dot(parse("~e + ~f + e . f"))
        # ~e and ~f both lead to T from the initial state: one edge
        assert '"~e, ~f"' in dot

    def test_escapes_quotes(self):
        auto = ResidualAutomaton(to_normal_form(parse("~e + f")))
        dot = automaton_to_dot(auto, title='say "hi"')
        assert '\\"hi\\"' in dot


class TestWorkflowDot:
    def test_travel_workflow_renders(self):
        workflow = make_travel_booking("success").workflow
        dot = workflow_to_dot(workflow)
        assert "digraph workflow" in dot
        assert "s_buy" in dot and "s_cancel" in dot
        # triggerable events are highlighted
        assert "lightblue" in dot
        # sites become clusters
        assert "cluster_" in dot
        assert "airline" in dot

    def test_dependencies_become_boxes(self):
        workflow = make_travel_booking("success").workflow
        dot = workflow_to_dot(workflow)
        assert dot.count("shape=box") == len(workflow.dependencies)


class TestTextRenderers:
    def test_result_timeline(self):
        sched = DistributedScheduler([parse("~e + ~f + e . f")])
        result = sched.run(
            [AgentScript("s", [ScriptedAttempt(0.0, F), ScriptedAttempt(5.0, ~E)])]
        )
        text = result_to_text(result)
        assert "~e" in text and "f" in text
        assert "*" in text  # occurrence markers
        assert "ok=True" in text

    def test_empty_result(self):
        from repro.scheduler.events import ExecutionResult

        assert "no events" in result_to_text(ExecutionResult())

    def test_guards_table(self):
        table = workflow_guards([parse("~e + ~f + e . f")])
        text = guards_to_text(table)
        assert "G(" in text
        assert "!f" in text
        assert text.count("\n") == 3  # four events, one per line
