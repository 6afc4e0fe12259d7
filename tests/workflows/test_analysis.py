"""Static analysis of workflow specifications."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.algebra.traces import maximal_universe, satisfies
from repro.workflows import analysis
from repro.workflows.analysis import (
    IMPLIES_STEP_BUDGET,
    AnalysisReport,
    analyze,
    dependency_conflicts,
    forbidden_events,
    implies,
    mandatory_events,
    redundant_dependencies,
    satisfiable,
    vacuous,
)
from repro.workflows.loader import load
from repro.workflows.spec import Workflow

from tests.properties.strategies import expressions

E, F, G = Event("e"), Event("f"), Event("g")
FIVE_BASES = [E, F, G, Event("h"), Event("k")]


def satisfying_traces(dependencies, *more):
    """Every maximal trace over the bases the dependencies and ``more``
    mention that satisfies every dependency."""
    bases = set()
    for dep in [*dependencies, *more]:
        bases |= dep.bases()
    return [
        u for u in maximal_universe(bases)
        if all(satisfies(u, d) for d in dependencies)
    ]


def implies_by_enumeration(dependencies, candidate):
    """``implies`` as it is defined: no maximal trace over the mentioned
    bases satisfies every dependency and not the candidate."""
    return all(
        satisfies(u, candidate)
        for u in satisfying_traces(dependencies, candidate)
    )


class TestSatisfiability:
    def test_satisfiable_spec(self):
        assert satisfiable([parse("~e + f"), parse("~f + e")])

    def test_unsatisfiable_pair(self):
        assert not satisfiable([parse("e . f"), parse("f . e")])

    def test_vacuous_spec(self):
        # all dependencies discharged by the all-negative run
        assert vacuous([parse("~e + f"), parse("~e + ~f + e . f")])

    def test_non_vacuous_spec(self):
        # a bare obligation forces work
        assert not vacuous([parse("e . f")])


class TestMandatoryAndForbidden:
    def test_mandatory_in_obligation(self):
        assert mandatory_events([parse("e . f")]) == frozenset({E, F})

    def test_nothing_mandatory_in_conditionals(self):
        assert mandatory_events([parse("~e + f")]) == frozenset()

    def test_forbidden_event(self):
        # ~e as a dependency forbids e outright
        assert forbidden_events([parse("~e")]) == frozenset({E})

    def test_conditionally_blocked_not_forbidden(self):
        # e is fine as long as f follows
        assert forbidden_events([parse("~e + f")]) == frozenset()

    def test_jointly_forbidden(self):
        # e needs f (arrow), but f is forbidden: e becomes forbidden too
        deps = [parse("~e + f"), parse("~f")]
        assert forbidden_events(deps) == frozenset({E, F})

    def test_a_later_complement_keeps_the_event_optional(self):
        # <f ~e> satisfies the dependency: ~e may occur, only not first
        assert mandatory_events([parse("f . ~e + e")]) == frozenset()

    @given(st.lists(expressions(bases=FIVE_BASES), min_size=1, max_size=3))
    def test_mandatory_and_forbidden_agree_with_the_universe_filter(
        self, dependencies
    ):
        traces = satisfying_traces(dependencies)
        positive = {
            ev for dep in dependencies for ev in dep.alphabet()
            if not ev.negated
        }
        if not traces:
            mandatory = forbidden = set()
        else:
            mandatory = {ev for ev in positive if all(ev in u for u in traces)}
            forbidden = {
                ev for ev in positive if not any(ev in u for u in traces)
            }
        assert mandatory_events(dependencies) == mandatory
        assert forbidden_events(dependencies) == forbidden


class TestImplicationAndRedundancy:
    def test_implies_weaker_dependency(self):
        # e < f plus "e requires f" implies e -> f
        assert implies([parse("~e + f")], parse("~e + f + g"))

    def test_does_not_imply_unrelated(self):
        assert not implies([parse("~e + f")], parse("~g"))

    def test_redundant_duplicate(self):
        deps = [parse("~e + f"), parse("~e + f")]
        assert redundant_dependencies(deps) == deps

    def test_redundant_weaker_form(self):
        strong = parse("~e + ~f + e . f")  # e < f
        weak = parse("~e + ~f + e . f + g")
        assert weak in redundant_dependencies([strong, weak])

    def test_independent_dependencies_not_redundant(self):
        deps = [parse("~e + f"), parse("~f + g")]
        assert redundant_dependencies(deps) == []

    @given(
        st.lists(expressions(bases=FIVE_BASES), max_size=3),
        expressions(bases=FIVE_BASES),
    )
    def test_implies_agrees_with_the_universe_filter(
        self, dependencies, candidate
    ):
        assert implies(dependencies, candidate) == implies_by_enumeration(
            dependencies, candidate
        )

    def test_implies_answers_twelve_independent_arrows(self):
        # their joint states number 3^12, but refuting arrow 0 commits
        # to e0 and ~f0 first, which arrow 0 itself rules out at once
        deps = [parse(f"~e{k} + f{k}") for k in range(12)]
        assert implies(deps, deps[0])
        assert analysis._entailment(deps, deps[0]) == (True, 3)

    def test_implies_refuses_past_step_budget(self, monkeypatch):
        monkeypatch.setattr(analysis, "IMPLIES_STEP_BUDGET", 2)
        deps = [parse(f"~e{k} + f{k}") for k in range(12)]
        with pytest.raises(ValueError, match="took 2 steps, its budget"):
            implies(deps, deps[0])

    def test_precede_example_checks_redundancy(self):
        # 13 bases: the universe filter did not return, its base budget
        # of 8 skipped the check
        workflow = load(Path(__file__).parents[2] / "examples" / "precede.wf")
        report = analyze(workflow)
        assert report.ok and report.redundant == []
        assert report.as_dict()["redundancy_checked"] is True
        assert 0 < report.as_dict()["search_steps"] < 1000
        assert report.as_dict()["search_step_budget"] == IMPLIES_STEP_BUDGET
        assert "not checked" not in report.summary()
        assert "redundancy checked: at most" in report.summary()

    def test_precede_example_finds_an_implied_dependency(self):
        workflow = load(Path(__file__).parents[2] / "examples" / "precede.wf")
        implied = workflow.add(repr(workflow.dependencies[0]) + " + g")
        report = analyze(workflow)
        assert report.redundant == [implied]
        assert report.as_dict()["redundancy_checked"] is True

    def test_over_budget_analysis_skips_redundancy_with_the_count(
        self, monkeypatch
    ):
        monkeypatch.setattr(analysis, "IMPLIES_STEP_BUDGET", 10)
        workflow = load(Path(__file__).parents[2] / "examples" / "precede.wf")
        workflow.add(repr(workflow.dependencies[0]) + " + g")  # implied
        report = analyze(workflow)
        assert report.ok and report.redundant == []
        assert report.as_dict()["redundancy_checked"] is False
        assert (
            "redundancy not checked: the joint-completion search took 10 "
            "steps"
        ) in report.summary()


class TestConflicts:
    def test_order_conflict_detected(self):
        deps = [parse("e . f"), parse("f . e")]
        assert dependency_conflicts(deps) == [(deps[0], deps[1])]

    def test_sign_conflict_detected(self):
        deps = [parse("e"), parse("~e")]
        assert dependency_conflicts(deps) == [(deps[0], deps[1])]

    def test_compatible_pair_clean(self):
        deps = [parse("~e + f"), parse("~f + ~g + f . g")]
        assert dependency_conflicts(deps) == []


class TestAnalyzeReport:
    def test_travel_workflow_report(self):
        from repro.workloads.scenarios import make_travel_booking

        workflow = make_travel_booking("success").workflow
        report = analyze(workflow)
        assert report.satisfiable
        assert report.vacuous  # nothing forces the workflow to start
        assert report.ok
        assert not report.conflicts
        text = report.summary()
        assert "satisfiable: True" in text

    def test_report_flags_unsupported_mandatory(self):
        w = Workflow("forced")
        w.add("e . f")  # e and f must happen, nobody vouches for them
        report = analyze(w)
        assert report.mandatory == frozenset({E, F})
        assert report.unsupported_mandatory == frozenset({E, F})
        assert not report.ok
        assert "WARNING" in report.summary()

    def test_report_clean_when_mandatory_triggerable(self):
        w = Workflow("forced")
        w.add("e . f")
        w.set_attributes(E, triggerable=True)
        w.set_attributes(F, triggerable=True)
        report = analyze(w)
        assert report.ok

    def test_report_detects_conflict(self):
        w = Workflow("broken")
        w.add("e . f")
        w.add("f . e")
        report = analyze(w)
        assert not report.satisfiable
        assert report.conflicts
        assert not report.ok
        assert "CONFLICT" in report.summary()

    def test_constant_false_warning_needs_no_synthesis_section(self):
        compiled = {
            "guards": 2, "shapes": 1, "sharing_ratio": 0.5, "cubes": 0,
            "literals": 0, "constant_false": ["e"],
        }
        report = AnalysisReport("w", True, True, compiled=compiled)
        assert "WARNING constant-false guards" in report.summary()

    def test_synthesis_section_needs_no_compiled_table(self):
        report = AnalysisReport(
            "w", True, True, synthesis={"shape_misses": 1, "shape_hits": 0}
        )
        assert "guard synthesis: 1 shapes" in report.summary()
        assert "constant-false" not in report.summary()

    def test_report_surfaces_promise_pairs(self):
        w = Workflow("coupled")
        w.add("~e + f")
        w.add("~f + e")
        report = analyze(w)
        assert frozenset({E, F}) in report.promise_pairs
        assert "consensus" in report.summary()


class TestExampleWorkflows:
    """The compile-time analysis on the paper's running examples
    (Examples 10-14) plus an unsatisfiable specification."""

    def test_order_fulfillment_is_clean(self):
        from repro.workloads.scenarios import make_order_fulfillment

        workflow = make_order_fulfillment(True).workflow
        report = analyze(workflow)
        assert report.satisfiable
        assert not report.conflicts
        assert report.ok, report.summary()

    def test_chain_workflow_mandates_nothing_up_front(self):
        from repro.workloads.generators import chain_workflow

        workflow = chain_workflow(4)
        report = analyze(workflow)
        assert report.satisfiable
        assert report.vacuous  # the all-negative run discharges it
        assert report.mandatory == frozenset()
        assert not report.conflicts

    def test_travel_booking_has_no_forbidden_events(self):
        from repro.workloads.scenarios import make_travel_booking

        workflow = make_travel_booking("failure").workflow
        report = analyze(workflow)
        assert report.satisfiable
        assert report.forbidden == frozenset()
        assert not report.conflicts

    def test_mutex_workflow_is_satisfiable_and_conflict_free(self):
        from repro.workloads.scenarios import make_mutex_scenario

        workflow = make_mutex_scenario("t2").workflow
        report = analyze(workflow)
        assert report.satisfiable
        assert not report.conflicts
        assert not report.forbidden

    def test_parametrized_ground_instance_analyzes_clean(self):
        # Example 14's loop bodies, grounded at one iteration: the
        # instances the distributed runner mints at run time pass the
        # same static checks as hand-written dependencies
        w = Workflow("mutex_ground")
        w.add("b2_0 . b1_0 + ~e1_0 + ~b2_0 + e1_0 . b2_0")
        w.add("b1_0 . b2_0 + ~e2_0 + ~b1_0 + e2_0 . b1_0")
        w.add("~b1_0 + e1_0")
        w.add("~b2_0 + e2_0")
        report = analyze(w)
        assert report.satisfiable
        assert not report.conflicts

    def test_unsatisfiable_spec_is_flagged(self):
        w = Workflow("impossible")
        w.add("e . f")
        w.add("f . e")
        w.add("~g + e")
        report = analyze(w)
        assert not report.satisfiable
        assert report.conflicts
        assert not report.ok
        assert "CONFLICT" in report.summary()

    def test_unsatisfiable_spec_helpers_agree(self):
        deps = [parse("e"), parse("~e")]
        assert not satisfiable(deps)
        assert dependency_conflicts(deps) == [(deps[0], deps[1])]
        assert redundant_dependencies(deps) == []
