"""Static analysis of workflow specifications."""

from pathlib import Path

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.workflows.analysis import (
    IMPLIES_BASE_BUDGET,
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

E, F, G = Event("e"), Event("f"), Event("g")


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

    def test_implies_refuses_more_bases_than_its_budget(self):
        deps = [parse(f"~e + f{k}") for k in range(IMPLIES_BASE_BUDGET)]
        with pytest.raises(ValueError, match="9 bases exceed"):
            implies(deps[1:], deps[0])

    def test_precede_example_skips_redundancy_and_says_so(self):
        # used not to return: 13 bases, x6.5 per base past 8
        spec = Path(__file__).parents[2] / "examples" / "precede.wf"
        report = analyze(load(spec))
        assert report.ok and report.redundant == []
        assert report.as_dict()["redundancy_checked"] is False
        assert (
            "redundancy not checked: 13 bases exceed the exhaustive "
            "budget of 8"
        ) in report.summary()
        within = analyze(Workflow("small", dependencies=[parse("~e + f")]))
        assert within.as_dict()["redundancy_checked"] is True
        assert "not checked" not in within.summary()


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
