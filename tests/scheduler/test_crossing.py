"""Crossing groups: a settlement round settles at most one base of each.

A crossing base has both polarities in a static promise pair (two roles
that each want the other's eventuality, ``compile_workflow``'s
``promise_pairs``); a crossing group is a connected component of
crossing bases under those pairs.  ``a + b`` / ``~a + ~b`` is the
smallest: ``{a, ~b}`` and ``{b, ~a}`` are the pairs, and ``a`` and
``b`` one group.
"""

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler import AgentScript, DistributedScheduler, ScriptedAttempt
from repro.scheduler.oracle import judge
from repro.temporal.guards import (
    Binding,
    promise_wants,
    wanted_eventualities,
    workflow_bindings,
)
from repro.workflows.compiler import compile_workflow
from repro.workflows.spec import Workflow
from repro.workloads.scenarios import make_mutex_family, make_travel_booking

A, B = Event("a"), Event("b")
XOR = ["a + b", "~a + ~b"]


def _xor_scheduler(dependencies=XOR):
    return DistributedScheduler([parse(d) for d in dependencies])


def _scripts(b_at=5.0):
    return [
        AgentScript("ta", [ScriptedAttempt(0.0, A)]),
        AgentScript("tb", [ScriptedAttempt(b_at, B)]),
    ]


def test_promise_wants_on_a_binding_equals_the_rendered_guards():
    """Read in slot space and bound through ``from_slot``, a binding's
    wants are those of its guard on the real names."""
    travel = make_travel_booking("success").workflow.dependencies
    mutex = make_mutex_family(2, cluster=2).merged()[0].dependencies
    for dependencies in ([parse(d) for d in XOR], travel, mutex):
        for event, entry in workflow_bindings(dependencies).items():
            assert type(entry) is Binding
            assert set(promise_wants(entry, event)) == wanted_eventualities(
                entry.guard, event.base
            ), event


def test_exclusive_choice_is_one_crossing_group():
    workflow = Workflow("xor")
    for dependency in XOR:
        workflow.add(dependency)
    assert compile_workflow(workflow).promise_pairs == {
        frozenset({A, ~B}), frozenset({B, ~A})
    }
    sched = _xor_scheduler()
    assert sched._uncrossed([A, B]) == [A]
    assert sched._crossing == {A: A, B: A}


def test_a_spec_without_crossing_bases_keeps_the_whole_batch():
    scenario = make_travel_booking("failure")
    workflow = scenario.workflow
    sched = DistributedScheduler(
        workflow.dependencies, sites=workflow.sites,
        attributes=workflow.attributes,
    )
    bases = list(sched._sorted_bases())
    assert sched._uncrossed(bases) == bases
    assert set(sched._crossing.values()) == {None}


def test_the_drain_renders_no_guard(monkeypatch):
    """The groups come off the bindings' shapes: settling the crossing
    group renders no binding to the real names."""
    sched = _xor_scheduler()
    sched.start(_scripts())
    sched.sim.run()
    renders = []
    rendered = Binding.guard

    def counting(binding):
        renders.append(binding)
        return rendered.fget(binding)

    monkeypatch.setattr(Binding, "guard", property(counting))
    sched.drain()
    monkeypatch.undo()
    assert renders == []
    result = sched.finish()
    assert result.terminal == "maximal"
    assert judge(result.trace, sched.dependencies) == []
    assert len({A, B} & {entry.event for entry in result.entries}) == 1


def test_a_dependency_added_at_run_time_joins_the_static_table():
    """After a run-time modification the pairs are read off the table of
    the dependencies then in force, so the choice still settles one."""
    sched = _xor_scheduler(XOR[:1])
    assert sched._uncrossed([A, B]) == [A, B]
    sched.add_dependency_runtime(parse(XOR[1]))
    assert sched._table is None and sched._crossing == {}
    result = sched.run(_scripts())
    assert result.ok and result.terminal == "maximal"
    assert len({A, B} & {entry.event for entry in result.entries}) == 1
