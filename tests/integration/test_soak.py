"""Randomized soak: many seeded workloads, every scheduler, full audit.

Each run is checked by the one oracle (:mod:`repro.scheduler.oracle`),
not by the schedulers' own verdict: dependencies satisfied and every
realized event's synthesized guard true at its occurrence index.  The
run must end maximal, and the result's bookkeeping must hold up: no
base settled twice, no event before its attempt.
"""

import pytest

from repro.algebra.symbols import Event
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.scheduler.events import AttemptOutcome, ExecutionResult, TraceEntry
from repro.scheduler.oracle import judge
from repro.temporal.guards import workflow_guards
from repro.workloads.generators import (
    chain_workflow,
    diamond_workflow,
    random_workflow,
    saga_workflow,
    scripts_for,
)

SCHEDULERS = [DistributedScheduler, CentralizedScheduler]


def assert_bookkeeping(result):
    """The result's entries are a trace the run could have produced."""
    bases = [entry.event.base for entry in result.entries]
    assert len(bases) == len(set(bases)), f"a base settled twice: {bases}"
    for entry in result.entries:
        assert entry.time >= entry.attempted_at, (
            f"{entry.event!r} occurred before it was attempted"
        )


def run_audited(workflow, scheduler_cls, seed, participation=1.0):
    scripts = scripts_for(workflow, seed=seed, participation=participation)
    deps = workflow.dependencies
    sched = scheduler_cls(
        deps, sites=workflow.sites, attributes=workflow.attributes
    )
    result = sched.run(scripts)
    assert_bookkeeping(result)
    found = judge(result.trace, deps, workflow_guards(deps))
    context = (scheduler_cls.__name__, seed, result.trace)
    assert found == [], (*context, [v.detail for v in found])
    assert result.terminal == "maximal", (*context, result.unsettled)
    return result


class TestBookkeeping:
    def test_doctored_result_is_caught(self):
        e, f = Event("e"), Event("f")
        early = ExecutionResult(
            entries=[TraceEntry(e, 1.0, 5.0, AttemptOutcome.ACCEPTED)]
        )
        twice = ExecutionResult(
            entries=[
                TraceEntry(f, 1.0, 0.0, AttemptOutcome.ACCEPTED),
                TraceEntry(~f, 2.0, 0.0, AttemptOutcome.ACCEPTED),
            ]
        )
        for doctored in (early, twice):
            with pytest.raises(AssertionError):
                assert_bookkeeping(doctored)


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
class TestRandomSoak:
    @pytest.mark.parametrize("seed", range(10))
    def test_full_participation(self, scheduler_cls, seed):
        w = random_workflow(n_tasks=5, n_dependencies=5, seed=seed)
        run_audited(w, scheduler_cls, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_participation(self, scheduler_cls, seed):
        w = random_workflow(n_tasks=5, n_dependencies=4, seed=seed + 100)
        run_audited(w, scheduler_cls, seed, participation=0.6)


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS, ids=lambda c: c.__name__)
class TestStructuredSoak:
    @pytest.mark.parametrize("seed", range(3))
    def test_chains(self, scheduler_cls, seed):
        run_audited(chain_workflow(5), scheduler_cls, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_diamonds(self, scheduler_cls, seed):
        w = diamond_workflow(3)
        run_audited(w, scheduler_cls, seed)

    def test_sagas(self, scheduler_cls):
        run_audited(saga_workflow(4), scheduler_cls, seed=1)


class TestCrossSchedulerTraceValidity:
    """Each scheduler may pick a different valid trace; all of them
    must be admitted by the specification."""

    @pytest.mark.parametrize("seed", range(5))
    def test_all_traces_admitted(self, seed):
        w = random_workflow(n_tasks=4, n_dependencies=4, seed=seed + 50)
        traces = []
        for cls in SCHEDULERS:
            result = run_audited(w, cls, seed)
            traces.append(result.trace)
        for trace in traces:
            assert judge(trace, w.dependencies) == []
