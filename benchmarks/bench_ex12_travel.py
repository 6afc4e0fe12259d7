"""Experiments X4/X12: the travel-booking workflow, plain and parametrized.

Example 4's three dependencies drive both outcome paths; Example 12
re-keys the workflow by customer id, and instances must not interfere.
PF2 times Example 12's N instances synthesized one by one against one
template stamped N times.
"""

import pytest

from repro.algebra.symbols import Event, Variable
from repro.params.workflows import ParametrizedWorkflow
from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.temporal.guards import render, workflow_guards
from repro.workflows import WorkflowTemplate
from repro.workloads.scenarios import make_travel_booking

from benchmarks.helpers import clear_symbolic_caches, run_scenario


def test_bench_travel_success_distributed(benchmark):
    result = benchmark(
        lambda: run_scenario(make_travel_booking("success"), DistributedScheduler)
    )
    assert result.ok
    names = {en.event.name for en in result.entries if not en.event.negated}
    assert names == {"s_buy", "s_book", "c_book", "c_buy"}
    order = [en.event.name for en in result.entries]
    # dependency (2): commit of buy strictly after commit of book
    assert order.index("c_book") < order.index("c_buy")


def test_bench_travel_failure_distributed(benchmark):
    result = benchmark(
        lambda: run_scenario(make_travel_booking("failure"), DistributedScheduler)
    )
    assert result.ok
    names = {en.event.name for en in result.entries if not en.event.negated}
    # compensation ran; the non-compensatable buy never committed
    assert "s_cancel" in names
    assert "c_buy" not in names


def test_bench_travel_success_centralized(benchmark):
    result = benchmark(
        lambda: run_scenario(make_travel_booking("success"), CentralizedScheduler)
    )
    assert result.ok
    names = {en.event.name for en in result.entries if not en.event.negated}
    assert names == {"s_buy", "s_book", "c_book", "c_buy"}


def test_bench_example12_template_instantiation(benchmark):
    template = ParametrizedWorkflow("travel")
    template.add("~s_buy[cid] + s_book[cid]")
    template.add("~c_buy[cid] + c_book[cid] . c_buy[cid]")
    template.add("~c_book[cid] + c_buy[cid] + s_cancel[cid]")

    def instantiate():
        return [template.instantiate(cid=f"c{i}") for i in range(20)]

    instances = benchmark(instantiate)
    assert len(instances) == 20
    assert not (instances[0].bases() & instances[1].bases())
    cid = Variable("cid")
    assert template.variables() == frozenset({cid})
    first = instances[0].dependencies[0]
    assert Event("s_book", params=("c0",)) in first.bases()


def _pf2_per_instance():
    """PF2's first arm: each of 64 suffixed instances synthesized on
    its own names (``workflow_guards``)."""
    table = {}
    for i in range(64):
        deps = make_travel_booking(suffix=f"_i{i}").workflow.dependencies
        table.update(workflow_guards(deps))
    return table


def _pf2_template():
    """PF2's second arm: one template synthesized once, 64 rows stamped."""
    template = WorkflowTemplate(make_travel_booking().workflow)
    return render(template.instantiate_merged([f"_i{i}" for i in range(64)])[1])


@pytest.mark.parametrize("arm", [_pf2_per_instance, _pf2_template],
                         ids=["per_instance", "template"])
def test_bench_pf2_synthesis_n64(benchmark, arm):
    """PF2 (EXPERIMENTS.md): 64 travel instances' guard tables from
    cold symbolic caches; both arms build the same table."""
    table = benchmark.pedantic(arm, setup=clear_symbolic_caches, rounds=5)
    assert table == _pf2_per_instance()
