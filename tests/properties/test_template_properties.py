"""Properties of template instantiation and the sharded runner.

Two contracts, checked over randomly drawn structures:

* ``WorkflowTemplate.instantiate(suffix)`` must hand back a binding
  table that renders exactly the guard table a from-scratch
  ``workflow_guards`` synthesis over the suffixed dependencies would --
  whether composed bindings or the order-preservation fallback served
  it is invisible to the caller.
* ``run_sharded`` over any shard count must settle the same event set
  as one merged scheduler over the same instances.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scale import plan_shards, run_sharded
from repro.temporal.guards import render, workflow_guards
from repro.workflows import WorkflowTemplate
from repro.workloads.generators import (
    chain_workflow,
    diamond_workflow,
    fanout_workflow,
    saga_workflow,
)
from tests.scale.test_shards import TEMPLATE, travel_instances

# Suffixes stay clear of the expression grammar's reserved characters
# (~ + | . ( ) and whitespace); a leading underscore matches the
# convention used by every generator's ``suffix=`` parameter.
suffixes = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8
).map(lambda s: "_" + s)

generators = st.sampled_from(
    [
        ("chain", chain_workflow),
        ("fanout", fanout_workflow),
        ("saga", saga_workflow),
        ("diamond", diamond_workflow),
    ]
)


class TestTemplateEquivalence:
    @given(gen=generators, size=st.integers(2, 5), suffix=suffixes)
    def test_instantiated_guards_match_from_scratch(self, gen, size, suffix):
        _, make = gen
        template = WorkflowTemplate(make(size))
        instance = template.instantiate(suffix)
        direct = make(size, suffix=suffix)
        assert instance.workflow.dependencies == direct.dependencies
        assert render(instance.guards) == workflow_guards(direct.dependencies)

    @given(suffix=suffixes)
    def test_travel_template_matches_from_scratch(self, suffix):
        template = WorkflowTemplate(TEMPLATE)
        instance = template.instantiate(suffix)
        assert render(instance.guards) == workflow_guards(
            instance.workflow.dependencies
        )


class TestShardedEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        count=st.integers(2, 6),
        shards=st.integers(1, 3),
        seed=st.integers(0, 10),
    )
    def test_sharded_settles_same_events_as_merged(self, count, shards, seed):
        from random import Random

        from repro.scheduler.guard_scheduler import DistributedScheduler
        from repro.workloads.scenarios import make_travel_booking

        instances = travel_instances(count)
        tasks = plan_shards(TEMPLATE, instances, shards, seed=seed)
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations

        rng = Random(0)
        workflow = None
        scripts = []
        for i in range(count):
            outcome = "success" if rng.random() < 0.7 else "failure"
            scn = make_travel_booking(outcome, suffix=f"_i{i}")
            workflow = (
                scn.workflow
                if workflow is None
                else workflow.merged(scn.workflow)
            )
            scripts.extend(scn.scripts)
        merged = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            rng=Random(seed),
        ).run(scripts)
        assert merged.ok
        assert {e.event for e in sharded.result.entries} == {
            e.event for e in merged.entries
        }
