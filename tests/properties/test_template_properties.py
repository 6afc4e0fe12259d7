"""Properties of template instantiation and the sharded runner.

Three contracts, checked over randomly drawn structures:

* ``WorkflowTemplate.instantiate_merged([suffix])`` must hand back a
  binding table that renders exactly the guard table a from-scratch
  ``workflow_guards`` synthesis over the suffixed dependencies would --
  whether composed bindings or the order-preservation fallback served
  it is invisible to the caller.
* Its dependencies must be the very nodes ``rename_expr`` gives, and a
  requirement monitor over them -- entering the shared closures from
  the bindings stamping composed -- must walk the same closure states
  and fire the same triggers as one that normal-forms and renames each
  copy itself, caches cleared in between or not.
* ``run_sharded`` over any shard count must settle the same event set
  as one merged scheduler over the same instances.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import rename_expr
from repro.algebra.normal_form import to_normal_form
from repro.algebra.residuation import residuate
from repro.algebra.symbols import Event
from repro.scale import plan_shards, run_sharded
from repro.scheduler.monitors import RequirementMonitor
from repro.temporal import guards
from repro.temporal.guards import (
    Binding,
    _slot_maps,
    clear_synthesis_caches,
    render,
    workflow_guards,
)
from repro.workflows import WorkflowTemplate
from repro.workflows.spec import Workflow
from repro.workloads.generators import (
    chain_workflow,
    diamond_workflow,
    fanout_workflow,
    saga_workflow,
)
from tests.scale.test_shards import TEMPLATE, travel_instances

from .strategies import expressions


@pytest.fixture(autouse=True, scope="module")
def memo_tables_of_this_intern_table():
    """``is`` below means *the* interned node (see
    ``test_monitor_equivalence.py``)."""
    residuate.cache_clear()
    to_normal_form.cache_clear()
    clear_synthesis_caches()

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
        workflow, table = template.instantiate_merged([suffix])
        direct = make(size, suffix=suffix)
        assert workflow.dependencies == direct.dependencies
        assert render(table) == workflow_guards(direct.dependencies)

    @given(suffix=suffixes)
    def test_travel_template_matches_from_scratch(self, suffix):
        template = WorkflowTemplate(TEMPLATE)
        workflow, table = template.instantiate_merged([suffix])
        assert render(table) == workflow_guards(workflow.dependencies)


def fresh_binding(dependency):
    """:func:`repro.temporal.guards.dependency_binding` without its
    memo: one normal form and one rename into slot space per call, the
    way a monitor entered its closure before stamping carried it."""
    dep_nf = to_normal_form(dependency)
    to_slot, from_slot = _slot_maps(dep_nf.bases())
    return Binding(rename_expr(dep_nf, to_slot), to_slot, from_slot)


def monitor_walk(dependencies, occurrences):
    """Triggers fired and, per dependency, the closure and state after
    each occurrence of a monitor for which every base is triggerable."""
    triggers = []
    bases = frozenset(b for dep in dependencies for b in dep.bases())
    monitor = RequirementMonitor(dependencies, bases, triggers.append)
    tracks = list(monitor._tracks.values())
    monitor.evaluate()
    states = [[(t.closure, t.state) for t in tracks]]
    for event in occurrences:
        monitor.observe(event)
        states.append([(t.closure, t.state) for t in tracks])
    return triggers, states, monitor.residuals


def random_workflows():
    """One to three random dependencies over ``e``, ``f``, ``g``."""
    def workflow(dependencies):
        w = Workflow("random")
        for dep in dependencies:
            w.add(dep)
        return w

    return st.lists(expressions(), min_size=1, max_size=3).map(workflow)


#: generated workflows: the workload generators and random dependencies
workflows = st.one_of(
    st.tuples(generators, st.integers(2, 5)).map(
        lambda drawn: drawn[0][1](drawn[1])
    ),
    random_workflows(),
)


class TestStampedDependencies:
    @given(workflow=workflows, suffix=suffixes)
    def test_stamped_dependencies_are_the_renamed_nodes(
        self, workflow, suffix
    ):
        template = WorkflowTemplate(workflow)
        stamped = template.merged_workflow([suffix]).dependencies
        mapping = template.mapping_for(suffix)
        assert len(stamped) == len(workflow.dependencies)
        for copy, dep in zip(stamped, workflow.dependencies):
            assert copy is rename_expr(dep, mapping)
            bound, fresh = guards.dependency_binding(copy), fresh_binding(copy)
            assert bound.shape is fresh.shape
            assert list(bound.to_slot.items()) == list(fresh.to_slot.items())
            assert list(bound.from_slot.items()) == list(
                fresh.from_slot.items()
            )

    @given(workflow=workflows, suffix=suffixes, data=st.data())
    def test_monitor_on_stamped_copies_walks_the_renamed_ones(
        self, workflow, suffix, data
    ):
        template = WorkflowTemplate(workflow)
        stamped = template.merged_workflow([suffix]).dependencies
        signed = sorted(
            {e for dep in stamped for e in dep.alphabet()},
            key=Event.sort_key,
        )
        occurrences = data.draw(
            st.lists(st.sampled_from(signed), max_size=8) if signed
            else st.just([])
        )
        walked = monitor_walk(stamped, occurrences)
        mapping = template.mapping_for(suffix)
        renamed = [rename_expr(dep, mapping) for dep in workflow.dependencies]
        with mock.patch.object(guards, "dependency_binding", fresh_binding):
            reference = monitor_walk(renamed, occurrences)
        assert walked[0] == reference[0]
        assert walked[1] == reference[1]
        assert list(walked[2]) == list(reference[2])
        for dep, residual in reference[2].items():
            assert walked[2][dep] is residual

    @given(suffix=suffixes)
    def test_order_violating_suffix_falls_back_and_renders_alike(
        self, suffix
    ):
        # every drawn suffix starts with "_", so "t1" + suffix sorts
        # after "t10" + suffix: the rename breaks the canonical order
        w = Workflow("prefixy")
        w.add("~t1 + t10")
        w.add("~t10 + ~t2 + t10 . t2")
        template = WorkflowTemplate(w)
        workflow, table = template.instantiate_merged([suffix])
        assert template.fallback_instantiations == 1
        stamped = workflow.dependencies
        mapping = template.mapping_for(suffix)
        assert stamped == [rename_expr(dep, mapping) for dep in w.dependencies]
        assert render(table) == workflow_guards(stamped)
        occurrences = sorted(
            {e for dep in stamped for e in dep.bases()},
            key=Event.sort_key,
        )
        walked = monitor_walk(stamped, occurrences)
        with mock.patch.object(guards, "dependency_binding", fresh_binding):
            assert monitor_walk(stamped, occurrences)[:2] == walked[:2]

    @given(workflow=workflows, suffix=suffixes)
    def test_clearing_synthesis_caches_after_stamping_changes_nothing(
        self, workflow, suffix
    ):
        before = WorkflowTemplate(workflow).merged_workflow([suffix])
        occurrences = sorted(
            {b for dep in before.dependencies for b in dep.bases()},
            key=Event.sort_key,
        )
        expected = monitor_walk(before.dependencies, occurrences)
        instance = WorkflowTemplate(workflow).merged_workflow([suffix])
        clear_synthesis_caches()
        walked = monitor_walk(instance.dependencies, occurrences)
        assert walked[0] == expected[0]
        assert [
            [state for _closure, state in step] for step in walked[1]
        ] == [[state for _closure, state in step] for step in expected[1]]
        assert walked[2] == expected[2]


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
