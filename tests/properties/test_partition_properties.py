"""Properties of shard planning (repro.scale.partition / plan_shards).

* ``instance_of`` resolves a base through a suffix index built once
  per plan; the linear scan over every suffix it replaced is kept here
  as the reference and the two must agree on any suffix list --
  overlapping (``_i1`` / ``_i11``), repeated and empty suffixes
  included.
* The coupling graph read off bindings equals the one read off each
  dependency's guard table on the real names.
* A coupled component is one scheduler: whatever shard count or
  placement is requested on a mutex family, every cross dependency is
  carried by exactly one task, that task owns all the dependency's
  instances, every instance is placed once, and the run settles what
  the single merged scheduler settles.  The planner underneath
  (``plan_partition``) gives the same ownership for any explicit
  assignment, empty shards included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.symbols import Event
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scale.partition import (
    SuffixIndex,
    dependency_instances,
    instance_of,
    plan_partition,
    shared_event_graph,
)
from repro.scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_family

from tests.scale.test_partition import guard_table_graph


def instance_of_by_scan(base, suffixes):
    """The documented rule, read literally: longest matching suffix,
    first index among equals."""
    name = base.base.name
    best, best_len = None, -1
    for index, suffix in enumerate(suffixes):
        if suffix and name.endswith(suffix) and len(suffix) > best_len:
            best, best_len = index, len(suffix)
    return best


suffix_lists = st.lists(
    st.one_of(
        st.just(""),
        st.integers(min_value=0, max_value=30).map(lambda k: f"_i{k}"),
        st.text(alphabet="_i1", max_size=4),
    ),
    max_size=12,
)
stems = st.text(alphabet="be_i1", max_size=4)


@given(suffix_lists, stems, st.data())
def test_indexed_lookup_equals_linear_scan(suffixes, stem, data):
    tail = data.draw(st.sampled_from(suffixes)) if suffixes else ""
    base = Event("x" + stem + tail)
    expected = instance_of_by_scan(base, suffixes)
    assert instance_of(base, suffixes) == expected
    assert instance_of(base, SuffixIndex(suffixes)) == expected
    assert instance_of(~base, suffixes) == expected


@st.composite
def mutex_plans(draw):
    cluster = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=9))
    shards = draw(st.integers(min_value=1, max_value=5))
    placement = draw(st.sampled_from(["round_robin", "min_cut"]))
    return count, cluster, shards, placement


@st.composite
def explicit_plans(draw):
    count, cluster, shards, _placement = draw(mutex_plans())
    owner = draw(
        st.lists(
            st.integers(min_value=0, max_value=shards - 1),
            min_size=count, max_size=count,
        )
    )
    assignment = [
        [i for i in range(count) if owner[i] == shard]
        for shard in range(shards)
    ]
    return count, cluster, shards, assignment


@given(mutex_plans())
def test_coupling_graph_equals_the_guard_table_reference(plan):
    count, cluster, _shards, _placement = plan
    family = make_mutex_family(count, cluster=cluster)
    cross, suffixes = family.cross_dependencies, family.suffixes()
    assert shared_event_graph(cross, suffixes) == guard_table_graph(
        cross, suffixes
    )


@given(explicit_plans())
def test_explicit_assignment_fuses_to_one_owner_per_dependency(plan):
    count, cluster, shards, assignment = plan
    family = make_mutex_family(count, cluster=cluster)
    suffixes = family.suffixes()
    fused = plan_partition(
        count, shards, family.cross_dependencies, suffixes,
        assignment=assignment,
    ).assignment
    assert len(fused) == shards
    assert sorted(i for part in fused for i in part) == list(range(count))
    for dep in family.cross_dependencies:
        members = dependency_instances(dep, suffixes)
        assert sum(1 for part in fused if members <= set(part)) == 1
    # a shard is absorbed whole (left empty) or keeps what it was given
    for shard, part in enumerate(fused):
        assert not part or set(assignment[shard]) <= set(part)


@settings(max_examples=40)
@given(mutex_plans())
def test_each_cross_dependency_has_exactly_one_owner(plan):
    count, cluster, shards, placement = plan
    family = make_mutex_family(count, cluster=cluster)
    instances = [
        instance_spec(suffix, scripts) for suffix, scripts in family.instances
    ]
    tasks = plan_shards(
        family.template, instances, shards, seed=5,
        placement=placement, cross_deps=family.cross_dependencies,
    )
    suffixes = family.suffixes()
    owned = {
        task.shard: {suffixes.index(i.suffix) for i in task.instances}
        for task in tasks
    }
    assert len(owned) == len(tasks) <= shards
    # ``assignment`` covers each instance once and is what the tasks run
    placed = sorted(i for part in tasks.assignment for i in part)
    assert placed == list(range(count))
    for shard, part in enumerate(tasks.assignment):
        assert set(part) == owned.get(shard, set())
    for dep in family.cross_dependencies:
        carriers = [
            task.shard for task in tasks
            if any(dep is carried for carried in task.cross_dependencies)
        ]
        assert len(carriers) == 1
        assert dependency_instances(dep, suffixes) <= owned[carriers[0]]
    for task in tasks:
        assert len(set(task.cross_dependencies)) == len(
            task.cross_dependencies
        )
        assert set(task.cross_dependencies) <= set(family.cross_dependencies)

    sharded = run_sharded(tasks, workers=1)
    assert sharded.result.ok, sharded.result.violations
    workflow, scripts = family.merged()
    merged = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        rng=random.Random(9),
    ).run(scripts)
    assert merged.ok
    assert {e.event for e in sharded.result.entries} == {
        e.event for e in merged.entries
    }
