"""Properties of shard planning (repro.scale.partition / plan_shards).

* ``instance_of`` resolves a base through a suffix index built once
  per plan; the linear scan over every suffix it replaced is kept here
  as the reference and the two must agree on any suffix list --
  overlapping (``_i1`` / ``_i11``), repeated and empty suffixes
  included.
* A coupled component is one scheduler: whatever shard count is
  requested on a mutex family, every cross dependency is carried by
  exactly one task, that task owns all the dependency's instances,
  every instance is placed once, there are ``min(shards, components)``
  tasks, and the run settles what the single merged scheduler
  settles.  The planner underneath (``plan_partition``) keeps every
  component whole for any coupling, and deals an uncoupled family
  round robin.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scale.partition import (
    SuffixIndex,
    dependency_instances,
    instance_of,
    plan_partition,
)
from repro.scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_family


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
    return count, cluster, shards


def components_by_search(count, couplings):
    """The components of ``0..count-1`` under ``couplings`` (pairs),
    found by a plain graph search."""
    neighbours = {i: set() for i in range(count)}
    for x, y in couplings:
        neighbours[x].add(y)
        neighbours[y].add(x)
    seen, components = set(), []
    for start in range(count):
        if start in seen:
            continue
        component, frontier = set(), [start]
        while frontier:
            i = frontier.pop()
            if i not in component:
                component.add(i)
                frontier.extend(neighbours[i])
        seen |= component
        components.append(component)
    return components


@st.composite
def couplings(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=count - 1),
                st.integers(min_value=0, max_value=count - 1),
            ),
            max_size=10,
        )
    )
    shards = draw(st.integers(min_value=1, max_value=6))
    return count, pairs, shards


@given(couplings())
def test_random_couplings_place_each_component_whole(plan):
    count, pairs, shards = plan
    cross = [parse(f"~b_i{x} + b_i{y}") for x, y in pairs]
    suffixes = [f"_i{k}" for k in range(count)]
    placed = plan_partition(count, shards, cross, suffixes)
    components = components_by_search(count, pairs)
    assert len(placed.assignment) == min(shards, len(components))
    assert all(placed.assignment)
    assert sorted(i for part in placed.assignment for i in part) == list(
        range(count)
    )
    for component in components:
        owners = [part for part in placed.assignment if component & set(part)]
        assert len(owners) == 1 and component <= set(owners[0])
    for (x, y), carrier in zip(pairs, placed.carriers):
        assert {x, y} <= set(placed.assignment[carrier])


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=9),
)
def test_an_uncoupled_plan_deals_round_robin(count, shards):
    family = make_mutex_family(count, cluster=1)
    assert family.cross_dependencies == []
    tasks = plan_shards(
        family.template,
        [instance_spec(*instance) for instance in family.instances],
        shards,
    )
    lanes = min(shards, count)
    assert tasks.assignment == tuple(
        tuple(range(count)[s::lanes]) for s in range(lanes)
    )
    assert [task.shard for task in tasks] == list(range(lanes))


@settings(max_examples=40)
@given(mutex_plans())
def test_each_cross_dependency_has_exactly_one_owner(plan):
    count, cluster, shards = plan
    family = make_mutex_family(count, cluster=cluster)
    instances = [
        instance_spec(suffix, scripts) for suffix, scripts in family.instances
    ]
    tasks = plan_shards(
        family.template, instances, shards, seed=5,
        cross_deps=family.cross_dependencies,
    )
    suffixes = family.suffixes()
    owned = {
        task.shard: {suffixes.index(i.suffix) for i in task.instances}
        for task in tasks
    }
    # a family's components are its clusters
    assert len(owned) == len(tasks) == min(shards, len(family.clusters))
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
