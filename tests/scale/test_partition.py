"""Constraint-aware placement planning (repro.scale.partition)."""

import pytest

from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scale.partition import (
    SuffixIndex,
    dependency_instances,
    instance_of,
    partition_instances,
    plan_partition,
    shared_event_graph,
)
from repro.temporal.guards import (
    Binding,
    clear_synthesis_caches,
    dependency_binding,
    guard_table,
    synthesis_stats,
)
from repro.workflows.primitives import mutex
from repro.workloads.scenarios import make_mutex_family


def family(count, cluster=2):
    fam = make_mutex_family(count, cluster=cluster)
    return fam.cross_dependencies, fam.suffixes()


def guard_table_graph(cross_deps, suffixes):
    """The coupling graph read off each dependency's guard table on the
    real names: the reference ``shared_event_graph`` must equal."""
    suffixes = SuffixIndex(suffixes)
    edges = {}
    for dep in cross_deps:
        for event, g in guard_table(dep).items():
            i = instance_of(event.base, suffixes)
            if i is None:
                continue
            for base in g.bases():
                j = instance_of(base, suffixes)
                if j is None or j == i:
                    continue
                key = (min(i, j), max(i, j))
                edges[key] = edges.get(key, 0) + 1
    return edges


#: family sizes whose suffixes cross ``_i9`` / ``_i10`` and
#: ``_i99`` / ``_i100``, where suffixing stops preserving name order
FAMILIES = [(n, c) for n in (2, 12, 101, 130) for c in range(2, 6)]


class TestStampedFamily:
    @pytest.mark.parametrize("count, cluster", FAMILIES)
    def test_cross_dependencies_are_the_mutex_nodes(self, count, cluster):
        # stamping one canonical pair gives the very nodes ``mutex``
        # builds for every adjacent pair, in the same order
        expected = []
        for members in make_mutex_family(count, cluster=cluster).clusters:
            for j, k in zip(members, members[1:]):
                bj, ej = Event(f"b_i{j}"), Event(f"e_i{j}")
                bk, ek = Event(f"b_i{k}"), Event(f"e_i{k}")
                expected += [mutex(bj, ej, bk, ek), mutex(bk, ek, bj, ej)]
        cross, _suffixes = family(count, cluster=cluster)
        assert len(cross) == len(expected)
        assert all(got is want for got, want in zip(cross, expected))

    def test_every_copy_is_bound_by_stamping(self):
        clear_synthesis_caches()
        cross, _suffixes = family(130, cluster=4)
        before = synthesis_stats()
        for dep in cross:
            dependency_binding(dep)
        after = synthesis_stats()
        assert after["binding_misses"] == before["binding_misses"]


class TestInstanceMapping:
    def test_longest_suffix_wins(self):
        suffixes = [f"_i{k}" for k in range(12)]
        (base,) = parse("b_i1").bases()
        assert instance_of(base, suffixes) == 1
        # _i11 ends with both _i1 and _i11; the longer match is right
        (base,) = parse("b_i11").bases()
        assert instance_of(base, suffixes) == 11

    def test_foreign_event_maps_to_none(self):
        (base,) = parse("q").bases()
        assert instance_of(base, ["_i0", "_i1"]) is None

    def test_dependency_instances(self):
        cross, suffixes = family(4)
        # each mutex dependency couples exactly two instances
        for dep in cross:
            assert len(dependency_instances(dep, suffixes)) == 2


class TestSharedEventGraph:
    def test_mutex_pair_weights_symmetric_edge(self):
        cross, suffixes = family(2)
        edges = shared_event_graph(cross, suffixes)
        assert set(edges) == {(0, 1)}
        assert edges[(0, 1)] > 0

    def test_clusters_stay_disjoint(self):
        cross, suffixes = family(6, cluster=2)
        edges = shared_event_graph(cross, suffixes)
        assert set(edges) == {(0, 1), (2, 3), (4, 5)}

    def test_independent_instances_have_no_edges(self):
        _cross, suffixes = family(4)
        assert shared_event_graph([], suffixes) == {}

    @pytest.mark.parametrize("count, cluster", FAMILIES)
    def test_equals_the_guard_table_reference(self, count, cluster):
        cross, suffixes = family(count, cluster=cluster)
        assert shared_event_graph(cross, suffixes) == guard_table_graph(
            cross, suffixes
        )

    @pytest.mark.parametrize(
        "text",
        [
            "~b_i0 + e_i1 . b_i0",
            "(a_i0 + ~a_i0) | (b_i1 + c_i0 . d_i1)",
            # normalizes to 0: every base the normal form dropped
            "((d_i1 . b_i1) | (~d_i1 + c_i0) | (d_i1 . d_i1 + ~b_i1)) . d_i1",
            "q + b_i0",  # a base of no instance waits on nothing
        ],
    )
    def test_hand_written_dependencies_equal_the_reference(self, text):
        suffixes = ["_i0", "_i1"]
        dep = parse(text)
        assert shared_event_graph([dep], suffixes) == guard_table_graph(
            [dep], suffixes
        )


class TestGreedyPartition:
    def test_colocates_coupled_pairs(self):
        cross, suffixes = family(8, cluster=2)
        edges = shared_event_graph(cross, suffixes)
        placed = partition_instances(8, 4, edges)
        # every cluster lands on a single shard: the cut is zero
        shard_of = {i: s for s, part in enumerate(placed) for i in part}
        for (i, j), _w in edges.items():
            assert shard_of[i] == shard_of[j]

    def test_balances_under_capacity(self):
        cross, suffixes = family(9, cluster=3)
        edges = shared_event_graph(cross, suffixes)
        placed = partition_instances(9, 3, edges)
        assert sorted(len(part) for part in placed) == [3, 3, 3]

    def test_deterministic(self):
        cross, suffixes = family(16, cluster=4)
        edges = shared_event_graph(cross, suffixes)
        assert partition_instances(16, 4, edges) == partition_instances(
            16, 4, edges
        )

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            partition_instances(4, 0, {})


class TestPlanPartition:
    def test_min_cut_plan_has_no_spanning_deps(self):
        cross, suffixes = family(8, cluster=2)
        plan = plan_partition(8, 4, cross, suffixes)
        assert plan.cut_weight == 0
        # nothing to fuse: every shard keeps its two coupled instances
        assert sorted(plan.assignment) == [(0, 1), (2, 3), (4, 5), (6, 7)]
        shard_of = {
            i: s for s, part in enumerate(plan.assignment) for i in part
        }
        for dep in cross:
            owners = {shard_of[i] for i in dependency_instances(dep, suffixes)}
            assert len(owners) == 1

    def test_round_robin_layout_exposes_the_cut(self, caplog):
        cross, suffixes = family(4, cluster=2)
        with caplog.at_level("WARNING", logger="repro.scale.partition"):
            plan = plan_partition(
                4, 2, cross, suffixes, assignment=[[0, 2], [1, 3]]
            )
        # the cut is what the *requested* layout separated ...
        assert plan.cut_weight == plan.total_weight > 0
        # ... and both clusters span both shards, so they are fused
        # into the lower-numbered one, loudly
        assert plan.assignment == ((0, 1, 2, 3), ())
        assert any("fusing" in record.message for record in caplog.records)

    def test_fusing_leaves_uncoupled_shards_alone(self):
        cross, suffixes = family(6, cluster=2)
        plan = plan_partition(
            6, 3, cross, suffixes, assignment=[[0, 2], [1, 3], [4, 5]]
        )
        assert plan.assignment == ((0, 1, 2, 3), (), (4, 5))

    def test_dependency_on_an_unknown_instance_is_rejected(self):
        cross, suffixes = family(2)
        for text in ("~b_i7 + e_i9 . b_i7", "~b_i0 + e_i9 . b_i0", "0"):
            with pytest.raises(ValueError, match="planned instance"):
                plan_partition(2, 2, [parse(text)], suffixes)

    def test_explicit_assignment_must_cover_every_instance(self):
        cross, suffixes = family(4)
        with pytest.raises(ValueError):
            plan_partition(4, 2, cross, suffixes, assignment=[[0, 1], [2]])
        with pytest.raises(ValueError):
            plan_partition(
                4, 2, cross, suffixes, assignment=[[0, 1, 2], [2, 3]]
            )

    def test_planning_a_stamped_family_normalizes_and_renders_nothing(
        self, monkeypatch
    ):
        # the coupling is read off bindings: a stamped family's cross
        # dependencies are bound already, their waits are synthesized
        # once per dependency shape, and no guard is rendered on the
        # real names (planning used to take a guard table per copy)
        rendered = []
        guard = Binding.guard
        monkeypatch.setattr(
            Binding,
            "guard",
            property(lambda b: rendered.append(b) or guard.fget(b)),
        )
        costs = []
        for count in (16, 64):
            clear_synthesis_caches()
            cross, suffixes = family(count, cluster=4)
            before = synthesis_stats()
            normal_forms = to_normal_form.cache_info().misses
            plan = plan_partition(count, 4, cross, suffixes)
            after = synthesis_stats()
            assert plan.cut_weight == 0 < plan.total_weight
            assert to_normal_form.cache_info().misses == normal_forms
            shapes = {dependency_binding(dep).shape for dep in cross}
            assert len(shapes) == 2
            delta = {
                key: after[key] - before[key]
                for key in ("binding_misses", "closure_misses", "shape_misses")
            }
            assert delta["binding_misses"] == 0
            assert delta["closure_misses"] == len(shapes)
            costs.append(delta)
        assert rendered == []
        assert costs[0] == costs[1]

    def test_carriers_own_every_instance_of_their_dependency(self):
        cross, suffixes = family(6, cluster=3)
        plan = plan_partition(
            6, 3, cross, suffixes, assignment=[[0, 3], [1, 4], [2, 5]]
        )
        assert len(plan.carriers) == len(cross)
        for dep, carrier in zip(cross, plan.carriers):
            assert dependency_instances(dep, suffixes) <= set(
                plan.assignment[carrier]
            )

    def test_plan_is_deterministic(self):
        cross, suffixes = family(12, cluster=3)
        assert plan_partition(12, 4, cross, suffixes) == plan_partition(
            12, 4, cross, suffixes
        )
