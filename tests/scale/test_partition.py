"""Constraint-aware placement planning (repro.scale.partition)."""

import pytest

from repro.algebra.parser import parse
from repro.scale.partition import (
    dependency_instances,
    instance_of,
    partition_instances,
    plan_partition,
    shared_event_graph,
)
from repro.workloads.scenarios import make_mutex_family


def family(count, cluster=2):
    fam = make_mutex_family(count, cluster=cluster)
    return fam.cross_dependencies, fam.suffixes()


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

    def test_each_cross_table_is_synthesized_once_per_plan(self, monkeypatch):
        # regression: planning used to ask for every dependency's
        # guard table more than once
        from repro.scale import partition

        asked = []

        def counting(dep):
            asked.append(dep)
            return guard_table(dep)

        guard_table = partition.guard_table
        monkeypatch.setattr(partition, "guard_table", counting)
        cross, suffixes = family(4, cluster=2)
        plan = plan_partition(
            4, 2, cross, suffixes, assignment=[[0, 2], [1, 3]]
        )
        assert plan.cut_weight > 0
        assert asked == list(cross)

    def test_plan_is_deterministic(self):
        cross, suffixes = family(12, cluster=3)
        assert plan_partition(12, 4, cross, suffixes) == plan_partition(
            12, 4, cross, suffixes
        )
