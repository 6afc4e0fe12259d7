"""Shard placement planning (repro.scale.partition)."""

import pytest

from repro.algebra.normal_form import to_normal_form
from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scale.partition import (
    dependency_instances,
    instance_of,
    plan_partition,
)
from repro.temporal.guards import (
    Binding,
    clear_synthesis_caches,
    dependency_binding,
    synthesis_stats,
)
from repro.workflows.primitives import mutex
from repro.workloads.scenarios import make_mutex_family


def family(count, cluster=2):
    fam = make_mutex_family(count, cluster=cluster)
    return fam.cross_dependencies, fam.suffixes()


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


class TestGreedyPartition:
    """Components go whole, in order of their smallest member, to the
    lightest-loaded shard, ties to the lower shard number."""

    def test_colocates_coupled_pairs(self):
        cross, suffixes = family(10, cluster=3)
        plan = plan_partition(10, 2, cross, suffixes)
        # four clusters on two shards: each lands on a single one
        assert plan.assignment == ((0, 1, 2, 6, 7, 8), (3, 4, 5, 9))
        shard_of = {
            i: s for s, part in enumerate(plan.assignment) for i in part
        }
        for dep in cross:
            owners = {shard_of[i] for i in dependency_instances(dep, suffixes)}
            assert len(owners) == 1

    def test_balances_under_capacity(self):
        cross, suffixes = family(9, cluster=3)
        plan = plan_partition(9, 3, cross, suffixes)
        assert sorted(len(part) for part in plan.assignment) == [3, 3, 3]

    def test_components_go_whole_to_the_lightest_shard(self):
        suffixes = [f"_i{k}" for k in range(7)]
        cross = [
            parse(text) for text in (
                "~b_i5 + b_i6", "~b_i0 + b_i1", "~b_i1 + b_i2",
            )
        ]
        plan = plan_partition(7, 2, cross, suffixes)
        # {0, 1, 2} to shard 0, {3} to shard 1, then {4} and {5, 6} to
        # shard 1 too: it holds fewer instances each time
        assert plan.assignment == ((0, 1, 2), (3, 4, 5, 6))
        assert plan.carriers == (1, 0, 0)

    def test_deterministic(self):
        cross, suffixes = family(16, cluster=4)
        assert plan_partition(16, 4, cross, suffixes) == plan_partition(
            16, 4, cross, suffixes
        )

    def test_rejects_zero_shards(self):
        _cross, suffixes = family(4)
        with pytest.raises(ValueError):
            plan_partition(4, 0, [], suffixes)


class TestPlanPartition:
    def test_min_cut_plan_has_no_spanning_deps(self):
        cross, suffixes = family(8, cluster=2)
        plan = plan_partition(8, 4, cross, suffixes)
        # every shard holds one cluster, its two coupled instances
        assert sorted(plan.assignment) == [(0, 1), (2, 3), (4, 5), (6, 7)]
        shard_of = {
            i: s for s, part in enumerate(plan.assignment) for i in part
        }
        for dep in cross:
            owners = {shard_of[i] for i in dependency_instances(dep, suffixes)}
            assert len(owners) == 1

    def test_dependency_on_an_unknown_instance_is_rejected(self):
        cross, suffixes = family(2)
        for text in ("~b_i7 + e_i9 . b_i7", "~b_i0 + e_i9 . b_i0", "0"):
            with pytest.raises(ValueError, match="planned instance"):
                plan_partition(2, 2, [parse(text)], suffixes)

    def test_planning_a_stamped_family_normalizes_and_renders_nothing(
        self, monkeypatch
    ):
        # planning reads only which instances each dependency mentions:
        # no normal form, no binding, no closure and no shape is made,
        # and no guard is rendered
        rendered = []
        guard = Binding.guard
        monkeypatch.setattr(
            Binding,
            "guard",
            property(lambda b: rendered.append(b) or guard.fget(b)),
        )
        for count in (16, 64):
            clear_synthesis_caches()
            cross, suffixes = family(count, cluster=4)
            before = synthesis_stats()
            normal_forms = to_normal_form.cache_info().misses
            plan_partition(count, 4, cross, suffixes)
            after = synthesis_stats()
            assert to_normal_form.cache_info().misses == normal_forms
            for key in ("binding_misses", "closure_misses", "shape_misses"):
                assert after[key] == before[key], key
        assert rendered == []

    def test_carriers_own_every_instance_of_their_dependency(self):
        cross, suffixes = family(6, cluster=3)
        plan = plan_partition(6, 3, cross, suffixes)
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
