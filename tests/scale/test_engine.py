"""The cross-shard group engine (repro.scale.engine)."""

import dataclasses
import json
import random

import pytest

from repro.obs.check import check_records
from repro.obs.prom import lint_prometheus, render_prometheus
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scale.engine import _spanning_violations, run_group
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workloads.scenarios import make_mutex_family


def mutex_tasks(count, shards, cluster=2, seed=7, **plan_kwargs):
    family = make_mutex_family(count, cluster=cluster)
    instances = [
        instance_spec(suffix, scripts) for suffix, scripts in family.instances
    ]
    return family, plan_shards(
        family.template,
        instances,
        shards,
        seed=seed,
        cross_deps=family.cross_dependencies,
        **plan_kwargs,
    )


def merged_baseline(family, seed=9):
    workflow, scripts = family.merged()
    scheduler = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        rng=random.Random(seed),
    )
    return scheduler.run(scripts)


def settled(result):
    return sorted(repr(entry.event) for entry in result.entries)


class TestDifferential:
    def test_min_cut_colocates_and_matches_merged(self):
        family, tasks = mutex_tasks(8, 4, placement="min_cut")
        assert tasks.cut_weight == 0
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        assert sharded.cross_messages == 0
        merged = merged_baseline(family)
        assert merged.ok
        assert settled(sharded.result) == settled(merged)

    def test_round_robin_routes_and_matches_merged(self):
        family, tasks = mutex_tasks(8, 4)  # round_robin splits clusters
        assert tasks.cut_weight > 0
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        assert sharded.cross_messages > 0
        merged = merged_baseline(family)
        assert settled(sharded.result) == settled(merged)

    def test_faulty_cross_channel_still_settles(self):
        family, tasks = mutex_tasks(
            8,
            2,
            cross_drop_probability=0.2,
            cross_duplicate_probability=0.2,
            trace=True,
        )
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        # retransmissions mean strictly more channel traffic...
        _family, clean = mutex_tasks(8, 2, trace=True)
        baseline = run_sharded(clean, workers=1)
        assert sharded.cross_messages > baseline.cross_messages
        # ...but identical settled outcomes and a checkable trace
        assert settled(sharded.result) == settled(baseline.result)
        assert check_records(sharded.trace_records) == []

    def test_merged_trace_and_metrics_are_exportable(self):
        _family, tasks = mutex_tasks(4, 2, trace=True, sample_every=1.0)
        sharded = run_sharded(tasks, workers=1)
        assert check_records(sharded.trace_records) == []
        text = render_prometheus(sharded.metrics)
        assert lint_prometheus(text) == []
        # the gateway channel's accounting reaches the merged export
        assert "network" in sharded.metrics


class TestDeterminism:
    def test_identical_across_worker_counts(self):
        _family, tasks = mutex_tasks(8, 4)
        a = run_sharded(tasks, workers=1)
        b = run_sharded(tasks, workers=3)
        assert [
            (repr(e.event), e.time, e.outcome) for e in a.result.entries
        ] == [(repr(e.event), e.time, e.outcome) for e in b.result.entries]
        assert a.cross_messages == b.cross_messages
        assert a.result.makespan == b.result.makespan

    def test_rerun_is_byte_identical(self):
        _family, tasks = mutex_tasks(6, 3, cluster=3)
        a = run_sharded(tasks, workers=1)
        b = run_sharded(tasks, workers=1)
        assert settled(a.result) == settled(b.result)
        assert a.result.messages == b.result.messages
        assert a.cross_messages == b.cross_messages


class TestRunGroup:
    def test_direct_group_run_reports_channel_stats(self):
        _family, tasks = mutex_tasks(4, 2)
        group = run_group(list(tasks))
        assert len(group.outcomes) == 2
        assert group.cross_violations == []
        assert group.cross_stats.get("messages", 0) > 0

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            run_group([])

    def test_lone_shard_is_a_group_of_one_without_a_gateway(self):
        # one shard owns the whole coupled pair: its cross dependencies
        # are local, so there is nothing to route and nothing to span
        _family, [task] = mutex_tasks(2, 1)
        assert task.cross_dependencies
        group = run_group([task])
        assert group.cross_stats == {}
        assert group.cross_violations == []
        sharded = run_sharded([task], workers=1)
        assert "x0/" not in json.dumps(sharded.metrics)

        def comparable(outcome):
            fields = dataclasses.asdict(outcome)
            # cache counters are process-wide: they move between runs
            fields["metrics"] = {
                key: value
                for key, value in fields["metrics"].items()
                if key != "kernel"
            }
            return fields

        [outcome] = group.outcomes
        assert not outcome.violations and not outcome.unsettled
        assert comparable(outcome) == comparable(sharded.outcomes[0])

    def test_exhausted_round_budget_is_a_group_violation(self):
        # nothing is attempted, so every base is left to complement
        # settlement -- more than the single round allowed
        family = make_mutex_family(2)
        idle = [instance_spec(suffix, []) for suffix, _ in family.instances]

        def outcomes(shards):
            tasks = plan_shards(
                family.template, idle, shards,
                cross_deps=family.cross_dependencies,
            )
            return run_group(list(tasks), max_rounds=1).outcomes

        stuck = ("settlement", "group settlement did not converge")
        for outcome in outcomes(2):
            assert outcome.violations.count(stuck) == 1
        [lone] = outcomes(1)
        assert lone.violations.count(
            ("settlement", "settlement did not converge")
        ) == 1
        assert stuck not in lone.violations

    def test_spanning_violation_detected_on_merged_timeline(self):
        # manufacture a timeline where both tasks enter before either
        # exits: the merged-trace check must flag the spanning mutex
        _family, tasks = mutex_tasks(2, 2)
        group = run_group(list(tasks))
        assert group.cross_violations == []
        forged = {"b_i0": 0.0, "b_i1": 1.0, "e_i0": 2.0, "e_i1": 3.0}
        bad = []
        for outcome in group.outcomes:
            entries = tuple(
                (event, forged.get(event, 9.0), attempted, op)
                for event, _time, attempted, op in outcome.entries
            )
            bad.append(
                type(outcome)(
                    **{
                        **outcome.__dict__,
                        "entries": entries,
                    }
                )
            )
        violations = _spanning_violations(list(tasks), bad)
        assert violations
        assert all(kind == "dependency" for kind, _ in violations)
