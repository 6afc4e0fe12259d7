"""Coupled components on one scheduler: plans that place each
component whole, and the one shard runner
(repro.scale.shards.run_shard)."""

import dataclasses
import json
import random

import pytest

from repro.algebra.symbols import Event
from repro.obs.check import check_records
from repro.obs.prom import lint_prometheus, render_prometheus
from repro.obs.tracer import Tracer
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scale.shards import run_shard
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workflows.template import WorkflowTemplate
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
        family, tasks = mutex_tasks(8, 4)
        assert tasks.cut_weight == 0
        assert len(tasks) == 4
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        assert sharded.cross_messages == 0
        merged = merged_baseline(family)
        assert merged.ok
        assert settled(sharded.result) == settled(merged)

    @pytest.mark.parametrize(
        "plan, shards", [("one_shard", [0]), ("min_cut", [0, 1, 2, 3])]
    )
    def test_fused_and_min_cut_plans_settle_like_merged(self, plan, shards):
        # four clusters of four over one shard, which holds them all,
        # or over four, one cluster each.  A shard is the unit of work
        # either way, and its sites are prefixed ``s<shard>/``
        family, tasks = mutex_tasks(16, len(shards), cluster=4, trace=True)
        assert [task.shard for task in tasks] == shards
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        assert settled(sharded.result) == settled(merged_baseline(family))
        sites = set(sharded.metrics["network"]["per_site_handled"])
        sites |= {r["site"] for r in sharded.trace_records if r.get("site")}
        assert {site.split("/")[0] for site in sites} == {
            f"s{shard}" for shard in shards
        }

    def test_faulty_cross_channel_still_settles(self):
        # there is no cross-shard channel left to make faulty: the
        # options are gone, and the plan settles like the merged
        # scheduler with a checkable trace
        family = make_mutex_family(8)
        instances = [
            instance_spec(suffix, scripts)
            for suffix, scripts in family.instances
        ]
        for option in (
            "cross_drop_probability", "cross_duplicate_probability"
        ):
            with pytest.raises(TypeError):
                plan_shards(family.template, instances, 2, **{option: 0.2})
        _family, tasks = mutex_tasks(8, 2, trace=True)
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations
        assert settled(sharded.result) == settled(merged_baseline(family))
        assert check_records(sharded.trace_records) == []

    def test_merged_trace_and_metrics_are_exportable(self):
        _family, tasks = mutex_tasks(4, 2, trace=True, sample_every=1.0)
        sharded = run_sharded(tasks, workers=1)
        assert check_records(sharded.trace_records) == []
        text = render_prometheus(sharded.metrics)
        assert lint_prometheus(text) == []
        assert "network" in sharded.metrics


class TestDeterminism:
    def test_identical_across_worker_counts(self):
        _family, tasks = mutex_tasks(8, 4)
        assert len(tasks) > 1
        a = run_sharded(tasks, workers=1)
        b = run_sharded(tasks, workers=3)
        assert [
            (repr(e.event), e.time, e.outcome) for e in a.result.entries
        ] == [(repr(e.event), e.time, e.outcome) for e in b.result.entries]
        assert a.result.messages == b.result.messages
        assert a.result.makespan == b.result.makespan

    def test_rerun_is_byte_identical(self):
        _family, tasks = mutex_tasks(6, 3, cluster=3)
        a = run_sharded(tasks, workers=1)
        b = run_sharded(tasks, workers=1)
        assert settled(a.result) == settled(b.result)
        assert a.result.messages == b.result.messages
        assert a.result.messages_by_kind == b.result.messages_by_kind


class TestRunGroup:
    """The runner of a coupled group is now the runner of any shard."""

    def test_direct_group_run_reports_channel_stats(self):
        _family, tasks = mutex_tasks(4, 1)
        [task] = tasks  # both clusters on the one shard
        assert len(task.instances) == 4
        outcome = run_shard(task)
        assert outcome.result.violations == [] == outcome.result.unsettled
        # the coupling traffic is the shard's own network traffic
        assert (
            outcome.metrics["network"]["messages"]
            == outcome.result.messages > 0
        )

    def test_rejects_empty_group(self):
        _family, [task] = mutex_tasks(2, 1)
        with pytest.raises(ValueError):
            run_shard(dataclasses.replace(task, instances=()))
        with pytest.raises(ValueError):
            run_sharded([])

    def test_lone_shard_is_a_group_of_one_without_a_gateway(self):
        _family, [task] = mutex_tasks(2, 1)
        assert task.cross_dependencies
        outcome = run_shard(task)
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

        assert not outcome.result.violations and not outcome.result.unsettled
        assert comparable(outcome) == comparable(sharded.outcomes[0])

    def test_idle_group_settles_to_a_maximal_run(self):
        # nothing is attempted, so every base is left to complement
        # settlement over several rounds.  Whatever the requested shard
        # count, the coupled pair runs on one shard, which settles it
        # all and ends maximal; the only violations are the guaranteed
        # exits promised to the entries and never attempted by their
        # idle agents
        family = make_mutex_family(2)
        idle = [instance_spec(suffix, []) for suffix, _ in family.instances]
        for shards in (1, 2):
            [task] = plan_shards(
                family.template, idle, shards,
                cross_deps=family.cross_dependencies,
            )
            outcome = run_shard(task)
            assert outcome.result.terminal == "maximal"
            assert outcome.result.unsettled == []
            assert [v.detail for v in outcome.result.violations] == [
                f"e_i{k} promised occurrence but never occurred"
                for k in (0, 1)
            ]
            merged = run_sharded([task], workers=1).result
            assert merged.terminal == "maximal"

    def test_merged_run_is_stuck_when_a_shard_is(self):
        # one shard attempts nothing and skips settlement: it ends
        # stuck, and so does the merged run, though the others settle
        _family, tasks = mutex_tasks(8, 4)
        idle = dataclasses.replace(
            tasks[1],
            settle=False,
            instances=tuple(
                instance_spec(spec.suffix, []) for spec in tasks[1].instances
            ),
        )
        sharded = run_sharded([tasks[0], idle, *tasks[2:]], workers=1)
        assert [o.result.terminal for o in sharded.outcomes] == [
            "maximal", "stuck", "maximal", "maximal",
        ]
        assert sharded.result.terminal == "stuck"

    def test_spanning_violation_detected_on_merged_timeline(self):
        # a nonrejectable, non-delayable entry is forced through
        # against its guard; the violated cross dependency is found by
        # the shard's own post-run verification, like any dependency
        family = make_mutex_family(2)
        family.template.set_attributes(
            Event("b"), rejectable=False, delayable=False
        )
        instances = [
            instance_spec(suffix, scripts)
            for suffix, scripts in family.instances
        ]
        [task] = plan_shards(
            family.template, instances, 2,
            cross_deps=family.cross_dependencies,
        )
        outcome = run_shard(task)
        violated = [
            violation.detail for violation in outcome.result.violations
            if violation.kind == "dependency"
        ]
        assert violated
        assert all(
            any(repr(dep) in detail for dep in task.cross_dependencies)
            for detail in violated
        )
        sharded = run_sharded([task], workers=1)
        assert not sharded.result.ok

    def test_fused_shard_is_a_single_scheduler_record_for_record(self):
        # six coupled instances are one component: over 3 shards the
        # plan holds one shard, whose run is exactly the run of one
        # DistributedScheduler over the same instances, cross
        # dependencies and seed
        family, tasks = mutex_tasks(6, 3, cluster=6, trace=True)
        [task] = tasks
        assert len(task.instances) == 6
        outcome = run_shard(task)

        merged, _stamped = WorkflowTemplate(task.workflow).instantiate_merged(
            [instance.suffix for instance in task.instances]
        )
        tracer = Tracer()
        scheduler = DistributedScheduler(
            merged.dependencies + list(task.cross_dependencies),
            sites=merged.sites,
            attributes=merged.attributes,
            rng=random.Random(task.seed),
            tracer=tracer,
        )
        result = scheduler.run(
            [
                script
                for instance in task.instances
                for script in instance.scripts
            ]
        )
        assert result.ok, result.violations

        def comparable(records):
            # the merge prefixes sites s0/
            return [
                {
                    key: value[len("s0/"):]
                    if isinstance(value, str) and value.startswith("s0/")
                    else value
                    for key, value in record.items()
                }
                for record in records
            ]

        reference = comparable(tracer.records)
        assert len(reference) > 100
        assert comparable(outcome.trace_records) == reference
        sharded = run_sharded(tasks, workers=1)
        assert comparable(sharded.trace_records) == reference
