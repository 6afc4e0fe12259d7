"""The process-pool shard runner (repro.scale.shards)."""

import multiprocessing
import os
import pickle
import random
import sys
import time

import pytest

from repro.algebra.symbols import Event
from repro.obs.check import check_records
from repro.obs.prom import lint_prometheus, render_prometheus
from repro.scale import (
    InstanceSpec,
    instance_spec,
    plan_shards,
    run_sharded,
    shard_seed,
)
from repro.scale import shards as shards_module
from repro.scale.shards import run_shard
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workflows.template import WorkflowTemplate
from repro.workloads.scenarios import make_mutex_family, make_travel_booking


def hang_on_shard_one(task):
    """Stands in for ``run_shard`` in the pool's (forked) workers."""
    if task.shard == 1:
        time.sleep(60)
    return run_shard(task)


#: where the stand-ins below log the shards they ran (one line each;
#: set before the pool forks, so the workers write there too)
RUN_LOG = None


def raise_on_shard_one(task):
    with open(RUN_LOG, "a") as log:
        log.write(f"{task.shard}\n")
    if task.shard == 1:
        raise ValueError("boom")
    return run_shard(task)


def die_in_a_worker_on_shard_one(task):
    if task.shard == 1 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return run_shard(task)


def travel_instances(count, rng_seed=0):
    rng = random.Random(rng_seed)
    out = []
    for i in range(count):
        outcome = "success" if rng.random() < 0.7 else "failure"
        scenario = make_travel_booking(outcome, suffix=f"_i{i}")
        out.append(instance_spec(f"_i{i}", scenario.scripts))
    return out


TEMPLATE = make_travel_booking().workflow


class TestWireFormat:
    def test_script_spec_round_trip(self):
        e, f = Event("e"), Event("f")
        script = AgentScript(
            "site_a",
            [ScriptedAttempt(1.0, e), ScriptedAttempt(2.0, ~f, after=e)],
        )
        rebuilt = pickle.loads(pickle.dumps(script))
        assert rebuilt is not script and rebuilt.site == script.site
        assert [
            (a.time, a.event, a.after) for a in rebuilt.attempts
        ] == [(a.time, a.event, a.after) for a in script.attempts]

    def test_shard_task_rebuilds_template(self):
        instances = travel_instances(2)
        [task] = plan_shards(TEMPLATE, instances, 1, seed=5)
        template = WorkflowTemplate(pickle.loads(pickle.dumps(task)).workflow)
        assert template.workflow is not TEMPLATE
        assert template.workflow.dependencies == TEMPLATE.dependencies
        assert template.workflow.sites == TEMPLATE.sites
        assert template.workflow.attributes == TEMPLATE.attributes

    def test_tasks_are_picklable(self):
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=1)
        for task in tasks:
            clone = pickle.loads(pickle.dumps(task))
            assert clone == task


class TestPlanning:
    def test_round_robin_partition(self):
        instances = travel_instances(7)
        tasks = plan_shards(TEMPLATE, instances, 3, seed=0)
        assert [len(t.instances) for t in tasks] == [3, 2, 2]
        suffixes = [
            [i.suffix for i in task.instances] for task in tasks
        ]
        assert suffixes == [
            ["_i0", "_i3", "_i6"], ["_i1", "_i4"], ["_i2", "_i5"],
        ]

    def test_more_shards_than_instances_clamps(self, caplog):
        # regression: the clamp used to be silent -- it must warn
        with caplog.at_level("WARNING", logger="repro.scale.shards"):
            tasks = plan_shards(TEMPLATE, travel_instances(2), 8, seed=0)
        assert len(tasks) == 2
        assert any(
            "clamping" in record.message for record in caplog.records
        )

    def test_plan_carries_partition_metadata(self):
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=0)
        assert tasks.cut_weight == 0
        assert tasks.assignment == ((0, 2), (1, 3))
        assert not hasattr(tasks, "groups")
        assert not hasattr(tasks, "placement")
        # a coupled request: each cluster of two is placed whole, and
        # its shard carries the cluster's cross dependencies
        family = make_mutex_family(4)
        coupled = plan_shards(
            family.template,
            [instance_spec(sfx, scripts) for sfx, scripts in family.instances],
            2,
            cross_deps=family.cross_dependencies,
        )
        assert coupled.cut_weight == 0
        assert coupled.assignment == ((0, 1), (2, 3))
        assert [task.shard for task in coupled] == [0, 1]
        pairs = family.cross_dependencies
        assert [list(task.cross_dependencies) for task in coupled] == [
            pairs[:2], pairs[2:],
        ]

    def test_the_benchmark_plan_puts_cluster_k_on_shard_k_mod_4(self):
        # N = 192 in clusters of four over four shards, as e2e's
        # ``mutex_sharded`` plans it
        family = make_mutex_family(192, cluster=4)
        tasks = plan_shards(
            family.template,
            [instance_spec(sfx, scripts) for sfx, scripts in family.instances],
            4,
            cross_deps=family.cross_dependencies,
        )
        assert tasks.assignment == tuple(
            tuple(
                i for k, members in enumerate(family.clusters)
                if k % 4 == shard for i in members
            )
            for shard in range(4)
        )

    def test_min_cut_is_the_only_placement(self):
        instances = travel_instances(2)
        plan_shards(TEMPLATE, instances, 2, placement="min_cut")
        with pytest.raises(ValueError, match="unknown placement"):
            plan_shards(TEMPLATE, instances, 2, placement="round_robin")

    @pytest.mark.parametrize(
        "text, unknown",
        [
            # names no planned instance at all: used to be dropped
            # silently (no shard owned it), the run reporting ok
            ("~b_i7 + e_i9 . b_i7", ["b_i7", "e_i9"]),
            # one foreign base is enough: two components sharing it
            # would each grow their own actor for it
            ("~b_i0 + e_i9 . b_i0", ["e_i9"]),
        ],
    )
    def test_cross_dep_on_unplanned_instance_is_rejected(self, text, unknown):
        family = make_mutex_family(2)
        instances = [
            instance_spec(sfx, scripts) for sfx, scripts in family.instances
        ]
        with pytest.raises(ValueError) as raised:
            plan_shards(family.template, instances, 2, cross_deps=[text])
        message = str(raised.value)
        # names the dependency, and exactly the bases nobody owns
        assert text in message
        assert f"[{', '.join(unknown)}] belong to none" in message

    def test_instances_sharing_a_base_are_rejected(self):
        # two specs of one instance land in different shards, where no
        # merge sees both: each shard would settle every event again
        twice = travel_instances(1) * 2
        clash = min(
            WorkflowTemplate(TEMPLATE).mapping_for("_i0").values(),
            key=Event.sort_key,
        )
        clashing = f"not event-disjoint: {clash!r} "
        with pytest.raises(ValueError, match=clashing):
            plan_shards(TEMPLATE, twice, 2)

    def test_seed_mix_is_deterministic_and_separated(self):
        seeds = [shard_seed(42, k) for k in range(16)]
        assert seeds == [shard_seed(42, k) for k in range(16)]
        assert len(set(seeds)) == 16
        assert set(seeds).isdisjoint(shard_seed(43, k) for k in range(16))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(TEMPLATE, travel_instances(2), 0)
        with pytest.raises(ValueError):
            plan_shards(TEMPLATE, [], 2)
        with pytest.raises(ValueError):
            run_sharded([])


class TestExecution:
    def test_shard_runs_clean_and_uses_fast_path(self):
        [task] = plan_shards(TEMPLATE, travel_instances(3), 1, seed=2)
        outcome = run_shard(task)
        assert not outcome.result.violations
        assert not outcome.result.unsettled
        assert outcome.fast_instantiations == 3
        assert outcome.fallback_instantiations == 0

    def test_sharded_matches_merged_single_scheduler(self):
        instances = travel_instances(6)
        tasks = plan_shards(TEMPLATE, instances, 3, seed=1)
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.ok, sharded.result.violations

        # one scheduler over all six instances, built the classic way
        rng = random.Random(0)
        workflow = None
        scripts = []
        for i in range(6):
            outcome = "success" if rng.random() < 0.7 else "failure"
            scn = make_travel_booking(outcome, suffix=f"_i{i}")
            workflow = (
                scn.workflow if workflow is None
                else workflow.merged(scn.workflow)
            )
            scripts.extend(scn.scripts)
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            rng=random.Random(9),
        )
        merged = sched.run(scripts)
        assert merged.ok
        assert {e.event for e in sharded.result.entries} == {
            e.event for e in merged.entries
        }

    def test_deterministic_across_worker_counts(self):
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        a = run_sharded(tasks, workers=1)
        b = run_sharded(tasks, workers=2)
        assert [
            (e.event, e.time, e.outcome) for e in a.result.entries
        ] == [(e.event, e.time, e.outcome) for e in b.result.entries]
        assert a.result.makespan == b.result.makespan
        assert a.result.messages == b.result.messages
        assert a.result.messages_by_kind == b.result.messages_by_kind

    def test_merged_counters_sum_over_shards(self):
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        sharded = run_sharded(tasks, workers=1)
        assert sharded.result.messages == sum(
            o.result.messages for o in sharded.outcomes
        )
        assert sharded.result.makespan == max(
            o.result.makespan for o in sharded.outcomes
        )
        assert len(sharded.result.entries) == sum(
            len(o.result.entries) for o in sharded.outcomes
        )
        assert sharded.result.entries == sorted(
            sharded.result.entries, key=lambda e: e.time
        )

    def test_merged_trace_passes_checker(self):
        tasks = plan_shards(
            TEMPLATE, travel_instances(4), 2, seed=3, trace=True
        )
        sharded = run_sharded(tasks, workers=1)
        assert sharded.trace_records is not None
        assert check_records(sharded.trace_records) == []
        sites = {r["site"] for r in sharded.trace_records}
        assert any(site.startswith("s0/") for site in sites)
        assert any(site.startswith("s1/") for site in sites)

    def test_merged_metrics_render_as_prometheus(self):
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        sharded = run_sharded(tasks, workers=1)
        text = render_prometheus(sharded.metrics)
        assert lint_prometheus(text) == []

    def test_untraced_run_has_no_trace(self):
        tasks = plan_shards(TEMPLATE, travel_instances(2), 2, seed=0)
        sharded = run_sharded(tasks, workers=1)
        assert sharded.trace_records is None

    def test_instance_spec_frozen(self):
        spec = InstanceSpec(suffix="_i0", scripts=())
        with pytest.raises(AttributeError):
            spec.suffix = "_i1"


class TestPersistentPool:
    def test_pool_reused_across_runs(self):
        from repro.scale.shards import _get_pool, shutdown_pool

        shutdown_pool()
        pool = _get_pool(2)
        assert _get_pool(2) is pool
        assert _get_pool(1) is pool  # smaller requests reuse it too
        bigger = _get_pool(3)
        assert bigger is not pool
        shutdown_pool()

    def test_broken_pool_falls_back_in_process_and_says_so(
        self, monkeypatch, caplog
    ):
        from concurrent.futures.process import BrokenProcessPool

        from repro.scale import shards

        def broken(workers):
            raise BrokenProcessPool("a worker died")

        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        expected = run_sharded(tasks, workers=1)
        monkeypatch.setattr(shards, "_get_pool", broken)
        with caplog.at_level("WARNING", logger="repro.scale.shards"):
            fallen_back = run_sharded(tasks, workers=2)
        [warning] = [
            record.getMessage() for record in caplog.records
            if "in-process" in record.getMessage()
        ]
        assert "BrokenProcessPool" in warning
        assert "a worker died" in warning
        assert "2 shard(s)" in warning
        assert fallen_back.result.entries == expected.result.entries
        assert fallen_back.result.messages == expected.result.messages
        assert fallen_back.result.violations == expected.result.violations == []

    def test_dead_worker_falls_back_in_process_and_says_so(
        self, monkeypatch, caplog
    ):
        # the pool breaks while running, not while being built
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        expected = run_sharded(tasks, workers=1)
        shards_module.shutdown_pool()
        monkeypatch.setattr(
            shards_module, "run_shard", die_in_a_worker_on_shard_one
        )
        with caplog.at_level("WARNING", logger="repro.scale.shards"):
            fallen_back = run_sharded(tasks, workers=2)
        [warning] = [
            record.getMessage() for record in caplog.records
            if "in-process" in record.getMessage()
        ]
        assert "process pool unusable (BrokenProcessPool" in warning
        assert shards_module._POOL is None
        assert fallen_back.result == expected.result

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_shard_surfaces_once_and_names_itself(
        self, workers, monkeypatch, caplog, tmp_path
    ):
        # regression: the shard's ValueError was taken for "no usable
        # pool" -- warning, pool shut down, every shard run again
        # in-process -- and surfaced only then, without the shard
        shards_module.shutdown_pool()
        monkeypatch.setattr(shards_module, "run_shard", raise_on_shard_one)
        monkeypatch.setattr(sys.modules[__name__], "RUN_LOG", tmp_path / "ran")
        tasks = plan_shards(TEMPLATE, travel_instances(4), 2, seed=3)
        with caplog.at_level("WARNING", logger="repro.scale.shards"):
            with pytest.raises(RuntimeError) as raised:
                run_sharded(tasks, workers=workers)
        assert str(raised.value) == "shard 1 failed: ValueError: boom"
        assert isinstance(raised.value.__cause__, ValueError)
        assert not caplog.records
        assert sorted((tmp_path / "ran").read_text().split()) == ["0", "1"]
        if workers > 1:  # the healthy pool is kept
            assert shards_module._POOL is not None

    def test_hung_shard_times_out_and_names_itself(self, monkeypatch):
        # forked after the patch, so the workers see it too
        shards_module.shutdown_pool()
        monkeypatch.setattr(shards_module, "SHARD_TIMEOUT_S", 0.5)
        monkeypatch.setattr(shards_module, "run_shard", hang_on_shard_one)
        tasks = plan_shards(TEMPLATE, travel_instances(3), 3, seed=3)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=r"shard\(s\) \[1\] did not"):
            run_sharded(tasks, workers=2)
        assert time.monotonic() - started < 10
        # the hung worker was terminated, not waited on or orphaned
        deadline = time.monotonic() + 5
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []
        # and the next run gets a fresh pool
        monkeypatch.undo()
        assert run_sharded(tasks, workers=2).result.ok

    def test_default_workers_bounded_by_work(self):
        from repro.scale.shards import _default_workers

        assert _default_workers(1) == 1
        assert 1 <= _default_workers(64) <= 64

    def test_run_sharded_defaults_workers(self):
        tasks = plan_shards(TEMPLATE, travel_instances(2), 2, seed=0)
        sharded = run_sharded(tasks)  # workers unset
        assert sharded.result.ok
        assert sharded.workers >= 1


class TestShardedObservability:
    def _run(self, **plan_kwargs):
        tasks = plan_shards(
            TEMPLATE, travel_instances(4), 2, seed=3, **plan_kwargs
        )
        return run_sharded(tasks, workers=1)

    def test_profile_merged_across_shards(self):
        sharded = self._run(profile=True)
        assert sharded.profile is not None
        phases = sharded.profile["phases"]
        # synthesis happens once per worker, under template stamping
        assert "template_stamp" in phases
        assert "template_stamp/synthesis" in phases
        # merged self/cum times are the sums of the per-shard reports
        for path, node in phases.items():
            per_shard = [
                outcome.profile["phases"][path]
                for outcome in sharded.outcomes
                if path in outcome.profile["phases"]
            ]
            assert node["calls"] == sum(n["calls"] for n in per_shard)
            assert node["self_seconds"] == pytest.approx(
                sum(n["self_seconds"] for n in per_shard)
            )

    def test_unprofiled_run_has_no_profile(self):
        sharded = self._run()
        assert sharded.profile is None
        assert all(o.profile is None for o in sharded.outcomes)

    def test_timeseries_merged_monotone_fleet_totals(self):
        from repro.obs.timeseries import monotone_in_time

        sharded = self._run(sample_every=1.0)
        series = sharded.metrics["timeseries"]["series"]
        assert "parked_events" in series
        assert "inflight_messages" in series
        for name, points in series.items():
            assert monotone_in_time(points), name
        # a merged gauge's peak can never exceed the sum of shard peaks
        for name, points in series.items():
            shard_peaks = sum(
                max((v for _, v in o.metrics["timeseries"]["series"][name]),
                    default=0.0)
                for o in sharded.outcomes
            )
            assert max(v for _, v in points) <= shard_peaks + 1e-9, name

    def test_profiling_keeps_observables_identical(self):
        plain = self._run()
        profiled = self._run(profile=True, sample_every=1.0)
        assert [
            (repr(e.event), e.time, e.outcome) for e in plain.result.entries
        ] == [
            (repr(e.event), e.time, e.outcome)
            for e in profiled.result.entries
        ]
        assert plain.result.makespan == profiled.result.makespan
        assert plain.result.messages == profiled.result.messages

    def test_watch_and_interning_counters_survive_prom_export(self):
        # regression: the sharded merge used to element-wise max the
        # watch-index work counters along with the cache snapshots,
        # under-reporting fleet work; they must sum -- and both watch
        # and interning kernel stats must reach the Prometheus export
        sharded = self._run(sample_every=1.0)
        watch = sharded.metrics["kernel"]["watch"]
        for key, value in watch.items():
            assert value == sum(
                o.metrics["kernel"]["watch"][key] for o in sharded.outcomes
            ), key
        text = render_prometheus(sharded.metrics)
        assert lint_prometheus(text) == []
        assert "repro_kernel_watch_wakes" in text
        assert "repro_kernel_interning" in text
        assert "repro_ts_parked_events" in text

    def test_hand_offs_sum_across_shards(self):
        """The merge sums the hand-offs within a site as it sums the
        transmissions between sites."""
        sharded = self._run()
        network = sharded.metrics["network"]
        for key in ("intra_site", "messages"):
            assert network[key] == sum(
                o.metrics["network"][key] for o in sharded.outcomes
            ) > 0, key

    def test_compiled_counters_sum_across_shards(self):
        # regression: same defect as the watch counters above -- each
        # shard's scheduler overlays its private guard engine's work
        # counters on kernel["compiled"], so the merge must sum them
        sharded = self._run()
        assert len(sharded.outcomes) == 2
        compiled = sharded.metrics["kernel"]["compiled"]
        assert compiled["hops"] > 0
        for key, value in compiled.items():
            assert value == sum(
                o.metrics["kernel"]["compiled"][key] for o in sharded.outcomes
            ), key
        assert "repro_kernel_compiled_hops" in render_prometheus(sharded.metrics)

    def test_shape_lookups_sum_across_shards(self):
        # regression, same defect again: each shard's scheduler
        # overlays the shape-table lookups its own constructor made on
        # kernel["synthesis"].  Both shards run in this process, so
        # summing the process-wide counters would count shard 0 twice
        family = make_mutex_family(8, cluster=2)
        tasks = plan_shards(
            family.template,
            [instance_spec(sfx, scripts) for sfx, scripts in family.instances],
            2,
            seed=3,
            cross_deps=family.cross_dependencies,
            placement="min_cut",
        )
        sharded = run_sharded(tasks, workers=1)
        assert len(sharded.outcomes) == 2
        synthesis = sharded.metrics["kernel"]["synthesis"]
        for key in ("shape_hits", "shape_misses"):
            assert synthesis[key] == sum(
                o.metrics["kernel"]["synthesis"][key] for o in sharded.outcomes
            ), key
        # a shard carrying cross dependencies synthesizes its whole
        # table, one lookup per signed event: each instance has b, e
        # and their complements
        assert synthesis["shape_hits"] + synthesis["shape_misses"] == 4 * 8
        assert synthesis["shapes"] == max(
            o.metrics["kernel"]["synthesis"]["shapes"] for o in sharded.outcomes
        )
