"""Consistent global snapshots: the marker protocol and its checker."""

import random

import pytest

from repro.obs.snapshot import MARKER_KIND, check_snapshot
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_travel_booking


def travel_scheduler(**kwargs):
    scenario = make_travel_booking()
    workflow = scenario.workflow
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        **kwargs,
    )
    return scenario, sched


class TestPlainRun:
    def test_periodic_snapshots_complete_and_check_clean(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.schedule_snapshots(2.0)
        sched.run(scenario.scripts)
        snaps = sched.snapshots.snapshots
        completed = [s for s in snaps if s.complete]
        assert completed, "no snapshot completed on a fault-free run"
        for snap in completed:
            assert check_snapshot(snap, sched.tracer.records) == []

    def test_snapshot_records_every_site(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        snap = sched.snapshot()
        assert snap is not None and snap.complete
        assert sorted(snap.states) == sched.snapshot_sites()
        assert check_snapshot(snap, sched.tracer.records) == []

    def test_manual_snapshot_midway(self):
        _scenario, sched = travel_scheduler(tracer=Tracer())
        from repro.algebra.symbols import Event

        sched.attempt(Event("c_buy"))
        snap = sched.snapshot()  # runs the sim until markers settle
        assert snap is not None and snap.complete
        assert check_snapshot(snap, sched.tracer.records) == []

    @pytest.mark.parametrize("reliable", [False, True])
    def test_in_channel_messages_are_recorded(self, reliable):
        # the coordinator hooks whichever transport delivers: the raw
        # fabric, or the session layer over it
        scenario, sched = travel_scheduler(reliable=reliable)
        sched.schedule_snapshots(1.0)
        sched.run(scenario.scripts)
        snaps = sched.snapshots.snapshots
        assert snaps and all(snap.complete for snap in snaps)
        assert any(
            messages for snap in snaps for messages in snap.channels.values()
        )
        assert sched.channel.delivery_hook is None  # cleared when done

    def test_marker_messages_are_counted_by_kind(self):
        scenario, sched = travel_scheduler()
        sched.run(scenario.scripts)
        sched.snapshot()
        assert sched.network.stats.by_kind.get(MARKER_KIND, 0) > 0

    def test_metrics_count_initiations_and_completions(self):
        scenario, sched = travel_scheduler()
        sched.run(scenario.scripts)
        sched.snapshot()
        report = sched.metrics_report()["counters"]
        assert report["snapshots_initiated"]["total"] >= 1
        assert report["snapshots_completed"]["total"] >= 1


class TestChaosRun:
    def test_snapshots_survive_drops_dups_and_a_crash(self):
        plan = FaultPlan.of([SiteCrash("car_rental", 3.0, restart_at=9.0)])
        scenario, sched = travel_scheduler(
            tracer=Tracer(),
            rng=random.Random(4242),
            drop_probability=0.3,
            duplicate_probability=0.3,
            reliable=True,
            fault_plan=plan,
        )
        sched.schedule_snapshots(3.0)
        sched.run(scenario.scripts, verify=False)
        snaps = sched.snapshots.snapshots
        completed = [s for s in snaps if s.complete]
        assert completed, "no snapshot completed despite the restart"
        for snap in completed:
            assert check_snapshot(snap, sched.tracer.records) == []

    def test_permanent_crash_terminates_with_incomplete_snapshots(self):
        plan = FaultPlan.of([SiteCrash("car_rental", 1.0)])
        scenario, sched = travel_scheduler(
            tracer=Tracer(),
            rng=random.Random(99),
            reliable=True,
            fault_plan=plan,
        )
        sched.schedule_snapshots(2.0)
        sched.run(scenario.scripts, verify=False)  # must terminate
        incomplete = [
            s for s in sched.snapshots.snapshots if not s.complete
        ]
        for snap in incomplete:
            diags = check_snapshot(snap)
            assert any(d.code == "snapshot-incomplete" for d in diags)

    def test_post_run_manual_snapshot_after_restart_is_clean(self):
        plan = FaultPlan.of([SiteCrash("airline", 2.0, restart_at=6.0)])
        scenario, sched = travel_scheduler(
            tracer=Tracer(),
            rng=random.Random(7),
            drop_probability=0.2,
            duplicate_probability=0.2,
            reliable=True,
            fault_plan=plan,
        )
        sched.run(scenario.scripts, verify=False)
        snap = sched.snapshot()
        assert snap is not None and snap.complete
        assert check_snapshot(snap, sched.tracer.records) == []


class TestChecker:
    def complete_snapshot(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        snap = sched.snapshot()
        return snap.as_dict(), sched.tracer.records

    def test_incomplete_snapshot_is_flagged(self):
        snap, _records = self.complete_snapshot()
        snap["complete"] = False
        snap["missing"] = ["airline->car_rental"]
        diags = check_snapshot(snap)
        assert [d.code for d in diags] == ["snapshot-incomplete"]

    def test_internal_conflict_is_flagged(self):
        snap, _records = self.complete_snapshot()
        site = next(iter(snap["sites"]))
        state = snap["sites"][site]
        # forge a settlement contradicting itself across two carriers
        state.setdefault("settled", {})["zz"] = "zz"
        state.setdefault("monitors", []).append({"settled": ["~zz"]})
        diags = check_snapshot(snap)
        assert any(d.code == "snapshot-conflict" for d in diags)

    def test_cross_site_disagreement_is_flagged(self):
        snap, _records = self.complete_snapshot()
        sites = sorted(snap["sites"])
        assert len(sites) >= 2
        snap["sites"][sites[0]].setdefault("settled", {})["zz"] = "zz"
        snap["sites"][sites[1]].setdefault("settled", {})["zz"] = "~zz"
        diags = check_snapshot(snap)
        assert any(d.code == "snapshot-conflict" for d in diags)

    def test_fact_with_no_firing_is_causal_violation(self):
        snap, records = self.complete_snapshot()
        site = next(iter(snap["sites"]))
        snap["sites"][site].setdefault("settled", {})["zz"] = "zz"
        diags = check_snapshot(snap, records)
        assert any(d.code == "snapshot-causal" for d in diags)

    def test_fact_fired_outside_cut_is_flagged(self):
        snap, records = self.complete_snapshot()
        # move every cut stamp before the first firing: all settled
        # knowledge now claims to predate the cut it crossed
        snap["cut"] = {site: -1 for site in snap["cut"]}
        diags = check_snapshot(snap, records)
        assert any(d.code == "snapshot-cut" for d in diags)

    def test_schedule_snapshots_rejects_bad_interval(self):
        _scenario, sched = travel_scheduler()
        with pytest.raises(ValueError):
            sched.schedule_snapshots(0.0)
