"""Consistent global snapshots: a cut read between simulator steps, and
its checker."""

import random
from collections import Counter

import pytest

from repro.obs.snapshot import check_snapshot
from repro.obs.tracer import Tracer
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.sim.network import UniformLatency
from repro.workloads.scenarios import make_mutex_scenario, make_travel_booking

SCENARIOS = {"travel": make_travel_booking, "mutex": make_mutex_scenario}

#: the fabrics a snapshot must not perturb: raw with jitter, the
#: session layer under drops, and the session layer across a crash
FABRICS = {
    "raw_jitter": lambda sites: {"latency": UniformLatency(0.5, 1.5)},
    "reliable_drop": lambda sites: {
        "reliable": True, "drop_probability": 0.2,
    },
    "reliable_crash": lambda sites: {
        "fault_plan": FaultPlan.of(
            [SiteCrash(sites[0], at=2.0, restart_at=6.0)]
        ),
    },
}


def scheduler_for(scenario, **kwargs):
    workflow = scenario.workflow
    return DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        **kwargs,
    )


def travel_scheduler(**kwargs):
    scenario = make_travel_booking()
    return scenario, scheduler_for(scenario, **kwargs)


def fingerprint(sched, result):
    """What a run decided and sent."""
    return (
        [(repr(e.event), e.time, e.outcome) for e in result.entries],
        result.makespan,
        result.messages,
        dict(sched.network.stats.by_kind),
    )


def run_on(name, fabric, seed, snapshot_every=None, tracer=None):
    scenario = SCENARIOS[name]()
    sites = sorted(set(scenario.workflow.sites.values()))
    sched = scheduler_for(
        scenario, rng=random.Random(seed), tracer=tracer,
        **FABRICS[fabric](sites),
    )
    if snapshot_every is not None:
        sched.schedule_snapshots(snapshot_every)
    return sched, sched.run(scenario.scripts, verify=False)


class TestObserversOnlyRead:
    @pytest.mark.parametrize("fabric", sorted(FABRICS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_snapshots_leave_the_run_unchanged(self, name, fabric):
        taken = 0
        for seed in range(5):
            sched, result = run_on(name, fabric, seed, snapshot_every=2.0)
            taken += len(sched.snapshots)
            assert fingerprint(sched, result) == fingerprint(
                *run_on(name, fabric, seed)
            ), seed
        assert taken

    def test_a_traced_run_records_the_same_trace(self):
        plain, snapped = Tracer(), Tracer()
        run_on("travel", "reliable_drop", 3, tracer=plain)
        sched, _ = run_on(
            "travel", "reliable_drop", 3, snapshot_every=1.0, tracer=snapped
        )
        assert sched.snapshots
        assert snapped.records == plain.records

    def test_idle_boundaries_take_no_copies(self):
        scenario, sched = travel_scheduler()
        sched.schedule_snapshots(0.25)
        sched.run(scenario.scripts)
        times = [snap.time for snap in sched.snapshots]
        assert times == sorted(set(times))
        # the constant-latency run moves at whole time units only
        assert len(times) <= sched.sim.now + 1


class TestPlainRun:
    def test_periodic_snapshots_complete_and_check_clean(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.schedule_snapshots(2.0)
        sched.run(scenario.scripts)
        snaps = sched.snapshots
        assert snaps, "no snapshot taken on a fault-free run"
        assert [snap.id for snap in snaps] == list(range(1, len(snaps) + 1))
        for snap in snaps:
            assert check_snapshot(snap, sched.tracer.records) == []

    def test_snapshot_records_every_site(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        snap = sched.snapshot()
        assert sorted(snap.states) == sched.snapshot_sites()
        assert snap.down == [] and snap.channels == {}
        assert snap.cut == {
            site: sched.tracer.clock(site) for site in snap.states
        }
        assert check_snapshot(snap, sched.tracer.records) == []

    def test_manual_snapshot_midway(self):
        _scenario, sched = travel_scheduler(tracer=Tracer())
        from repro.algebra.symbols import Event

        sched.attempt(Event("c_buy"))
        pending = sched.sim.pending
        records = len(sched.tracer.records)
        snap = sched.snapshot()  # a read: nothing runs
        assert sched.sim.pending == pending
        assert len(sched.tracer.records) == records
        assert sum(map(len, snap.channels.values())) == sched.network.inflight
        assert check_snapshot(snap, sched.tracer.records) == []

    @pytest.mark.parametrize("reliable", [False, True])
    def test_in_channel_messages_are_recorded(self, reliable):
        # whichever transport delivers lists what is in its channels:
        # the raw fabric, or the session layer over it
        scenario, sched = travel_scheduler(reliable=reliable)
        sched.schedule_snapshots(1.0)
        sched.run(scenario.scripts)
        snaps = sched.snapshots
        assert snaps
        assert any(
            messages for snap in snaps for messages in snap.channels.values()
        )
        for snap in snaps:
            for messages in snap.channels.values():
                assert all(m["kind"] != "ack" for m in messages)


class TestChannels:
    def test_raw_channel_count_equals_inflight_at_every_cut(self):
        scenario = make_mutex_scenario()
        sched = scheduler_for(
            scenario, rng=random.Random(1), latency=UniformLatency(0.5, 1.5)
        )
        inflight = {}
        sched.schedule_snapshots(0.5)
        sched.sim.sample_every(
            0.5, lambda t: inflight.setdefault(t, sched.network.inflight)
        )
        sched.run(scenario.scripts)
        assert sched.snapshots
        for snap in sched.snapshots:
            listed = sum(map(len, snap.channels.values()))
            assert listed == inflight[snap.time], snap.time

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_raw_channels_hold_what_the_trace_shows_crossing_the_cut(
        self, name
    ):
        # a message is in the cut's channel iff its send is at or
        # before the sender's cut and its receive after the receiver's
        tracer = Tracer()
        sched, _result = run_on(
            name, "raw_jitter", 2, snapshot_every=0.5, tracer=tracer
        )
        sends, recvs = {}, {}
        for record in tracer.records:
            if record["cat"] == "message":
                if record["op"] == "send":
                    sends[record["mid"]] = record
                elif record["op"] == "recv":
                    recvs[record["mid"]] = record
        crossing = 0
        for snap in sched.snapshots:
            expected = Counter(
                (f"{send['src']}->{send['dst']}", send["kind"])
                for mid, send in sends.items()
                if send["lc"] <= snap.cut[send["src"]]
                and recvs[mid]["lc"] > snap.cut[send["dst"]]
            )
            listed = Counter(
                (channel, message["kind"])
                for channel, messages in snap.channels.items()
                for message in messages
            )
            assert listed == expected, snap.time
            crossing += sum(listed.values())
        assert crossing

    def test_session_channels_list_each_payload_once(self):
        # no loss: every payload packet on the fabric is one payload not
        # yet released, so the session layer lists exactly those
        scenario = make_travel_booking()
        sched = scheduler_for(
            scenario, rng=random.Random(5), reliable=True,
            latency=UniformLatency(0.5, 1.5),
        )
        seen = []

        def compare(_t):
            session = sorted(
                (src, dst, kind)
                for src, dst, kind, _p in sched.channel.undelivered()
            )
            fabric = sorted(
                (src, dst, kind)
                for src, dst, kind, _p in sched.network.undelivered()
                if kind != "ack"
            )
            seen.append(len(session))
            assert session == fabric

        sched.sim.sample_every(0.5, compare)
        sched.run(scenario.scripts)
        assert any(seen)

    def test_down_site_is_listed_with_its_durable_state(self):
        plan = FaultPlan.of([SiteCrash("car_rental", 1.0)])
        scenario, sched = travel_scheduler(
            tracer=Tracer(), rng=random.Random(99), fault_plan=plan,
        )
        sched.schedule_snapshots(2.0)
        sched.run(scenario.scripts, verify=False)  # must terminate
        assert sched.snapshots
        for snap in sched.snapshots:
            assert snap.down == ["car_rental"]
            assert "car_rental" in snap.states
            assert check_snapshot(snap, sched.tracer.records) == []


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
        snaps = sched.snapshots
        assert any(snap.down for snap in snaps)
        for snap in snaps:
            assert check_snapshot(snap, sched.tracer.records) == []

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
        assert snap.down == []
        assert check_snapshot(snap, sched.tracer.records) == []


class TestChecker:
    def complete_snapshot(self):
        scenario, sched = travel_scheduler(tracer=Tracer())
        sched.run(scenario.scripts)
        snap = sched.snapshot()
        return snap.as_dict(), sched.tracer.records

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
