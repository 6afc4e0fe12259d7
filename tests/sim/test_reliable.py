"""The reliable session layer: exactly-once FIFO over a lossy fabric."""

import random

from repro.sim.clock import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, SiteCrash
from repro.sim.network import ConstantLatency, Network
from repro.sim.reliable import ReliableNetwork


def _rig(drop=0.0, dup=0.0, plan=None, seed=7, **kw):
    sim = Simulator()
    net = Network(
        sim,
        latency=ConstantLatency(1.0),
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
    )
    faults = FaultInjector(sim, plan) if plan is not None else None
    rel = ReliableNetwork(net, faults=faults)
    # the tuning constants are class attributes; a test overrides them
    # on its instance
    rel.timeout = 3.0
    for name, value in kw.items():
        setattr(rel, name, value)
    return sim, net, rel, faults


class TestConstants:
    def test_the_tuning_is_constants_not_parameters(self):
        """The session layer takes the fabric and the crash injector;
        its timeout and retry budget are constants."""
        import inspect

        params = inspect.signature(ReliableNetwork.__init__).parameters
        assert list(params) == ["self", "network", "faults"]
        rel = ReliableNetwork(Network(Simulator()))
        assert (rel.timeout, rel.max_retries) == (4.0, 150)


class TestCleanFabric:
    def test_in_order_single_delivery(self):
        sim, net, rel, _ = _rig()
        got = []
        for i in range(5):
            rel.send("a", "b", "msg", i, got.append)
        sim.run()
        assert got == [0, 1, 2, 3, 4]
        assert net.stats.retransmits == 0
        assert rel.in_flight() == 0

    def test_intra_site_bypasses_sessions(self):
        sim, net, rel, _ = _rig()
        got = []
        rel.send("a", "a", "msg", 42, got.append)
        sim.run()
        assert got == [42]
        assert net.stats.acks_sent == 0

    def test_sessions_are_per_direction(self):
        sim, net, rel, _ = _rig()
        got = []
        rel.send("a", "b", "msg", "a->b", got.append)
        rel.send("b", "a", "msg", "b->a", got.append)
        sim.run()
        assert sorted(got) == ["a->b", "b->a"]


class TestLossyFabric:
    def test_drops_are_retransmitted(self):
        sim, net, rel, _ = _rig(drop=0.4)
        got = []
        for i in range(20):
            rel.send("a", "b", "msg", i, got.append)
        sim.run()
        assert got == list(range(20))
        assert net.stats.dropped > 0
        assert net.stats.retransmits > 0
        assert rel.in_flight() == 0

    def test_duplicates_are_discarded(self):
        sim, net, rel, _ = _rig(dup=0.5)
        got = []
        for i in range(20):
            rel.send("a", "b", "msg", i, got.append)
        sim.run()
        assert got == list(range(20))
        assert net.stats.dedup_discards > 0

    def test_order_preserved_under_drop_and_dup(self):
        for seed in range(8):
            sim, net, rel, _ = _rig(drop=0.3, dup=0.3, seed=seed)
            got = []
            for i in range(30):
                rel.send("a", "b", "msg", i, got.append)
            sim.run()
            assert got == list(range(30)), seed

    def test_retry_budget_exhausts_loudly(self):
        # a fabric that drops everything: the sender gives up after
        # max_retries and says so in the stats
        sim, net, rel, _ = _rig(drop=0.99, max_retries=3)
        rel.send("a", "b", "msg", 1, lambda p: None)
        sim.run()
        # seed 7 drops every transmission: budget exhausts, and the
        # abandoned payload is not left dangling in the session
        assert net.stats.retransmit_giveups == 1
        assert net.stats.retransmits == 3
        assert rel.in_flight() == 0


class TestCrashInteraction:
    def test_delivery_into_down_site_is_lost_then_recovered(self):
        plan = FaultPlan.of([SiteCrash("b", at=0.5, restart_at=10.0)])
        sim, net, rel, faults = _rig(plan=plan)
        faults.arm()
        got = []
        rel.send("a", "b", "msg", "x", got.append)  # lands at 1.0: b is down
        sim.run()
        assert got == ["x"]  # retransmission after restart delivers it
        assert net.stats.crash_lost > 0
        assert sim.now >= 10.0

    def test_down_sender_sends_nothing(self):
        plan = FaultPlan.of([SiteCrash("a", at=0.0)])
        sim, net, rel, faults = _rig(plan=plan)
        faults.arm()
        sim.run()  # process the crash at t=0
        got = []
        rel.send("a", "b", "msg", "x", got.append)
        sim.run()
        assert got == []
        assert net.stats.crash_lost > 0

    def test_intra_site_message_dies_with_the_site(self):
        plan = FaultPlan.of([SiteCrash("a", at=0.5, restart_at=2.0)])
        sim = Simulator()
        # nonzero intra-site latency would be needed to race a crash;
        # the default fabric delivers intra-site instantly, so send
        # *after* the crash instead
        net = Network(sim, rng=random.Random(0))
        faults = FaultInjector(sim, plan)
        rel = ReliableNetwork(net, faults=faults)
        faults.arm()
        got = []
        sim.schedule_at(1.0, lambda: rel.send("a", "a", "msg", 1, got.append))
        sim.run()
        assert got == []
        assert net.stats.crash_lost > 0

    def test_reset_site_requeues_surviving_backlog(self):
        plan = FaultPlan.of([SiteCrash("b", at=0.5, restart_at=4.0)])
        sim, net, rel, faults = _rig(plan=plan)
        faults.on_restart(rel.reset_site)
        faults.arm()
        got = []
        for i in range(3):
            rel.send("a", "b", "msg", i, got.append)
        sim.run()
        # at-least-once across the restart, still in order
        assert got[:3] == [0, 1, 2]
        assert net.stats.session_resets == 1

    def test_stale_epoch_packets_discarded(self):
        sim, net, rel, _ = _rig()
        got = []
        rel.send("a", "b", "msg", 1, got.append)
        rel.reset_site("b")  # bump epoch while the packet is in flight
        sim.run()
        assert net.stats.stale_session >= 1


def _ack_spy(sim, net):
    """Record ``(time, epoch, upto)`` of every ack handed to the fabric
    (a dropped one too)."""
    acks = []
    send = net.send

    def spy(src, dst, kind, payload, handler):
        if kind == "ack":
            _key, epoch, upto = payload
            acks.append((sim.now, epoch, upto))
        send(src, dst, kind, payload, handler)

    net.send = spy
    return acks


class TestOneAckPerInstant:
    """A session acks at most once per instant, at the end of it; the
    ack is cumulative, so it answers every arrival of the instant."""

    def test_three_arrivals_at_one_instant_get_one_ack(self):
        sim, net, rel, _ = _rig()
        acks = _ack_spy(sim, net)
        got = []
        for i in range(3):
            rel.send("a", "b", "msg", i, got.append)  # all land at 1.0
        sim.run()
        assert got == [0, 1, 2]
        assert acks == [(1.0, 0, 3)]
        assert net.stats.acks_sent == 1
        assert rel.in_flight() == 0

    def test_an_ack_owed_at_a_reset_is_never_sent(self):
        """The sender restarts between the arrival and the flush: the
        fresh session (epoch 1) owes nothing, so no ack is sent."""
        sim, net, rel, _ = _rig()
        acks = _ack_spy(sim, net)
        got = []
        rel.send("a", "b", "msg", 1, got.append)
        sim.step()  # the payload lands at 1.0; the flush is due at 1.0
        assert got == [1] and sim.now == 1.0
        rel.reset_site("a")
        sim.run()
        assert acks == []
        assert net.stats.acks_sent == 0
        assert rel.in_flight() == 0

    def test_a_crash_between_arrival_and_flush_sends_no_ack(self):
        """The receiver crashes at the instant it handled the payload,
        after the arrival and before the flush: the ack dies with it,
        and the payload is delivered again after the restart."""
        plan = FaultPlan.of([SiteCrash("b", at=1.0, restart_at=5.0)])
        sim, net, rel, faults = _rig(plan=plan)
        faults.on_restart(rel.reset_site)
        acks = _ack_spy(sim, net)
        got = []
        rel.send("a", "b", "msg", "x", got.append)
        faults.arm()  # the crash is queued after the arrival at 1.0
        sim.run()
        # handled before the crash, again on the fresh session; the
        # only ack answers the second delivery
        assert got == ["x", "x"]
        assert acks == [(6.0, 1, 1)]
        assert rel.in_flight() == 0

    def test_a_dropped_sole_ack_is_recovered_by_the_retransmit(self):
        # seed 37 delivers the payload, drops its ack, then delivers
        # the retransmission and the ack it owes
        sim, net, rel, _ = _rig(drop=0.3, seed=37)
        acks = _ack_spy(sim, net)
        got = []
        rel.send("a", "b", "msg", "x", got.append)
        sim.run()
        assert acks == [(1.0, 0, 1), (4.0, 0, 1)]
        assert net.stats.by_kind["ack"] == 1  # the first one was dropped
        assert net.stats.retransmits == 1
        assert net.stats.dedup_discards == 1
        assert got == ["x"]
        assert rel.lost == [] and rel.in_flight() == 0


def _script(sim, net, drop=lambda now, src, kind, number: False):
    """Hand each transmission to the fabric unless ``drop(now, src,
    kind, number)`` holds, and log ``(now, src, kind, number)`` of
    every one, lost or not; ``number`` is a payload's seq or an ack's
    upto."""
    log = []
    send = net.send

    def scripted(src, dst, kind, packet, handler):
        number = packet[2]
        log.append((sim.now, src, kind, number))
        if not drop(sim.now, src, kind, number):
            send(src, dst, kind, packet, handler)

    net.send = scripted
    return log


def _payloads(log, src="a"):
    """``(time, seq)`` of the payload transmissions from ``src``."""
    return [(t, n) for t, s, kind, n in log if s == src and kind != "ack"]


class TestRetransmitOnWhatTheSenderKnows:
    """A session's one timer probes a timed-out batch with its oldest
    payload, at a fixed interval, and an ack resends at once what went
    out before the probe and it leaves out."""

    def test_toward_a_silent_down_peer_the_horizon_stands(self):
        plan = FaultPlan.of([SiteCrash("b", at=0.0)])  # down for good
        sim, net, rel, faults = _rig(plan=plan, timeout=4.0)
        faults.arm()
        sim.run()
        log = _script(sim, net)
        rel.send("a", "b", "msg", "x", lambda p: None)
        sim.run()
        times = [t for t, _seq in _payloads(log)]
        assert [b - a for a, b in zip(times, times[1:])] == [4.0] * 150
        # given up at the 151st timeout, 604 after the send
        assert sim.now == 604.0
        assert net.stats.retransmit_giveups == 1
        assert rel.lost == []  # a site down for good: the expected end

    def test_a_restart_within_the_horizon_loses_nothing(self):
        plan = FaultPlan.of([SiteCrash("b", at=0.0, restart_at=603.0)])
        sim, net, rel, faults = _rig(plan=plan, timeout=4.0)
        faults.on_restart(rel.reset_site)
        faults.arm()
        sim.run(until=0.0)
        got = []
        rel.send("a", "b", "msg", "x", got.append)
        sim.run()
        # 150 probes die at the down site; the restart at 603 re-sends
        # the payload on the fresh session before the give-up due at 604
        assert got == ["x"]
        assert net.stats.retransmits == 151
        assert net.stats.retransmit_giveups == 0
        assert rel.lost == [] and rel.in_flight() == 0

    def test_a_batch_toward_a_down_peer_gives_up_with_its_probe(self):
        plan = FaultPlan.of([SiteCrash("b", at=0.0)])
        sim, net, rel, faults = _rig(plan=plan, timeout=4.0)
        faults.arm()
        sim.run()
        log = _script(sim, net)
        for i in range(3):
            rel.send("a", "b", "msg", i, lambda p: None)
        sim.run()
        assert sim.now == 604.0  # a lone payload's horizon
        assert net.stats.retransmit_giveups == 3
        assert rel.in_flight() == 0
        # the probe made all 151 attempts; 2 and 3 went out once, as no
        # ack ever says the receiver lacks them
        sent = [seq for _t, seq in _payloads(log)]
        assert [sent.count(seq) for seq in (1, 2, 3)] == [151, 1, 1]

    def test_a_dropped_shared_ack_costs_one_probe(self):
        sim, net, rel, _ = _rig(timeout=4.0)
        acks = []

        def drop(now, src, kind, n):
            if kind == "ack":
                acks.append(n)
            return acks == [n]  # the first ack only

        log = _script(sim, net, drop=drop)
        got = []
        for i in range(3):
            rel.send("a", "b", "msg", i, got.append)  # all land at 1
        sim.run()
        assert acks == [3, 3]  # the shared ack, dropped, then the probe's
        # only the oldest goes out again; its ack retires all three, so
        # no timer fires after it
        assert _payloads(log) == [(0.0, 1), (0.0, 2), (0.0, 3), (4.0, 1)]
        assert net.stats.retransmits == 1
        assert got == [0, 1, 2]
        assert sim.now == 6.0
        assert rel.in_flight() == 0

    def test_a_short_ack_sends_the_held_payloads_at_once(self):
        sim, net, rel, _ = _rig(timeout=4.0)
        firsts = []

        def drop(now, src, kind, n):
            # seq 2's first transmission, and the first ack (upto 1)
            if (kind, n) in firsts:
                return False
            firsts.append((kind, n))
            return (kind, n) in (("msg", 2), ("ack", 1))

        log = _script(sim, net, drop=drop)
        got = []
        for i in range(3):
            rel.send("a", "b", "msg", i, got.append)
        sim.run()
        # 1 probes at 4 and is answered at 6 with upto 1, short of 2
        # and 3, which went out before the probe: both go out at once,
        # not a timeout later
        assert _payloads(log) == [
            (0.0, 1), (0.0, 2), (0.0, 3), (4.0, 1), (6.0, 2), (6.0, 3)
        ]
        assert got == [0, 1, 2]
        assert rel.lost == [] and rel.in_flight() == 0

    def test_a_reset_cancels_the_session_timer(self):
        sim, net, rel, _ = _rig(timeout=4.0)
        _script(sim, net, drop=lambda now, src, kind, n: kind == "ack")
        got = []
        for i in range(3):
            rel.send("a", "b", "msg", i, got.append)
        sim.run(until=4.0)  # 1 probes; its timer is due at 8
        old = rel._sessions["a", "b"]
        assert old.probed == 4.0
        rel.reset_site("b")
        fresh = rel._sessions["a", "b"]
        assert len(fresh.unacked) == 3 and fresh.probed == 0.0
        # one live timer, the fresh session's, due a timeout from now
        timers = [
            (t, seq) for t, seq, fn, *_ in sim.queued()
            if fn == rel._on_timeout
        ]
        assert timers == [(8.0, fresh.timer)]
        assert got == [0, 1, 2]


def _count_firings(channel, tally):
    """Wrap ``channel``'s timer callback: ``tally`` counts its firings
    (``"fired"``) and those that neither retransmit nor give up while
    their own site is up (``"idle"``)."""
    stats, on_timeout = channel.stats, channel._on_timeout

    def timer(key, *args):
        before = stats.retransmits + stats.retransmit_giveups
        on_timeout(key, *args)
        tally["fired"] += 1
        sent = stats.retransmits + stats.retransmit_giveups - before
        tally["idle"] += not sent and not channel.faults.is_down(key[0])

    channel._on_timeout = timer


class TestEveryFiringSends:
    """In the exact-observables chaos setting (travel's failure path,
    drop = duplication = 0.3, the airline down from 2 to 10), every
    firing of a session's timer retransmits or gives up, unless its own
    site is down: a timer that an ack made moot was cancelled."""

    def test_no_firing_is_idle(self):
        from repro.scheduler import DistributedScheduler
        from repro.workloads.scenarios import make_travel_booking

        scenario = make_travel_booking("failure")
        tally = {"fired": 0, "idle": 0}
        for seed in range(40):
            sched = DistributedScheduler(
                scenario.workflow.dependencies,
                sites=scenario.workflow.sites,
                attributes=scenario.workflow.attributes,
                rng=random.Random(seed),
                drop_probability=0.3,
                duplicate_probability=0.3,
                reliable=True,
                fault_plan=FaultPlan.of(
                    [SiteCrash("airline", at=2.0, restart_at=10.0)]
                ),
            )
            _count_firings(sched.channel, tally)
            sched.run(scenario.scripts, verify=False)
        assert tally["fired"] > 40
        assert tally["idle"] == 0, tally


class TestGiveUpStartsOver:
    def test_a_payload_after_a_give_up_toward_a_live_peer_is_delivered(self):
        # the fabric drops every payload before 10: p1 (sent at 0,
        # probed at 4) is given up at 8; p2, sent at 12 on a clean
        # fabric, must not wait behind p1's gap at the receiver
        sim, net, rel, _ = _rig(timeout=4.0, max_retries=1)
        _script(sim, net, drop=lambda now, src, kind, n: (
            kind != "ack" and now < 10.0
        ))
        got = []
        rel.send("a", "b", "msg", "p1", got.append)
        sim.schedule_at(12.0, rel.send, "a", "b", "msg", "p2", got.append)
        sim.run()
        assert got == ["p2"]
        assert rel.lost == [("a", "b", "msg", 1)]  # p1 alone
        assert net.stats.retransmit_giveups == 1
        assert rel.in_flight() == 0
