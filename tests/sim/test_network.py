"""Simulated network: latency, FIFO, service queues, accounting."""

import random

import pytest

from repro.sim.clock import Simulator
from repro.sim.network import (
    ConstantLatency,
    ExponentialLatency,
    Network,
    UniformLatency,
)


def _rig(latency=None, service=None):
    sim = Simulator()
    net = Network(sim, latency=latency, rng=random.Random(7), service_times=service)
    return sim, net


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(2.5)
        assert model.sample(random.Random(0), "a", "b") == 2.5

    def test_uniform_in_bounds(self):
        model = UniformLatency(1.0, 2.0)
        rng = random.Random(0)
        for _ in range(50):
            assert 1.0 <= model.sample(rng, "a", "b") <= 2.0

    def test_uniform_validates(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)

    def test_exponential_nonnegative(self):
        model = ExponentialLatency(3.0)
        rng = random.Random(0)
        assert all(model.sample(rng, "a", "b") >= 0 for _ in range(50))

    def test_zero_mean_exponential(self):
        assert ExponentialLatency(0.0).sample(random.Random(0), "a", "b") == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConstantLatency(-3.0),
            lambda: UniformLatency(-1.0, 2.0),
            lambda: ExponentialLatency(-0.5),
        ],
        ids=["constant", "uniform", "exponential"],
    )
    def test_negative_latency_is_rejected(self, build):
        """A delivery before its send cannot be simulated; it used to be
        clamped to zero silently."""
        with pytest.raises(ValueError, match="negative"):
            build()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: ConstantLatency(x),
            lambda x: UniformLatency(0.0, x),
            lambda x: UniformLatency(x, x),
            lambda x: ExponentialLatency(x),
        ],
        ids=["constant", "uniform-high", "uniform-both", "exponential"],
    )
    def test_non_finite_latency_is_rejected(self, build, value):
        """A NaN latency delivered at once and an infinite one never:
        both fail closed."""
        with pytest.raises(ValueError, match="finite"):
            build(value)

    def test_zero_latency_is_accepted(self):
        rng = random.Random(0)
        assert ConstantLatency(0.0).sample(rng, "a", "b") == 0.0
        assert UniformLatency(0.0, 0.0).sample(rng, "a", "b") == 0.0

    def test_negative_service_time_is_rejected(self):
        with pytest.raises(ValueError, match="negative service time at hub"):
            _rig(service={"hub": -1.0, "edge": 0.0})


class TestDelivery:
    def test_intra_site_is_free(self):
        sim, net = _rig(ConstantLatency(5.0))
        arrivals = []
        net.send("a", "a", "msg", 1, lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [0.0]
        assert net.stats.intra_site == 1

    def test_inter_site_pays_latency(self):
        sim, net = _rig(ConstantLatency(5.0))
        arrivals = []
        net.send("a", "b", "msg", 1, lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [5.0]
        assert net.stats.inter_site == 1

    def test_fifo_per_channel(self):
        sim, net = _rig(UniformLatency(1.0, 10.0))
        arrivals = []
        for i in range(20):
            net.send("a", "b", "msg", i, lambda p: arrivals.append(p))
        sim.run()
        assert arrivals == list(range(20))

    def test_payload_passthrough(self):
        sim, net = _rig()
        got = []
        net.send("a", "b", "msg", {"k": 1}, got.append)
        sim.run()
        assert got == [{"k": 1}]

    def test_duplicates_chain(self):
        # a duplicate is itself a send that may be duplicated again, so
        # one send can arrive many times (a geometric chain, not one copy)
        sim = Simulator()
        net = Network(sim, rng=random.Random(3), duplicate_probability=0.9)
        got = []
        net.send("a", "b", "msg", 1, got.append)
        sim.run()
        assert got == [1] * 11
        assert net.stats.duplicated == 10


class TestServiceQueue:
    def test_central_site_serializes(self):
        sim, net = _rig(ConstantLatency(0.0), service={"center": 2.0})
        done = []
        for i in range(3):
            net.send("a", "center", "attempt", i, lambda p: done.append(sim.now))
        sim.run()
        assert done == [2.0, 4.0, 6.0]
        assert net.stats.max_queue_wait == 4.0

    def test_unqueued_site_processes_in_parallel(self):
        sim, net = _rig(ConstantLatency(1.0))
        done = []
        for i in range(3):
            net.send("a", "b", "msg", i, lambda p: done.append(sim.now))
        sim.run()
        assert done == [1.0, 1.0, 1.0]


class TestKindValidation:
    def test_unknown_kind_is_rejected(self):
        sim, net = _rig()
        with pytest.raises(ValueError, match="unknown message kind 'typo'"):
            net.send("a", "b", "typo", None, lambda p: None)

    def test_known_kinds_are_accepted(self):
        from repro.sim.network import KNOWN_KINDS

        sim, net = _rig()
        for kind in sorted(KNOWN_KINDS):
            net.send("a", "b", kind, None, lambda p: None)
        sim.run()
        assert net.stats.messages == len(KNOWN_KINDS)


class TestAccounting:
    def test_by_kind_and_site_load(self):
        sim, net = _rig()
        for _ in range(3):
            net.send("a", "b", "announce", None, lambda p: None)
        net.send("a", "c", "promise_request", None, lambda p: None)
        sim.run()
        assert net.stats.by_kind == {"announce": 3, "promise_request": 1}
        assert net.site_load() == {"b": 3, "c": 1}
        assert net.max_site_load() == 3
        assert net.stats.messages == 4

    def test_as_dict_snapshots_every_counter(self):
        import dataclasses
        import json

        sim, net = _rig()
        net.send("a", "b", "announce", None, lambda p: None)
        sim.run()
        snapshot = net.stats.as_dict()
        # one key per dataclass field -- adding a counter without
        # exporting it is a bug
        assert set(snapshot) == {
            f.name for f in dataclasses.fields(net.stats)
        }
        assert snapshot["messages"] == 1
        assert snapshot["by_kind"] == {"announce": 1}
        json.dumps(snapshot)
        # a snapshot, not a view
        snapshot["by_kind"]["announce"] = 99
        assert net.stats.by_kind["announce"] == 1
