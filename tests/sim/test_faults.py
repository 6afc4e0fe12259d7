"""Fault plans and the crash injector."""

import pytest

from repro.sim.clock import Simulator
from repro.sim.faults import FaultInjector, FaultPlan, SiteCrash


class TestSiteCrash:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SiteCrash("a", at=-1.0)

    def test_rejects_restart_before_crash(self):
        with pytest.raises(ValueError):
            SiteCrash("a", at=5.0, restart_at=5.0)

    @pytest.mark.parametrize(
        "at, restart_at",
        [
            (float("nan"), None),
            (float("inf"), None),
            (1.0, float("nan")),
            (1.0, float("inf")),
        ],
    )
    def test_rejects_non_finite_times(self, at, restart_at):
        """A NaN or infinite crash or restart time fails closed here,
        before a run schedules it; a permanent crash is
        ``restart_at=None``."""
        with pytest.raises(ValueError, match="finite"):
            SiteCrash("a", at=at, restart_at=restart_at)

    def test_permanent_crash_allowed(self):
        crash = SiteCrash("a", at=1.0)
        assert crash.restart_at is None


class TestFaultPlan:
    def test_orders_by_time(self):
        plan = FaultPlan.of(
            [SiteCrash("b", at=5.0, restart_at=6.0), SiteCrash("a", at=1.0, restart_at=2.0)]
        )
        assert [c.site for c in plan.crashes] == ["a", "b"]

    def test_rejects_overlapping_crashes(self):
        with pytest.raises(ValueError):
            FaultPlan.of(
                [
                    SiteCrash("a", at=1.0, restart_at=5.0),
                    SiteCrash("a", at=3.0, restart_at=7.0),
                ]
            )

    def test_rejects_crash_after_permanent(self):
        with pytest.raises(ValueError):
            FaultPlan.of([SiteCrash("a", at=1.0), SiteCrash("a", at=9.0)])

    def test_sequential_crashes_of_one_site_allowed(self):
        plan = FaultPlan.of(
            [
                SiteCrash("a", at=1.0, restart_at=2.0),
                SiteCrash("a", at=3.0, restart_at=4.0),
            ]
        )
        assert len(plan.crashes) == 2

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.of([])
        assert FaultPlan.of([SiteCrash("a", at=0.0)])


class TestFaultInjector:
    def test_tracks_downness_over_time(self):
        sim = Simulator()
        inj = FaultInjector(
            sim, FaultPlan.of([SiteCrash("a", at=2.0, restart_at=5.0)])
        )
        inj.arm()
        observed = []
        sim.schedule_at(1.0, lambda: observed.append(("t1", inj.is_down("a"))))
        sim.schedule_at(3.0, lambda: observed.append(("t3", inj.is_down("a"))))
        sim.schedule_at(6.0, lambda: observed.append(("t6", inj.is_down("a"))))
        sim.run()
        assert observed == [("t1", False), ("t3", True), ("t6", False)]
        assert inj.crash_count == 1 and inj.restart_count == 1
        assert inj.crash_log == [("a", 2.0, 5.0)]

    def test_restart_time_while_down(self):
        sim = Simulator()
        inj = FaultInjector(
            sim, FaultPlan.of([SiteCrash("a", at=1.0, restart_at=4.0)])
        )
        inj.arm()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(inj.restart_time("a")))
        sim.run()
        assert seen == [4.0]
        assert inj.restart_time("a") is None  # back up after the run

    def test_permanent_crash_never_restarts(self):
        sim = Simulator()
        inj = FaultInjector(sim, FaultPlan.of([SiteCrash("a", at=1.0)]))
        inj.arm()
        sim.run()
        assert inj.is_down("a")
        assert inj.restart_count == 0
        assert inj.down_sites() == frozenset({"a"})

    def test_hooks_fire_in_registration_order(self):
        sim = Simulator()
        inj = FaultInjector(
            sim, FaultPlan.of([SiteCrash("a", at=1.0, restart_at=2.0)])
        )
        calls = []
        inj.on_crash(lambda s: calls.append(("crash1", s)))
        inj.on_crash(lambda s: calls.append(("crash2", s)))
        inj.on_restart(lambda s: calls.append(("restart1", s)))
        inj.on_restart(lambda s: calls.append(("restart2", s)))
        inj.arm()
        sim.run()
        assert calls == [
            ("crash1", "a"),
            ("crash2", "a"),
            ("restart1", "a"),
            ("restart2", "a"),
        ]

    def test_arm_is_idempotent(self):
        sim = Simulator()
        inj = FaultInjector(
            sim, FaultPlan.of([SiteCrash("a", at=1.0, restart_at=2.0)])
        )
        inj.arm()
        inj.arm()
        sim.run()
        assert inj.crash_count == 1

