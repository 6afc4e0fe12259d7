"""The default observability path must be free: an untraced run never
enters the per-message and per-evaluation hooks (so it builds none of
their record fields), and explanations are still available on demand
(built lazily, not during guard evaluation)."""

import pytest

from repro.algebra.symbols import Event
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.scheduler.actors import Role
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workloads.scenarios import make_travel_booking


class BombTracer(NullTracer):
    """Every hook of the hot paths explodes: installing it proves that
    a run with tracing off never enters one -- per message
    (``message_*``, ``session``), per guard evaluation (``guard_eval``),
    per snapshot cut (``clock``) -- nor builds the fields they would be
    passed.
    The lifecycle hooks NullTracer itself answers stay no-ops."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("tracer hook invoked on the null path")

    message_send = message_recv = message_drop = message_dup = _boom
    session = guard_eval = clock = _boom


@pytest.fixture
def no_record_fields(monkeypatch):
    """``_trace_eval`` builds a guard evaluation's structured cubes and
    knowledge: an untraced run must not even get there."""

    def boom(self, *args):
        raise AssertionError("record fields built on the null path")

    monkeypatch.setattr(Role, "_trace_eval", boom)


def run_travel(**kwargs):
    scenario = make_travel_booking()
    workflow = scenario.workflow
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        **kwargs,
    )
    sched.run(scenario.scripts)
    return sched


class TestNullPath:
    def test_default_run_never_touches_tracer_hooks(self, no_record_fields):
        sched = run_travel(tracer=BombTracer())
        assert sched.result.entries

    def test_chaos_run_never_touches_tracer_hooks(self, no_record_fields):
        """The session layer, crashes and recovery included."""
        import random

        from repro.sim import FaultPlan, SiteCrash

        scenario = make_travel_booking()
        workflow = scenario.workflow
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            rng=random.Random(7),
            drop_probability=0.3,
            duplicate_probability=0.3,
            fault_plan=FaultPlan.of(
                [SiteCrash("airline", at=3.0, restart_at=9.0)]
            ),
            tracer=BombTracer(),
        )
        result = sched.run(scenario.scripts, verify=False)
        stats = sched.network.stats
        assert stats.dropped and stats.retransmits and stats.dedup_discards
        assert not result.unsettled

    def test_null_singletons_are_inert(self):
        assert not NULL_TRACER.active
        assert NULL_TRACER.records == []
        assert NULL_TRACER.actor(0, "s", "e", "fired") is None
        assert NULL_TRACER.recorder_stats() is None

    def test_explain_on_demand_without_any_observability(self):
        sched = run_travel(tracer=BombTracer())
        explanation = sched.explain(Event("c_buy"))
        assert explanation.status == "occurred"
        assert explanation.residual == "T"

    def test_parked_explain_without_tracer(self):
        scenario = make_travel_booking()
        workflow = scenario.workflow
        sched = DistributedScheduler(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            tracer=BombTracer(),
        )
        sched.attempt(Event("c_buy"))
        sched.sim.run()
        explanation = sched.explain(Event("c_buy"))
        assert explanation.verdict == "park"
        assert explanation.unsatisfied_literals() == ["[]c_book"]

    def test_explanations_not_built_during_guard_evaluation(self):
        import repro.obs.provenance as provenance_mod

        calls = {"n": 0}
        original = provenance_mod.explain_region

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        provenance_mod.explain_region = counting
        try:
            sched = run_travel()
            assert calls["n"] == 0, (
                "guard evaluation built explanations nobody asked for"
            )
            sched.explain(Event("c_buy"))
            assert calls["n"] == 1
        finally:
            provenance_mod.explain_region = original

    def test_snapshot_protocol_works_with_null_tracer(self):
        sched = run_travel()
        snap = sched.snapshot()
        assert sorted(snap.states) == sched.snapshot_sites()
        # untraced cut stamps are simply absent
        assert all(stamp is None for stamp in snap.cut.values())
