"""Property-based chaos testing of the distributed scheduler.

Hypothesis generates fault schedules -- message drop/duplication rates
plus site crash/restart plans -- against the paper's example workflows
and asserts:

* **safety** (Theorem 6's reading): whatever the fabric does, the
  realized trace is valid -- no base event occurs twice, never both
  ``e`` and ``~e``, and every dependency's residual over the final
  trace is nonzero (the trace is a prefix of an accepting run);
* **liveness**: when every crashed site restarts, the reliable run
  settles every base the fault-free run settles (the recovery protocol
  loses nothing for good);
* **termination**: every run, raw lossy ones included, ends in the
  terminal state its unsettled bases explain.

Each generated schedule is deterministic: the simulator is seeded and
Hypothesis's ``ci`` profile is derandomized, so failures replay.  Every
chaos run is traced (:mod:`repro.obs`); when a property fails, the
falsifying run's causal trace is dumped as JSONL under
``$CHAOS_TRACE_DIR`` (default ``chaos-traces/``) for offline replay
with ``repro trace check`` / ``repro trace export``.
"""

import os
import random

from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.algebra.expressions import Zero
from repro.algebra.residuation import residuate_trace
from repro.algebra.traces import Trace
from repro.obs import Tracer, check_records, check_snapshot
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim import FaultPlan, SiteCrash
from repro.workloads.scenarios import make_mutex_scenario, make_travel_booking

SCENARIOS = {
    "travel_success": lambda: make_travel_booking("success"),
    "travel_failure": lambda: make_travel_booking("failure"),
    "mutex_t1": lambda: make_mutex_scenario("t1"),
    "mutex_t2": lambda: make_mutex_scenario("t2"),
}


def run_chaos(scenario, drop, dup, plan, seed, tracer=None, snapshot_every=None):
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
        reliable=True,
        fault_plan=plan,
        tracer=tracer,
    )
    if snapshot_every is not None:
        sched.schedule_snapshots(snapshot_every)
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def _dump_failure(tracer, name, seed):
    directory = os.environ.get("CHAOS_TRACE_DIR", "chaos-traces")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}-seed{seed}.jsonl")
    tracer.dump(path)
    note(f"falsifying trace written to {path}")
    return path


def check_with_trace(tracer, name, seed, check):
    """Run ``check()``; a failure dumps the run's causal trace and
    carries the dump path in the assertion message.

    The dump is keyed by scenario and seed (deterministic, so shrink
    iterations overwrite rather than accumulate)."""
    try:
        check()
    except AssertionError as exc:
        raise AssertionError(
            f"{exc} [trace: {_dump_failure(tracer, name, seed)}]"
        ) from exc


def scenario_sites(scenario):
    return sorted(set(scenario.workflow.sites.values()))


@st.composite
def fault_schedules(draw, sites, allow_permanent):
    """A non-overlapping crash plan over the scenario's sites."""
    crashes = []
    for site in sites:
        if not draw(st.booleans()):
            continue
        at = draw(st.integers(0, 12)) / 2.0
        if allow_permanent and draw(st.integers(0, 3)) == 0:
            crashes.append(SiteCrash(site, at=at))
        else:
            downtime = draw(st.integers(1, 20)) / 2.0
            crashes.append(SiteCrash(site, at=at, restart_at=at + downtime))
    return FaultPlan.of(crashes)


@st.composite
def chaos_cases(draw, allow_permanent):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    scenario = SCENARIOS[name]()
    plan = draw(
        fault_schedules(scenario_sites(scenario), allow_permanent)
    )
    drop = draw(st.integers(0, 3)) / 10.0
    dup = draw(st.integers(0, 3)) / 10.0
    seed = draw(st.integers(0, 2**16))
    return name, scenario, plan, drop, dup, seed


def assert_trace_safe(scenario, result):
    bases = [entry.event.base for entry in result.entries]
    assert len(bases) == len(set(bases)), "a base event settled twice"
    trace = Trace([entry.event for entry in result.entries])
    for dep in scenario.workflow.dependencies:
        residual = residuate_trace(dep, list(trace))
        assert not isinstance(residual, Zero), (dep, trace)


def assert_terminal_state(sched, plan, result):
    """``maximal`` exactly when nothing is unsettled, ``down`` exactly
    when an unsettled base lives on a site the plan never restarts."""
    lost = {c.site for c in plan.crashes if c.restart_at is None}
    assert (result.terminal == "maximal") == (result.unsettled == [])
    assert (result.terminal == "down") == any(
        sched.site_of(base) in lost for base in result.unsettled
    ), (result.terminal, result.unsettled, lost)


class TestChaosSafety:
    """Any fault schedule -- including permanent site loss -- yields a
    valid (prefix of an accepting) trace."""

    @settings(max_examples=100, deadline=None)
    @given(chaos_cases(allow_permanent=True))
    def test_trace_valid_under_arbitrary_faults(self, case):
        name, scenario, plan, drop, dup, seed = case
        tracer = Tracer()
        sched, result = run_chaos(scenario, drop, dup, plan, seed, tracer)

        def check():
            assert_trace_safe(scenario, result)
            assert_terminal_state(sched, plan, result)
            # the recorded causal trace satisfies the offline checker's
            # invariants under the same arbitrary fault schedules
            diags = check_records(tracer.records)
            assert diags == [], "\n".join(str(d) for d in diags)
            # a granted promise may only be outstanding if its site died
            # for good; otherwise every obligation was honoured
            if not plan or all(c.restart_at is not None for c in plan.crashes):
                assert not [
                    v for v in result.violations if v.kind == "promise"
                ], result.violations

        check_with_trace(tracer, name, seed, check)

    @settings(max_examples=100, deadline=None)
    @given(chaos_cases(allow_permanent=True))
    def test_report_accounts_for_the_run(self, case):
        name, scenario, plan, drop, dup, seed = case
        sched, result = run_chaos(scenario, drop, dup, plan, seed)
        report = sched.metrics_report()
        faults, network = report["faults"], report["network"]
        assert faults["crashes"] == len(plan.crashes)
        assert faults["restarts"] == sum(
            1 for c in plan.crashes if c.restart_at is not None
        )
        # when every site crashes at t=0 the run's only send can be
        # eaten by the drop dice, so count attempts, not deliveries
        assert network["messages"] + network["dropped"] > 0
        if drop == 0.0 and not plan:
            assert network["retransmits"] == 0
        latencies = report["histograms"].get("recovery_latency")
        if latencies is not None:
            latency = latencies["total"]
            assert latency["count"] <= faults["restarts"]
            assert latency["min"] <= latency["mean"] <= latency["max"]


class TestChaosLiveness:
    """With restarts guaranteed, the chaotic run settles exactly what
    the fault-free run settles."""

    @settings(max_examples=100, deadline=None)
    @given(chaos_cases(allow_permanent=False))
    def test_reaches_maximal_trace(self, case):
        name, scenario, plan, drop, dup, seed = case
        _, clean = run_chaos(scenario, 0.0, 0.0, None, seed)
        tracer = Tracer()
        _, chaotic = run_chaos(scenario, drop, dup, plan, seed, tracer)

        def check():
            assert_trace_safe(scenario, chaotic)
            assert set(chaotic.unsettled) == set(clean.unsettled)
            occurred = {e.event for e in chaotic.entries}
            assert scenario.expect_occur <= occurred, (
                name,
                scenario.expect_occur - occurred,
            )
            assert not (scenario.expect_absent & occurred)

        check_with_trace(tracer, name, seed, check)


def run_raw(scenario, drop, dup, seed):
    """A lossy run with no session layer (and so no fault plan)."""
    sched = DistributedScheduler(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
    )
    return sched, sched.run(scenario.scripts, verify=False)


class TestChaosRawNetwork:
    """On the raw fabric a lost release can orphan a freeze again after
    the quiescence sweep voided one.  Settlement has no round budget, so
    it must still end -- and in a state its unsettled bases explain.
    (Raw loss can also break safety outright; that is the session
    layer's job, so it is not asserted here.)"""

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(sorted(SCENARIOS)),
        st.integers(1, 5),
        st.integers(0, 3),
        st.integers(0, 2**16),
    )
    def test_lossy_raw_run_ends_in_a_terminal_state(
        self, name, drop, dup, seed
    ):
        sched, result = run_raw(SCENARIOS[name](), drop / 10, dup / 10, seed)
        assert_terminal_state(sched, FaultPlan(), result)

    def test_pinned_freezes_orphaned_again_are_swept(self):
        # settlement's own certificate rounds, run after the first
        # sweep, lose their releases too: a second sweep voids two more
        # freezes, and every base still settles
        sched, result = run_raw(SCENARIOS["travel_success"](), 0.3, 0.2, 64)
        assert sched.metrics.counter("orphan_freezes_released") == 3
        assert result.terminal == "maximal"


class TestChaosRegressions:
    """Seeds that once exposed bugs stay pinned as exact regressions."""

    CASES = [
        ("travel_failure", 0.3, 0.3, (("airline", 2.0, 10.0),), 7),
        ("travel_success", 0.3, 0.3, (("car_rental", 1.0, 6.0),), 11),
        ("mutex_t2", 0.2, 0.3, (("task2", 1.0, 9.0),), 3),
        ("mutex_t1", 0.3, 0.0, (("task1", 0.5, 4.0), ("task2", 5.0, 8.0)), 19),
        # orphaned freeze: task1 crashes while its coordinator's
        # not-yet reply is in its send queue, so the requester never
        # learns of the freeze it holds and never releases it; the
        # quiescence orphan-freeze sweep voids it
        ("mutex_t1", 0.2, 0.2, (("task2", 0.5, 1.5), ("task1", 3.0, 3.5)), 7973),
    ]

    def test_pinned_schedules_settle_clean(self):
        for name, drop, dup, crashes, seed in self.CASES:
            scenario = SCENARIOS[name]()
            plan = FaultPlan.of(
                SiteCrash(site, at=at, restart_at=back)
                for site, at, back in crashes
            )
            sched, result = run_chaos(scenario, drop, dup, plan, seed)
            assert_trace_safe(scenario, result)
            assert not result.unsettled, (name, result.unsettled)
            occurred = {e.event for e in result.entries}
            assert scenario.expect_occur <= occurred, name


def run_fingerprint(sched, result):
    """What a run decided and sent: timeline, makespan, message
    counts."""
    return (
        [(repr(e.event), e.time, e.outcome) for e in result.entries],
        result.makespan,
        result.messages,
        dict(sched.network.stats.by_kind),
    )


class TestChaosSnapshots:
    """Periodic snapshots only read, whatever the fabric does: every
    snapshot passes the checker against the run's causal trace (settled
    facts agree across sites and nothing known inside the cut fired
    outside it), and the run equals the same run without snapshots."""

    @settings(max_examples=25, deadline=None)
    @given(chaos_cases(allow_permanent=True))
    def test_completed_snapshots_are_consistent(self, case):
        name, scenario, plan, drop, dup, seed = case
        tracer = Tracer()
        sched, result = run_chaos(
            scenario, drop, dup, plan, seed, tracer, snapshot_every=3.0
        )
        plain = run_chaos(scenario, drop, dup, plan, seed)

        def check():
            assert_trace_safe(scenario, result)
            assert run_fingerprint(sched, result) == run_fingerprint(*plain)
            for snap in sched.snapshots:
                diags = check_snapshot(snap, tracer.records)
                assert diags == [], "\n".join(str(d) for d in diags)

        check_with_trace(tracer, name, seed, check)

    def test_pinned_schedule_completes_a_snapshot(self):
        # deterministic regression: snapshots are cut while car_rental
        # is down (it is listed, with its durable state) and after it
        # is back, and each one is consistent
        scenario = SCENARIOS["travel_success"]()
        plan = FaultPlan.of([SiteCrash("car_rental", at=3.0, restart_at=9.0)])
        tracer = Tracer()
        sched, result = run_chaos(
            scenario, 0.3, 0.3, plan, 4242, tracer, snapshot_every=3.0
        )
        snaps = sched.snapshots
        assert any(s.down == ["car_rental"] for s in snaps)
        assert any(s.time > 9.0 and not s.down for s in snaps)
        for snap in snaps:
            assert "car_rental" in snap.states
            assert check_snapshot(snap, tracer.records) == []
        plain = run_chaos(scenario, 0.3, 0.3, plan, 4242)
        assert run_fingerprint(sched, result) == run_fingerprint(*plain)
