"""The watched-literal guard engine is an optimization, not a
semantics change.

A ``DistributedScheduler`` reads off each actor's compiled node
whether an announced base can still move its guard and skips
re-evaluating guards it cannot affect; the reference scheduler
(:mod:`tests.scheduler.reference`) is the naive engine that
re-evaluates everything with the paper-literal cube calls.
Because the skip happens on the *receiver* -- fan-out, message
streams, and rng draws are untouched -- the production and reference
engines must stay in lock-step under **any** fault schedule: drops,
duplicates, crash/restart plans, Example 14 resurrection, and run-time
guard-table growth.  The differential harness here (shared with
``test_compiled_equivalence.py``: :func:`run_engine`,
:func:`assert_equivalent`) runs fuzzed workflows under both engines
with identical fault schedules and asserts byte-identical timelines,
final actor states, and (modulo the guard-evaluation records the
reference engine emits extra) causal traces.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.obs import Tracer
from repro.params.distributed import DistributedParamRunner
from repro.sim.network import ConstantLatency
from repro.workloads.generators import chain_workflow, scripts_for
from repro.workloads.scenarios import (
    Scenario,
    make_mutex_scenario,
    make_order_fulfillment,
    make_travel_booking,
)

from tests.scheduler.reference import ReferenceParamRunner, engine

from .test_chaos_properties import fault_schedules, scenario_sites


def make_chain_scenario(seed: int = 0) -> Scenario:
    """Example 11's shape: a sequential hand-off pipeline."""
    workflow = chain_workflow(4)
    return Scenario(
        workflow=workflow,
        scripts=scripts_for(workflow, seed=seed),
        description="ex11 chain",
    )


SCENARIOS = {
    "ex10_order_clears": lambda: make_order_fulfillment(True),
    "ex10_order_bounce": lambda: make_order_fulfillment(False),
    "ex11_chain": make_chain_scenario,
    "ex12_travel_success": lambda: make_travel_booking("success"),
    "ex12_travel_failure": lambda: make_travel_booking("failure"),
    "ex13_mutex_t1": lambda: make_mutex_scenario("t1"),
    "ex13_mutex_t2": lambda: make_mutex_scenario("t2"),
}


def run_engine(scenario, plan, seed, reference, drop=0.0, dup=0.0, tracer=None):
    """One deterministic run of the production or the reference engine.

    Receiver-side skipping leaves fan-out intact, so -- unlike the
    PR 3 batching comparison -- drops and duplicates are fair game:
    both engines draw the same dice for the same sends."""
    sched = engine(reference)(
        scenario.workflow.dependencies,
        sites=scenario.workflow.sites,
        attributes=scenario.workflow.attributes,
        latency=ConstantLatency(1.0),
        rng=random.Random(seed),
        drop_probability=drop,
        duplicate_probability=dup,
        reliable=True,
        fault_plan=plan,
        tracer=tracer,
    )
    result = sched.run(scenario.scripts, verify=False)
    return sched, result


def observables(result):
    """Everything a run decides, minus engine-internal bookkeeping.

    ``parked_total`` is deliberately absent: the naive engine counts a
    park every time a re-evaluation leaves an actor parked, while the
    watched engine does not re-evaluate at all -- an accepted
    divergence in *effort accounting*, not in outcomes."""
    return {
        "timeline": [(repr(e.event), e.time) for e in result.entries],
        "makespan": result.makespan,
        "messages": result.messages,
        "unsettled": sorted(map(repr, result.unsettled)),
        "violations": sorted(v.kind for v in result.violations),
    }


def final_state(sched):
    """Per-role settlement status, learned knowledge, and guard."""
    return {
        repr(role.event): (
            role.status.name,
            sorted((repr(b), m) for b, m in role.knowledge.items()),
            repr(role.guard),
        )
        for role in sched.roles()
    }


def assert_equivalent(scenario, plan, seed, drop=0.0, dup=0.0):
    naive_tr, watch_tr = Tracer(), Tracer()
    naive_sched, naive = run_engine(scenario, plan, seed, reference=True,
                                    drop=drop, dup=dup, tracer=naive_tr)
    watch_sched, watched = run_engine(scenario, plan, seed, reference=False,
                                      drop=drop, dup=dup, tracer=watch_tr)
    if observables(watched) != observables(naive):
        # localize before failing: diff the causal traces (minus the
        # guard-evaluation records the naive engine legitimately emits
        # extra) so the report names the first divergent site/event
        # instead of dumping two observables dicts
        from repro.obs.diff import diff_traces

        diff = diff_traces(
            [r for r in naive_tr.records if r.get("cat") != "guard"],
            [r for r in watch_tr.records if r.get("cat") != "guard"],
        )
        raise AssertionError(
            "production engine diverged from reference engine "
            f"(seed {seed}, drop {drop}, dup {dup}); trace diff:\n"
            + diff.summary()
        )
    assert final_state(watch_sched) == final_state(naive_sched)
    return naive_sched, watch_sched


@st.composite
def watch_cases(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    scenario = SCENARIOS[name]()
    plan = draw(fault_schedules(scenario_sites(scenario), False))
    drop = draw(st.sampled_from([0.0, 0.15, 0.3]))
    dup = draw(st.sampled_from([0.0, 0.15, 0.3]))
    seed = draw(st.integers(0, 2**16))
    return name, scenario, plan, drop, dup, seed


class TestWatchedEquivalence:
    """watched == naive on Examples 10-13 under fuzzed faults."""

    @settings(max_examples=120, deadline=None)
    @given(watch_cases())
    def test_fuzzed_faults_are_observably_identical(self, case):
        name, scenario, plan, drop, dup, seed = case
        assert_equivalent(scenario, plan, seed, drop=drop, dup=dup)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SCENARIOS)), st.integers(0, 2**16))
    def test_traces_differ_only_in_guard_evaluations(self, name, seed):
        """Causal traces agree record-for-record once guard-evaluation
        records (cat ``guard``) and duplicate ``parked`` actor records
        are dropped -- they are exactly the work watching avoids.
        Lamport clocks tick per record, so elided records shift the
        counters (``lc`` and the ``sent_lc`` carried on receives);
        the projection drops those two fields and nothing else."""
        scenario = SCENARIOS[name]()
        naive_tr, watch_tr = Tracer(), Tracer()
        run_engine(scenario, None, seed, reference=True, tracer=naive_tr)
        run_engine(scenario, None, seed, reference=False, tracer=watch_tr)

        def project(records):
            return [
                {k: v for k, v in record.items() if k not in ("lc", "sent_lc")}
                for record in records
                if record.get("cat") != "guard"
                and record.get("op") != "parked"
            ]

        assert project(watch_tr.records) == project(naive_tr.records)

    def test_watching_actually_skips_on_the_examples(self):
        """At least one scenario must exercise the skip path, or the
        suite is vacuously comparing two naive engines."""
        total = 0
        for factory in SCENARIOS.values():
            scenario = factory()
            _, sched = assert_equivalent(scenario, None, 0)
            total += sched.watch.counts()["skips"]
        assert total > 0

    def test_counters_surface_in_metrics_report(self, run_kernel_schema):
        sched, _ = run_engine(make_travel_booking("success"), None, 0, False)
        kernel = sched.metrics_report()["kernel"]
        run_kernel_schema(kernel)
        assert kernel["watch"] == sched.watch.counts()
        assert kernel["watch"]["wakes"] > 0


GROWTH_DEP = "~ship + pay . ship"


def grow_run(reference, extra):
    """Park ``ship`` behind ``pay``; with ``extra``, add a second
    dependency mid-run (``strengthen_guard``) before ``pay`` arrives."""
    sched = engine(reference)(
        [parse(GROWTH_DEP)],
        latency=ConstantLatency(1.0),
        rng=random.Random(5),
    )
    pay, ship = Event("pay"), Event("ship")
    sched.attempt(ship)  # parks: pay has not settled
    sched.sim.run()
    if extra:
        # growth: ship now also needs the audit to have run
        assert sched.add_dependency_runtime(parse("~ship + audit . ship"))
        sched.attempt(Event("audit"))
        sched.sim.run()
    sched.attempt(pay)
    result = sched.run(settle=True, verify=False)
    return sched, result


def shrink_run(reference):
    """Park ``ship`` behind ``pay``, then remove the dependency
    (``replace_guard``)."""
    sched = engine(reference)(
        [parse(GROWTH_DEP)],
        latency=ConstantLatency(1.0),
        rng=random.Random(5),
    )
    sched.attempt(Event("ship"))  # parks behind pay
    sched.sim.run()
    assert sched.remove_dependency_runtime(parse(GROWTH_DEP))
    return sched, sched.run(settle=True, verify=False)


class TestWatchedRuntimeGrowth:
    """Run-time guard-table modification moves the wake decisions."""

    def test_added_dependency_equivalence(self):
        for extra in (False, True):
            naive_sched, naive = grow_run(True, extra)
            watch_sched, watched = grow_run(False, extra)
            assert observables(watched) == observables(naive)
            assert final_state(watch_sched) == final_state(naive_sched)

    def test_removed_dependency_equivalence(self):
        naive_sched, naive = shrink_run(True)
        watch_sched, watched = shrink_run(False)
        assert observables(watched) == observables(naive)
        assert final_state(watch_sched) == final_state(naive_sched)


#: Example 14's parametrized mutual-exclusion loop
MUTEX_TEMPLATES = [
    "b2[y] . b1[x] + ~e1[x] + ~b2[y] + e1[x] . b2[y]",
    "b1[x] . b2[y] + ~e2[y] + ~b1[x] + e2[y] . b1[x]",
    "~b1[x] + e1[x]",
    "~b2[y] + e2[y]",
]

token_sequences = st.lists(
    st.tuples(
        st.sampled_from(["b1", "e1", "b2", "e2"]),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=5,
    unique=True,
)


def param_run(tokens, reference):
    runner = (ReferenceParamRunner if reference else DistributedParamRunner)(
        MUTEX_TEMPLATES
    )
    for name, value in tokens:
        runner.attempt(Event(name, params=(value,)))
    result = runner.finish(verify=False)
    return runner.sched, result


class TestResurrectionEquivalence:
    """Example 14: parametrized loops mint fresh instances; wake
    decisions must follow the growing guard table and resurrected
    actors."""

    @settings(max_examples=12, deadline=None)
    @given(token_sequences)
    def test_token_sequences_are_observably_identical(self, tokens):
        naive_sched, naive = param_run(tokens, reference=True)
        watch_sched, watched = param_run(tokens, reference=False)
        assert observables(watched) == observables(naive)
        assert final_state(watch_sched) == final_state(naive_sched)
