"""The exact observables of the kernel, scheduler and scale-out workloads.

Each row of ``ROWS`` names a workload of EXPERIMENTS.md (PF1-PF4, SC1,
SC5-SC7) and the counts it gives: a change that moves one changed what
the program does, not how fast.  Each workload is built once, untimed;
wall clock is measured end to end by ``benchmarks/e2e``.
"""

import random
from functools import cache, partial

import pytest

from benchmarks.helpers import merged_travel_instances, travel_instance_specs
from repro.algebra.expressions import Atom, Choice, Seq
from repro.algebra.symbols import Event
from repro.scale import instance_spec, plan_shards, run_sharded
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.sim.faults import FaultPlan, SiteCrash
from repro.sim.network import ConstantLatency
from repro.temporal.compiled import CompiledGuardEngine, GuardCursor
from repro.temporal.cubes import E_OCC, TRUE_GUARD, GuardExpr, literal
from repro.temporal.guards import guard, render, workflow_guards
from repro.workflows.template import WorkflowTemplate
from repro.workloads.scenarios import make_mutex_family, make_travel_booking
from tests.scheduler.reference import engine

HUBS = 8


def counts(*values, **extra):
    keys = ("makespan", "messages", "settled", "announce_messages")
    return dict(zip(keys, values), **extra)


def observed(result, **extra):
    assert result.ok, (result.violations, result.unsettled)
    announced = result.messages_by_kind.get("announce", 0)
    return counts(result.makespan, result.messages, len(result.entries), announced,
                  **extra)


def run(workflow, scripts, **kwargs):
    sched = DistributedScheduler(workflow.dependencies, sites=workflow.sites,
                                 attributes=workflow.attributes, **kwargs)
    return observed(sched.run(scripts))


def table(guards):
    cubes = sum(g.cube_count() for g in guards.values())
    return {"table_size": len(guards), "cubes": cubes}


def staircase(k):
    """The guard of ``e`` in ``~e + a0 . a1 . ... . a(k-1)``."""
    steps = Seq.of([Atom(Event(f"a{i}")) for i in range(k)])
    g = guard(Choice.of([Atom(~Event("e")), steps]), Event("e"))
    return {"cubes": g.cube_count(), "literals": g.literal_count()}


@cache
def travel_tables_n64():
    """64 travel instances' guard tables, synthesized per instance and
    stamped from one template (rendered to real names)."""
    template = WorkflowTemplate(make_travel_booking().workflow)
    per_instance, stamped = {}, {}
    for i in range(64):
        deps = make_travel_booking(suffix=f"_i{i}").workflow.dependencies
        per_instance.update(workflow_guards(deps))
        stamped.update(template.instantiate_merged([f"_i{i}"])[1])
    return per_instance, render(stamped)


@cache
def travel(count, shards=None):
    if shards is None:
        workflow, scripts = merged_travel_instances(count)
        return run(workflow, scripts, latency=ConstantLatency(1.0),
                   rng=random.Random(1))
    template, instances = travel_instance_specs(count)
    tasks = plan_shards(template, instances, shards, seed=1, latency=1.0)
    return observed(run_sharded(tasks, workers=1).result)


def travel_chaos():
    scenario = make_travel_booking("failure")
    return run(
        scenario.workflow, scenario.scripts, rng=random.Random(7),
        drop_probability=0.3, duplicate_probability=0.3, reliable=True,
        fault_plan=FaultPlan.of([SiteCrash("airline", at=2.0, restart_at=10.0)]),
    )


@cache
def mutex(n, placement):
    """The Example 13 mutex family in clusters of four, on one
    scheduler or min-cut sharded four ways."""
    family = make_mutex_family(n, cluster=4)
    if placement == "merged":
        return run(*family.merged(), rng=random.Random(9))
    tasks = plan_shards(
        family.template, [instance_spec(*i) for i in family.instances], 4,
        seed=1, placement="min_cut", cross_deps=family.cross_dependencies,
    )
    return observed(run_sharded(tasks, workers=1).result, cut_weight=tasks.cut_weight)


@cache
def announce_phase(prefix, parked, coupled, reference):
    """``parked`` guards ``(kill . h_0 ... h_7) + g_i``, which drop the
    eight hubs once ``~kill`` settles, and ``coupled`` guards ``h_0 ...
    h_7 . p_i``, which keep every hub relevant; the observed phase
    attempts the hubs.  Counters are deltas over that phase."""
    def box(name):
        return literal("box", Event(f"{prefix}_{name}"))

    kill = Event(f"{prefix}_kill")
    hubs = [Event(f"{prefix}_h{j}") for j in range(HUBS)]
    dead, live = box("kill"), TRUE_GUARD
    for j in range(HUBS):
        dead, live = dead & box(f"h{j}"), live & box(f"h{j}")
    waiting = {Event(f"{prefix}_f{i}"): dead | box(f"g{i}") for i in range(parked)}
    for i in range(coupled):
        waiting[Event(f"{prefix}_c{i}")] = live & box(f"p{i}")
    guards = {~kill: TRUE_GUARD, **waiting, **dict.fromkeys(hubs, TRUE_GUARD)}
    sched = engine(reference)(
        [], guards=guards, latency=ConstantLatency(1.0), rng=random.Random(3)
    )

    def counters():
        return {
            "wakes": sched.watch.wakes, "skips": sched.watch.skips,
            "hops": sched.compiled.hops, "edges": sched.compiled.edges,
            "guard_evals": sched.metrics.counter("guard_evals"),
        }

    for phase in (waiting, [~kill], hubs):
        before = counters()
        for event in phase:
            sched.attempt(event)
        sched.sim.run()
    entries = sched.result.entries
    return {
        "settled": len(entries),
        "messages": sched.network.stats.messages,
        "timeline": [(entry.event, entry.time) for entry in entries],
        **{name: n - before[name] for name, n in counters().items()},
    }


def fan_in(n):
    """One cube over ``n`` bases, which settle one per announcement."""
    bases = [Event(f"pf4_b{i}") for i in range(n)]
    g = TRUE_GUARD
    for base in bases:
        g = g & literal("box", base)
    return bases, g


def fan_in_literals(n, compiled):
    cursor = GuardCursor(CompiledGuardEngine(), fan_in(n)[1], {})
    cursor.verdict()  # enters the automaton at the guard's slot shape
    g = cursor.node.residual if compiled else cursor.guard
    return {"literals": g.literal_count()}


#: row name: (workload, the values it gives)
ROWS = {
    **{f"synthesis_cold_k{k}": (partial(staircase, k), dict(cubes=c, literals=n))
       for k, c, n in ((2, 2, 4), (4, 3, 12), (6, 4, 24))},
    "synthesis_table_travel4": (
        lambda: table(workflow_guards(merged_travel_instances(4)[0].dependencies)),
        dict(table_size=40, cubes=108)),
    **{f"pf2_synthesis_{name}_n64": (
        lambda i=i: table(travel_tables_n64()[i]), dict(table_size=640, cubes=1728))
       for i, name in enumerate(("per_instance", "template"))},
    "sc1_n16": (partial(travel, 16), counts(18.0, 349, 80, 69)),
    "sc1_n64": (partial(travel, 64), counts(18.0, 1521, 320, 281)),
    "sc1_n64_sharded": (partial(travel, 64, 4), counts(18.0, 1521, 320, 281)),
    "sc5_chaos": (travel_chaos, counts(121.0, 122, 5)),
    **{f"sc7_mutex_n{n}_{placement}": (
        partial(mutex, n, placement), counts(8.0, messages, 2 * n, **cut))
       for n, messages in ((64, 870), (256, 3510))
       for placement, cut in (("merged", {}), ("min_cut", {"cut_weight": 0}))},
    # production skips every parked guard on each of the eight hubs and
    # evaluates the hubs' own guards only; the reference wakes each one
    **{f"pf3_{name}_n{n}": (
        partial(announce_phase, "pf3", n, 0, name == "reference"),
        dict(messages=9 * n, settled=9, wakes=wakes, skips=8 * n - wakes,
             guard_evals=HUBS + wakes))
       for n in (10, 100, 1000)
       for name, wakes in (("production", 0), ("reference", 8 * n))},
    **{f"pf4_{name}_n{n}": (
        partial(announce_phase, "pf4", 2 * n, n // 2, name == "reference"),
        dict(zip(("messages", "wakes", "skips", "hops", "edges"), values), settled=9))
       for name, n, values in (
           ("production", 10, (220, 40, 160, 264, 8)),
           ("production", 100, (2200, 400, 1600, 2784, 8)),
           ("reference", 10, (220, 200, 0, 0, 0)),
           ("reference", 100, (2200, 2000, 0, 0, 0)))},
    **{f"pf4_eval_{name}_n{n}": (
        partial(fan_in_literals, n, name == "compiled"), dict(literals=n))
       for n in (10, 100) for name in ("cube", "compiled")},
}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_exact_observables(name):
    workload, expected = ROWS[name]
    got = workload()
    assert {key: got[key] for key in expected} == expected


@pytest.mark.parametrize("row", ["pf3_{}_n10", "pf3_{}_n100", "pf3_{}_n1000",
                                 "pf4_{}_n10", "pf4_{}_n100"])
def test_production_settles_like_the_reference(row):
    production = ROWS[row.format("production")][0]()
    reference = ROWS[row.format("reference")][0]()
    assert production["timeline"] == reference["timeline"]
    assert production["messages"] == reference["messages"]


@pytest.mark.parametrize("n", [10, 100])
def test_warm_compiled_pass_is_pointer_hops(n, monkeypatch):
    """PF4: once one pass over the fan-in announcements has built the
    automaton, another calls no ``simplify_under`` and creates no node,
    edge or expansion, where the cube engine rewrites the residual at
    each announcement.  Both fire on the last base only."""
    bases, g = fan_in(n)
    compiled, last = CompiledGuardEngine(), [False] * (n - 1) + [True]

    def compiled_pass():
        knowledge, fired = {}, []
        cursor = GuardCursor(compiled, g, knowledge)
        for base in bases:
            knowledge[base] = E_OCC
            cursor.learn(base, E_OCC)
            cursor.assimilate()
            fired.append(cursor.verdict() == "fire")
        return fired

    known = [dict.fromkeys(bases[: i + 1], E_OCC) for i in range(n)]
    assert [g.simplify_under(k).is_true for k in known] == compiled_pass() == last
    calls, simplify_under = [], GuardExpr.simplify_under
    monkeypatch.setattr(GuardExpr, "simplify_under",
                        lambda g, k: calls.append(k) or simplify_under(g, k))
    before = compiled.counts()
    assert compiled_pass() == last and calls == []
    after = compiled.counts()
    assert [after[k] - before[k] for k in ("nodes", "edges", "expansions")] == [0] * 3
