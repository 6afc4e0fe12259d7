"""The compiled guard automata are an optimization, not a semantics
change.

A ``DistributedScheduler`` evaluates each actor's guard by following
interned decision-diagram edges instead of re-simplifying the cube
DNF.  The compiled engine is receiver-side only -- fan-out, message
streams, and rng draws are untouched -- so it must stay in lock-step
with the paper-literal reference engine under **any** fault
schedule: drops, duplicates, crash/restart plans, Example 14
resurrection, and run-time guard growth (incremental recompile).  The
production-vs-reference harness is shared with
``test_watch_equivalence.py`` (``run_engine`` / ``assert_equivalent``
and the growth / resurrection drivers); the tests here add what is
specific to the automaton: every cursor mirrors its actor's
``(residual, knowledge)`` pair at the end of any run, the
guard-evaluation records carry the reference's payloads, recompiles
are counted, and the counters surface in the metrics report.

Below the scheduler, pure kernel properties check the automaton
itself: a :class:`GuardCursor` (and the tests' :class:`ReferenceCursor`)
driven through randomized guard tables and knowledge orders must
report, at every step, exactly the verdict, residual, and wake
decision the ``simplify_under`` engine computes -- and renamed copies of one
guard must report it on their own names while sharing its nodes, down
to the grant decision and the escalation plans.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.symbols import Event
from repro.obs import Tracer
from repro.scheduler.actors import Role
from repro.temporal.compiled import (
    CompiledGuardEngine,
    GuardCursor,
    ReferenceCursor,
    _restrict,
    first_solicitation,
)
from repro.temporal.cubes import DIA_COMP_MASK, DIA_MASK, FULL, literal
from repro.workloads.scenarios import make_travel_booking

from .test_watch_equivalence import (
    SCENARIOS,
    assert_equivalent,
    final_state,
    grow_run,
    observables,
    param_run,
    run_engine,
    shrink_run,
    token_sequences,
    watch_cases,
)


def assert_cursors_in_step(sched):
    """Every role's cursor sits on the interned node of the role's own
    ``(residual guard, knowledge)`` pair renamed through the cursor's
    binding, an order-preserving injection -- after crash resets,
    recompiles and resurrections alike.  A cursor not bound since it
    was (re)entered has learned nothing its guard mentions."""
    for role in sched.roles():
        cursor, known = role.cursor, _restrict(role.guard, role.knowledge)
        node = cursor.node
        if node is None:
            assert not known, role.event
            continue
        to_slot = cursor.to_slot
        bound = sorted(to_slot, key=Event.sort_key)
        assert [to_slot[b] for b in bound] == sorted(
            to_slot.values(), key=Event.sort_key
        ), role.event
        assert all(cursor.from_slot[to_slot[b]] is b for b in bound)
        assert node.residual == role.guard.rename(to_slot), role.event
        assert node.know == tuple((to_slot[b], m) for b, m in known), role.event
        assert sched.compiled._nodes[(node.residual, node.know)] is node


class TestCompiledEquivalence:
    """production == reference on Examples 10-13 under fuzzed faults,
    with the cursors in step."""

    @settings(max_examples=60, deadline=None)
    @given(watch_cases())
    def test_fuzzed_faults_are_observably_identical(self, case):
        name, scenario, plan, drop, dup, seed = case
        _, sched = assert_equivalent(scenario, plan, seed, drop=drop, dup=dup)
        assert_cursors_in_step(sched)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(SCENARIOS)), st.integers(0, 2**16))
    def test_traces_are_byte_identical(self, name, seed):
        """The guard-evaluation records the production engine emits
        are, payload for payload (verdict, residual, knowledge, cubes),
        records the reference emits, in the same order -- the compiled
        node caches the very values the cube calls compute.  The
        reference's extra records are exactly the evaluations watching
        skips; only the Lamport counter is projected away."""
        scenario = SCENARIOS[name]()
        reference_tr, production_tr = Tracer(), Tracer()
        run_engine(scenario, None, seed, reference=True, tracer=reference_tr)
        run_engine(scenario, None, seed, reference=False, tracer=production_tr)

        def guard_records(tracer):
            return [
                {k: v for k, v in record.items() if k != "lc"}
                for record in tracer.records
                if record.get("cat") == "guard"
            ]

        emitted = guard_records(production_tr)
        assert emitted
        remaining = iter(guard_records(reference_tr))
        for record in emitted:
            assert record in remaining, record

    def test_compiled_engine_actually_engages(self):
        """The interned automaton must serve real transitions on the
        examples, or the suite is comparing the cube engine to
        itself."""
        hops = 0
        for factory in SCENARIOS.values():
            reference, sched = assert_equivalent(factory(), None, 0)
            counts = sched.compiled.counts()
            hops += counts["hops"] + counts["reused"]
            assert counts["cursors"] > 0
            assert reference.compiled.counts()["cursors"] == 0
        assert hops > 0

    def test_counters_surface_in_metrics_report(self, run_kernel_schema):
        sched, _ = run_engine(make_travel_booking("success"), None, 0, False)
        kernel = sched.metrics_report()["kernel"]
        run_kernel_schema(kernel)
        assert kernel["compiled"]["nodes"] == len(sched.compiled)
        assert kernel["compiled"]["cursors"] == len(sched.roles())


def reference_solicit_plan(actor):
    """``Role._solicit_plan`` without the compiled node:
    recomputed from ``(actor.guard, actor.knowledge)`` on the real
    names on every call."""
    demand, promises, certificates = first_solicitation(
        actor.guard, actor.knowledge
    )
    level = 1 if demand else 0
    requests = [
        target
        for target in promises
        if target.base != actor.event.base
        and actor.promise_requested.get((target, (actor.event,)), -1) < level
    ]
    return requests, demand, list(certificates)


def checking_plans(seen):
    """``Role._solicit_plan`` wrapped to compare every result
    with the reference body's; appends the node it was read on (the
    asking actor's, at that moment) to ``seen``."""
    production = Role._solicit_plan

    def checking(actor):
        requests, demand, certificates = production(actor)
        assert (
            list(requests), demand, list(certificates)
        ) == reference_solicit_plan(actor), (
            actor.event, actor.guard, actor.knowledge
        )
        seen.append(actor.cursor.node)
        return requests, demand, certificates

    return mock.patch.object(Role, "_solicit_plan", checking)


class TestPlanOnTheNode:
    """The solicitation plan cached on the compiled node, translated
    through the actor's binding, is the plan the actor would compute
    from its own ``(guard, knowledge)``."""

    @settings(max_examples=60, deadline=None)
    @given(watch_cases())
    def test_every_plan_equals_the_recomputed_plan(self, case):
        name, scenario, plan, drop, dup, seed = case
        with checking_plans([]):
            run_engine(scenario, plan, seed, reference=False, drop=drop, dup=dup)

    def test_plans_are_shared_between_actors_on_one_node(self):
        """The examples must read some node's plan more than once, or
        the cache is never exercised."""
        seen = []
        with checking_plans(seen):
            for factory in SCENARIOS.values():
                run_engine(factory(), None, 0, reference=False)
        assert all(node._plans is not None for node in seen)
        assert 0 < len(set(map(id, seen))) < len(seen)

    def test_reference_engine_plans_without_a_node(self):
        """``ReferenceCursor`` has no node to cache on: the plan is
        recomputed on every call, and equals the reference body's."""
        seen = []
        with checking_plans(seen):
            for factory in SCENARIOS.values():
                _, result = run_engine(factory(), None, 0, reference=True)
                assert not result.unsettled
        assert seen and all(node is None for node in seen)


class TestCompiledRuntimeGrowth:
    """Run-time guard-table modification recompiles incrementally."""

    def test_added_dependency_equivalence(self):
        for extra in (False, True):
            ref_sched, ref = grow_run(True, extra)
            sched, result = grow_run(False, extra)
            assert observables(result) == observables(ref)
            assert final_state(sched) == final_state(ref_sched)
            assert_cursors_in_step(sched)
            # strengthen_guard re-entered the automaton
            assert (sched.compiled.counts()["recompiles"] > 0) == extra

    def test_removed_dependency_equivalence(self):
        ref_sched, ref = shrink_run(True)
        sched, result = shrink_run(False)
        assert observables(result) == observables(ref)
        assert final_state(sched) == final_state(ref_sched)
        assert_cursors_in_step(sched)
        # replace_guard re-entered the automaton
        assert sched.compiled.counts()["recompiles"] > 0


class TestResurrectionEquivalence:
    """Example 14: parametrized loops mint fresh instances; compiled
    cursors must attach to every materialized actor and follow
    crash-reset re-entries."""

    @settings(max_examples=10, deadline=None)
    @given(token_sequences)
    def test_token_sequences_are_observably_identical(self, tokens):
        ref_sched, ref = param_run(tokens, reference=True)
        sched, result = param_run(tokens, reference=False)
        assert observables(result) == observables(ref)
        assert final_state(sched) == final_state(ref_sched)
        assert sched.compiled.counts()["cursors"] == len(sched.roles())
        assert_cursors_in_step(sched)


# ----------------------------------------------------------------------
# kernel-level: the automaton vs the cube engine, no scheduler


EVENTS = [Event(name) for name in "abcd"]
SIGNED = EVENTS + [e.complement for e in EVENTS]
KINDS = ["box", "dia", "notyet"]


@st.composite
def guard_exprs(draw):
    """Random cube-DNF guards over a small base pool."""
    cubes = []
    for _ in range(draw(st.integers(1, 3))):
        lits = [
            literal(draw(st.sampled_from(KINDS)), draw(st.sampled_from(SIGNED)))
            for _ in range(draw(st.integers(1, 3)))
        ]
        cube = lits[0]
        for lit in lits[1:]:
            cube = cube & lit
        cubes.append(cube)
    g = cubes[0]
    for cube in cubes[1:]:
        g = g | cube
    return g


@st.composite
def knowledge_steps(draw):
    """A fuzzed interleaving of learns and assimilation passes."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(EVENTS),   # which base settles further
                st.integers(1, FULL),      # the arriving mask
                st.booleans(),             # run simplify_under after?
            ),
            max_size=12,
        )
    )


def assert_wakes_on_the_support(cursor, residual, bases):
    """A bound cursor's wake decision on every base is the wake rule
    on the real-name residual: wake iff the base is in its support."""
    support = residual.bases()
    for base in bases:
        assert cursor.wakes_on(base) == (base in support), (residual, base)


class TestCursorTracksCubeEngine:
    """compiled verdicts == ``simplify_under`` verdicts, stepwise."""

    @settings(max_examples=200, deadline=None)
    @given(guard_exprs(), knowledge_steps())
    def test_verdict_residual_and_watches_agree(self, guard, steps):
        engine = CompiledGuardEngine()
        knowledge: dict[Event, int] = {}
        cursors = (GuardCursor(engine, guard, knowledge), ReferenceCursor(guard))
        residual = guard
        for base, mask, assimilate in steps:
            current = knowledge.get(base, FULL)
            updated = current & mask
            if updated != current:
                # exactly Role.learn's commit + cursor hook
                knowledge[base] = updated
                for cursor in cursors:
                    cursor.learn(base, updated)
            if assimilate:
                residual = residual.simplify_under(knowledge)
                for cursor in cursors:
                    cursor.assimilate()
                    assert cursor.guard == residual
            expected = (
                "fire" if residual.region_subsumes(knowledge)
                else "never" if not residual.possible_under(knowledge)
                else "park"
            )
            for cursor in cursors:
                assert cursor.verdict() == expected, (residual, knowledge)
            # the wake decision is read off the node (the reference
            # cursor has none: its actors wake on everything)
            assert_wakes_on_the_support(cursors[0], residual, EVENTS)
            # a certificate-round read: evaluated, never committed
            fact = [(base, mask)]
            compiled, reference = (c.transient_verdict(fact) for c in cursors)
            assert compiled == reference

    @settings(max_examples=100, deadline=None)
    @given(guard_exprs(), knowledge_steps(), knowledge_steps())
    def test_knowledge_order_is_immaterial(self, guard, first, second):
        """Two cursors reaching the same (residual, knowledge) state
        through different orders land on the *same interned node* --
        the hash-consing that makes repeat evaluation O(1)."""
        engine = CompiledGuardEngine()

        def drive(steps):
            knowledge: dict[Event, int] = {}
            cursor = GuardCursor(engine, guard, knowledge)
            cursor.verdict()  # bound, whatever the steps
            for base, mask, assimilate in steps:
                current = knowledge.get(base, FULL)
                updated = current & mask
                if updated != current:
                    knowledge[base] = updated
                    cursor.learn(base, updated)
                if assimilate:
                    cursor.assimilate()
            return cursor

        a, b = drive(first), drive(second)
        if a.node.residual == b.node.residual and a.node.know == b.node.know:
            assert a.node is b.node


#: renames of the pool's bases: each copy keeps the canonical order
#: (``a_c1 < b_c1 < ...``) but the last, the ``t1 / t10`` suffix case,
#: sends ``b`` past ``c`` (``t1 < t10 < t11 < t2``)
ORDERED_COPIES = [
    {e: Event(f"{e.name}_c{k}") for e in EVENTS} for k in range(1, 4)
]
DISORDERED_COPY = {e: Event(f"t{n}") for e, n in zip(EVENTS, (1, 2, 10, 11))}


class TestRenamedCopiesShareNodes:
    """A guard's renamed copies walk one slot-space automaton, and each
    reads it on its own names exactly as the reference engine would."""

    @settings(max_examples=100, deadline=None)
    @given(guard_exprs(), knowledge_steps())
    def test_copies_agree_with_the_reference(self, guard, steps):
        engine = CompiledGuardEngine()

        def drive(mapping):
            knowledge: dict[Event, int] = {}
            copy = guard.rename(mapping)
            compiled = GuardCursor(engine, copy, knowledge)
            reference = ReferenceCursor(copy)
            for base, mask, assimilate in steps:
                base = mapping[base]
                updated = knowledge.get(base, FULL) & mask
                if updated != knowledge.get(base, FULL):
                    knowledge[base] = updated
                    compiled.learn(base, updated)
                    reference.learn(base, updated)
                if assimilate:
                    compiled.assimilate()
                    reference.assimilate()
                assert compiled.guard == reference.guard
                assert compiled.verdict() == reference.verdict()
                assert_wakes_on_the_support(
                    compiled, reference.guard, mapping.values()
                )
                assert compiled.plan() == reference.plan()
                fact = [(base, mask)]
                assert compiled.transient_verdict(fact) == (
                    reference.transient_verdict(fact)
                )

        first, *others = ORDERED_COPIES
        drive(first)
        nodes = len(engine)
        for mapping in others:
            drive(mapping)
        assert len(engine) == nodes
        drive(DISORDERED_COPY)


#: requester chains of a promise request: signed events of the pool
requester_chains = st.lists(st.sampled_from(SIGNED), min_size=1, max_size=3)


class TestProtocolAnswersOnTheNode:
    """The grant decision and the escalation plans a role reads off its
    node, translated through the copy's binding, are what the reference
    computes on the real names."""

    @settings(max_examples=200, deadline=None)
    @given(
        guard_exprs(),
        knowledge_steps(),
        requester_chains,
        st.sampled_from([*ORDERED_COPIES, DISORDERED_COPY]),
    )
    def test_grant_and_escalation_agree_with_the_reference(
        self, guard, steps, chain, mapping
    ):
        engine = CompiledGuardEngine()
        knowledge: dict[Event, int] = {}
        copy = guard.rename(mapping)
        compiled = GuardCursor(engine, copy, knowledge)
        reference = ReferenceCursor(copy)
        # ``Role._decide_grant``'s facts: ``<>member`` for each member
        facts = [
            (mapping[m.base], DIA_COMP_MASK if m.negated else DIA_MASK)
            for m in chain
        ]
        for base, mask, assimilate in steps:
            base = mapping[base]
            updated = knowledge.get(base, FULL) & mask
            if updated != knowledge.get(base, FULL):
                knowledge[base] = updated
                compiled.learn(base, updated)
                reference.learn(base, updated)
            if assimilate:
                compiled.assimilate()
                reference.assimilate()
            grant = compiled.grant(facts)
            assert grant == reference.grant(facts), (copy, knowledge, chain)
            assumed = dict(knowledge)
            for fact_base, fact_mask in facts:
                assumed[fact_base] = assumed.get(fact_base, FULL) & fact_mask
            assert grant[0] == reference.guard.possible_under(assumed)
            from_slot = compiled.from_slot
            assert [
                (tuple((from_slot[b], m) for b, m in cube), promises, needs)
                for cube, promises, needs in compiled.escalation_plans()
            ] == reference.escalation_plans(), (copy, knowledge)
