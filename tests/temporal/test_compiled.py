"""Unit tests for the compiled guard automata
(:mod:`repro.temporal.compiled`).

The scheduler-level equivalence lives in
``tests/properties/test_compiled_equivalence.py``; here we pin the
node/edge mechanics: slot-space interning, the learn/refine/assimilate
transitions, lazy binding and caching, counter accounting, the
compile-time table statistics, and the entries a cursor binds at.
"""

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.temporal import compiled
from repro.temporal.compiled import (
    CompiledGuardEngine,
    GuardCursor,
    _restrict,
    _set_know,
    table_stats,
)
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    FALSE_GUARD,
    FULL,
    NOTYET_MASK,
    GuardExpr,
    TRUE_GUARD,
    literal,
)
from repro.temporal.guards import render, workflow_bindings
from repro.workflows import WorkflowTemplate
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.workloads.scenarios import make_mutex_family, make_travel_booking

A, B, C = Event("a"), Event("b"), Event("c")
X, Y = Event("x"), Event("y")

GUARD = literal("box", A) & literal("dia", B)
#: a renamed copy of ``GUARD`` (``a -> x``, ``b -> y`` keeps the order)
COPY = literal("box", X) & literal("dia", Y)


def bound(engine, guard, knowledge=None):
    """A cursor of ``engine`` entered at ``guard``, bound as on its
    first use."""
    cursor = GuardCursor(engine, guard, {} if knowledge is None else knowledge)
    cursor._bind()
    return cursor


class TestKnowledgeTuples:
    def test_restrict_projects_onto_guard_support(self):
        know = _restrict(GUARD, {A: E_OCC, C: E_OCC})
        assert know == ((A, E_OCC),)

    def test_restrict_empty_knowledge(self):
        assert _restrict(GUARD, {}) == ()

    def test_restrict_keeps_sort_order(self):
        know = _restrict(GUARD, {B: C_OCC, A: E_OCC})
        assert know == ((A, E_OCC), (B, C_OCC))

    def test_set_know_inserts_sorted(self):
        assert _set_know((), A, FULL) == ((A, FULL),)
        assert _set_know(((B, E_OCC),), A, C_OCC) == ((A, C_OCC), (B, E_OCC))
        assert _set_know(((A, E_OCC),), B, C_OCC) == ((A, E_OCC), (B, C_OCC))

    def test_set_know_replaces_in_place(self):
        know = ((A, FULL), (B, E_OCC))
        assert _set_know(know, A, E_OCC) == ((A, E_OCC), (B, E_OCC))


class TestInterning:
    def test_same_state_is_the_same_node(self):
        """A guard and its renamed copy have one shape: one node."""
        engine = CompiledGuardEngine()
        first, again, copy = (bound(engine, g) for g in (GUARD, GUARD, COPY))
        assert first.node is again.node is copy.node
        assert len(engine) == 1
        assert engine.counts()["reused"] == 2
        assert first.to_slot[A] is copy.to_slot[X]

    def test_learn_edge_is_installed_once(self):
        engine = CompiledGuardEngine()
        cursor = bound(engine, GUARD)
        node, a = cursor.node, cursor.to_slot[A]
        succ = node.learn(a, E_OCC)
        assert succ is not node
        assert succ.know == ((a, E_OCC),)
        assert node.learn(a, E_OCC) is succ  # edge hit, not a new node
        assert engine.counts()["edges"] == 1

    def test_irrelevant_base_is_a_self_loop(self):
        engine = CompiledGuardEngine()
        cursor = bound(engine, GUARD)
        node = cursor.node
        assert node.learn(C, E_OCC) is node  # no slot of the residual
        cursor.learn(C, E_OCC)  # outside the binding: one dict probe
        assert cursor.node is node
        assert len(engine) == 1

    def test_two_paths_converge_on_one_node(self):
        engine = CompiledGuardEngine()
        cursor = bound(engine, GUARD)
        a, b = cursor.to_slot[A], cursor.to_slot[B]
        ab = cursor.node.learn(a, E_OCC).learn(b, E_OCC)
        ba = cursor.node.learn(b, E_OCC).learn(a, E_OCC)
        assert ab is ba


class TestTransitions:
    def test_assimilate_matches_simplify_under(self):
        engine = CompiledGuardEngine()
        cursor = bound(engine, GUARD)
        node = cursor.node.learn(cursor.to_slot[A], E_OCC)
        nxt = node.assimilate()
        assert nxt.residual.rename(cursor.from_slot) == GUARD.simplify_under(
            {A: E_OCC}
        )
        assert node.assimilate() is nxt  # cached pointer hop

    def test_refined_uses_and_semantics(self):
        engine = CompiledGuardEngine()
        cursor = bound(engine, literal("notyet", B))
        b = cursor.to_slot[B]
        refined = cursor.node.refined(b, NOTYET_MASK)
        assert refined.know == ((b, NOTYET_MASK),)
        # already-subsumed fact: identity, no new node
        assert refined.refined(b, FULL) is refined

    def test_refined_ignores_foreign_bases(self):
        engine = CompiledGuardEngine()
        node = bound(engine, GUARD).node
        assert node.refined(C, NOTYET_MASK) is node

    def test_verdicts(self):
        engine = CompiledGuardEngine()
        assert GuardCursor(engine, TRUE_GUARD, {}).verdict() == "fire"
        assert GuardCursor(engine, FALSE_GUARD, {}).verdict() == "never"
        park = GuardCursor(engine, GUARD, {})
        assert park.verdict() == "park"
        expansions = engine.counts()["expansions"]
        assert park.verdict() == "park"  # cached read
        assert engine.counts()["expansions"] == expansions

    def test_dead_literal_reaches_never(self):
        engine = CompiledGuardEngine()
        knowledge = {}
        cursor = bound(engine, literal("box", A), knowledge)
        knowledge[A] = C_OCC
        cursor.learn(A, C_OCC)
        assert cursor.verdict() == "never"

    def test_watches_match_watch_bases(self):
        engine = CompiledGuardEngine()
        knowledge = {}
        cursor = bound(engine, GUARD, knowledge)
        assert GUARD.bases() == {A, B}
        assert [cursor.wakes_on(b) for b in (A, B, C, X)] == [
            True, True, False, False
        ]
        expansions = engine.counts()["expansions"]
        assert cursor.wakes_on(A)  # cached on the node
        assert engine.counts()["expansions"] == expansions
        copy = bound(engine, COPY)
        assert copy.node is cursor.node  # one node, each copy's names
        assert [copy.wakes_on(b) for b in (A, B, X, Y)] == [
            False, False, True, True
        ]
        # a learned fact moves the node, not the wake set: it stays
        # the residual's support until an assimilation shrinks it
        knowledge[A] = E_OCC
        cursor.learn(A, E_OCC)
        assert cursor.guard.bases() == {A, B}
        assert cursor.wakes_on(A) and not cursor.wakes_on(C)
        cursor.assimilate()
        assert [cursor.wakes_on(b) for b in (A, B)] == [False, True]


class TestCursor:
    def test_cursor_walks_learn_and_assimilate(self):
        engine = CompiledGuardEngine()
        knowledge = {}
        cursor = GuardCursor(engine, GUARD, knowledge)
        knowledge[A] = E_OCC
        cursor.learn(A, E_OCC)
        cursor.assimilate()
        assert cursor.guard == GUARD.simplify_under(knowledge)
        assert cursor.verdict() == "park"
        knowledge[B] = E_OCC
        cursor.learn(B, E_OCC)
        cursor.assimilate()
        assert cursor.guard == TRUE_GUARD
        assert cursor.verdict() == "fire"

    def test_cursor_with_prior_knowledge(self):
        """The binding is taken on first use, against the live map."""
        engine = CompiledGuardEngine()
        knowledge = {C: E_OCC}
        cursor = GuardCursor(engine, GUARD, knowledge)
        assert cursor.node is None and len(engine) == 0
        knowledge[A] = E_OCC
        assert cursor.verdict() == "park"
        assert cursor.node.know == ((cursor.to_slot[A], E_OCC),)
        assert C not in cursor.to_slot

    def test_transient_verdict_does_not_move_the_cursor(self):
        engine = CompiledGuardEngine()
        cursor = GuardCursor(engine, literal("notyet", B), {})
        assert cursor.verdict() == "park"
        node = cursor.node
        assert cursor.transient_verdict([(B, NOTYET_MASK)]) == "fire"
        assert cursor.transient_verdict([(C, NOTYET_MASK)]) == "park"
        assert cursor.node is node

    def test_reset_counts_a_recompile(self):
        engine = CompiledGuardEngine()
        cursor = GuardCursor(engine, GUARD, {})
        cursor.verdict()
        cursor.reset(literal("box", B), {})
        assert cursor.node is None  # binds afresh on next use
        assert cursor.guard == literal("box", B)
        cursor.verdict()
        assert cursor.node.residual == literal("box", cursor.to_slot[B])
        assert cursor.guard == literal("box", B)
        assert engine.counts()["recompiles"] == 1


class TestStats:
    def test_table_stats_reports_sharing_and_constants(self):
        box_a = literal("box", A)
        stats = table_stats(
            {
                A: box_a,
                B: literal("box", B),  # a renamed copy: the same shape
                C: FALSE_GUARD,  # dead event
                Event("d"): TRUE_GUARD,
            }
        )
        assert stats["guards"] == 4
        assert stats["shapes"] == 3
        assert stats["sharing_ratio"] == 0.25
        assert stats["constant_false"] == [repr(C)]
        assert stats["constant_true"] == [repr(Event("d"))]
        assert stats["cubes"] == 3
        assert stats["literals"] == 2

    def test_table_stats_empty(self):
        assert table_stats({})["sharing_ratio"] == 0.0

    def test_stamped_instances_add_no_shape(self):
        """Four stamped travel instances compile to the automata of one."""
        template = WorkflowTemplate(make_travel_booking().workflow)
        _, one = template.instantiate_merged(["_i0"])
        _, four = template.instantiate_merged([f"_i{k}" for k in range(4)])
        single, stamped = table_stats(render(one)), table_stats(render(four))
        assert stamped["guards"] == 4 * single["guards"]
        assert stamped["shapes"] == single["shapes"]
        assert stamped["sharing_ratio"] > single["sharing_ratio"]


class TestSharedEngine:
    def test_cursors_share_one_interned_engine(self):
        engine = CompiledGuardEngine()

        def walk(guard, first_base):
            knowledge = {}
            cursor = GuardCursor(engine, guard, knowledge)
            cursor.verdict()
            knowledge[first_base] = E_OCC
            cursor.learn(first_base, E_OCC)
            cursor.assimilate()
            return cursor, cursor.guard, cursor.verdict()

        first, residual, verdict = walk(GUARD, A)
        nodes_after_first = len(engine)
        reused_after_first = engine.counts()["reused"]
        second, residual2, verdict2 = walk(COPY, X)
        # the renamed copy walked entirely interned automata...
        assert len(engine) == nodes_after_first
        assert engine.counts()["reused"] > reused_after_first
        assert engine.counts()["cursors"] == 2
        # ...to the very same state, rendered on its own names
        assert second.node is first.node
        assert residual == literal("dia", B)
        assert (residual2, verdict2) == (literal("dia", Y), verdict)


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestBindingEntry:
    """Synthesis and stamping hand a cursor its binding; only a plain
    guard is bound at the entry."""

    def test_binding_enters_the_plain_guards_node(self):
        binding = workflow_bindings([parse("~x + y")])[X]  # <>y
        engine = CompiledGuardEngine()
        knowledge = {Y: E_OCC, C: C_OCC}
        via_binding = bound(engine, binding, knowledge)
        plain = bound(engine, binding.guard, knowledge)
        assert via_binding.node is plain.node
        assert via_binding.node.residual is binding.shape
        assert via_binding.to_slot is binding.to_slot
        assert via_binding.node.know == ((binding.to_slot[Y], E_OCC),)
        assert via_binding.guard == plain.guard == binding.guard

    def test_stamped_table_binds_without_a_rename(self, monkeypatch):
        template = WorkflowTemplate(make_travel_booking().workflow)
        assert template.guards  # synthesis renames once per shape
        renames = counted(monkeypatch, GuardExpr, "rename")
        slot_guards = counted(monkeypatch, compiled, "_slot_guard")
        merged, guards = template.instantiate_merged(
            [f"_i{k}" for k in range(6)]
        )
        sched = DistributedScheduler(
            merged.dependencies,
            sites=merged.sites,
            attributes=merged.attributes,
            guards=guards,
        )
        for role in sched.roles():
            role.cursor.verdict()
        assert len(sched.roles()) == 6 * len(template.guards)
        assert all(role.cursor.node is not None for role in sched.roles())
        assert sched.network.stats.messages == 0  # before any delivery
        assert renames == [] and slot_guards == []

    def test_synthesized_table_binds_without_a_rename(self, monkeypatch):
        workflow = make_travel_booking(suffix="_i0").workflow
        DistributedScheduler(workflow.dependencies)  # every shape synthesized
        renames = counted(monkeypatch, GuardExpr, "rename")
        sched = DistributedScheduler(workflow.dependencies)
        for role in sched.roles():
            role.cursor.verdict()
        assert renames == []

    def test_plain_table_binds_once_per_actor(self, monkeypatch):
        slot_guards = counted(monkeypatch, compiled, "_slot_guard")
        table = {A: GUARD, X: COPY, B: TRUE_GUARD, Y: literal("box", C)}
        sched = DistributedScheduler([], guards=table)
        assert slot_guards == []  # binding waits for first use
        for role in sched.roles():
            role.cursor.verdict()
            role.cursor.verdict()
        assert [guard for (guard,) in slot_guards] == list(table.values())


class TestNoRealNameGuardDuringARun:
    """Every guard question a role asks during a run -- verdict, first
    plan, grant, escalation -- is answered on its node: an untraced run
    renders no residual to the real names."""

    @staticmethod
    def _reads(monkeypatch, deps, scripts, **placement):
        reads = []
        rendered = GuardCursor.guard

        def counting(cursor):
            reads.append(cursor)
            return rendered.fget(cursor)

        monkeypatch.setattr(GuardCursor, "guard", property(counting))
        result = DistributedScheduler(deps, **placement).run(scripts)
        assert result.ok and not result.unsettled
        return reads

    def test_travel_reads_no_real_name_guard(self, monkeypatch):
        scenario = make_travel_booking("success")
        workflow = scenario.workflow
        assert self._reads(
            monkeypatch, workflow.dependencies, scenario.scripts,
            sites=workflow.sites, attributes=workflow.attributes,
        ) == []

    def test_coupled_mutex_reads_no_real_name_guard(self, monkeypatch):
        workflow, scripts = make_mutex_family(2, cluster=2).merged()
        assert self._reads(
            monkeypatch, workflow.dependencies, scripts,
            sites=workflow.sites, attributes=workflow.attributes,
        ) == []

    def test_example_11_reads_no_real_name_guard(self, monkeypatch):
        """Example 11's promises are granted off the refined node."""
        e, f = Event("e"), Event("f")
        scripts = [
            AgentScript("se", [ScriptedAttempt(0.0, e)]),
            AgentScript("sf", [ScriptedAttempt(0.0, f)]),
        ]
        assert self._reads(
            monkeypatch, [parse("~e + f"), parse("~f + e")], scripts
        ) == []
