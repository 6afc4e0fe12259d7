"""Unit tests for the compiled guard automata
(:mod:`repro.temporal.compiled`).

The scheduler-level equivalence lives in
``tests/properties/test_compiled_equivalence.py``; here we pin the
node/edge mechanics: interning, the learn/refine/assimilate
transitions, lazy caching, counter accounting, and the compile-time
table statistics.
"""

from repro.algebra.symbols import Event
from repro.temporal.compiled import (
    CompiledGuardEngine,
    _restrict,
    _set_know,
    clear_compiled,
    compiled_stats,
    table_stats,
)
from repro.temporal.cubes import (
    C_OCC,
    E_OCC,
    FALSE_GUARD,
    FULL,
    NOTYET_MASK,
    TRUE_GUARD,
    literal,
)
from repro.temporal.watch import watch_bases

A, B, C = Event("a"), Event("b"), Event("c")

GUARD = literal("box", A) & literal("dia", B)


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
        engine = CompiledGuardEngine()
        assert engine.root(GUARD) is engine.root(GUARD)
        assert len(engine) == 1
        assert engine.counts()["reused"] == 1

    def test_learn_edge_is_installed_once(self):
        engine = CompiledGuardEngine()
        node = engine.root(GUARD)
        succ = node.learn(A, E_OCC)
        assert succ is not node
        assert succ.know == ((A, E_OCC),)
        assert node.learn(A, E_OCC) is succ  # edge hit, not a new node
        assert engine.counts()["edges"] == 1

    def test_irrelevant_base_is_a_self_loop(self):
        engine = CompiledGuardEngine()
        node = engine.root(GUARD)
        assert node.learn(C, E_OCC) is node
        assert len(engine) == 1

    def test_two_paths_converge_on_one_node(self):
        engine = CompiledGuardEngine()
        root = engine.root(GUARD)
        ab = root.learn(A, E_OCC).learn(B, E_OCC)
        ba = root.learn(B, E_OCC).learn(A, E_OCC)
        assert ab is ba


class TestTransitions:
    def test_assimilate_matches_simplify_under(self):
        engine = CompiledGuardEngine()
        node = engine.root(GUARD).learn(A, E_OCC)
        nxt = node.assimilate()
        assert nxt.residual == GUARD.simplify_under({A: E_OCC})
        assert node.assimilate() is nxt  # cached pointer hop

    def test_refined_uses_and_semantics(self):
        engine = CompiledGuardEngine()
        node = engine.root(literal("notyet", B))
        refined = node.refined(B, NOTYET_MASK)
        assert refined.know == ((B, NOTYET_MASK),)
        # already-subsumed fact: identity, no new node
        assert refined.refined(B, FULL) is refined

    def test_refined_ignores_foreign_bases(self):
        engine = CompiledGuardEngine()
        node = engine.root(GUARD)
        assert node.refined(C, NOTYET_MASK) is node

    def test_verdicts(self):
        engine = CompiledGuardEngine()
        assert engine.root(TRUE_GUARD).verdict() == "fire"
        assert engine.root(FALSE_GUARD).verdict() == "never"
        park = engine.root(GUARD)
        assert park.verdict() == "park"
        assert park.verdict() == "park"  # cached read

    def test_dead_literal_reaches_never(self):
        engine = CompiledGuardEngine()
        node = engine.root(literal("box", A)).learn(A, C_OCC)
        assert node.verdict() == "never"

    def test_watches_match_watch_bases(self):
        engine = CompiledGuardEngine()
        node = engine.root(GUARD)
        assert node.watches() == watch_bases(GUARD, {})
        assert node.watches() == watch_bases(GUARD, {})  # cached (ALL-safe)
        stale = node.learn(A, E_OCC)
        assert stale.watches() is watch_bases(GUARD, {A: E_OCC})  # ALL


class TestCursor:
    def test_cursor_walks_learn_and_assimilate(self):
        engine = CompiledGuardEngine()
        cursor = engine.cursor(GUARD)
        cursor.learn(A, E_OCC)
        residual = cursor.assimilate()
        assert residual == GUARD.simplify_under({A: E_OCC})
        assert cursor.verdict() == "park"
        cursor.learn(B, E_OCC)
        assert cursor.assimilate() == TRUE_GUARD
        assert cursor.verdict() == "fire"

    def test_cursor_with_prior_knowledge(self):
        engine = CompiledGuardEngine()
        cursor = engine.cursor(GUARD, {A: E_OCC, C: E_OCC})
        assert cursor.node.know == ((A, E_OCC),)

    def test_transient_verdict_does_not_move_the_cursor(self):
        engine = CompiledGuardEngine()
        cursor = engine.cursor(literal("notyet", B))
        node = cursor.node
        assert cursor.verdict() == "park"
        assert cursor.transient_verdict([(B, NOTYET_MASK)]) == "fire"
        assert cursor.node is node

    def test_reset_counts_a_recompile(self):
        engine = CompiledGuardEngine()
        cursor = engine.cursor(GUARD)
        cursor.reset(literal("box", A), {})
        assert cursor.node.residual == literal("box", A)
        assert engine.counts()["recompiles"] == 1


class TestStats:
    def test_process_wide_counters_mirror_engine(self):
        clear_compiled()
        try:
            engine = CompiledGuardEngine()
            cursor = engine.cursor(GUARD)
            cursor.learn(A, E_OCC)
            cursor.assimilate()
            cursor.verdict()
            stats = compiled_stats()
            counts = engine.counts()
            assert stats["cursors"] == counts["cursors"] == 1
            assert stats["edges"] == counts["edges"] == 1
            assert stats["expansions"] == counts["expansions"]
            assert stats["nodes"] >= counts["nodes"]
        finally:
            clear_compiled()

    def test_table_stats_reports_sharing_and_constants(self):
        box_a = literal("box", A)
        stats = table_stats(
            {
                A: box_a,
                B: box_a,  # shared automaton
                C: FALSE_GUARD,  # dead event
                Event("d"): TRUE_GUARD,
            }
        )
        assert stats["guards"] == 4
        assert stats["roots"] == 3
        assert stats["sharing_ratio"] == 0.25
        assert stats["constant_false"] == [repr(C)]
        assert stats["constant_true"] == [repr(Event("d"))]
        assert stats["cubes"] == 3  # box_a twice dedups per-guard, not here
        assert stats["literals"] == 2

    def test_table_stats_empty(self):
        assert table_stats({})["sharing_ratio"] == 0.0


class TestSharedEngine:
    def test_cursors_share_one_interned_engine(self):
        engine = CompiledGuardEngine()

        def walk():
            cursor = engine.cursor(GUARD)
            cursor.learn(A, E_OCC)
            residual = cursor.assimilate()
            return cursor, residual, cursor.verdict()

        first, residual, verdict = walk()
        nodes_after_first = len(engine)
        reused_after_first = engine.counts()["reused"]
        second, residual2, verdict2 = walk()
        # the second cursor walked entirely interned automata...
        assert len(engine) == nodes_after_first
        assert engine.counts()["reused"] > reused_after_first
        assert engine.counts()["cursors"] == 2
        # ...to the very same state
        assert second.node is first.node
        assert (residual2, verdict2) == (residual, verdict)

